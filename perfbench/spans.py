"""In-memory span recording around the library's public names.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or -1, `op` identifies the form or sweep the span belongs
to.  Spans stay in memory and are written out once, when the benchmark
ends.  The wrappers are installed only when the benchmark is started with
tracing on, so the end-to-end numbers are always measured without them;
untraced runs record only the few warm-up calls of set-up.
"""

from __future__ import annotations

import json
import time
from functools import wraps

from padic_forms import engine, forms, oracle, ring, solver

_perf = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, note]
        self.stack: list[int] = []
        self.op: object = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _perf(), None, parent, self.op, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _perf()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its children.
        Children of one span run one after another, so their durations
        add up without overlap."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "op", "note"],
                       "spans": rows}, fh)


def _search_note(args, kwargs, out):
    return {"status": out.status, "nodes": out.nodes_expanded}


def _oracle_note(args, kwargs, out):
    f = args[0] if args else kwargs["f"]
    return {"M": _reduce_levels(f).max_level() + 3, "states": out.states_visited}


_reduce_levels = forms.reduce_levels

# (module, attribute looked up there, span name, function making the span note)
WRAPPED = (
    (solver, "reduce_levels", "forms.reduce_levels", None),
    (solver, "normalize", "forms.normalize", None),
    (solver, "search_certificate", "engine.search", _search_note),
    (solver, "validate_certificate", "engine.validate", None),
    (solver, "lift_witness", "solver.lift", None),
    (solver, "decide_isotropy_exhaustive", "oracle.decide", _oracle_note),
    (solver, "verify_witness", "witness.verify", None),
    (solver, "solve_anchor", "witness.solve_anchor", None),
    (oracle, "verify_witness", "witness.verify", None),
    (oracle, "solve_anchor", "witness.solve_anchor", None),
    (oracle, "power_value_set", "oracle.power_value_set", None),
    (oracle, "dth_root", "ring.dth_root", None),
    (engine, "dth_root", "ring.dth_root", None),
    (engine, "multiplier_set", "ring.multiplier_set", None),
    (ring, "dth_root", "ring.dth_root", None),
)


def install(rec: Recorder) -> None:
    """Replace each name in WRAPPED by a wrapper that records a span.
    Hot inner arithmetic (mul_pair, pow_pair, RingElem methods) is left
    alone: a span per call would cost more than the call."""
    for module, attr, name, note in WRAPPED:
        fn = getattr(module, attr)

        def traced(*args, _fn=fn, _name=name, _note=note, **kwargs):
            idx = rec.open(_name)
            try:
                out = _fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if _note is not None:
                rec.spans[idx][5] = _note(args, kwargs, out)
            return out

        setattr(module, attr, wraps(fn)(traced))
