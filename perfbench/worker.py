"""Run one benchmark workload in this (fresh) process and print its result
as one JSON line.  Started by run.py; see README.md for the workloads and
metrics.

    python3 perfbench/worker.py --workload below-threshold --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload sweeps --setup-only

Every workload is a closed loop with one client: the next form or sweep
starts when the previous one returns.  A run repeats whole passes over
its inputs until --seconds have passed, so every pass holds the same
work and shares such as inconclusive_share repeat exactly.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: import plus warm-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import padic_forms  # noqa: E402
from padic_forms import (  # noqa: E402
    PadicFormsError,
    certificate_to_json,
    isotropy_threshold,
    multiplier_set,
    normalize,
    power_value_set,
    reduce_levels,
    sampled_lemma_ids,
    sweep_lemma,
    validate_certificate,
    verify_witness,
)
from padic_forms.engine import certificate_from_json  # noqa: E402

import corpus  # noqa: E402
import spans  # noqa: E402

_perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SEED = 42
BELOW_PER_COUNT = {6: 10, 10: 6}  # forms per variable count, per degree
SWEEP_TRIALS = 100_000
# frozen profile counts of the exhaustive sweeps in the pass
EXHAUSTIVE_TOTALS = {"025": 2_108_544, "115": 3_969_024}
ORACLE_MS = range(3, 11)
ROUTES = ("pair", "chain", "split", "closure", "search")

# public warm-up calls each workload's users pay before the first result
WARMUP = {
    "below-threshold": {
        "multiplier": ((6, 10), (10, 14)),
        "pvs": tuple((6, M) for M in range(3, 9)) + tuple((10, M) for M in range(3, 11)),
    },
    "sweeps": {"multiplier": ((6, 3), (10, 3)), "pvs": ()},
}
WARMUP_SWEEPS = ("0061", "5")  # one tiny sweep per degree builds its tables


def setup(workload: str, rec: spans.Recorder) -> float:
    """Warm every cache the workload reads, through public calls only;
    return seconds since the process started importing the library."""
    rec.op = "setup"
    plan = WARMUP[workload]
    for d, K in plan["multiplier"]:
        rec.call("ring.multiplier_set", multiplier_set, d, K)
    for d, M in plan["pvs"]:
        rec.call("oracle.power_value_set", power_value_set, d, M)
    if workload == "sweeps":
        for lid in WARMUP_SWEEPS:
            rec.call("sweeps.warmup", sweep_lemma, lid, mode="SAMPLED", trials=16, seed=0)
    return _perf() - _T0


class Tally:
    """Outcomes and timings of the operations of a run.  Timings are kept
    per operation of a pass (form or sweep call), one sample per pass.
    On a shared host the same pass takes from 1x to 1.8x its fastest time,
    in stretches of a second to half a minute, so each operation is costed
    at its fastest sample, the one least disturbed; a pass costs the sum."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.inconclusive = 0
        self.op_s: dict[int, list[float]] = {}
        self.units: dict[int, int] = {}  # forms (1) or profiles per operation
        self.recheck_s: dict[int, list[float]] = {}
        self.certificates: dict[int, int] = {}
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def per_pass(self, samples: dict) -> float:
        return sum(min(v) for v in samples.values())

    def ops_per_s(self) -> float:
        return sum(self.units.values()) / self.per_pass(self.op_s)


# ---------------------------------------------------------------------------
# solve workloads


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def solve_inputs(seed: int, reference: dict):
    """(forms, reference verdicts by form key).  The forms are the default
    seed's, in an order drawn from the seed; see corpus.py for why."""
    forms = corpus.below_corpus(reference["seed"], BELOW_PER_COUNT)
    random.Random(seed).shuffle(forms)
    return forms, reference["verdicts"]["below-threshold"]


def recheck(i: int, f, res, tally: Tally, rec) -> bool:
    """Re-check every certificate of one result on its own; returns False
    on a failed check.  Serialisation to JSON happens outside the timer."""
    def call(name, fn, *args):
        return rec.call(name, fn, *args) if rec else fn(*args)

    ok = True
    certificates = 0
    doc = json.dumps(certificate_to_json(res.contraction)) if res.contraction else None
    t0 = _perf()
    idx = rec.open("recheck") if rec else None
    try:
        if res.witness is not None:
            ok &= call("witness.verify", verify_witness, f, res.witness)
            certificates += 1
        if doc is not None:
            cert = call("engine.certificate_from_json", certificate_from_json, json.loads(doc))
            g = normalize(reduce_levels(f))[0]
            ok &= call("engine.validate", validate_certificate, g, cert)
            certificates += 1
    finally:
        if rec:
            rec.close(idx)
    if certificates:
        tally.recheck_s.setdefault(i, []).append(_perf() - t0)
        tally.certificates[i] = certificates
    if doc is not None and json.dumps(certificate_to_json(cert)) != doc:
        ok = False
    return ok


def solve_pass(forms, table, tally: Tally, rec, op_base: int) -> None:
    for i, f in enumerate(forms):
        tally.attempted += 1
        if rec:
            rec.op = op_base + i
        try:
            idx = rec.open("solver.decide_isotropy") if rec else None
            t0 = _perf()
            try:
                res = padic_forms.decide_isotropy(f)
            finally:
                t1 = _perf()
                if rec:
                    rec.close(idx)
            tally.op_s.setdefault(i, []).append(t1 - t0)
            tally.units[i] = 1
            if not recheck(i, f, res, tally, rec):
                tally.fail(f"form {i}: certificate re-check failed")
                continue
        except PadicFormsError as exc:
            tally.fail(f"form {i}: {type(exc).__name__}: {exc}")
            continue
        verdict = res.verdict
        if verdict == "INCONCLUSIVE":
            tally.inconclusive += 1
        if f.s >= isotropy_threshold(f.d) and verdict != "ISOTROPIC":
            tally.fail(f"form {i}: {verdict} at the isotropy threshold")
            continue
        want = table.get(corpus.form_key(f))
        if want is None:
            tally.fail(f"form {i}: missing from the reference table")
        elif want != "INCONCLUSIVE" and verdict != want:
            tally.fail(f"form {i}: {verdict}, reference says {want}")


def solve_metrics(tally: Tally) -> dict:
    lat = [min(v) for v in tally.op_s.values()]
    return {
        "forms_per_s": tally.ops_per_s(),
        "solve_p50_ms": 1000 * statistics.median(lat),
        "solve_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "recheck_per_s": sum(tally.certificates.values()) / tally.per_pass(tally.recheck_s),
        "inconclusive_share": tally.inconclusive / max(tally.attempted, 1),
        "forms": len(lat),
    }


# ---------------------------------------------------------------------------
# sweeps workload


def sweep_plan() -> list:
    plan = [(lid, "SAMPLED") for lid in sampled_lemma_ids()]
    return plan + [(lid, "EXHAUSTIVE") for lid in EXHAUSTIVE_TOTALS]


def sweeps_pass(seed: int, tally: Tally, rec, op_base: int) -> None:
    for i, (lid, mode) in enumerate(sweep_plan()):
        tally.attempted += 1
        if rec:
            rec.op = op_base + i
        try:
            idx = rec.open(f"sweeps.sweep.{lid}") if rec else None
            t0 = _perf()
            try:
                rep = sweep_lemma(lid, mode=mode, trials=SWEEP_TRIALS, seed=seed % 2**32)
            finally:
                t1 = _perf()
                if rec:
                    rec.close(idx)
        except PadicFormsError as exc:
            tally.fail(f"sweep {lid}: {type(exc).__name__}: {exc}")
            continue
        want = EXHAUSTIVE_TOTALS.get(lid, SWEEP_TRIALS)
        settled = sum(rep.resolution.values()) + sum(rep.escalations.values())
        if rep.total != want or rep.failures or settled != rep.total:
            tally.fail(f"sweep {lid}: total {rep.total} (want {want}), "
                       f"{len(rep.failures)} failures, {settled} settled")
            continue
        if mode == "SAMPLED" and rep.trials != SWEEP_TRIALS:
            tally.fail(f"sweep {lid}: {rep.trials} trials")
            continue
        tally.op_s.setdefault(i, []).append(t1 - t0)
        tally.units[i] = rep.total
        if rec:
            rec.spans[idx][5] = {"resolution": rep.resolution,
                                 "escalations": sum(rep.escalations.values())}


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(rec: spans.Recorder, passes: int) -> dict:
    """Per-layer numbers per pass from the traced passes, and set-up
    numbers from this process's own warm-up."""
    out: dict = {}
    setup_spans = [s for s in rec.spans if s[4] == "setup"]
    run_spans = [s for s in rec.spans if s[4] != "setup"]

    def setup_time(name):
        return sum((s[2] - s[1] for s in setup_spans if s[0] == name), 0.0)

    def run_time(name):
        return sum(s[2] - s[1] for s in run_spans if s[0] == name) / passes

    out["forms.normalize_s"] = run_time("forms.normalize") + run_time("forms.reduce_levels")
    status = {"FOUND": "found", "NOT_FOUND": "not_found", "BUDGET": "budget"}
    search = [s for s in run_spans if s[0] == "engine.search"]
    for st, key in status.items():
        hits = [s for s in search if s[5]["status"] == st]
        out[f"engine.search_s.{key}"] = sum(s[2] - s[1] for s in hits) / passes
        out[f"engine.search_calls.{key}"] = len(hits) / passes
    out["engine.nodes_expanded"] = sum(s[5]["nodes"] for s in search) / passes
    found = out["engine.search_calls.found"]
    out["engine.found_share"] = found * passes / len(search) if search else 0.0
    out["engine.validate_s"] = run_time("engine.validate")
    out["witness.verify_s"] = run_time("witness.verify")
    out["solver.lift_s"] = run_time("solver.lift")
    out["witness.solve_anchor_s"] = run_time("witness.solve_anchor")
    out["ring.dth_root_s"] = run_time("ring.dth_root")
    out["ring.dth_root_calls"] = sum(1 for s in run_spans if s[0] == "ring.dth_root") / passes
    own = rec.self_times()
    out["solver.decide_self_s"] = sum(
        t for s, t in zip(rec.spans, own) if s[0] == "solver.decide_isotropy") / passes
    oracle_spans = [s for s in run_spans if s[0] == "oracle.decide"]
    for M in ORACLE_MS:
        at = [s for s in oracle_spans if s[5]["M"] == M]
        out[f"oracle.decide_s.M{M}"] = sum(s[2] - s[1] for s in at) / passes
        out[f"oracle.calls.M{M}"] = len(at) / passes
    out["oracle.states_visited"] = sum(s[5]["states"] for s in oracle_spans) / passes
    out["ring.multiplier_set_s"] = setup_time("ring.multiplier_set")
    out["oracle.power_value_set_s"] = setup_time("oracle.power_value_set")
    out["sweeps.warmup_s"] = setup_time("sweeps.warmup")
    lemmas = sampled_lemma_ids() + list(EXHAUSTIVE_TOTALS)
    for lid in lemmas:
        out[f"sweeps.sweep_s.{lid}"] = run_time(f"sweeps.sweep.{lid}")
    sweep_notes = [s[5] for s in run_spans if s[0].startswith("sweeps.sweep.") and s[5]]
    for route in ROUTES:
        out[f"sweeps.resolved.{route}"] = sum(n["resolution"][route] for n in sweep_notes) / passes
    out["sweeps.escalations"] = sum(n["escalations"] for n in sweep_notes) / passes
    return out


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    boot = spans.Recorder()
    setup_s = setup(workload, boot)
    tally = Tally()
    if workload == "sweeps":
        def one_pass(rec, base):
            sweeps_pass(seed, tally, rec, base)

        ops_per_pass = len(sweep_plan())
    else:
        forms, table = solve_inputs(seed, load_reference())

        def one_pass(rec, base):
            solve_pass(forms, table, tally, rec, base)

        ops_per_pass = len(forms)

    def timed_pass(rec, p):
        t = _perf()
        one_pass(rec, p * ops_per_pass)
        return _perf() - t

    # untraced passes; with tracing on they fill half the time and the
    # same number of traced passes follows
    budget = seconds / 2 if trace else seconds
    plain_walls = []
    while sum(plain_walls) < budget:
        plain_walls.append(timed_pass(None, len(plain_walls)))
    passes = len(plain_walls)

    if trace:
        rec = boot
        spans.install(rec)
        traced_walls = [timed_pass(rec, passes + p) for p in range(passes)]
        metrics = layer_metrics(rec, passes)
        # fastest pass against fastest pass, for the reason given in Tally
        metrics["trace.overhead_share"] = min(traced_walls) / min(plain_walls) - 1
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, f"spans-{workload}-seed{seed}.json"))
    else:
        metrics = {"setup_s": setup_s}
        if workload == "sweeps":
            metrics["ops_per_s"] = metrics["profiles_per_s"] = tally.ops_per_s()
        else:
            metrics.update(solve_metrics(tally))
            metrics["ops_per_s"] = metrics["forms_per_s"]
        metrics["error_share"] = tally.failed / max(tally.attempted, 1)
        metrics["passes"] = passes
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WARMUP))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        out = {"setup_s": setup(args.workload, spans.Recorder())}
    else:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
