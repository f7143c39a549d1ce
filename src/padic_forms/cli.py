"""Command line front end.

Subcommands:
  solve FORM            decide isotropy, print verdict JSON
  oracle FORM           complete decision by modular exhaustion
  witness verify F W    re-check a witness file against a form file
  certificate verify F C
                        re-check a contraction certificate against a form
                        file; C is the certificate or `solve`'s output
  lemma verify ID       run one contraction-lemma sweep
  lemma probe ID        ask whether one fewer variable would still work
  reproduce             run the full verification battery as a table
  gamma DEGREE VARS     sample random forms and tally verdicts

Form files are JSON ({"degree", "precision", "coeffs": [[a, b], ...]}) or
the plain syntax `d=6; K=10; 1, 1, w, 2+3w` where w is the quadratic
generator.  `-` reads stdin.

Exit codes: 0 isotropic (or: check passed), 1 anisotropic (or: check
failed), 64 unreadable input or bad usage, 65 precision too low for the
requested analysis, 70 internal error or a request too large for memory.

Output JSON is deterministic byte for byte; timing fields are only added
under --verbose.
"""

from __future__ import annotations

import argparse
import json
import sys

from .artifacts import (
    agreement_experiment,
    gamma_experiment,
    named_form,
    verify_descent,
)
from .engine import certificate_from_json, validate_certificate
from .errors import (
    CertificateError,
    DegreeShapeError,
    OracleBudgetError,
    PadicFormsError,
    PrecisionMismatch,
)
from .forms import AdditiveForm, parse_form_text, reduce_levels
from .oracle import MAX_ORACLE_M, decide_isotropy_exhaustive, primitive_zero_mod
from .solver import decide_isotropy, isotropy_threshold
from .sweeps import (
    SWEEP_LEMMAS,
    exhaustive_lemma_ids,
    minimality_probe,
    sampled_lemma_ids,
    sweep_lemma,
)
from .witness import Witness, verify_witness

EX_OK = 0
EX_ANISOTROPIC = 1
EX_FAIL = 1
EX_PARSE = 64
EX_PRECISION = 65
EX_INTERNAL = 70

# fixed battery parameters; changing any of these changes the published
# numbers, so they live here rather than in flag defaults
GAMMA_TRIALS = 1000
AGREEMENT_FORMS = 500
BATTERY_SEED = 42
SWEEP_SAMPLES = 100_000
SWEEP_SEED = 42

# the first descent window of family I, the same at every degree 3 | d
I_FIRST_WINDOW = tuple(sorted((p, 2 * q) for p in range(4) for q in range(2)))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code clashes with ours
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_PARSE)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def load_form(path: str, precision: int | None = None) -> AdditiveForm:
    text = _read(path)
    try:
        doc = json.loads(text) if text.lstrip().startswith("{") else parse_form_text(text)
        if precision is not None:
            doc = dict(doc, precision=precision)
        return AdditiveForm.from_json(doc)
    except (PrecisionMismatch, DegreeShapeError):
        raise
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot parse form file {path!r}: {exc}") from exc


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    f = load_form(args.form, args.precision)
    res = decide_isotropy(f)
    _emit(res.to_json(include_timings=args.verbose), args.out)
    return EX_OK if res.verdict == "ISOTROPIC" else EX_ANISOTROPIC


def cmd_oracle(args) -> int:
    f = load_form(args.form)
    if args.precision is not None:
        g = reduce_levels(f)
        zs = primitive_zero_mod(g, args.precision)
        doc = {
            "kind": "zeroSearch",
            "modulus": zs.M,
            "found": zs.found,
            "statesVisited": zs.states_visited,
        }
        if zs.found:
            doc["assignment"] = [[x.a, x.b] for x in zs.assignment]
            doc["anchor"] = zs.anchor
        _emit(doc, args.out)
        return EX_OK if zs.found else EX_ANISOTROPIC
    dec = decide_isotropy_exhaustive(f)
    doc = {"verdict": dec.verdict, "statesVisited": dec.states_visited}
    if dec.witness is not None:
        doc["witness"] = dec.witness.to_json()
    if dec.certificate is not None:
        doc["certificate"] = dec.certificate.to_json()
    _emit(doc, args.out)
    return EX_OK if dec.verdict == "ISOTROPIC" else EX_ANISOTROPIC


def cmd_witness(args) -> int:
    f = load_form(args.form)
    try:
        w = Witness.from_json(json.loads(_read(args.witness)))
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot parse witness file {args.witness!r}: {exc}") from exc
    ok = verify_witness(f, w)
    _emit({"valid": ok, "targetValuation": w.V, "primitive": w.primitive}, args.out)
    return EX_OK if ok else EX_FAIL


def cmd_certificate(args) -> int:
    f = load_form(args.form)
    try:
        doc = json.loads(_read(args.certificate))
        if isinstance(doc, dict) and "contraction" in doc:  # `solve`'s output
            doc = doc["contraction"]
        cert = certificate_from_json(doc)
    except (CertificateError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot parse certificate file {args.certificate!r}: {exc}") from exc
    ok = validate_certificate(f, cert)
    _emit({"valid": ok, "anchor": cert.anchor_leaf, "anchorLevel": cert.anchor_level}, args.out)
    return EX_OK if ok else EX_FAIL


def cmd_lemma(args) -> int:
    if args.id not in SWEEP_LEMMAS:
        known = ", ".join(sorted(SWEEP_LEMMAS))
        print(f"unknown lemma {args.id!r}; known: {known}", file=sys.stderr)
        return EX_PARSE
    if args.action == "probe":
        rep = minimality_probe(args.id)
        _emit(rep.to_json(include_timings=args.verbose), args.out)
        return EX_OK
    report = sweep_lemma(args.id, trials=args.trials, seed=args.seed)
    _emit(report.to_json(include_timings=args.verbose), args.out)
    return EX_OK if not report.failures else EX_FAIL


def cmd_gamma(args) -> int:
    rep = gamma_experiment(args.d, args.s, args.trials, args.seed)
    doc = rep.to_json()
    if args.verbose:
        doc["elapsed"] = round(rep.elapsed, 3)
    _emit(doc, args.out)
    return EX_OK if not rep.refuting_examples else EX_FAIL


# ---------------------------------------------------------------------------
# reproduce battery


def _check_descent(name: str, d: int):
    """Descent on a named family, one round per block."""
    bf = named_form(name, d)
    res = verify_descent(bf)
    ok = res.status == "DESCENT" and len(res.certificate.rounds) == len(bf.blocks)
    detail = f"{name}(d={d}): {res.status}"
    if res.status == "DESCENT":
        nr = len(res.certificate.rounds)
        detail += f", {nr} round" + ("s" if nr != 1 else "")
        if name == "I":
            first = res.certificate.rounds[0].window_values
            ok = ok and first == I_FIRST_WINDOW
            detail += ", first window frozen set" if ok else ", WRONG first window"
    return ok, detail


def _battery(d: int, trials_cap: int | None):
    """Ordered (name, thunk) pairs; each thunk returns (ok, detail).  The
    rows follow from d, which `named_form` checks here, before any runs."""
    H = named_form("H", d)

    def scaled(n):
        return n if trials_cap is None else min(n, trials_cap)

    items = []

    def add(name, fn):
        items.append((name, fn))

    def g_obstruction():
        # every level of G is 0, so 0 is the level a lifted unit may have
        zs = primitive_zero_mod(named_form("G", d).form(), 2, max_unit_level=0)
        return not zs.found, f"G(d={d}) mod 4: found={zs.found}"

    add("obstruction-G", g_obstruction)
    add("descent-H", lambda: _check_descent("H", d))
    if d % 3 == 0:
        add("descent-F", lambda: _check_descent("F", d))
        add("descent-I", lambda: _check_descent("I", d))
    if H.max_level() + 3 <= MAX_ORACLE_M:

        def h_oracle():
            dec = decide_isotropy_exhaustive(H.form())
            return dec.verdict == "ANISOTROPIC", f"H(d={d}) exhaustive: {dec.verdict}"

        add("oracle-H", h_oracle)

    s = isotropy_threshold(d)

    def threshold():
        rep = gamma_experiment(d, s, scaled(GAMMA_TRIALS), BATTERY_SEED)
        ok = rep.isotropic == rep.trials
        return ok, f"{rep.trials} samples at s={s}: {rep.isotropic} isotropic"

    add(f"threshold-s{s}", threshold)

    for lid in exhaustive_lemma_ids():
        if SWEEP_LEMMAS[lid].d != d:
            continue

        def sweep_ex(lid=lid):
            rep = sweep_lemma(lid, mode="EXHAUSTIVE")
            ok = not rep.failures
            return ok, f"{rep.total} configurations, {len(rep.failures)} failures"

        add(f"sweep-{lid}", sweep_ex)

    for lid in sampled_lemma_ids():
        if SWEEP_LEMMAS[lid].d != d:
            continue

        def sweep_s(lid=lid):
            rep = sweep_lemma(
                lid, mode="SAMPLED", trials=scaled(SWEEP_SAMPLES), seed=SWEEP_SEED
            )
            ok = not rep.failures
            return ok, f"{rep.total} samples, {len(rep.failures)} failures"

        add(f"sweep-{lid}", sweep_s)

    def agreement():
        rep = agreement_experiment(d, scaled(AGREEMENT_FORMS), BATTERY_SEED)
        return not rep.mismatches, (
            f"{rep.trials} forms: {rep.isotropic} isotropic, "
            f"{rep.anisotropic} anisotropic, {len(rep.mismatches)} mismatches"
        )

    add("agreement", agreement)
    return items


def run_battery(degrees, trials_cap=None):
    """Run every battery item in order, print one PASS/FAIL row each to
    stdout, return ok.  Every degree's rows are built before the first
    runs, so a bad degree prints nothing."""
    if trials_cap is not None and trials_cap < 1:
        raise ValueError(f"trials_cap must be at least 1, got {trials_cap}")
    work = [(d, name, fn) for d in degrees for name, fn in _battery(d, trials_cap)]
    all_ok = True
    for d, name, fn in work:
        try:
            ok, detail = fn()
        except PadicFormsError as exc:
            ok, detail = False, f"error: {exc}"
        all_ok &= ok
        tag = "PASS" if ok else "FAIL"
        print(f"{tag}  d={d:<3} {name:<16} {detail}")
    return all_ok


def cmd_reproduce(args) -> int:
    degrees = [6, 10] if args.d is None else [args.d]
    ok = run_battery(degrees, trials_cap=args.trials)
    return EX_OK if ok else EX_FAIL


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="padic-forms", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write result JSON here instead of stdout")
        sp.add_argument(
            "-v", "--verbose", action="store_true", help="include timing fields"
        )

    sp = sub.add_parser("solve", help="decide isotropy of a form file")
    sp.add_argument("form", help="form file, or - for stdin")
    sp.add_argument("--precision", type=int, help="override working precision K")
    common(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("oracle", help="complete decision by exhaustion")
    sp.add_argument("form")
    sp.add_argument(
        "--precision",
        type=int,
        help="only search for a primitive zero at this modulus exponent",
    )
    common(sp)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("witness", help="witness file operations")
    sp.add_argument("action", choices=["verify"])
    sp.add_argument("form")
    sp.add_argument("witness")
    common(sp)
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("certificate", help="contraction certificate operations")
    sp.add_argument("action", choices=["verify"])
    sp.add_argument("form")
    sp.add_argument("certificate", help="a contraction document, or solve's output")
    common(sp)
    sp.set_defaults(fn=cmd_certificate)

    sp = sub.add_parser("lemma", help="verify one contraction lemma by sweep")
    sp.add_argument(
        "action",
        choices=["verify", "probe"],
        help="verify: run the sweep; probe: exhaust decremented counts",
    )
    sp.add_argument("id", help="lemma identifier, e.g. 007 or 541")
    sp.add_argument("--trials", type=int, default=SWEEP_SAMPLES)
    sp.add_argument("--seed", type=int, default=SWEEP_SEED)
    common(sp)
    sp.set_defaults(fn=cmd_lemma)

    sp = sub.add_parser("reproduce", help="run the verification battery")
    sp.add_argument("--d", type=int, help="restrict to one degree d = 2m, m odd, d >= 6")
    sp.add_argument(
        "--trials",
        type=int,
        help="cap sampling sizes for a quick pass (default: full scale)",
    )
    sp.set_defaults(fn=cmd_reproduce)

    sp = sub.add_parser("gamma", help="random-form verdict statistics")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=42)
    common(sp)
    sp.set_defaults(fn=cmd_gamma)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MemoryError:
        print(f"padic-forms: not enough memory for: {' '.join(argv)}", file=sys.stderr)
        return EX_INTERNAL
    except FileNotFoundError as exc:
        print(f"padic-forms: {exc}", file=sys.stderr)
        return EX_PARSE
    except (ValueError, DegreeShapeError) as exc:
        print(f"padic-forms: {exc}", file=sys.stderr)
        return EX_PARSE
    except (PrecisionMismatch, OracleBudgetError) as exc:
        print(f"padic-forms: {exc}", file=sys.stderr)
        return EX_PRECISION
    except PadicFormsError as exc:
        print(f"padic-forms: internal error: {exc}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
