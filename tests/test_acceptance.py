"""Acceptance gate: the ten headline checks at full scale.

Each criterion prints exactly one PASS/FAIL line on the real stdout (so
the line survives pytest's capture) and asserts its own wall-clock bound.
Run order follows the numbering; every random draw is seeded.
"""

import random
import sys
import time

import pytest

from padic_forms.artifacts import (
    agreement_experiment,
    named_form,
    sample_form,
    verify_descent,
)
from padic_forms.engine import validate_certificate
from padic_forms.flat import search_certificate
from padic_forms.forms import AdditiveForm
from padic_forms.oracle import (
    decide_isotropy_exhaustive,
    power_value_set,
    primitive_zero_mod,
)
from padic_forms.ring import F4, pow_pair
from padic_forms.solver import decide_isotropy
from padic_forms.sweeps import sweep_lemma
from padic_forms.witness import verify_witness
from test_oracle import value_set

SAMPLE_SEED = 42
COMPLETION_SEED = 20260823

EXHAUSTIVE_COUNTS = {
    "223": 15_092_736,
    "133": 10_653_696,
    "115": 3_969_024,
    "044": 15_023_376,
    "025": 2_108_544,
    "007": 170_544,
}
SAMPLED_IDS = ["0061", "0241", "0225", "0045", "541", "211", "31", "5", "401", "23"]


_CAPFD = None


@pytest.fixture(autouse=True)
def _capture_handle(capfd):
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _criterion(num: int, bound: float, label: str, fn) -> None:
    t0 = time.perf_counter()
    ok = False
    detail = ""
    try:
        detail = fn() or ""
        ok = True
    finally:
        dt = time.perf_counter() - t0
        tag = "PASS" if ok and dt < bound else "FAIL"
        line = f"criterion {num:02d} {tag} {dt:8.2f}s (bound {bound:g}s)  {label}{detail}"
        with _CAPFD.disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()
    assert dt < bound, f"criterion {num} took {dt:.2f}s, bound {bound}s"


def _zero_mod4(f):
    """Criterion 01's search: a zero mod 4 with a unit variable at level
    0, the level of every coefficient of G."""
    return primitive_zero_mod(f, 2, max_unit_level=0)


def test_criterion_01_g_obstruction():
    def body():
        visited = []
        for d in (6, 10):
            zs = _zero_mod4(named_form("G", d).form())
            assert not zs.found, f"G(d={d}) has a primitive zero mod 4"
            visited.append(zs.states_visited)
        return f"; states {visited[0]}/{visited[1]}"

    _criterion(1, 1.0, "G has no primitive zero mod 4 at d=6 and d=10", body)


def test_criterion_01_search_finds_a_zero_mod4():
    # the criterion can fail: on the isotropic x^6 + 7y^6 its search finds
    # the primitive zero 1 + 7 = 0 mod 4
    zs = _zero_mod4(AdditiveForm.from_pairs(6, [(1, 0), (7, 0)]))
    assert zs.found
    assert zs.assignment[zs.anchor].is_unit()


def test_criterion_02_h_lower_bound():
    def body():
        t0 = time.perf_counter()
        rounds = []
        for d in (6, 10):
            res = verify_descent(named_form("H", d))
            assert res.status == "DESCENT", f"H(d={d}) descent failed"
            rounds.append(len(res.certificate.rounds))
        t_descent = time.perf_counter() - t0
        assert t_descent < 10.0, f"descent took {t_descent:.2f}s"

        t0 = time.perf_counter()
        dec = decide_isotropy_exhaustive(named_form("H", 6).form())
        t_oracle = time.perf_counter() - t0
        assert dec.verdict == "ANISOTROPIC"
        assert dec.certificate.M == 7
        assert t_oracle < 300.0, f"oracle took {t_oracle:.2f}s"
        return (
            f"; rounds {rounds[0]}/{rounds[1]}, descent {t_descent:.2f}s,"
            f" oracle {t_oracle:.2f}s"
        )

    _criterion(2, 310.0, "H anisotropic at 3d/2 variables by descent and oracle", body)


def test_criterion_03_i_lower_bound():
    def body():
        res = verify_descent(named_form("I", 6))
        assert res.status == "DESCENT"
        first = res.certificate.rounds[0].window_values
        want = tuple(sorted((p, 2 * q) for p in range(4) for q in range(2)))
        assert first == want, f"first window {first}"
        return f"; {len(res.certificate.rounds)} rounds, first window {len(first)} values"

    _criterion(3, 30.0, "I(d=6) anisotropic at 3d variables, window set frozen", body)


def test_criterion_04_upper_bound_4d1():
    def body():
        rng = random.Random(SAMPLE_SEED)
        for k in range(1000):
            f = sample_form(rng, 6, 25)
            res = decide_isotropy(f)
            assert res.verdict == "ISOTROPIC", f"trial {k}: {res.verdict}"
            assert res.witness is not None
            assert verify_witness(f, res.witness), f"trial {k}: witness rejected"
        return ""

    _criterion(4, 1800.0, "1000 random 25-variable forms at d=6 all isotropic", body)


def test_criterion_05_upper_bound_3d2_plus_1():
    def body():
        rng = random.Random(SAMPLE_SEED)
        for k in range(1000):
            f = sample_form(rng, 10, 16)
            res = decide_isotropy(f)
            assert res.verdict == "ISOTROPIC", f"trial {k}: {res.verdict}"
            assert res.witness is not None
            assert verify_witness(f, res.witness), f"trial {k}: witness rejected"
        # sharpness partner: one fewer variable admits an anisotropic form
        assert named_form("H", 10).s == 15
        assert verify_descent(named_form("H", 10)).status == "DESCENT"
        return ""

    _criterion(
        5, 1800.0, "1000 random 16-variable forms at d=10 all isotropic; 15 is sharp", body
    )


def test_criterion_06_exhaustive_sweeps():
    def body():
        parts = []
        for lid, want in EXHAUSTIVE_COUNTS.items():
            rep = sweep_lemma(lid, mode="EXHAUSTIVE")
            assert rep.total == want, f"{lid}: total {rep.total} != {want}"
            assert rep.failures == [], f"{lid}: {len(rep.failures)} failures"
            assert sum(rep.resolution.values()) == rep.total
            parts.append(f"{lid}:{rep.total}")
        return "; " + " ".join(parts)

    _criterion(6, 120.0, "one-level sweeps exhaustive at depth 3, zero failures", body)


def test_criterion_07_sampled_sweeps():
    def body():
        for lid in SAMPLED_IDS:
            rep = sweep_lemma(lid, mode="SAMPLED", trials=100_000, seed=42)
            assert rep.total == 100_000
            assert rep.failures == [], f"{lid}: {len(rep.failures)} failures"
        return "; 10 lemmas x 100000 trials"

    _criterion(7, 120.0, "two-level and d=10 sweeps sampled at seed 42", body)


def test_criterion_08_pipeline_oracle_agreement():
    def body():
        parts = []
        for d in (6, 10):
            rep = agreement_experiment(d, 500, SAMPLE_SEED)
            assert rep.mismatches == [], f"d={d}: {rep.mismatches[:2]}"
            parts.append(f"d={d}: {rep.isotropic}+{rep.anisotropic}")
        return "; " + ", ".join(parts)

    _criterion(8, 600.0, "pipeline equals exhaustive oracle on 500 forms per degree", body)


def test_criterion_09_certificate_abstraction():
    def body():
        rng = random.Random(COMPLETION_SEED)
        pairs = []
        attempts = 0
        while len(pairs) < 100:
            attempts += 1
            assert attempts < 2000, "certificate harvest stalled"
            s = rng.randrange(8, 13)
            f = sample_form(rng, 6, s, max_level=3)
            out = search_certificate(f)
            if out.status == "FOUND":
                pairs.append((f, out.certificate))
        checked = 0
        for f, cert in pairs:
            K = f.K
            for _ in range(1000):
                ps = []
                for c in f.coeffs:
                    keep = min(K, c.valuation() + 3)
                    hi = K - keep
                    ps.append((
                        (c.a & ((1 << keep) - 1)) | (rng.getrandbits(hi) << keep),
                        (c.b & ((1 << keep) - 1)) | (rng.getrandbits(hi) << keep),
                    ))
                g = AdditiveForm.from_pairs(f.d, ps, K)
                assert validate_certificate(g, cert), "completion broke a certificate"
                checked += 1
        assert checked == 100_000
        return f"; {len(pairs)} certificates from {attempts} searches, {checked} completions"

    _criterion(
        9, 600.0, "depth-3 certificates survive all deep-digit completions", body
    )


def test_criterion_10_ring_kernel():
    def body():
        # residue field: compare against polynomial arithmetic mod w^2+w+1 over GF(2)
        for i in range(4):
            for j in range(4):
                x0, x1, y0, y1 = i & 1, i >> 1, j & 1, j >> 1
                want = ((x0 * y0 + x1 * y1) & 1) | ((((x0 * y1) + (x1 * y0) + (x1 * y1)) & 1) << 1)
                assert (F4(i) * F4(j)).code == want, f"mul {i},{j}"
                assert (F4(i) + F4(j)).code == i ^ j, f"add {i},{j}"

        # sixth powers of all 48 units mod 8
        units = 0
        for a in range(8):
            for b in range(8):
                if a % 2 == 0 and b % 2 == 0:
                    continue
                units += 1
                assert pow_pair(a, b, 6, 8) in {(1, 0), (5, 0)}, f"unit {a}+{b}w"
        assert units == 48

        # power value sets against literal enumeration
        for M in range(1, 6):
            mod = 1 << M
            brute = {pow_pair(a, b, 6, mod) for a in range(mod) for b in range(mod)}
            assert value_set(power_value_set(6, M)) == brute, f"M={M}"
        return "; 16+16 field cases, 48 units, M=1..5 value sets"

    _criterion(10, 60.0, "residue field tables, unit powers mod 8, power value sets", body)
