"""Exhaustive mod-2^M decision procedure."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import padic_forms
from padic_forms import oracle
from padic_forms.errors import (
    CertificateError,
    OracleBudgetError,
    PadicFormsError,
    PrecisionMismatch,
)
from padic_forms.forms import AdditiveForm, normalize, reduce_levels
from padic_forms.oracle import (
    _brute_power_codes,
    _grid_of,
    _hits,
    _liftable_level,
    _pow_vec,
    _unit_power_codes,
    decide_isotropy_exhaustive,
    power_value_set,
    primitive_zero_mod,
)
from padic_forms.ring import RingElem
from padic_forms.witness import verify_witness
from test_forms import _seeded_form, rotated


def form(d, pairs, K=None, windows=None):
    f = AdditiveForm.from_pairs(d, pairs, K)
    if windows is None:
        return f
    return AdditiveForm(d, f.coeffs, windows=windows)


def shift_values(pvs, shift) -> list[tuple[int, int]]:
    """The values (A, B) of x^d mod 2^M at one shift, sorted."""
    mask = (1 << pvs.M) - 1
    return [(c >> pvs.M, c & mask) for c in pvs.codes[shift].tolist()]


def value_set(pvs) -> set:
    """Every value of x^d mod 2^M: 0 and the values at each shift."""
    return {(0, 0)}.union(*(shift_values(pvs, j) for j in range(len(pvs.codes))))


def naive_zero_exists(f, M, max_unit_level=None):
    """Literal enumeration over all of (O/2^M)^s: the reference the DP is
    checked against.  Exponential; guarded so it cannot run at scale."""
    assert f.is_reduced()
    max_unit_level = _liftable_level(M, max_unit_level)
    n = 1 << M
    assert (n * n) ** f.s <= 2 ** 22, "naive enumeration too large"
    mask = n - 1
    t = np.arange(n * n, dtype=np.int64)
    xs_a, xs_b = t // n, t % n
    pa, pb = _pow_vec(xs_a, xs_b, f.d, mask)
    unit = ((xs_a | xs_b) & 1).astype(bool)
    A = np.zeros(1, dtype=np.int64)
    B = np.zeros(1, dtype=np.int64)
    FL = np.zeros(1, dtype=bool)
    for c in f.coeffs:
        ta = (c.a * pa + c.b * pb) & mask
        tb = (c.a * pb + c.b * pa + c.b * pb) & mask
        liftable = unit & (c.valuation() <= max_unit_level)
        A = (A[:, None] + ta[None, :]).ravel() & mask
        B = (B[:, None] + tb[None, :]).ravel() & mask
        FL = (FL[:, None] | liftable[None, :]).ravel()
    return bool(((A == 0) & (B == 0) & FL).any())


# ---------------------------------------------------------------------------
# power value sets


def test_pow_vec_matches_ring_pow():
    rng = random.Random(7)
    K = 9
    mask = (1 << K) - 1
    xa = np.array([rng.getrandbits(K) for _ in range(50)], dtype=np.int64)
    xb = np.array([rng.getrandbits(K) for _ in range(50)], dtype=np.int64)
    for d in (6, 10):
        ra, rb = _pow_vec(xa.copy(), xb.copy(), d, mask)
        for i in range(50):
            want = RingElem(int(xa[i]), int(xb[i]), K) ** d
            assert (int(ra[i]), int(rb[i])) == (want.a, want.b)


def test_value_set_d6_mod4():
    assert value_set(power_value_set(6, 2)) == {(0, 0), (1, 0)}


def test_value_set_d10_mod4():
    assert value_set(power_value_set(10, 2)) == {
        (0, 0),
        (1, 0),
        (1, 1),
        (2, 3),
    }


def test_value_set_d6_mod8():
    assert value_set(power_value_set(6, 3)) == {(0, 0), (1, 0), (5, 0)}


def test_value_set_unit_entries_mod8():
    # every unit sixth power mod 8 is 1 or 5; shifts start at 2^6 > 8
    pvs = power_value_set(6, 3)
    assert len(pvs.codes) == 1 and shift_values(pvs, 0)


def test_value_set_matches_brute_force():
    for d, M in ((6, 4), (6, 5), (10, 4), (10, 7)):
        mask = (1 << M) - 1
        brute = {(c >> M, c & mask) for c in _brute_power_codes(d, M).tolist()}
        assert value_set(power_value_set(d, M)) == brute


def test_value_set_layers_d6_mod10():
    pvs = power_value_set(6, 10)
    shifts = {j for j in range(len(pvs.codes)) if shift_values(pvs, j)}
    assert shifts == {0, 1}  # 2^6 layer fits below 2^10, 2^12 does not
    for j in shifts:
        for value in shift_values(pvs, j):
            assert RingElem(*value, 10).valuation() == 6 * j


def test_root_of_roundtrip():
    for d, M in ((6, 5), (10, 4), (6, 8)):
        pvs = power_value_set(d, M)
        for value in (v for j in range(len(pvs.codes)) for v in shift_values(pvs, j)):
            x = pvs.root_of(value)
            assert ((x ** d).a, (x ** d).b) == value
    zero = power_value_set(6, 4).root_of((0, 0))
    assert (zero.a, zero.b) == (0, 0)


def _unit_powers_by_enumeration(d, L):
    """Sorted codes (a << L) | b of u^d over every unit u mod 2^L, by d - 1
    multiplications, w^2 = w + 1, and a set of the results."""
    n = 1 << L
    mask = n - 1
    x = np.arange(n * n, dtype=np.int64)
    xa, xb = x >> L, x & mask
    unit = ((xa | xb) & 1) == 1
    xa, xb = xa[unit], xb[unit]
    pa, pb = xa, xb
    for _ in range(d - 1):
        pa, pb = (pa * xa + pb * xb) & mask, (pa * xb + pb * xa + pb * xb) & mask
    return np.unique((pa << L) | pb)


@pytest.mark.parametrize("d", [6, 10, 14, 18])
def test_unit_power_codes_are_the_rep_cosets(d):
    # every L up to 10, where power_value_set runs no brute-force check
    for L in range(1, 11):
        got = _unit_power_codes(d, L)
        assert got.dtype == np.int64
        assert np.array_equal(got, _unit_powers_by_enumeration(d, L)), (d, L)


@pytest.mark.parametrize("block", [None, 1 << 5])
def test_brute_power_codes_match_one_shot_unique(monkeypatch, block):
    # a block of 32 residues splits every M >= 3 into several row blocks
    if block is not None:
        monkeypatch.setattr(oracle, "_BRUTE_BLOCK", block)
    for d in (6, 10):
        for M in range(1, 7):
            n = 1 << M
            t = np.arange(n * n, dtype=np.int64)
            ra, rb = _pow_vec(t // n, t % n, d, n - 1)
            assert np.array_equal(_brute_power_codes(d, M), np.unique((ra << M) | rb)), (d, M)


def test_power_value_tables_stay_small():
    # the benchmark warm-up's two largest d = 10 tables, built cold: the
    # squares of every 1 + 2t mod 2^10 and their sort traced about 35 MB,
    # and a second copy of each unit-power table held 1.9 MB after both
    power_value_set.cache_clear()
    tracemalloc.start()
    try:
        power_value_set(10, 9)
        power_value_set(10, 10)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, f"traced peak {peak / 2**20:.2f} MB"
    assert held < 1.5 * 2**20, f"held after both builds {held / 2**20:.2f} MB"


def test_power_value_cross_check_rejects_a_repeated_code(monkeypatch):
    # the brute-force cross-check compares the sorted codes themselves, so
    # a unit power listed twice fails it
    real = oracle._unit_power_codes
    power_value_set.cache_clear()
    monkeypatch.setattr(oracle, "_unit_power_codes", lambda d, L: np.repeat(real(d, L), 2))
    with pytest.raises(PadicFormsError):
        power_value_set(6, 4)


@pytest.mark.parametrize("M, error", [(0, PrecisionMismatch), (11, OracleBudgetError)])
def test_power_value_set_rejects_modulus_out_of_range(M, error):
    with pytest.raises(error):
        power_value_set(6, M)


def test_power_value_set_rejects_modulus_under_python_O():
    script = (
        "from padic_forms import power_value_set\n"
        "for M in (0, 11):\n"
        "    try:\n"
        "        power_value_set(10, M)\n"
        "    except Exception as e:\n"
        "        print(type(e).__name__)\n"
    )
    pkg_root = str(Path(padic_forms.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": pkg_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["PrecisionMismatch", "OracleBudgetError"]


# ---------------------------------------------------------------------------
# primitive zero search


def test_sum_of_two_sixth_powers_has_no_zero_mod8():
    zs = primitive_zero_mod(form(6, [(1, 0), (1, 0)], 10), 3)
    assert not zs.found
    assert zs.states_visited > 0


def test_x6_plus_7y6_zero_mod8():
    f = form(6, [(1, 0), (7, 0)], 10)
    zs = primitive_zero_mod(f, 3)
    assert zs.found
    x = zs.assignment[zs.anchor]
    assert x.is_unit()
    assert f.coeffs[zs.anchor].valuation() <= 0
    total = f.evaluate(zs.assignment).reduce_to(3)
    assert (total.a, total.b) == (0, 0)


def test_three_variable_unit_form_no_zero_mod4():
    f = form(6, [(1, 0), (1, 0), (0, 1)], 10)
    for mul in (0, 2):
        zs = primitive_zero_mod(f, 2, max_unit_level=mul)
        assert not zs.found


@pytest.mark.parametrize("M, mul", [(1, None), (2, None), (3, -1), (5, -2)])
def test_search_without_a_liftable_level_is_refused(M, mul):
    # below level 0 no variable may carry the unit: found would be False
    # for every form, the isotropic x^6 + 7y^6 included
    with pytest.raises(ValueError, match="below 0"):
        primitive_zero_mod(form(6, [(1, 0), (7, 0)], 10), M, max_unit_level=mul)


def test_naive_reference_refuses_a_search_without_a_liftable_level():
    # the default M - 3 at M = 2 would let no variable carry the unit
    f = form(6, [(1, 0), (7, 0)], 10)
    with pytest.raises(ValueError, match="below 0"):
        naive_zero_exists(f, 2)
    assert naive_zero_exists(f, 2, max_unit_level=0)


# (d, coefficients, K, M, max_unit_level) -> (roots as pairs, anchor, states);
# pinned from the per-value translation and backtracking loops the array
# passes replaced, which pick the first value and code in table order
PINNED_ZEROS = [
    ((6, [(1, 0), (7, 0)], 10, 3, None), (((0, 1), (0, 1)), 0, 11)),
    ((6, [(1, 0), (7, 0), (3, 0)], 10, 3, None), (((0, 1), (0, 1), (0, 0)), 0, 20)),
    ((6, [(4, 0), (28, 0), (32, 0)], 12, 5, 2), (((17, 11), (17, 11), (0, 0)), 0, 18)),
    ((6, [(1, 0), (1, 0), (0, 1)], 10, 5, None), (None, None, 324)),
    ((6, [(8, 0), (1, 0), (7, 0)], 10, 5, None), (((1, 0), (9, 19), (17, 11)), 1, 135)),
    ((6, [(1, 0), (1, 0), (1, 0), (5, 0)], 10, 4, None),
     (((1, 6), (1, 0), (1, 0), (1, 6)), 0, 85)),
    ((6, [(3, 1), (2, 5), (4, 1), (1, 6), (8, 3)], 12, 6, None),
     (((17, 17), (0, 0), (1, 0), (1, 0), (0, 0)), 0, 8198)),
    ((10, [(1, 0), (3, 1), (2, 1), (5, 2), (4, 4)], 14, 7, None),
     (((33, 87), (44, 121), (1, 0), (0, 0), (0, 0)), 0, 58374)),
    ((10, [(16, 0), (3, 1), (5, 0), (1, 1), (2, 6)], 14, 7, None),
     (((0, 0), (33, 90), (58, 29), (104, 43), (74, 75)), 1, 39454)),
    ((10, [(4, 0), (1, 0), (1, 1), (2, 3), (7, 0)], 14, 6, 0),
     (((51, 39), (2, 37), (1, 0), (57, 9), (0, 0)), 1, 11390)),
    ((10, [(1, 1), (6, 1), (12, 5), (9, 2)], 14, 8, 3),
     (((202, 177), (107, 195), (0, 0), (0, 0)), 0, 178181)),
    ((10, [(16, 0), (3, 1), (5, 0), (1, 1), (2, 6)], 14, 10, None),
     (((0, 0), (289, 410), (634, 221), (104, 1003), (714, 779)), 1, 2524678)),
]


@pytest.mark.parametrize("case, want", PINNED_ZEROS)
def test_backtracked_roots_are_pinned(case, want):
    d, pairs, K, M, mul = case
    zs = primitive_zero_mod(form(d, pairs, K), M, max_unit_level=mul)
    roots = None if zs.assignment is None else tuple((x.a, x.b) for x in zs.assignment)
    assert (roots, zs.anchor, zs.states_visited) == want
    assert zs.found == (want[0] is not None)


def test_zero_search_peak_memory_stays_small():
    # d = 10 at M = 9: each spectrum is 2.1 MB; a step holding its four
    # spectra through the inverse FFTs traced 22.3 MB, nine separate
    # FFTs 18.3 MB, products in place with each spectrum dropped 16.3 MB
    f = form(10, [(16, 0), (3, 1), (5, 0), (1, 1), (2, 6)], 14)
    power_value_set(10, 9)
    tracemalloc.start()
    try:
        assert primitive_zero_mod(f, 9).found
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 << 20, f"traced peak {peak / 2**20:.2f} MB"


def test_zero_search_trail_is_bit_packed():
    # d = 10, s = 12 at M = 9: the 13 bool layers the backtrack once kept
    # held 6.5 MB and the search traced 22.4 MB; packed, 17.7 MB
    pairs = [(16, 0), (3, 1), (5, 0), (1, 1), (2, 6), (4, 3), (8, 5), (1, 2), (6, 1), (32, 3),
             (2, 1), (64, 1)]
    f = form(10, pairs, 14)
    power_value_set(10, 9)
    tracemalloc.start()
    try:
        assert primitive_zero_mod(f, 9).found
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19 << 20, f"traced peak {peak / 2**20:.2f} MB"


def test_backtracking_is_deterministic():
    f = form(6, [(1, 0), (7, 0), (3, 0)], 10)
    a = primitive_zero_mod(f, 3)
    b = primitive_zero_mod(f, 3)
    assert a.found and a.assignment == b.assignment and a.anchor == b.anchor


def test_flag_level_gate():
    # 4x^6 + 4y^6 + 32z^6: mod 32 the zero needs the level-2 variables,
    # which only count as liftable once max_unit_level reaches 2
    f = form(6, [(4, 0), (28, 0), (32, 0)], 12)  # levels 2, 2, 5
    assert primitive_zero_mod(f, 5, max_unit_level=1).found is False
    assert primitive_zero_mod(f, 5, max_unit_level=2).found is True


def test_modulus_policy_guard():
    f = form(6, [(1, 0), (7, 0)], 12)
    with pytest.raises(OracleBudgetError):
        primitive_zero_mod(f, 11)


def test_window_guard():
    f = form(6, [(1, 0), (7, 0)], K=10, windows=(4, 10))
    with pytest.raises(PrecisionMismatch):
        primitive_zero_mod(f, 5)


def test_dp_matches_naive_enumeration():
    rng = random.Random(1234)
    K = 8
    for _ in range(40):
        d = rng.choice((6, 10))
        M = rng.choice((2, 3))
        s = rng.randrange(2, 4 if M == 3 else 6)
        pairs = []
        for _ in range(s):
            lvl = rng.randrange(0, 3)
            a = rng.getrandbits(K) | (1 << lvl)
            b = rng.getrandbits(K) & ~((1 << lvl) - 1)
            pairs.append((a, b))
        f = form(d, pairs, K)
        for mul in ((None, M) if M >= 3 else (0, M)):  # None means M - 3
            got = primitive_zero_mod(f, M, max_unit_level=mul).found
            want = naive_zero_exists(f, M, max_unit_level=mul)
            assert got == want, (d, M, pairs, mul)


# ---------------------------------------------------------------------------
# full decision


def test_decide_lifts_witness_to_full_precision():
    f = form(6, [(1, 0), (7, 0)], 10)
    dec = decide_isotropy_exhaustive(f)
    assert dec.verdict == "ISOTROPIC"
    assert dec.witness.V == 10
    assert verify_witness(f, dec.witness)


def test_decide_anisotropic_certificate():
    f = form(6, [(1, 0), (1, 0), (0, 1)], 10)
    dec = decide_isotropy_exhaustive(f)
    assert dec.verdict == "ANISOTROPIC"
    doc = dec.certificate.to_json()
    assert doc["kind"] == "exhaustion"
    assert doc["M"] == 3
    assert doc["statesVisited"] == dec.states_visited > 0


def test_decide_single_variable():
    dec = decide_isotropy_exhaustive(form(6, [(1, 0)], 10))
    assert dec.verdict == "ANISOTROPIC"


def test_decide_reduces_levels_first():
    # 64 x^6 + 7 y^6 at K = 14: reduction maps the first variable down
    f = form(6, [(64, 0), (7, 0)], 14)
    dec = decide_isotropy_exhaustive(f)
    assert dec.verdict == "ISOTROPIC"
    assert verify_witness(f, dec.witness)
    # back-mapping keeps a unit entry on the substituted variable
    assert dec.witness.values[dec.witness.primitive].is_unit()


def test_decide_invariant_under_shift():
    for pairs, want in (
        ([(1, 0), (7, 0)], "ISOTROPIC"),
        ([(2, 0), (7, 0)], "ANISOTROPIC"),
        ([(1, 0), (1, 0), (0, 1)], "ANISOTROPIC"),
    ):
        f = form(6, pairs, 12)
        assert decide_isotropy_exhaustive(f).verdict == want
        for t in (1, 3):
            g = rotated(f, t)
            dec = decide_isotropy_exhaustive(g)
            assert dec.verdict == want
            if want == "ISOTROPIC":
                assert verify_witness(g, dec.witness)


def _oracle_bytes(f):
    """decide_isotropy_exhaustive's answer as `oracle`'s JSON document."""
    dec = decide_isotropy_exhaustive(f)
    doc = {"verdict": dec.verdict, "statesVisited": dec.states_visited}
    if dec.witness is not None:
        doc["witness"] = dec.witness.to_json()
    if dec.certificate is not None:
        doc["certificate"] = dec.certificate.to_json()
    return json.dumps(doc, sort_keys=True)


def test_exhaustive_decision_reads_the_root_form():
    # a form, its reduction and its normalized (rotated, scaled) frame
    # decide byte for byte alike: the oracle reduces the root form
    rng = random.Random(31)
    seen = Counter()
    for _ in range(40):
        f = _seeded_form(rng, 6, rng.randrange(1, 11), 12, 22)
        assert reduce_levels(f).max_level() + 3 <= 10
        g = normalize(f)[0]
        want = _oracle_bytes(f)
        assert _oracle_bytes(reduce_levels(f)) == want
        assert _oracle_bytes(g) == want
        seen[json.loads(want)["verdict"]] += 1
        seen["rotated"] += g.scale_log != 0
        seen["unreduced"] += not f.is_reduced()
    assert min(seen.values()) >= 8 and len(seen) == 4, seen


def test_decide_witness_values_evaluate_to_zero():
    rng = random.Random(99)
    K = 10
    for _ in range(15):
        s = rng.randrange(2, 5)
        pairs = []
        for _ in range(s):
            lvl = rng.randrange(0, 4)
            a = rng.getrandbits(K) | (1 << lvl)
            b = rng.getrandbits(K) & ~((1 << lvl) - 1)
            pairs.append((a, b))
        f = form(6, pairs, K)
        dec = decide_isotropy_exhaustive(f)
        if dec.verdict == "ISOTROPIC":
            w = dec.witness
            assert verify_witness(f, w)
            total = f.evaluate(w.values)
            assert total.a % (1 << w.V) == 0 and total.b % (1 << w.V) == 0


# ---------------------------------------------------------------------------
# hard failures in place of asserts


def test_hits_rejects_inexact_counts():
    S = np.zeros((8, 8), dtype=bool)
    S[0, 0] = True
    FS = np.fft.rfft2(S.astype(np.float64))
    half = 0.5 * np.fft.rfft2(_grid_of(np.array([1], dtype=np.int64), 3).astype(np.float64))
    with pytest.raises(PadicFormsError, match="exactness"):
        _hits(FS * half, S.shape)
    whole = np.fft.rfft2(_grid_of(np.array([1], dtype=np.int64), 3).astype(np.float64))
    hit = _hits(FS * whole, S.shape)
    assert hit[1, 0] and hit.sum() == 1


def test_exhaustive_witness_failure_raises(monkeypatch):
    monkeypatch.setattr(oracle, "verify_witness", lambda f, w: False)
    with pytest.raises(CertificateError):
        decide_isotropy_exhaustive(form(6, [(1, 0), (7, 0)], 10))
