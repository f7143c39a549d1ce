"""Base ring arithmetic: residues mod 2^K, the residue field, unit d-th
powers, and Hensel root extraction."""

import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_forms import ring
from padic_forms.errors import (
    DegreeShapeError,
    HenselError,
    NotADthPower,
    NotAUnit,
    PrecisionMismatch,
    SelfCheckError,
)
from padic_forms.ring import (
    INFINITE,
    F4,
    RingElem,
    check_degree_shape,
    dth_root,
    format_elem,
    inv_unit_pair,
    mul_pair,
    multiplier_set,
    parse_elem,
    pow_pair,
    solve_anchor,
    teichmuller_alpha,
    val_pair,
)

units_mod8 = [
    (a, b) for a in range(8) for b in range(8) if (a | b) & 1
]  # all 48 units of the ring mod 8


def newton_anchor_solve(a: RingElem, d: int, C: RingElem) -> RingElem:
    """`solve_anchor` on ring elements of one precision."""
    a._chk(C)
    return RingElem(*solve_anchor((a.a, a.b), (C.a, C.b), d, a.K), a.K)


# --- residue field ---------------------------------------------------------


def test_f4_tables():
    add = [[(F4(i) + F4(j)).code for j in range(4)] for i in range(4)]
    mul = [[(F4(i) * F4(j)).code for j in range(4)] for i in range(4)]
    assert add == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    assert mul == [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def test_f4_nonzero_cyclic():
    # w generates the multiplicative group of order 3
    assert F4.A * F4.A == F4.A1
    assert F4.A * F4.A1 == F4.ONE
    assert F4.A1 * F4.A1 == F4.A


# --- element arithmetic ----------------------------------------------------


def test_alpha_squared():
    a = RingElem(0, 1, 8)
    assert a * a == RingElem(1, 1, 8)


def test_sqrt5():
    # 5 = (2w - 1)^2 since w^2 = w + 1
    r = RingElem(-1, 2, 10)
    assert r * r == RingElem(5, 0, 10)


def test_precision_mismatch_rejected():
    with pytest.raises(PrecisionMismatch):
        RingElem.one(4) + RingElem.one(5)


def test_valuation():
    assert RingElem(12, 8, 6).valuation() == 2
    assert RingElem(0, 8, 6).valuation() == 3
    assert RingElem(0, 0, 6).valuation() == INFINITE
    assert RingElem(1, 6, 6).valuation() == 0


def test_unit_inverse_examples():
    mod = 1 << 12
    assert inv_unit_pair(0, 1, mod) == (mod - 1, 1)  # w(w - 1) = w^2 - w = 1
    assert inv_unit_pair(1, 1, mod) == (2, mod - 1)  # (1+w)(2-w) = 2+w-w^2 = 1


small_elems = st.builds(
    RingElem,
    st.integers(0, (1 << 9) - 1),
    st.integers(0, (1 << 9) - 1),
    st.just(9),
)


@given(small_elems, small_elems, small_elems)
def test_ring_axioms(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x + (-x) == RingElem.zero(9)


@given(small_elems)
def test_matrix_model(x):
    # a + b*w acts on the basis (1, w) as [[a, b], [b, a+b]]; squaring the
    # element must match squaring the matrix
    K = x.K
    mod = 1 << K
    m = [[x.a, x.b], [x.b, (x.a + x.b) % mod]]
    sq = [
        [
            (m[0][0] * m[0][0] + m[0][1] * m[1][0]) % mod,
            (m[0][0] * m[0][1] + m[0][1] * m[1][1]) % mod,
        ],
        [
            (m[1][0] * m[0][0] + m[1][1] * m[1][0]) % mod,
            (m[1][0] * m[0][1] + m[1][1] * m[1][1]) % mod,
        ],
    ]
    y = x * x
    assert sq[0][0] == y.a and sq[0][1] == y.b
    assert sq[1][0] == y.b and sq[1][1] == (y.a + y.b) % mod


@given(small_elems)
def test_inverse_of_units(x):
    if x.is_unit():
        assert x * RingElem(*inv_unit_pair(x.a, x.b, 1 << 9), 9) == RingElem.one(9)


@given(small_elems, small_elems)
def test_valuation_additive(x, y):
    vx, vy = x.valuation(), y.valuation()
    if vx is not INFINITE and vy is not INFINITE and vx + vy < 9:
        assert (x * y).valuation() == vx + vy


# --- text syntax -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,pair",
    [
        ("5", (5, 0)),
        ("w", (0, 1)),
        ("4*w", (0, 4)),
        ("1+1*w", (1, 1)),
        ("3 + 2*w", (3, 2)),
        ("-1+2*w", (-1, 2)),
        ("2-w", (2, -1)),
    ],
)
def test_parse_elem(text, pair):
    assert parse_elem(text) == pair


@given(st.integers(0, 10**6), st.integers(-(10**6), 10**6))
def test_format_parse_roundtrip(a, b):
    assert parse_elem(format_elem(a, b)) == (a, b)


def test_parse_elem_rejects_garbage():
    for bad in ("", "+", "1++2", "q", "2*", "w*w"):
        with pytest.raises(ValueError):
            parse_elem(bad)


# --- degree shape ----------------------------------------------------------


def test_degree_shape():
    for d in (2, 6, 10, 18, 22):
        check_degree_shape(d)
    for d in (0, 1, 3, 4, 8, 12, -6):
        with pytest.raises(DegreeShapeError):
            check_degree_shape(d)


def test_degree_shape_refuses_non_integers():
    # a JSON degree of 6.0 passes every comparison, so it is refused by type
    check_degree_shape(np.int64(6))
    for d in (6.0, "6", None):
        with pytest.raises(DegreeShapeError, match="must be an integer"):
            check_degree_shape(d)


# --- teichmuller and unit power sets ---------------------------------------


def test_teichmuller_frozen_values():
    assert teichmuller_alpha(8) == RingElem(226, 59, 8)
    assert teichmuller_alpha(3) == RingElem(2, 3, 3)
    w = teichmuller_alpha(16)
    assert w ** 3 == RingElem.one(16)
    assert w.residue() == F4.A


def test_unit_sixth_powers_mod8():
    got = {pow_pair(a, b, 6, 8) for a, b in units_mod8}
    assert got == {(1, 0), (5, 0)}


def test_unit_tenth_powers_mod8():
    got = {pow_pair(a, b, 10, 8) for a, b in units_mod8}
    assert got == {(1, 0), (5, 0), (2, 3), (2, 7), (1, 1), (5, 5)}


def test_multiplier_set_d6():
    ms = multiplier_set(6, 8)
    assert {(r.value.a, r.value.b) for r in ms.reps} == {(1, 0), (125, 0)}
    for r in ms.reps:
        assert r.root ** 6 == r.value
    # the sixth powers hit only the class of 1
    assert [(r.value.residue(), r.epsilon) for r in ms.reps] == [(F4.ONE, 0), (F4.ONE, 1)]


def test_multiplier_set_d10():
    ms = multiplier_set(10, 3)
    assert {(r.value.a, r.value.b) for r in ms.reps} == {
        (1, 0),
        (5, 0),
        (2, 3),
        (2, 7),
        (1, 1),
        (5, 5),
    }
    # exactly the unit tenth powers mod 8, one per (class, epsilon)
    assert len({(r.value.residue().code, r.epsilon) for r in ms.reps}) == 6
    for r in ms.reps:
        assert r.root ** 10 == r.value


def test_multiplier_roots_exact_at_high_precision():
    for d in (6, 10):
        ms = multiplier_set(d, 24)
        for r in ms.reps:
            assert r.root ** d == r.value


def test_multiplier_set_cached():
    assert multiplier_set(6, 8) is multiplier_set(6, 8)
    # the cache answers an int degree unchecked; every other degree is
    # still checked, even one equal to a cached degree
    assert multiplier_set(np.int64(6), 8) is multiplier_set(6, 8)
    for d in (6.0, True, [6], 8):
        with pytest.raises(DegreeShapeError):
            multiplier_set(d, 8)


# the self-checks of the cube root and the multiplier reps raise a library
# error, so `python -O` keeps them; each test forces its fault


def test_teichmuller_self_check_raises(monkeypatch):
    # a fourth power that is the identity leaves w = (0, 1), whose cube is not 1
    monkeypatch.setattr(ring, "pow_pair", lambda a, b, e, mod: (a % mod, b % mod))
    with pytest.raises(SelfCheckError, match="cube root of unity"):
        teichmuller_alpha(8)


def test_multiplier_root_self_check_raises(monkeypatch):
    monkeypatch.setattr(ring, "_MULTIPLIER_CACHE", {})
    monkeypatch.setattr(RingElem, "is_unit", lambda self: False)
    with pytest.raises(SelfCheckError, match="stored root is no unit"):
        multiplier_set(6, 8)


def test_multiplier_dth_root_self_check_raises(monkeypatch):
    # a "root" 3 * t, whose d-th power is not t
    monkeypatch.setattr(ring, "_MULTIPLIER_CACHE", {})
    monkeypatch.setattr(ring, "dth_root", lambda t, d: t * RingElem(3, 0, t.K))
    with pytest.raises(SelfCheckError, match="dth_root found no root"):
        multiplier_set(10, 8)
    assert ring._MULTIPLIER_CACHE == {}


# --- root extraction -------------------------------------------------------


@pytest.mark.parametrize("d", [6, 10])
@pytest.mark.parametrize("K", [3, 8, 20])
def test_dth_root_on_random_powers(d, K):
    import random

    rng = random.Random(1234 + d + K)
    for _ in range(25):
        u = RingElem(rng.randrange(1 << K) | 1, rng.randrange(1 << K), K)
        t = u ** d
        r = dth_root(t, d)
        assert r ** d == t


def test_dth_root_rejects_non_power():
    with pytest.raises(NotADthPower):
        dth_root(RingElem(3, 0, 8), 6)  # 3 mod 8 not in {1, 5}
    with pytest.raises(NotADthPower):
        dth_root(RingElem(3, 0, 20), 6)
    with pytest.raises(NotAUnit):
        dth_root(RingElem(2, 0, 8), 6)


def test_dth_root_raises_when_newton_does_not_converge(monkeypatch):
    # the final x^d == t check carries the answer; it must survive python -O
    monkeypatch.setattr(ring, "_newton_root", lambda seed, d, t, KK: (3, 0))
    with pytest.raises(HenselError):
        dth_root(RingElem(125, 0, 10), 6)


def test_dth_root_brute_small_precision():
    r = dth_root(RingElem(5, 0, 3), 6)
    assert r ** 6 == RingElem(5, 0, 3)


@pytest.mark.parametrize("d", [6, 10])
def test_dth_root_small_precision_matches_first_root(d):
    # below 2^5 the root is read off the seed table: the first unit (a, b)
    # in lexicographic order whose d-th power is t, or a refusal
    for K in range(1, 5):
        mod = 1 << K
        units = [(a, b) for a in range(mod) for b in range(mod) if (a | b) & 1]
        for t in units:
            first = next((x for x in units if pow_pair(*x, d, mod) == t), None)
            if first is None:
                with pytest.raises(NotADthPower):
                    dth_root(RingElem(*t, K), d)
            else:
                assert dth_root(RingElem(*t, K), d) == RingElem(*first, K)


def test_newton_anchor_solve_basic():
    K = 10
    a = RingElem(3, 0, K)
    C = RingElem(5, 0, K)  # 3 + 5 = 8: seed 1 works, then lift
    x = newton_anchor_solve(a, 6, C)
    assert x.is_unit()
    assert a * x ** 6 + C == RingElem.zero(K)


def test_newton_anchor_solve_shifted_levels():
    K = 12
    a = RingElem(3, 0, K) * RingElem(16, 0, K)
    C = RingElem(5 * 16, 0, K)
    x = newton_anchor_solve(a, 6, C)
    assert a * x ** 6 + C == RingElem.zero(K)


def test_newton_anchor_solve_with_alpha_parts():
    K = 14
    # coefficient 1 + 2w, target chosen so the residual is divisible by 8:
    # (1 + 2w) + C = 8w  =>  C = -1 + 6w
    a = RingElem(1, 2, K)
    C = RingElem(-1, 6, K)
    x = newton_anchor_solve(a, 10, C)
    assert a * x ** 10 + C == RingElem.zero(K)


# (coefficient, target, K) that the anchor solve must refuse at d = 6
ANCHOR_REFUSALS = [
    ((3, 0), (1, 0), 10),  # 3 + 1 = 4: the residual stops below k + 3
    ((3, 0), (6, 0), 10),  # levels differ
    ((3, 0), (0, 0), 10),  # the target vanishes
    ((4, 0), (-4, 0), 4),  # K < k + 3, though the residual vanishes mod 2^K
]


def test_newton_anchor_solve_preconditions():
    for (fa, fb), (ca, cb), K in ANCHOR_REFUSALS:
        with pytest.raises(HenselError):
            newton_anchor_solve(RingElem(fa, fb, K), 6, RingElem(ca, cb, K))


def test_newton_anchor_solve_raises_when_not_cancelled(monkeypatch):
    monkeypatch.setattr(ring, "_newton_root", lambda seed, d, t, KK: (1, 0))
    with pytest.raises(HenselError):
        newton_anchor_solve(RingElem(1, 0, 10), 6, RingElem(7, 0, 10))  # 1 + 7 != 0


def test_newton_refuses_a_residual_that_is_a_unit():
    # 1^6 - w has residue 1 + w: no step of Newton's can start there, and
    # the refusal is a raise, so it holds under python -O too
    with pytest.raises(HenselError, match="too shallow"):
        ring._newton_root((1, 0), 6, (0, 1), 11)


def test_anchor_solve_refusals_are_the_same_under_python_O():
    # python -O strips asserts; each refusal above, and the failed
    # cancellation, must still raise HenselError
    script = (
        "import json, sys\n"
        "from padic_forms import ring\n"
        "def run(cases):\n"
        "    for (fa, fb), (ca, cb), K in cases:\n"
        "        try:\n"
        "            ring.solve_anchor((fa, fb), (ca, cb), 6, K)\n"
        "            print('accepted')\n"
        "        except Exception as e:\n"
        "            print(type(e).__name__)\n"
        "run(json.load(sys.stdin))\n"
        "ring._newton_root = lambda seed, d, t, KK: (1, 0)\n"
        "run([[[1, 0], [7, 0], 10]])\n"
    )
    pkg_root = str(Path(ring.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          input=json.dumps(ANCHOR_REFUSALS), capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": pkg_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["HenselError"] * (len(ANCHOR_REFUSALS) + 1)


def _roots_in_1_plus_4O(d: int, K: int) -> dict:
    """t -> x by brute force over x in 1 + 4O mod 2^(K+1) with
    x^d = t mod 2^(K+1), x reduced mod 2^K.  x^d runs over 1 + 8O one to
    one on these classes, so the x a t meets is unique mod 2^K."""
    mod = 1 << (K + 1)
    roots: dict = {}
    for a in range(1, mod, 4):
        for b in range(0, mod, 4):
            xa, xb = a, b
            for _ in range(d - 1):  # x^d by repeated multiplication
                xa, xb = (xa * a + xb * b) % mod, (xa * b + xb * a + xb * b) % mod
            roots.setdefault((xa, xb), set()).add((a % (mod >> 1), b % (mod >> 1)))
    return roots


@pytest.mark.parametrize("d", [6, 10])
def test_seeded_newton_root_matches_brute_force(d):
    # newton_anchor_solve(1, d, C) solves x^d = t = -C from the seed
    # table's root of t mod 64, for every t in 1 + 8O mod 2^K, K <= 8.
    # Its answer mod 2^K is the root of x^d = t mod 2^(K+1), t read as
    # the integer -C.a - C.b w with C's stored digits
    for K in range(3, 9):
        roots = _roots_in_1_plus_4O(d, K)
        mod = 1 << K
        ts = [(a, b) for a in range(1, mod, 8) for b in range(0, mod, 8)]
        assert len(ts) == 4 ** (K - 3)
        for ta, tb in ts:
            C = RingElem(-ta, -tb, K)
            want = roots[-C.a % (2 * mod), -C.b % (2 * mod)]
            assert len(want) == 1, (K, ta, tb)
            x = newton_anchor_solve(RingElem.one(K), d, C)
            assert {(x.a, x.b)} == want, (d, K, ta, tb)


@pytest.mark.parametrize("d", [6, 10])
def test_seeded_newton_root_at_high_precision(d):
    rng = random.Random(20 + d)
    K = 20
    for _ in range(200):
        t = RingElem(1 + 8 * rng.getrandbits(K - 3), 8 * rng.getrandbits(K - 3), K)
        x = newton_anchor_solve(RingElem.one(K), d, -t)
        assert x ** d == t
        assert (x.a % 4, x.b % 4) == (1, 0)  # the root in 1 + 4O


def test_anchor_seed_table_is_a_bijection():
    # the packed layout: t = (1 + 8i) + 8j w at index i | j << 6 holds
    # p | q << 6 for the root (1 + 4p) + 4q w mod 256
    for d in (2, 6, 10, 14, 18, 22):
        table = ring._anchor_seed_table(d)
        assert len(table) == 4096 and len(set(table)) == 4096
        for code, root in enumerate(table):
            t = (1 + 8 * (code & 63), 8 * (code >> 6))
            x = (1 + 4 * (root & 63), 4 * (root >> 6))
            assert x[0] < 256 and x[1] < 256
            assert x[0] % 4 == 1 and x[1] % 4 == 0 and pow_pair(*x, d, 512) == t


def reference_anchor_solve(fa, fb, d, ca, cb, K):
    """The anchor solve by plain Newton on x^d = t from x = 1, t = -C / f
    after both are divided by 2^k: the step is (x^d - t) / (d x^(d-1))
    with the exact derivative, each step at least doubling the trusted
    digits past the first two, until x^d = t mod 2^(K+1).  The caller
    checks the preconditions."""
    mod = 1 << (K + 1)
    x = fa | fb
    k = (x & -x).bit_length() - 1
    fa, fb, ca, cb = fa >> k, fb >> k, ca >> k, cb >> k
    det = fa * fa + fa * fb - fb * fb
    inv = pow(det, -1, mod)
    ia, ib = (fa + fb) * inv, -fb * inv  # 1 / f
    ta, tb = mul_pair(-ca, -cb, ia, ib, mod)
    xa, xb = 1, 0
    m = d // 2
    for _ in range(64):
        pa, pb = pow_pair(xa, xb, d, mod)
        ra, rb = (pa - ta) % mod, (pb - tb) % mod
        if not ra and not rb:
            return xa % (mod >> 1), xb % (mod >> 1)
        # derivative over 2: m x^(d-1), a unit; divide the residual by 2
        ga, gb = pow_pair(xa, xb, d - 1, mod)
        ga, gb = m * ga, m * gb
        det = ga * ga + ga * gb - gb * gb
        inv = pow(det, -1, mod)
        sa, sb = mul_pair(ra >> 1, rb >> 1, (ga + gb) * inv, -gb * inv, mod)
        xa, xb = (xa - sa) % mod, (xb - sb) % mod
    raise AssertionError("reference Newton did not converge")


def anchor_solve_cases(n: int = 2000, seed: int = 77) -> list:
    """(f, C, d, K) with f of level k, C = -f + 2^(k+3) r, K in k+3..40."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        d = rng.choice((2, 6, 10, 14, 18, 22))
        k = rng.randrange(0, 8)
        K = rng.randrange(k + 3, 41)
        fa = (rng.getrandbits(K) | 1) << k
        fb = rng.getrandbits(K) << k
        if rng.random() < 0.5:  # the unit part in w's digit instead
            fa, fb = fb & ~(1 << k), fb | (1 << k)
        r = (rng.getrandbits(K), rng.getrandbits(K))
        cases.append(((fa, fb), (-fa + (r[0] << (k + 3)), -fb + (r[1] << (k + 3))), d, K))
    return cases


def anchor_solve_mismatches(cases) -> list:
    """The cases where solve_anchor's x differs from the reference."""
    bad = []
    for (fa, fb), (ca, cb), d, K in cases:
        mask = (1 << K) - 1
        want = reference_anchor_solve(fa & mask, fb & mask, d, ca & mask, cb & mask, K)
        if solve_anchor((fa, fb), (ca, cb), d, K) != want:
            bad.append(((fa, fb), (ca, cb), d, K))
    return bad


def test_anchor_solve_matches_newton_from_one():
    cases = anchor_solve_cases()
    assert {d for _, _, d, _ in cases} == {2, 6, 10, 14, 18, 22}
    assert {K for _, _, _, K in cases} >= set(range(3, 41))
    assert anchor_solve_mismatches(cases) == []


def _residuals_formed(run) -> int:
    """How many residuals x^d - t `_newton_root` forms while run() runs:
    the executions of its line that subtracts t, counted by a line trace
    of that function alone."""
    code = ring._newton_root.__code__
    lines, first = inspect.getsourcelines(ring._newton_root)
    target = first + [text.strip() for text in lines].index("fa = (fa - ta) & mask")
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno == target
        return local

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(before)
    return count


def test_anchor_solve_takes_one_newton_step_up_to_K_15():
    # the seed, the root mod 256, leaves a residual of valuation >= 9, so
    # for K + 1 <= 16 the solve forms one residual: the one before the one
    # Newton step (or before none, when the seed is already a root)
    cases = [c for c in anchor_solve_cases() if c[3] <= 15]
    assert len(cases) >= 300
    for (fa, fb), (ca, cb), d, K in cases:
        assert _residuals_formed(lambda: solve_anchor((fa, fb), (ca, cb), d, K)) == 1, (d, K)
    # and the count sees more than one where more steps are needed
    deep = [c for c in anchor_solve_cases() if c[3] >= 30]
    assert max(_residuals_formed(lambda: solve_anchor(f, c, d, K))
               for f, c, d, K in deep) >= 2


def test_anchor_solve_matches_newton_from_one_under_python_O():
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_ring\n"
        "print(len(test_ring.anchor_solve_mismatches(test_ring.anchor_solve_cases())))\n"
    )
    pkg_root = str(Path(ring.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(Path(__file__).parent)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": pkg_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


# --- raw pair helpers ------------------------------------------------------


def _valuation(x: int) -> int:
    """The 2-adic valuation of a nonzero integer, by repeated halving."""
    k = 0
    while x % 2 == 0:
        x, k = x // 2, k + 1
    return k


def test_v2():
    # The valuation of a rational integer is val_pair with a zero w-part.
    assert val_pair(8, 0) == 3 and val_pair(12, 0) == 2 and val_pair(-4, 0) == 2 and val_pair(1, 0) == 0


def test_val_pair_is_min_of_component_valuations():
    rng = random.Random(13)

    def draw():
        if rng.random() < 0.2:
            return 0
        x = (rng.getrandbits(rng.randrange(1, 30)) | 1) << rng.randrange(20)
        return -x if rng.random() < 0.2 else x

    pairs = [(0, 0), (0, 1), (1, 0), (0, -8), (96, 0)] + [(draw(), draw()) for _ in range(3000)]
    for a, b in pairs:
        nonzero = [_valuation(x) for x in (a, b) if x]
        assert val_pair(a, b) == (min(nonzero) if nonzero else INFINITE), (a, b)


def test_mul_pair_matches_elem():
    x = RingElem(17, 9, 7)
    y = RingElem(40, 3, 7)
    assert mul_pair(17, 9, 40, 3, 128) == ((x * y).a, (x * y).b)


def test_mul_pair_has_one_masked_path():
    # the modulus is required and a power of 2, as pow_pair's; negative
    # components reduce as they would by %
    with pytest.raises(TypeError):
        mul_pair(17, 9, 40, 3)
    with pytest.raises(AssertionError):
        mul_pair(17, 9, 40, 3, 96)
    a, b, c, d = -17, 9, 40, -3
    assert mul_pair(a, b, c, d, 128) == ((a * c + b * d) % 128, (a * d + b * c + b * d) % 128)


@given(
    st.integers(0, 255),
    st.integers(0, 255),
    st.integers(0, 12),
)
@settings(max_examples=60)
def test_pow_pair_matches_repeated_mul(a, b, e):
    xa, xb = 1, 0
    for _ in range(e):
        xa, xb = mul_pair(xa, xb, a, b, 256)
    assert pow_pair(a, b, e, 256) == (xa, xb)


def test_inv_unit_pair_requires_unit():
    with pytest.raises(AssertionError):
        inv_unit_pair(2, 4, 256)
