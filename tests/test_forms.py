"""Form representation, level reduction, shifts, and normalization."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_forms.errors import PrecisionMismatch
from padic_forms.forms import (
    AdditiveForm,
    _reframe,
    default_precision,
    normalize,
    parse_form_text,
    reduce_levels,
)
from padic_forms.ring import RingElem


def form(d, pairs, K=None):
    return AdditiveForm.from_pairs(d, pairs, K)


def rotated(f, t):
    """f's reduction times 2^t, re-reduced (the rotation `normalize`
    applies), built as a root form of its own: isotropy-equivalent to f,
    and what the deciders decide as it is, where they would decide the
    root f of the rotated frame."""
    g = _reframe(reduce_levels(f), t % f.d)
    return AdditiveForm(f.d, g.coeffs, windows=g.windows)


def test_default_precision():
    assert default_precision(6) == 10
    assert default_precision(10) == 14


def test_constructor_rejects_zero_coefficient():
    with pytest.raises(PrecisionMismatch):
        form(6, [(1, 0), (0, 0)])


def test_constructor_rejects_mixed_precision():
    with pytest.raises(PrecisionMismatch):
        AdditiveForm(6, (RingElem.one(8), RingElem.one(9)))


def _seeded_form(rng, d, s, top, K):
    """s coefficients at uniform levels 0..top - 1, each with a uniform
    nonzero residue class and random digits above it."""
    pairs = []
    for _ in range(s):
        lvl = rng.randrange(top)
        cls = rng.randrange(1, 4)
        a = (cls & 1) | (rng.getrandbits(K) << 1)
        b = (cls >> 1) | (rng.getrandbits(K) << 1)
        pairs.append(((a << lvl) % (1 << K), (b << lvl) % (1 << K)))
    return form(d, pairs, K)


def test_cached_levels_match_valuations():
    rng = random.Random(29)

    def check(g):
        assert g.levels() == tuple(c.valuation() for c in g.coeffs)
        assert g.max_level() == max(c.valuation() for c in g.coeffs)
        assert g.is_reduced() == (g.max_level() < g.d)

    for _ in range(60):
        d = rng.choice((6, 10))
        # levels up to d + 3 stay reducible within a window of 2d + 4
        f = _seeded_form(rng, d, rng.randrange(1, 12), d + 4, 2 * d + 4)
        check(f)
        red = reduce_levels(f)
        check(red)
        for t in range(d):
            check(_reframe(red, t))
        check(normalize(f)[0])


# --- reduction -------------------------------------------------------------


def test_reduce_single_step():
    f = form(6, [(1 << 7, 0)], 16)
    g = reduce_levels(f)
    assert g.levels() == (1,)
    assert g.coeffs[0] == RingElem(2, 0, 16)
    assert g.subst_log == (1,)
    assert g.windows == (10,)
    assert g.root() is f


def test_reduce_64_to_1():
    g = reduce_levels(form(6, [(64, 0)], 16))
    assert g.coeffs[0] == RingElem(1, 0, 16) and g.levels() == (0,)


def test_reduce_mixed():
    g = reduce_levels(form(6, [(1, 0), (0, 1 << 9)], 16))
    assert g.levels() == (0, 3)
    assert g.coeffs[1] == RingElem(0, 8, 16)
    assert g.subst_log == (0, 1)


def test_reduce_noop_returns_same_object():
    f = form(6, [(1, 0), (4, 0)])
    assert reduce_levels(f) is f


def test_reduce_rejects_underprecise():
    # level 7 needs reduction but sits inside the last d digits of K=10
    with pytest.raises(PrecisionMismatch):
        reduce_levels(form(6, [(1 << 7, 0)], 10))


def test_low_levels_near_window_edge_are_fine():
    # level 4 with K=10 needs no reduction and passes through untouched
    f = form(6, [(1, 0), (16, 0)], 10)
    assert reduce_levels(f) is f


# --- shifts ----------------------------------------------------------------
# `_reframe(f, t)`, t > 0, is the rotation `normalize` applies; only it writes a scale


def test_shift_levels_wrap():
    f = form(6, [(1, 0), (1, 0), (32, 0)], 12)
    g = _reframe(f, 1)
    assert g.levels() == (1, 1, 0)
    assert g.scale_log == 1
    assert g.subst_log == (0, 0, 1)


def test_shift_full_cycle_is_level_identity():
    f = form(6, [(1, 0), (4, 0), (16, 0)], 12)
    g = _reframe(_reframe(f, 2), 4)
    assert g.levels() == f.levels() and g.scale_log == 6


def test_shift_by_two():
    f = form(6, [(1, 0), (4, 0), (16, 0)], 12)
    assert _reframe(f, 2).levels() == (2, 4, 0)


def test_shift_window_erosion():
    f = form(6, [(1, 0), (32, 0)], 10)
    g = _reframe(f, 1)
    assert g.levels() == (1, 0)
    assert g.windows == (10, 5)  # wrapped variable lost d - t digits


def test_shift_refuses_a_coefficient_shifted_out():
    # at K = 3 a level-2 coefficient times 2 is 0 in its window
    f = form(6, [(1, 0), (4, 0)], 3)
    with pytest.raises(PrecisionMismatch, match="coefficient 0 indistinguishable from 0"):
        _reframe(f, 1)


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=8),
    st.integers(0, 5),
)
def test_shift_roundtrip_level_multiset(levels, t):
    f = form(6, [(1 << lvl, 0) for lvl in levels], 16)
    g = _reframe(_reframe(f, t), (6 - t) % 6)
    assert sorted(g.levels()) == sorted(f.levels())


@st.composite
def frame_cases(draw):
    """A root form of degree d at levels 0..3d - 1 below its precision K,
    reframed by t0 or left as it is, and the t it is reframed by next."""
    d = draw(st.sampled_from((2, 6, 10, 14)))
    K = draw(st.integers(1, 4 * d))
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        lvl = draw(st.integers(0, min(3 * d, K) - 1))
        a, b = draw(st.sampled_from(((1, 0), (0, 1), (1, 1))))
        high = draw(st.integers(0, (1 << K) - 1)) << 1
        pairs.append((((a | high) << lvl) % (1 << K), ((b | high) << lvl) % (1 << K)))
    f = form(d, pairs, K)
    t0 = draw(st.none() | st.integers(0, d - 1))
    if t0 is not None:
        try:
            f = _reframe(f, t0)
        except PrecisionMismatch:
            pass
    return f, draw(st.integers(0, d - 1))


@given(frame_cases())
def test_reframe_satisfies_the_frame_relations(case):
    # each coefficient at level l in a window w goes to level (l + t) mod d,
    # its substitution grows by i = (l + t) div d, its window becomes
    # min(w + t - d i, K), and coeff * 2^(d e) = root coeff * 2^scale in
    # O/2^K, e the variable's whole substitution; refused exactly when a
    # level at or above d reaches w - d or a level below d - t reaches K - t
    f, t = case
    d, K, root = f.d, f.K, f.root()
    refused = any(lvl >= d and lvl >= w - d or lvl + t < d and lvl + t >= K
                  for lvl, w in zip(f.levels(), f.windows))
    if refused:
        with pytest.raises(PrecisionMismatch):
            _reframe(f, t)
        return
    g = _reframe(f, t)
    assert g.root() is root and g.scale_log == f.scale_log + t and g.K == K
    for j, (lvl, w) in enumerate(zip(f.levels(), f.windows)):
        i = (lvl + t) // d
        assert g.levels()[j] == (lvl + t) % d == g.coeffs[j].valuation()
        assert g.subst_log[j] == f.subst_log[j] + i
        assert g.windows[j] == min(w + t - d * i, K)
        cur, orig, e = g.coeffs[j], root.coeffs[j], g.subst_log[j]
        assert (RingElem(cur.a << d * e, cur.b << d * e, K)
                == RingElem(orig.a << g.scale_log, orig.b << g.scale_log, K))


def test_frame_relation_holds():
    # coeff_cur * 2^(d e_j) == coeff_orig * 2^t in O/2^K
    f = form(6, [(3, 0), (0, 96), (1 << 7, 5 << 7)], 16)
    g, t = normalize(reduce_levels(f))
    K = f.K
    for j in range(f.s):
        cur = g.coeffs[j]
        lhs = RingElem(cur.a << (6 * g.subst_log[j]), cur.b << (6 * g.subst_log[j]), K)
        orig = f.coeffs[j]
        rhs = RingElem(orig.a << g.scale_log, orig.b << g.scale_log, K)
        assert lhs == rhs


# --- normalization ---------------------------------------------------------


def test_normalize_reduces_an_unreduced_form_first():
    # counting the levels finds the one at or above d; normalize then runs
    # on reduce_levels' form, and passes its refusal on
    f = form(6, [(64, 0), (1, 0), (2, 2)], 16)
    g, t = normalize(f)
    h, u = normalize(reduce_levels(f))
    assert (g.coeffs, g.windows, g.subst_log, g.scale_log, t) == (
        h.coeffs, h.windows, h.subst_log, h.scale_log, u)
    assert g.root() is f and g.levels() == h.levels()
    with pytest.raises(PrecisionMismatch):
        normalize(form(6, [(64, 0), (1, 0)], 10))


def test_normalize_all_level_zero():
    f = form(6, [(1, 0)] * 7)
    g, t = normalize(f)
    assert t == 0 and g is f


def test_normalize_single_level_mass():
    f = form(6, [(2, 0)] * 7)
    g, t = normalize(f)
    assert t == 5
    assert g.levels() == (0,) * 7


def test_normalize_uniform_distribution():
    pairs = []
    for lvl in range(6):
        pairs += [(1 << lvl, 0), (1 << lvl, 0)]
    g, t = normalize(form(6, pairs, 12))
    assert t == 0


@given(st.lists(st.integers(0, 5), min_size=1, max_size=12), st.integers(0, 2))
def test_normalize_prefix_inequalities(levels, cls):
    unit = [(1, 0), (0, 1), (1, 1)][cls]
    f = form(6, [(unit[0] << lvl, unit[1] << lvl) for lvl in levels], 16)
    g, t = normalize(f)
    d, s = 6, len(levels)
    counts = [0] * d
    for lvl in g.levels():
        counts[lvl] += 1
    pref = 0
    for j in range(d):
        pref += counts[j]
        assert d * pref >= (j + 1) * s



def first_rotation_by_search(counts):
    """The smallest t whose rotation (level l to l + t mod d) passes every
    prefix inequality, found by checking every t and prefix in turn: the
    O(d^2) search `normalize` ran before it read t off the prefix sums.
    None when no rotation passes."""
    d, s = len(counts), sum(counts)
    for t in range(d):
        pref = 0
        for j in range(d):
            pref += counts[(j - t) % d]
            if d * pref < (j + 1) * s:
                break
        else:
            return t
    return None


def test_normalize_rotation_matches_quadratic_search():
    rng = random.Random(2017)
    seen = {"t = 0": 0, "t > 0": 0, "s < d": 0, "tie": 0}
    for d in (2, 6, 10, 14, 18):
        for i in range(300):
            if i % 3 == 0:  # a repeated block: every period start ties
                period = rng.choice([p for p in range(1, d) if d % p == 0])
                block = [rng.randrange(3) for _ in range(period)]
                counts = block * (d // period)
            else:
                counts = [0] * d
                for _ in range(rng.randrange(1, 3 * d)):
                    counts[rng.randrange(d)] += 1
            if not any(counts):
                counts[rng.randrange(d)] = 1
            want = first_rotation_by_search(counts)
            assert want is not None, counts  # some rotation always passes
            levels = [lvl for lvl in range(d) for _ in range(counts[lvl])]
            rng.shuffle(levels)
            f = form(d, [(1 << lvl, 0) for lvl in levels])
            g, t = normalize(f)
            assert t == want, counts
            assert sorted(g.levels()) == sorted((lvl + t) % d for lvl in levels)
            valid = sum(first_rotation_by_search(counts[-r:] + counts[:-r]) == 0
                        for r in range(d))
            seen["t = 0" if t == 0 else "t > 0"] += 1
            seen["s < d"] += len(levels) < d
            seen["tie"] += valid > 1
    assert min(seen.values()) >= 50, seen

# --- evaluation and serialization ------------------------------------------


def test_evaluate():
    f = form(6, [(1, 0), (7, 0)])
    total = f.evaluate([RingElem.one(10), RingElem.one(10)])
    assert total == RingElem(8, 0, 10)


def ring_evaluate(f, values, K):
    """The form's sum at precision K, one RingElem operation at a time."""
    total = RingElem.zero(K)
    for c, x in zip(f.coeffs, values):
        total = total + RingElem(c.a, c.b, K) * RingElem(x.a, x.b, K) ** f.d
    return total


def test_evaluate_matches_ring_elem_loop():
    rng = random.Random(17)
    for _ in range(200):
        d = rng.choice((6, 10))
        K = d + 4
        f = _seeded_form(rng, d, rng.randrange(1, 9), d, K)
        vK = rng.choice((K - 3, K, K + 5))
        values = [
            RingElem(0, 0, vK) if rng.random() < 0.3
            else RingElem(rng.getrandbits(vK), rng.getrandbits(vK), vK)
            for _ in range(f.s)
        ]
        for at_K in (K - 4, K):
            assert f.evaluate(values).reduce_to(at_K) == ring_evaluate(f, values, at_K)


def test_json_roundtrip():
    f = form(6, [(1, 0), (0, 3)], 12)
    doc = f.to_json()
    assert doc == {"degree": 6, "precision": 12, "coeffs": [[1, 0], [0, 3]]}
    g = AdditiveForm.from_json(doc)
    assert g.coeffs == f.coeffs and g.d == 6


def from_text(text):
    return AdditiveForm.from_json(parse_form_text(text))


def test_from_text():
    f = from_text("d=6; 1, 1, 1*w, 4, 4, 4*w, 16, 16, 16*w")
    assert f.d == 6 and f.s == 9 and f.K == 10
    assert f.coeffs[2] == RingElem(0, 1, 10)
    assert f.coeffs[8] == RingElem(0, 16, 10)
    g = from_text("d=6; K=12; 1, 7")
    assert g.K == 12 and g.s == 2


def test_from_text_rejects_bad_input():
    for bad in ("", "x=6; 1", "d=6;", "d=6; q=3; 1", "d=6; 1, junk"):
        with pytest.raises(ValueError):
            from_text(bad)
