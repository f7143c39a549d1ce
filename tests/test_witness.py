"""Witness objects, verification clauses, and frame back-mapping."""

import random
from collections import Counter

import pytest

from padic_forms.errors import CertificateError, HenselError
from padic_forms.forms import AdditiveForm, reduce_levels
from padic_forms.ring import RingElem, solve_anchor
from padic_forms.solver import decide_isotropy
from padic_forms.witness import (
    Witness,
    map_to_origin,
    verify_witness,
)
from test_ring import newton_anchor_solve


def elem(a, b, K):
    return RingElem(a, b, K)


def anchor_solved(coeffs, d, values, anchor):
    """values with the anchor scaled by solve_anchor's z, the terms
    c * x^d taken with RingElem arithmetic at the coefficients' precision."""
    K = coeffs[0].K
    vals = [elem(x.a, x.b, K) for x in values]
    terms = [((c * x ** d).a, (c * x ** d).b) for c, x in zip(coeffs, vals)]
    rest = [t for j, t in enumerate(terms) if j != anchor]
    z = solve_anchor(terms[anchor], (sum(a for a, _ in rest), sum(b for _, b in rest)), d, K)
    vals[anchor] = vals[anchor] * elem(*z, K)
    return vals


def test_verify_accepts_hensel_pair():
    f = AdditiveForm.from_pairs(6, [(1, 0), (7, 0)], 10)
    coeffs = [f.coeffs[0], f.coeffs[1]]
    vals = anchor_solved(coeffs, 6, [elem(1, 0, 10), elem(1, 0, 10)], 0)
    w = Witness(tuple(vals), 0, 10)
    assert verify_witness(f, w)
    assert f.evaluate(w.values) == elem(0, 0, 10)


def test_verify_rejects_no_unit():
    f = AdditiveForm.from_pairs(6, [(1, 0), (7, 0)], 10)
    zero = elem(0, 0, 10)
    assert not verify_witness(f, Witness((zero, zero), 0, 10))


def test_verify_rejects_shallow_valuation():
    f = AdditiveForm.from_pairs(6, [(1, 0), (7, 0)], 10)
    # 1 + 7 = 8: vanishes mod 8 but a claim of V = 2 fails the level+3 bar
    w = Witness((elem(1, 0, 10), elem(1, 0, 10)), 0, 2)
    assert not verify_witness(f, w)


def test_verify_rejects_overclaimed_precision():
    f = AdditiveForm.from_pairs(6, [(1, 0), (7, 0)], 10)
    coeffs = list(f.coeffs)
    vals = anchor_solved(coeffs, 6, [elem(1, 0, 10), elem(1, 0, 10)], 0)
    assert not verify_witness(f, Witness(tuple(vals), 0, 11))


def test_verify_rejects_nonvanishing_sum():
    f = AdditiveForm.from_pairs(6, [(1, 0), (1, 0)], 10)
    w = Witness((elem(1, 0, 10), elem(1, 0, 10)), 0, 10)
    assert not verify_witness(f, w)


def test_witness_json_roundtrip():
    w = Witness((elem(621, 0, 10), elem(1, 0, 10)), 0, 10)
    doc = w.to_json()
    assert doc == {
        "values": [[621, 0], [1, 0]],
        "primitive": 0,
        "target_valuation": 10,
        "precision": 10,
    }
    assert Witness.from_json(doc) == w


def test_solve_anchor_kills_all_digits():
    K = 14
    coeffs = [elem(1, 0, K), elem(7, 0, K), elem(1, 1, K)]
    vals = [elem(1, 0, K), elem(1, 0, K), elem(0, 0, K)]
    # 1 + 7 = 8 vanishes mod 2^3, clearing the anchor's level-0 bar
    total0 = sum(
        (c * v ** 6 for c, v in zip(coeffs, vals)), elem(0, 0, K)
    )
    assert total0.valuation() >= 3
    out = anchor_solved(coeffs, 6, vals, 0)
    total = sum((c * v ** 6 for c, v in zip(coeffs, out)), elem(0, 0, K))
    assert total == elem(0, 0, K)
    assert out[1] == vals[1] and out[2] == vals[2]


def ring_solve_anchor(coeffs, d, values, anchor):
    """anchor_solved with every sum taken one RingElem operation at a time."""
    K = coeffs[0].K
    vals = [elem(x.a, x.b, K) for x in values]
    rest = elem(0, 0, K)
    for j, (c, x) in enumerate(zip(coeffs, vals)):
        if j != anchor:
            rest = rest + c * x ** d
    z = newton_anchor_solve(coeffs[anchor] * vals[anchor] ** d, d, rest)
    vals[anchor] = vals[anchor] * z
    return vals


def test_solve_anchor_matches_ring_elem_loop():
    rng = random.Random(31)
    outcomes = {"solved": 0, "refused": 0}
    for _ in range(120):
        d = rng.choice((6, 10))
        K = d + 4
        pairs = [((rng.getrandbits(K) | 1) << rng.randrange(3), rng.getrandbits(K))
                 for _ in range(rng.randrange(3, 9))]
        f = AdditiveForm.from_pairs(d, pairs, K)
        r = decide_isotropy(f)
        if r.witness is None:
            continue
        w = r.witness
        values = list(w.values)
        if rng.random() < 0.3:  # break the sum: the anchor solve must refuse
            j = next(j for j, x in enumerate(values) if j != w.primitive and (x.a, x.b) != (0, 0))
            values[j] = values[j] + elem(1, 0, values[j].K)
        for at_K in (K - 2, K, K + 6):
            coeffs = [elem(c.a, c.b, at_K) for c in f.coeffs]
            try:
                want = ring_solve_anchor(coeffs, d, values, w.primitive)
            except HenselError:
                with pytest.raises(HenselError):
                    anchor_solved(coeffs, d, values, w.primitive)
                outcomes["refused"] += 1
                continue
            assert anchor_solved(coeffs, d, values, w.primitive) == want
            outcomes["solved"] += 1
    assert min(outcomes.values()) > 0, outcomes


def dense_back_map(g, values, anchor):
    """The back-mapping of a zero `values` of g mod 2^K, K = g.K (one
    RingElem per variable), written out over every variable with integer
    arithmetic: x_j = 2^(N - e_j) y_j with N the largest e_j - v(y_j) over
    the nonzero y_j, each x_j at the root's precision;
    V = min(K_root, K + d N); the primitive is `anchor` without a frame,
    else the unit of least (root level, variable)."""
    root = g.root()
    used = [j for j, y in enumerate(values) if (y.a, y.b) != (0, 0)]
    if not used:
        raise CertificateError("witness uses no variables")
    N = max(g.subst_log[j] - values[j].valuation() for j in used)
    V = min(root.K, g.K + g.d * N)
    if V < 1:
        raise CertificateError("no certified digits")
    out = []
    for j, y in enumerate(values):
        up = N - g.subst_log[j]
        if up >= 0:
            out.append(elem(y.a * 2 ** up, y.b * 2 ** up, root.K))
        else:
            assert y.a % 2 ** -up == 0 and y.b % 2 ** -up == 0
            out.append(elem(y.a // 2 ** -up, y.b // 2 ** -up, root.K))
    units = [j for j in used if out[j].is_unit()]
    if not units:
        raise CertificateError("no unit variable survives")
    if g.origin is not None:
        anchor = min(units, key=lambda j: (root.levels()[j], j))
    return Witness(tuple(out), anchor, V)


def entries(values):
    return [(j, x.a, x.b) for j, x in enumerate(values)]


def test_map_to_origin_identity_without_frame():
    # without a frame the entries come back unchanged, anchored where the
    # caller anchored them
    f = AdditiveForm.from_pairs(6, [(1, 0), (7, 0)], 10)
    vals = (elem(621, 0, 10), elem(1, 0, 10))
    for anchor in (0, 1):
        w = map_to_origin(f, entries(vals), anchor)
        assert w == Witness(vals, anchor, 10) == dense_back_map(f, vals, anchor)


def test_map_to_origin_scales_substituted_variables():
    f = AdditiveForm.from_pairs(6, [(1, 0), (7 << 6, 0)], 16)
    g = reduce_levels(f)
    # witness in g's frame using both variables, anchor solved exactly
    vals = anchor_solved(g.coeffs, 6, [elem(1, 0, 16), elem(1, 0, 16)], 0)
    w = map_to_origin(g, entries(vals), 0)
    assert w == dense_back_map(g, vals, 0)
    # x_0 = 2 y_0 keeps variable 1 (substitution exponent 1) the unit
    assert w.values[1].is_unit()
    assert w.values[0].valuation() == 1
    assert w.primitive == 1
    assert verify_witness(f, w)


def test_map_to_origin_matches_dense_back_mapping():
    # random reduction frames and random entries mod 2^K, zeros and high
    # valuations included; the entries need not be a zero of the form
    rng = random.Random(17)
    seen = Counter()
    for _ in range(600):
        d = rng.choice((6, 10))
        K0 = rng.choice((d + 4, 3 * d + 2))
        pairs = []
        for _ in range(rng.randrange(1, 7)):
            lvl = rng.randrange(0, min(2 * d, K0 - d))
            pairs.append(((rng.getrandbits(K0) | 1) << lvl, rng.getrandbits(K0) << lvl))
        g = reduce_levels(AdditiveForm.from_pairs(d, pairs, K0))
        vals = [elem(0, 0, K0) if rng.random() < 0.3 else
                elem((rng.getrandbits(K0) | 1) << rng.randrange(3), rng.getrandbits(K0), K0)
                for _ in range(g.s)]
        anchor = rng.randrange(g.s)
        try:
            want = dense_back_map(g, vals, anchor)
        except CertificateError as e:
            with pytest.raises(CertificateError, match=str(e)):
                map_to_origin(g, entries(vals), anchor)
            seen[str(e)] += 1
            continue
        assert map_to_origin(g, entries(vals), anchor) == want
        seen["mapped"] += 1
    # "no unit variable survives" never occurs: the entry reaching N maps
    # to y_j / 2^v(y_j), a unit
    assert set(seen) == {"mapped", "no certified digits", "witness uses no variables"}, seen


def test_map_to_origin_rejects_empty_support():
    f = AdditiveForm.from_pairs(6, [(1, 0), (3 << 6, 0)], 16)
    g = reduce_levels(f)
    with pytest.raises(CertificateError, match="uses no variables"):
        map_to_origin(g, [(0, 0, 0), (1, 1 << g.K, 0)], 0)


def test_map_to_origin_refuses_when_no_digits_are_certified():
    # entries all divisible by 4 map back to x_j = y_j / 4, whose sum
    # vanishes only to 2^(K - 2d): at K = 10 no digit is certified
    f = AdditiveForm.from_pairs(6, [(1, 0), (7, 0)], 10)
    with pytest.raises(CertificateError, match="no certified digits"):
        map_to_origin(f, entries([elem(4, 0, 10), elem(12, 0, 10)]), 0)
    # at K = 7, entries divisible by 2 leave one digit: 7 - 6 = 1
    f = AdditiveForm.from_pairs(6, [(1, 0), (7, 0)], 7)
    assert map_to_origin(f, entries([elem(2, 0, 7), elem(6, 0, 7)]), 0).V == 1
