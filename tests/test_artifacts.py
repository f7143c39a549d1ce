import json
import random
from itertools import product

import pytest

from padic_forms.artifacts import (
    Block,
    BlockForm,
    DescentResult,
    agreement_experiment,
    gamma_experiment,
    named_form,
    sample_form,
    verify_descent,
)
from padic_forms.errors import DegreeShapeError
from padic_forms.flat import mod8_table
from padic_forms.oracle import decide_isotropy_exhaustive, power_value_set
from test_oracle import value_set


def test_named_form_G_shape():
    bf = named_form("G", 6)
    assert bf.s == 3
    assert bf.coefficient_pairs() == ((1, 0), (1, 0), (0, 1))
    f = bf.form()
    assert f.d == 6 and f.K == 10 and f.s == 3


def test_named_form_H_shapes():
    bf = named_form("H", 6)
    assert bf.s == 9
    assert bf.coefficient_pairs() == (
        (1, 0), (1, 0), (0, 1),
        (4, 0), (4, 0), (0, 4),
        (16, 0), (16, 0), (0, 16),
    )
    bf10 = named_form("H", 10)
    assert bf10.s == 15
    assert [b.level for b in bf10.blocks] == [0, 2, 4, 6, 8]
    assert bf10.form().K == 14


def test_named_form_I_cycles_units_by_level():
    bf = named_form("I", 6)
    assert bf.s == 18
    assert [b.level for b in bf.blocks] == [0, 1, 2, 3, 4, 5]
    assert bf.coefficient_pairs()[:9] == (
        (1, 0), (1, 0), (1, 0),
        (0, 2), (0, 2), (0, 2),
        (4, 4), (4, 4), (4, 4),
    )
    assert bf.coefficient_pairs()[9:12] == ((8, 0), (8, 0), (8, 0))


def test_named_form_constraints():
    with pytest.raises(DegreeShapeError):
        named_form("I", 10)  # needs 3 | d
    with pytest.raises(DegreeShapeError):
        named_form("G", 4)  # m must be odd
    with pytest.raises(DegreeShapeError):
        named_form("G", 2)  # below smallest supported degree
    with pytest.raises(ValueError):
        named_form("Z", 6)


def test_descent_on_named_families():
    for name, d, rounds in [("G", 6, 1), ("F", 6, 1), ("H", 6, 3), ("H", 10, 5), ("I", 6, 6)]:
        res = verify_descent(named_form(name, d))
        assert isinstance(res, DescentResult)
        assert res.status == "DESCENT", (name, d)
        assert len(res.certificate.rounds) == rounds
        assert res.failure is None


def test_descent_I_first_window_values():
    res = verify_descent(named_form("I", 6))
    r0 = res.certificate.rounds[0]
    assert r0.level == 0 and r0.modulus == 2
    assert r0.window == (0, 1, 2, 3, 4, 5)
    assert r0.min_vars == (0, 1, 2)
    want = tuple(sorted((p, 2 * q) for p in range(4) for q in range(2)))
    assert r0.window_values == want


def test_descent_round_structure_H6():
    res = verify_descent(named_form("H", 6))
    for i, rnd in enumerate(res.certificate.rounds):
        assert rnd.index == i
        assert rnd.level == 0  # each round renormalizes to a fresh minimum
        assert rnd.modulus == 2
        assert len(rnd.min_vars) == 3
        # G-block window sums p + q*alpha, p in 0..2, q in 0..1, never a
        # primitive zero
        assert (0, 0) in rnd.window_values
        assert all(pair[0] < 4 and pair[1] < 4 for pair in rnd.window_values)


def test_descent_failure_on_soluble_blocks():
    bad = BlockForm(6, (Block(0, ((1, 0),) * 3), Block(1, ((1, 0),) * 3)))
    res = verify_descent(bad)
    assert res.status == "FAILURE"
    assert res.certificate is None
    picks = res.failure["assignment"]
    window = res.failure["window"]
    # re-check the reported assignment: it must be a primitive zero mod 4
    coeffs = bad.coefficient_pairs()
    ta = tb = 0
    for i, (pa, pb) in zip(window, picks):
        ca, cb = coeffs[i]
        ta += ca * pa + cb * pb
        tb += ca * pb + cb * pa + cb * pb
    assert ta % 4 == 0 and tb % 4 == 0
    assert any(
        (pa, pb) != (0, 0) and i in (0, 1, 2)
        for i, (pa, pb) in zip(window, picks)
    )


def _mul(x, y):
    (a, b), (c, d) = x, y
    return a * c + b * d, a * d + b * c + b * d


def _first_round_by_enumeration(bf):
    """Round 0 of the descent by listing every assignment of d-th power
    values mod 4 to the window, in the order of a depth-first walk that
    tries the values from the largest down: the window, its sums, and the
    first assignment that is a zero with a unit value on a minimum-level
    variable (None if there is none)."""
    values = set()
    for a, b in product(range(4), repeat=2):
        x = (1, 0)
        for _ in range(bf.d):
            x = _mul(x, (a, b))
        values.add((x[0] % 4, x[1] % 4))
    order = sorted(values, reverse=True)
    coeffs = bf.coefficient_pairs()
    levels = [next(v for v in range(99) if ((a | b) >> v) & 1) for a, b in coeffs]
    lmin = min(levels)
    mask = (1 << (lmin + 2)) - 1
    window = [i for i, lvl in enumerate(levels) if lvl < lmin + 2]
    sums, first = set(), None
    for picks in product(order, repeat=len(window)):
        terms = [_mul(coeffs[i], pv) for i, pv in zip(window, picks)]
        key = (sum(t[0] for t in terms) & mask, sum(t[1] for t in terms) & mask)
        sums.add(key)
        if first is None and key == (0, 0) and any(
            pv != (0, 0) and levels[i] == lmin for i, pv in zip(window, picks)
        ):
            first = picks
    return window, tuple(sorted(sums)), first


def test_descent_first_round_matches_enumeration():
    # the reachability pass against every assignment of the first window:
    # the same sums when the round passes, the same first primitive zero
    # when it fails
    rng = random.Random(5)
    units = [(1, 0), (0, 1), (1, 1), (3, 0), (1, 2), (3, 3), (5, 2), (2, 1)]
    statuses = set()
    for _ in range(120):
        d = rng.choice([6, 10])
        blocks = tuple(
            Block(rng.randrange(0, 4), tuple(rng.choice(units) for _ in range(3)))
            for _ in range(rng.randrange(1, 5 if d == 6 else 3))
        )
        bf = BlockForm(d, blocks)
        res = verify_descent(bf)
        window, sums, first = _first_round_by_enumeration(bf)
        if res.failure is not None and res.failure["round"] == 0:
            assert first is not None and res.failure["window"] == window, bf
            assert res.failure["assignment"] == [list(pv) for pv in first], bf
        else:
            assert first is None, bf
            if res.certificate is not None:
                r0 = res.certificate.rounds[0]
                assert list(r0.window) == window and r0.window_values == sums, bf
        statuses.add(res.status)
    assert statuses == {"DESCENT", "FAILURE"}


@pytest.mark.parametrize("d", [6, 10, 14, 18])
def test_descent_values_mod4_match_the_oracle(d):
    # the descent reads the d-th powers mod 4 off the multiplier reps mod 8;
    # the oracle enumerates x^d mod 4 over every x
    want = value_set(power_value_set(d, 2))
    got = {(0, 0)} | {(c & 3, c >> 3 & 3) for c in mod8_table(d).products[1]}
    assert got == want


def test_descent_certificate_json_roundtrip_stable():
    res = verify_descent(named_form("H", 6))
    doc = res.certificate.to_json()
    assert doc["kind"] == "descent"
    assert doc["degree"] == 6 and doc["variables"] == 9
    assert len(doc["rounds"]) == 3
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        verify_descent(named_form("H", 6)).certificate.to_json(), sort_keys=True
    )


def test_descent_agrees_with_exhaustive_oracle_on_H6():
    f = named_form("H", 6).form()
    decision = decide_isotropy_exhaustive(f)
    assert decision.verdict == "ANISOTROPIC"
    assert verify_descent(named_form("H", 6)).status == "DESCENT"


def test_sample_form_shape():
    import random

    rng = random.Random(0)
    f = sample_form(rng, 6, 5)
    assert f.s == 5 and f.K == 10
    assert all(c.valuation() < 6 for c in f.coeffs)


def test_gamma_experiment_counts():
    rep = gamma_experiment(6, 4, 25, seed=3)
    assert rep.isotropic + rep.anisotropic == 25
    assert rep.anisotropic > 0  # four variables cannot always be isotropic
    assert rep.refuting_examples == []  # only archived beyond 3d variables
    doc = rep.to_json()
    assert doc["trials"] == 25 and doc["seed"] == 3


def test_gamma_experiment_isotropic_at_threshold():
    rep = gamma_experiment(6, 25, 20, seed=9)
    assert rep.isotropic == 20
    assert "inconclusive" not in rep.to_json()


def test_experiments_need_trials():
    # zero samples would report no refuting example and no mismatch
    with pytest.raises(ValueError, match="at least 1 trial"):
        gamma_experiment(6, 8, 0, seed=1)
    with pytest.raises(ValueError, match="at least 1 trial"):
        agreement_experiment(6, 0, seed=1)


def test_agreement_experiment_small():
    rep = agreement_experiment(6, 30, seed=5)
    assert rep.mismatches == []
    assert rep.isotropic + rep.anisotropic == 30
    assert rep.anisotropic > 0  # small variable counts must produce both kinds
    assert rep.isotropic > 0
    # deterministic modulo timing
    again = agreement_experiment(6, 30, seed=5)
    assert again.to_json() == rep.to_json()
