import hashlib
import json
import sys
import threading
import tracemalloc
from dataclasses import replace
from itertools import combinations_with_replacement, product
from math import comb

import numpy as np
import pytest

from padic_forms import flat, sweeps
from padic_forms.engine import validate_certificate
from padic_forms.errors import PadicFormsError
from padic_forms.flat import search_certificate
from padic_forms.forms import AdditiveForm, default_precision
from padic_forms.oracle import decide_isotropy_exhaustive
from padic_forms.ring import RingElem, multiplier_set
from padic_forms.sweeps import (
    SWEEP_LEMMAS,
    SweepLemma,
    _anchor,
    _anchor_misses,
    _class_codes,
    _NEG_CODE,
    _SCALE,
    _automata,
    _exhaustive_slots,
    _profile_form,
    _sample_ranks,
    _sampled_verdicts,
    _fill,
    _slot_join,
    _tables,
    _trial_form,
    _translate_rows,
    _unit_sums,
    exhaustive_lemma_ids,
    minimality_probe,
    sampled_lemma_ids,
    sweep_lemma,
)


def raw_rows(class_counts) -> np.ndarray:
    """Every multiset of codes per class, concatenated: the raw space the
    orbit enumeration stands for."""
    slots = [
        list(combinations_with_replacement(_class_codes(cls), k))
        for cls, k in zip((1, 2, 3), class_counts)
        if k
    ]
    return np.array([sum(parts, ()) for parts in product(*slots)], np.int32)


def slot_product(slots) -> tuple:
    """The product of the class slots, last slot fastest: rows and
    weights, through one index grid."""
    idx = np.indices([len(rows) for rows, _ in slots]).reshape(len(slots), -1)
    X = np.concatenate([rows[i] for (rows, _), i in zip(slots, idx)], axis=1)
    W = np.prod([weights[i] for (_, weights), i in zip(slots, idx)], axis=0)
    return X, W


def draw(lem, trials, seed) -> tuple:
    """The ranks and levels a sampled sweep of lem draws at this seed."""
    return _sample_ranks(lem, trials, np.random.default_rng(seed).bit_generator.random_raw)


def codes_of(d, R) -> np.ndarray:
    """The unit codes of the ranks R, through degree d's rank table."""
    return _tables(d).code[R]


def ranks_of(d, X) -> np.ndarray:
    """The ranks of the unit codes X, through degree d's rank table."""
    return _tables(d).rank[X]


def least(d, v) -> int:
    """The least code of the orbit of any code v at degree d under the
    multiplier reps, from the products table alone."""
    return int(_tables(d).mulr[:, v].min())


def trial(lem_d, R, lv, i) -> AdditiveForm:
    """Trial i of the rank matrix R as the form a failure record builds."""
    c = codes_of(lem_d, R[:, i])
    return _trial_form(lem_d, c & 7, c >> 3, lv)


def digit_form(d, ua, ub, lv, digits) -> AdditiveForm:
    """Variable i as the coefficient 2^lv_i * (ua_i + ub_i w), trusted to
    `digits` digits from its level up."""
    K = int(lv.max()) + digits
    coeffs = [RingElem(int(a) << int(l), int(b) << int(l), K) for a, b, l in zip(ua, ub, lv)]
    return AdditiveForm(d, tuple(coeffs), windows=tuple(int(l) + digits for l in lv))


# fixed classes at level 0 and free ones at levels 1 and 2: both scale
# shifts and both kinds of drawn column
MIXED = SweepLemma("mixed", 6, (1, 1, 1), (0, 2, 2), None)


def sums(X, tab) -> np.ndarray:
    """Per row of the codes X, its sum set: one `_fill` step per column
    from the empty set."""
    N = np.zeros(len(X), np.uint64)
    for col in X.T:
        N = _fill(N, col, tab)
    return N


def vanishes(X, tab) -> np.ndarray:
    """Per one-level row, whether some multiplier-scaled sub-sum is 0 mod 8."""
    return (sums(X, tab) & 1).astype(bool)


def _mul8(x, y):
    a, b = x
    c, d = y
    return (a * c + b * d) & 7, (a * d + b * c + b * d) & 7


def test_multiplier_reps_form_group_mod8():
    for d, size in ((6, 2), (10, 6)):
        tab = _tables(d)
        reps = {(r.value.a & 7, r.value.b & 7) for r in multiplier_set(d, 3).reps}
        assert len(reps) == size
        assert reps == {(c & 7, c >> 3) for c in tab.mulr[:, 1]}  # r * 1
        assert (1, 0) in reps
        for x in reps:
            for y in reps:
                assert _mul8(x, y) in reps


def test_class_codes_partition_level0_units():
    seen = set()
    for cls in (1, 2, 3):
        codes = _class_codes(cls)
        assert len(codes) == 16
        for c in codes:
            a, b = c & 7, c >> 3
            assert (a & 1, (b & 1) << 1) == (cls & 1, cls & 2)
        seen.update(codes)
    assert len(seen) == 48


def test_declared_exhaustive_counts():
    expected = {
        "223": 15_092_736,
        "133": 10_653_696,
        "115": 3_969_024,
        "044": 15_023_376,
        "025": 2_108_544,
        "007": 170_544,
    }
    assert {k: SWEEP_LEMMAS[k].exhaustive_total for k in expected} == expected
    assert sum(expected.values()) == 47_017_920
    assert sorted(expected) == sorted(exhaustive_lemma_ids())
    assert len(sampled_lemma_ids()) == 10


def test_exhaustive_enumeration_matches_slot_product():
    lem = SWEEP_LEMMAS["223"]
    slots = _exhaustive_slots(lem.class_counts, 6)
    # 8 orbits {u, 5u} per class: multisets of 2, 2 and 3 orbits
    assert [len(rows) for rows, _ in slots] == [36, 36, 120]
    assert [int(w.sum()) for _, w in slots] == [136, 136, 816]
    X, W = slot_product(slots)
    assert X.shape == (155_520, 7)
    assert int(W.sum()) == 15_092_736
    # last slot fastest, and class slots stay sorted inside each row
    assert list(X[1, 4:]) > list(X[0, 4:]) and list(X[1, :4]) == list(X[0, :4])
    for row in X[:: 997]:
        assert list(row[:2]) == sorted(row[:2])
        assert list(row[2:4]) == sorted(row[2:4])
        assert list(row[4:]) == sorted(row[4:])


def test_sweep_007_exhaustive_complete():
    rep = sweep_lemma("007", "EXHAUSTIVE")
    assert rep.total == 170_544
    assert rep.failures == []
    assert sum(rep.resolution.values()) == rep.total
    assert rep.resolution["closure"] == rep.total


def test_orbit_weights_sum_to_declared_totals():
    for lid in exhaustive_lemma_ids():
        lem = SWEEP_LEMMAS[lid]
        W, _, _ = _slot_join(_exhaustive_slots(lem.class_counts, lem.d), lem.d)
        assert int(W.sum()) == lem.exhaustive_total, lid


def test_orbit_counts_match_raw_enumeration():
    tab = _tables(6)
    for counts in ((0, 0, 7), (0, 0, 6)):
        raw = raw_rows(counts)
        raw_ok = vanishes(raw, tab)
        W, ok, failed = _slot_join(_exhaustive_slots(counts, 6), 6)
        assert int(W.sum()) == len(raw)
        assert int(W[ok].sum()) == int(raw_ok.sum()), counts
        assert int(W[~ok].sum()) == int((~raw_ok).sum()), counts
        if not raw_ok.all():
            # representatives are least in their orbit: the first failing
            # row is the same in both orders
            assert list(failed[0]) == list(raw[~raw_ok][0])


def test_slot_join_matches_full_product():
    # the join of the last slot against the product of the others, on
    # every registered class lemma, the minimality probe's decremented
    # spaces and the bogus 0/0/6, against `_fill` steps on every product
    # row; a slot row holds the ranks of least codes, a failing row codes
    spaces = {SWEEP_LEMMAS[lid].class_counts for lid in exhaustive_lemma_ids()}
    spaces |= {tuple(c - (i == pos) for i, c in enumerate(counts))
               for counts in list(spaces) for pos in range(3) if counts[pos]}
    assert (0, 0, 6) in spaces and len(spaces) == 18
    tab = _tables(6)
    for counts in sorted(spaces):
        slots = _exhaustive_slots(counts, 6)
        R, W = slot_product(slots)
        assert not (R & ((1 << tab.shift) - 1)).any()
        X = codes_of(6, R)
        full = vanishes(X, tab)
        weights, ok, failed = _slot_join(slots, 6)
        assert np.array_equal(weights, W) and np.array_equal(ok, full), counts
        assert np.array_equal(failed, X[~full]), counts
        if counts == (0, 0, 6):
            assert 0 < len(failed) and int(W[~full].sum()) == 1_024


def test_automaton_entries_are_sums_steps():
    # after the ten lemmas' sweeps, every filled entry T[s, o] of each
    # automaton is the state whose mask is one `_fill` step, at
    # column o's code, on the mask of state s; the states are numbered
    # densely from the empty row, their masks distinct, and a unit code
    # of rank r walks the unit column of its orbit, r >> s, and the even
    # column of -2^sh times it at offset (sh - 1) * U
    for lid in sampled_lemma_ids():
        sweep_lemma(lid, "SAMPLED", trials=100_000, seed=42)
    for d in (6, 10):
        tab = _tables(d)
        units, evens = _automata(d)
        for aut in (units, evens):
            W, n = len(aut.reps), len(aut.known)
            assert aut.masks[1] == 0 and sorted(aut.ids.tolist()) == list(range(1, n + 1))
            assert np.array_equal(aut.masks[aut.ids], aut.known)
            assert len(np.unique(aut.masks[1 : n + 1])) == n and not aut.masks[n + 1 :].any()
            T = aut.T.reshape(-1, W)
            assert not T[n + 1 :].any() and not T[0].any()
            s, o = np.nonzero(T[: n + 1])
            assert 0 < len(s) and T.max() <= n, (d, n)
            step = _fill(aut.masks[s], aut.reps[o], tab)
            assert np.array_equal(aut.masks[T[s, o]], step), d
        U = len(units.reps)
        assert (U, len(evens.reps)) == {6: (24, 48), 10: (8, 16)}[d]
        for v in UNIT_CODES:
            o = int(tab.rank[v]) >> tab.shift
            assert least(d, v) == units.reps[o], (d, v)
            for sh in (1, 2):
                col = (sh - 1) * U + o
                assert least(d, _NEG_CODE[_SCALE[sh, v]]) == least(d, evens.reps[col]), (d, v, sh)


def test_automaton_walks_from_threads():
    # four threads share automata that start empty, ten times over, with
    # a short switch interval, so they race on real fills; every thread
    # gets the reports of a run alone.  The exhaustive join and the
    # minimality probe walk the same unit automaton as the sampled
    # sweeps.  A walk that did not hold the lock could number one mask
    # twice or read an entry not written yet
    runs = [(lid, 3000, seed) for lid in ("541", "0225", "211") for seed in (1, 2)]

    def reports():
        return [json.dumps(sweep_lemma(lid, "SAMPLED", trials=trials, seed=seed)
                           .to_json(include_timings=False), sort_keys=True)
                for lid, trials, seed in runs] + [
            json.dumps(sweep_lemma("025").to_json(include_timings=False), sort_keys=True),
            json.dumps(minimality_probe("007").to_json(include_timings=False), sort_keys=True)]

    want = reports()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            _automata.cache_clear()
            got = [None] * 4
            threads = [threading.Thread(target=lambda i=i: got.__setitem__(i, reports()))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 4
    finally:
        sys.setswitchinterval(interval)
        _automata.cache_clear()


def _closure(reps, tab) -> int:
    """The number of masks reached from the empty row by `_fill` steps,
    breadth first, one variable of every orbit at a time."""
    seen, frontier = {0}, np.zeros(1, np.uint64)
    while frontier.size:
        step = _fill(np.repeat(frontier, len(reps)), np.tile(reps, len(frontier)), tab)
        new = set(step.tolist()) - seen
        seen |= new
        frontier = np.array(sorted(new), np.uint64)
    return len(seen)


def test_automaton_closure_fits_for_every_degree():
    # every admissible degree up to 42 has the reps mod 8 of d = 6 when
    # 3 | d and of d = 10 otherwise, so these two closures bound the states
    # any walk can number, at every degree; each family's table holds the
    # larger, d = 6's, exactly
    for d in range(2, 43, 4):
        assert flat.mod8_table(d).products == flat.mod8_table(6 if d % 3 == 0 else 10).products, d
    for d, want in ((6, (28_298, 1_546)), (10, (53, 16))):
        units, evens = _automata(d)
        got = tuple(_closure(aut.reps, _tables(d)) for aut in (units, evens))
        assert got == want and (units.cap, evens.cap) == sweeps._CAP == (28_298, 1_546), d


def test_automaton_past_its_cap_raises(monkeypatch):
    monkeypatch.setattr(sweeps, "_CAP", (40, 40))
    _automata.cache_clear()
    try:
        # at d = 6 the walk that fills the pair table alone needs 325
        # states: the empty row, 24 single orbits and 300 pairs
        with pytest.raises(PadicFormsError, match="more than 40 states"):
            sweep_lemma("541", "SAMPLED", trials=3000, seed=1)
        # at d = 10 it needs 35 (1 + 8 + 26), and a walk passes the cap; a
        # fill that would pass it numbers nothing
        units = _automata(10)[0]
        with pytest.raises(PadicFormsError, match="more than 40 states"):
            sweep_lemma("31", "SAMPLED", trials=3000, seed=1)
        assert len(units.known) == 35 and not units.masks[len(units.known) + 1 :].any()
        # the even family has a cap of its own: at d = 10 it reaches 16,
        # 14 of them in this sweep's three-variable deeper groups
        monkeypatch.setattr(sweeps, "_CAP", (100, 10))
        _automata.cache_clear()
        evens = _automata(10)[1]
        with pytest.raises(PadicFormsError, match="more than 10 states"):
            sweep_lemma("23", "SAMPLED", trials=3000, seed=1)
        assert len(evens.known) <= 10 and not evens.masks[len(evens.known) + 1 :].any()
    finally:
        _automata.cache_clear()


def _pair_keys(d) -> np.ndarray:
    r = ranks_of(d, np.array(UNIT_CODES)).astype(np.intp)
    return np.repeat(r, 48) * 64 + np.tile(r, 48)


def test_pair_table_is_two_walk_steps():
    # every entry of a unit rank pair is the state a walk of its two orbit
    # columns reaches from the empty row; every other entry is 0
    for d in (6, 10):
        units, s = _automata(d)[0], _tables(d).shift
        key = _pair_keys(d)
        walked = units.walk(np.ones(len(key), np.uint16), [key >> 6 >> s, (key & 63) >> s])
        assert np.array_equal(units.pairs[key], walked), d
        X = codes_of(d, np.stack([key >> 6, key & 63], 1))
        assert np.array_equal(units.masks[walked], sums(X, _tables(d)))
        assert units.pairs.dtype == np.uint16 and np.count_nonzero(units.pairs) == 48 * 48


def test_pair_table_does_not_depend_on_the_input():
    # built afresh, first by another sweep, at another seed, and by a shape
    # whose first anchor walks one level-0 row before any pair is looked up
    def tables():
        return [(_automata(d)[0].pairs.copy(), _automata(d)[0].masks[_automata(d)[0].pairs]) for d in (6, 10)]

    runs = [[("0061", None, 42), ("5", None, 42)],
            [("541", None, 9), ("23", None, 9)],
            [("lone6", SweepLemma("lone6", 6, None, (1, 3), None), 3),
             ("lone10", SweepLemma("lone10", 10, None, (1, 3), None), 3)]]
    got = []
    try:
        for run in runs:
            _automata.cache_clear()
            for lid, lem, seed in run:
                C, lv = draw(lem or SWEEP_LEMMAS[lid], 2000, seed)
                _sampled_verdicts(C, lv, (lem or SWEEP_LEMMAS[lid]).d)
            got.append(tables())
    finally:
        _automata.cache_clear()
    for other in got[1:]:
        for (pairs, masks), (want_pairs, want_masks) in zip(other, got[0]):
            assert np.array_equal(pairs, want_pairs) and np.array_equal(masks, want_masks)


def test_walk_from_start_states_equals_the_full_walk():
    # a walk continued from the states of its first columns, or from the
    # pair table's state of its first two codes, ends where the whole walk
    # from the empty row ends, at each row's sum set
    rng = np.random.default_rng(11)
    for d in (6, 10):
        units = _automata(d)[0]
        X = rng.choice(np.array(UNIT_CODES, np.uint8), (3000, 6))
        R = ranks_of(d, X)
        cols = [col >> _tables(d).shift for col in R.T]
        full = units.walk(np.ones(len(X), np.uint16), cols)
        assert np.array_equal(units.masks[full], sums(X, _tables(d))), d
        for j in range(7):
            mid = units.walk(np.ones(len(X), np.uint16), cols[:j])
            assert np.array_equal(units.walk(mid, cols[j:]), full), (d, j)
        start = units.pairs[R[:, 0].astype(np.intp) * 64 + R[:, 1]]
        assert np.array_equal(units.walk(start, cols[2:]), full), d


def _any_anchor(lem, C, lv) -> list:
    """Per trial, whether flat.py's scalar kernel finds a zero at some anchor."""
    return [any(_scalar_zero(trial(lem.d, C, lv, i), int(k)) for k in np.unique(lv))
            for i in range(C.shape[1])]


def test_sampled_verdicts_plan_edge_cases(monkeypatch):
    # anchor groups of exactly one and exactly two level-0 rows (a pair
    # lookup with no column left to walk), against the scalar kernel
    for lem in (SweepLemma("one0", 6, None, (1, 3), None), SweepLemma("two0", 10, None, (2, 2), None),
                SweepLemma("one0b", 10, (1, 0, 0), (0, 2), None)):
        C, lv = draw(lem, 400, 5)
        assert len(_anchor(lv, lem.d)[0]) == sum(lv == 0)
        want = _any_anchor(lem, C, lv)
        assert _sampled_verdicts(C, lv, lem.d).tolist() == want, lem.id
        assert set(want) == {False, True}, lem.id
        # one-trial blocks, and a lone trial, give the same verdicts
        monkeypatch.setattr(sweeps, "_BLOCK", 1)
        assert _sampled_verdicts(C, lv, lem.d).tolist() == want, lem.id
        assert _sampled_verdicts(C[:, :1], lv, lem.d).tolist() == want[:1], lem.id
        monkeypatch.undo()
    # blocks that anchor 0 decides completely run no later anchor: 52
    # level-0 columns over 24 orbits decide every trial, and the two
    # level-1 rows plan an anchor 1 that is never walked
    calls = []
    real = sweeps._anchor_misses
    monkeypatch.setattr(sweeps, "_anchor_misses",
                        lambda C, anchor, d: calls.append(anchor[0]) or real(C, anchor, d))
    monkeypatch.setattr(sweeps, "_BLOCK", 100)
    lem = SweepLemma("over2", 6, None, (52, 2), None)
    C, lv = draw(lem, 300, 1)
    assert _sampled_verdicts(C, lv, 6).all()
    assert calls == [tuple(range(52))] * 3


def test_bogus_exhaustive_lemma_reports_weighted_failures(monkeypatch):
    # 0/0/6 is one variable short of 007: its failures must surface, each
    # as an orbit representative with the number of profiles it stands for
    monkeypatch.setitem(
        SWEEP_LEMMAS, "bogus6", SweepLemma("bogus6", 6, (0, 0, 6), (), 54_264)
    )
    rep = sweep_lemma("bogus6")
    assert rep.total == 54_264
    assert rep.failures
    assert sum(rec["weight"] for rec in rep.failures) == 1_024
    assert rep.resolution["closure"] == 54_264 - 1_024
    for rec in rep.failures:
        assert set(rec) == {"profile", "weight", "status"}
        assert rec["status"] == "NOT_FOUND"
        f = AdditiveForm.from_pairs(6, [(c & 7, c >> 3) for c in rec["profile"]], default_precision(6))
        assert decide_isotropy_exhaustive(f).verdict == "ANISOTROPIC", rec


def _set_translate(mask: int, code: int) -> int:
    """mask moved by code on plain sets of Z8 x Z8 points, x = a + 8b."""
    points = {x for x in range(64) if mask >> x & 1}
    moved = {((x & 7) + (code & 7)) % 8 + 8 * (((x >> 3) + (code >> 3)) % 8) for x in points}
    return sum(1 << x for x in moved)


def test_translate_rows_matches_flat_translate():
    rng = np.random.default_rng(3)
    masks = [1 << b for b in range(64)]
    masks += [int(m) for m in rng.integers(0, 1 << 64, 1000, dtype=np.uint64)]
    M = np.array(masks, np.uint64)
    for code in range(64):
        got = _translate_rows(M, np.full(len(M), code, np.intp))
        assert [int(g) for g in got] == [_set_translate(m, code) for m in masks], code
    # one code per row
    codes = rng.integers(0, 64, len(M))
    got = _translate_rows(M, codes)
    assert [int(g) for g in got] == [_set_translate(m, int(c)) for m, c in zip(masks, codes)]


def test_sums_match_python_sets():
    # one `_fill` step from a random set, against the set with each
    # rep-scaled code added to its points and to 0; then every choice per
    # variable of "left out" or one rep, summed in plain Z8 x Z8 pairs,
    # against the steps of a row's columns from the empty set
    rng = np.random.default_rng(23)
    for d, widest in ((6, 5), (10, 3)):
        tab = _tables(d)
        reps = [(r.value.a & 7, r.value.b & 7) for r in multiplier_set(d, 3).reps]
        N = rng.integers(0, 1 << 64, 300, dtype=np.uint64) & rng.integers(0, 1 << 64, 300, dtype=np.uint64)
        N[::7] = 0
        v = rng.integers(0, 64, 300).astype(np.uint8)
        got = _fill(N.copy(), v, tab)
        for start, code, mask in zip(N.tolist(), v.tolist(), got.tolist()):
            points = [x for x in range(64) if start >> x & 1] + [0]
            want = {x for x in points if x} | {x for x in range(64) if start >> x & 1}
            for r in reps:
                a, b = _mul8(r, (code & 7, code >> 3))
                want |= {((x & 7) + a) % 8 + 8 * (((x >> 3) + b) % 8) for x in points}
            assert mask == sum(1 << x for x in want), (d, start, code)
        for n in range(widest + 1):
            X = rng.integers(0, 64, (40, n)).astype(np.uint8)
            if n >= 2:
                X[::3, 1] = X[::3, 0]  # repeated codes
            X[1::5] = 0  # zero codes
            got = sums(X, tab)
            for row, mask in zip(X, got):
                plain = set()
                for choice in product([None] + reps, repeat=n):
                    if all(r is None for r in choice):
                        continue
                    a = b = 0
                    for c, r in zip(row, choice):
                        if r is not None:
                            x, y = _mul8(r, (int(c) & 7, int(c) >> 3))
                            a, b = a + x, b + y
                    plain.add((a & 7) + 8 * (b & 7))
                assert int(mask) == sum(1 << v for v in plain), (d, list(row))


def _plain_sum_sets(d, rows) -> list:
    """Per row of unit codes a + 8b, the set of its multiplier-scaled sums
    over nonempty subsets, on plain ints: a multiplier is x^d mod 8 for a
    unit x = a + b w of Z2[w] / 8, w^2 = w + 1, and a sum picks for each
    variable either nothing or one multiplier."""
    def mul(x, y):
        return (x[0] * y[0] + x[1] * y[1]) % 8, (x[0] * y[1] + x[1] * y[0] + x[1] * y[1]) % 8

    powers = set()
    for x in [(a, b) for a in range(8) for b in range(8) if (a | b) & 1]:
        p = (1, 0)
        for _ in range(d):
            p = mul(p, x)
        powers.add(p)
    out = []
    for row in rows:
        plain = set()
        for choice in product([None, *sorted(powers)], repeat=len(row)):
            if any(choice):
                terms = [mul(r, (c % 8, c // 8)) for r, c in zip(choice, row) if r]
                plain.add(sum(a for a, _ in terms) % 8 + 8 * (sum(b for _, b in terms) % 8))
        out.append(plain)
    return out


def test_walked_masks_match_plain_subset_sums():
    # a seeded sample of unit-code rows, one to five variables, through
    # the pair table and the walk, against an enumeration of every subset
    # and multiplier choice that uses nothing of the package
    rng = np.random.default_rng(2033)
    for d, widest in ((6, 5), (10, 4)):
        for n in range(1, widest + 1):
            X = rng.choice(np.array(UNIT_CODES, np.uint8), (30, n))
            got = _unit_sums(_automata(d)[0], ranks_of(d, X).T, len(X))
            want = _plain_sum_sets(d, X.tolist())
            assert [{x for x in range(64) if m >> x & 1} for m in got.tolist()] == want, (d, n)


def test_negated_orbits_are_an_involution():
    # the join's Q walks the rank of each least code's negative, so
    # negation must map whole orbits onto orbits: every code of an orbit
    # negates into the orbit of the negated least code, negating twice
    # gives the orbit back, and `_NEG_CODE` is the plain negative, a and
    # b each negated mod 8
    assert [int(_NEG_CODE[v]) for v in range(64)] == [(-v % 8) + 8 * (-(v // 8) % 8) for v in range(64)]
    for d in (6, 10):
        tab = _tables(d)
        s = tab.shift
        orbit_of = tab.rank.take(_NEG_CODE) >> s  # per code, its negative's orbit
        neg = orbit_of.take(tab.code[:: 1 << s])  # per orbit, its least code's
        assert np.array_equal(neg[neg], np.arange(len(neg))), d
        for o in range(len(neg)):
            codes = tab.code[o << s : (o + 1) << s]
            assert set(orbit_of.take(codes[codes != 0]).tolist()) == {neg[o]}, (d, o)


def _scalar_zero(f, k):
    """Whether flat.py's kernel finds an anchored zero of f at anchor k
    with unit entries only."""
    return bool(flat._reach(flat._options(f, k, flat._by_level(f))[0])[1] & 1)


def test_packed_dp_matches_scalar_kernel(monkeypatch):
    # the numpy pass against flat.py's Python-int reachability, which
    # backs search_certificate; a sample of its certificates is validated
    def check(forms, fast):
        outs = [search_certificate(f) for f in forms]
        assert list(fast) == [out.status == "FOUND" for out in outs]
        found = [(f, out) for f, out in zip(forms, outs) if out.status == "FOUND"]
        for f, out in found[:: max(1, len(found) // 25)]:
            assert validate_certificate(f, out.certificate)
        return int((~fast).sum())

    rng = np.random.default_rng(17)
    codes = np.array(_class_codes(3), np.int32)
    rows = np.sort(rng.choice(codes, (2000, 6)), axis=1)
    misses = check([_profile_form(6, row) for row in rows], vanishes(rows, _tables(6)))
    assert 0 < misses < 2000

    # sampled trials, split at each anchor into the anchor-level group and
    # the deeper one.  At anchor 0 the anchor group runs on every row and
    # the deeper group only on the rows whose level-0 variables alone have
    # no vanishing sub-sum, counted here by the scalar kernel; the rows
    # each automaton walk starts from show which groups ran
    rows_in = []
    real = sweeps._SumAutomaton.walk
    monkeypatch.setattr(sweeps._SumAutomaton, "walk",
                        lambda aut, st, cols: rows_in.append(len(st)) or real(aut, st, cols))
    cases = [
        (SWEEP_LEMMAS["0241"], 2000),
        (SWEEP_LEMMAS["401"], 2000),
        # every row has a one-level zero, so no deeper pass runs
        (SWEEP_LEMMAS["5"], 2000),
        (SWEEP_LEMMAS["0061"], 2000),
        # shapes that fail, with both verdicts present
        (SweepLemma("two6", 6, None, (2,), None), 2000),
        (SweepLemma("two10", 10, None, (2, 1), None), 2000),
        # eleven columns at anchor 0, one of them at level 0: no row has a
        # one-level zero, so the deeper group runs on every row
        (SweepLemma("wide", 10, None, (1, 10), None), 3000),
        # 52 level-0 columns over 24 orbits, which decide every row
        (SweepLemma("over", 6, None, (52, 1), None), 300),
        (MIXED, 2000),
    ]
    for lem, trials in cases:
        C, lv = draw(lem, trials, 29)
        forms = [trial(lem.d, C, lv, i) for i in range(trials)]
        at = lv == 0
        one_level = sum(
            _scalar_zero(trial(lem.d, C[at], lv[at], i), 0) for i in range(trials)
        )
        rows_in.clear()
        misses = check(forms, _sampled_verdicts(C, lv, lem.d))
        assert rows_in[0] == trials, (lem.id, rows_in)
        if one_level == trials:
            assert len(rows_in) == 1, (lem.id, rows_in)
        elif ((lv == 1) | (lv == 2)).any():  # else there is no deeper group
            assert rows_in[1] == trials - one_level, (lem.id, rows_in, one_level)
        if lem.id.startswith("two") or lem is MIXED:
            assert 0 < misses < trials, lem.id
        else:
            assert misses == 0, lem.id


def test_anchor_join_matches_whole_rows():
    # the join of the two groups' masks against flat.py's scalar kernel on
    # the whole trial form, at every anchor (not only those the earlier
    # anchors left)
    cases = [(SWEEP_LEMMAS[lid], 1000, seed) for lid in sampled_lemma_ids() for seed in (42, 7)]
    cases += [
        (SweepLemma("two6", 6, None, (2,), None), 1000, 1),
        (SweepLemma("two10", 10, None, (2, 1), None), 1000, 1),
        (MIXED, 1000, 1),
        (SweepLemma("over", 6, None, (52, 1), None), 500, 1),
    ]
    verdicts = {}
    for lem, trials, seed in cases:
        C, lv = draw(lem, trials, seed)
        forms = [trial(lem.d, C, lv, i) for i in range(trials)]
        for kappa in np.unique(lv):
            scalar = [_scalar_zero(f, int(kappa)) for f in forms]
            got = np.ones(trials, bool)
            got[_anchor_misses(C, _anchor(lv - kappa, lem.d), lem.d)] = False
            assert got.tolist() == scalar, (lem.id, seed, kappa)
            verdicts.setdefault((lem.id, int(kappa)), set()).update(scalar)
    assert verdicts["two6", 0] == verdicts["two10", 0] == {False, True}
    # mixed: at anchor 0 the deeper group holds both shifts, at anchor 1
    # one shift of each kind of column
    assert verdicts["mixed", 0] == verdicts["mixed", 1] == {False, True}
    # the automaton walk of the 52 columns of "over" gives each row its
    # sum set
    C, lv = draw(cases[-1][0], 500, 1)
    units = _automata(6)[0]
    st = units.walk(np.ones(500, np.uint16), [row >> _tables(6).shift for row in C[lv == 0]])
    assert np.array_equal(units.masks[st], sums(codes_of(6, C[lv == 0]).T, _tables(6)))


def test_anchor_zero_matches_the_full_join(monkeypatch):
    # the join with the level-0 group first against A & (B | 1) taken on
    # every row, each group's masks from `_fill` steps row by row over the
    # codes scaled by 2^shift and (deeper group) negated, on groups where
    # A decides no row, some rows and every row; the deeper group runs
    # only on the rows A leaves, and rows of other shifts are left out
    rows_in = []
    real = sweeps._SumAutomaton.walk
    monkeypatch.setattr(sweeps._SumAutomaton, "walk",
                        lambda aut, st, cols: rows_in.append(len(st)) or real(aut, st, cols))
    rng = np.random.default_rng(23)
    tab = _tables(6)
    units = np.array(UNIT_CODES, np.uint8)
    n = 4000
    XB = rng.choice(units, (n, 4))
    shift = np.array([1, 2, 1, 3], np.int8)  # the last column is too deep
    B = sums(_NEG_CODE[np.stack([_SCALE[s][col] for s, col in zip(shift[:3], XB.T)], 1)], tab)
    one = rng.choice(units, (n, 1))  # one unit never vanishes alone
    pair = np.concatenate([one, _NEG_CODE[one]], axis=1)  # u + (-u) vanishes
    # the groups, with the number of rows A leaves (None: some, not all)
    for XA, want_left in ((one, n), (rng.choice(units, (n, 3)), None), (pair, 0)):
        A = sums(XA, tab)
        full = (A & (B | 1)) != 0
        left = int(((A & 1) == 0).sum())
        if want_left is None:
            assert 0 < left < n
        else:
            assert left == want_left
        rows_in.clear()
        C = ranks_of(6, np.concatenate([XA, XB, XA], axis=1).T)  # a shift -1 copy of XA, left out
        sh = np.concatenate([np.zeros(XA.shape[1], np.int8), shift,
                             np.full(XA.shape[1], -1, np.int8)])
        assert np.array_equal(_anchor_misses(C, _anchor(sh, 6), 6), np.flatnonzero(~full)), want_left
        assert rows_in == ([n, left] if left else [n]), want_left


def test_neg_negates_each_code():
    # the code table the deeper group goes through: x + neg(x) = 0 in
    # Z8 x Z8, and negating twice gives x back
    for x in range(64):
        y = int(_NEG_CODE[x])
        assert ((x & 7) + (y & 7)) & 7 == ((x >> 3) + (y >> 3)) & 7 == 0, x
        assert int(_NEG_CODE[y]) == x
    assert _NEG_CODE.dtype == np.uint8


UNIT_CODES = sorted(_class_codes(1) + _class_codes(2) + _class_codes(3))


def test_sample_codes_stay_in_their_class():
    # fixed-class rows hold their class's 16 codes, free rows the 48 unit
    # codes, each row at its level, one row per variable
    classes = {cls: set(_class_codes(cls)) for cls in (1, 2, 3)}
    for lem in [SWEEP_LEMMAS[lid] for lid in sampled_lemma_ids()] + [MIXED]:
        R, lv = draw(lem, 3000, 42)
        C = codes_of(lem.d, R)
        kinds = [classes[cls] for cls, k in zip((1, 2, 3), lem.class_counts or ()) for _ in range(k)]
        kinds += [set(UNIT_CODES)] * sum(lem.level_counts)
        want_lv = [0] * sum(lem.class_counts or ())
        want_lv += [lvl for lvl, k in enumerate(lem.level_counts) for _ in range(k)]
        assert R.dtype == np.uint8 and R.flags.c_contiguous and R.shape == (len(kinds), 3000)
        assert lv.tolist() == want_lv, lem.id
        for row, kind in zip(C, kinds):
            assert set(row.tolist()) == kind, lem.id


def test_sample_codes_are_uniform():
    # 480 000 draws per row at a fixed seed, read back as codes through
    # the rank table: every code's count within five standard deviations
    # of its binomial mean, 1/16 of the draws in a fixed class and 1/48
    # over the free unit codes
    n = 480_000
    C = codes_of(6, draw(SweepLemma("law", 6, (1, 1, 1), (0, 1), None), n, 2024)[0])
    for row, codes in zip(C, [_class_codes(1), _class_codes(2), _class_codes(3), UNIT_CODES]):
        p = 1 / len(codes)
        tol = 5 * (n * p * (1 - p)) ** 0.5
        counts = np.bincount(row, minlength=64)
        assert counts.sum() == counts[codes].sum() == n
        assert np.abs(counts[codes] - n * p).max() <= tol, (codes, counts[codes].tolist())


def test_sample_codes_redraw_the_reject_band():
    # a free code reads one 16-bit word: below 65520 = 48 * 1365 it takes
    # the unit code at w % 48, and the positions at or above it, and only
    # those, draw again from fresh words until they land below.  A fixed
    # class reads the low 4 bits of one byte.  Each draw is stored as its
    # code's rank
    calls = []
    script = [
        [0x1F, 0xF0, 0x07, 0x3A, 0xFF, 0x10],  # class 3: bytes of one word
        [0, 47, 48, 65519, 65520, 65535, 100, 65530, 7, 200, 65525, 300],
        [65521, 5, 6, 9],  # redraw of positions 4, 5, 7 and 10
        [11, 0, 0, 0],  # redraw of position 4
    ]

    def raw(n):
        calls.append(n)
        step = script[len(calls) - 1]
        dtype = np.uint8 if len(calls) == 1 else np.uint16
        buf = np.zeros(8 * n // np.dtype(dtype).itemsize, dtype)
        buf[: len(step)] = step
        return buf.view(np.uint64)

    R, lv = _sample_ranks(SweepLemma("stub", 6, (0, 0, 1), (2,), None), 6, raw)
    C = codes_of(6, R)
    # one word for the 6 bytes, 2 free rows of 6 trials in three words,
    # then one word per redraw
    assert calls == [1, 3, 1, 1]
    words = [0, 47, 48, 65519, 11, 5, 100, 6, 7, 200, 9, 300]
    assert C[0].tolist() == [_class_codes(3)[b & 15] for b in script[0]]
    assert C[1:].ravel().tolist() == [UNIT_CODES[w % 48] for w in words]
    assert np.array_equal(R, ranks_of(6, C))
    assert lv.tolist() == [0, 0, 0]


def test_sample_codes_scale_table():
    # row s of the scale table maps v = a + 8b to 2^s * v, each part mod 8
    for s in range(3):
        for v in range(64):
            a, b = (v & 7) << s & 7, (v >> 3) << s & 7
            assert int(_SCALE[s, v]) == a + 8 * b


def test_rank_layout_is_orbit_major():
    # a unit code's rank is its orbit's index << s | its place in the
    # orbit, ascending: orbits of 2 (s = 1) when 3 | d, of 6 padded to 8
    # (s = 3) otherwise.  The ranks in use map one to one onto the 48
    # unit codes, the padding ranks to code 0, and the rank table inverts
    # the code table; the orbits, ordered by least code, come from
    # flat.py's product table on plain sets
    for d in (2, 6, 10, 14, 18):
        tab = _tables(d)
        products = flat.mod8_table(d).products
        orbits = sorted({frozenset(products[v]) for v in UNIT_CODES}, key=min)
        s, size = (1, 2) if d % 3 == 0 else (3, 6)
        assert tab.shift == s and {len(o) for o in orbits} == {size}, d
        assert len(tab.code) == len(orbits) << s and tab.code.dtype == tab.rank.dtype == np.uint8
        used = [r for r in range(len(tab.code)) if r & ((1 << s) - 1) < size]
        assert sorted(tab.code[used].tolist()) == UNIT_CODES, d
        assert not tab.code[sorted(set(range(len(tab.code))) - set(used))].any(), d
        for r in used:
            v = int(tab.code[r])
            assert int(tab.rank[v]) == r, (d, r)
            assert v in orbits[r >> s] and sorted(orbits[r >> s])[r & ((1 << s) - 1)] == v, (d, r)


def test_reachability_matches_search_both_polarities():
    # with levels 0..2 and d >= 6 a zero needs no entry 2 * unit, so the
    # FFT oracle's isotropy verdict is the same question, decided apart
    rng = np.random.default_rng(5)
    pos = neg = 0
    for d in (6, 10):
        for _ in range(120):
            s = int(rng.integers(2, 6))
            lv = np.sort(rng.integers(0, 3, s)).astype(np.int8)
            cls = rng.integers(1, 4, s)
            ua = (cls & 1) + 2 * rng.integers(0, 32, s)
            ub = (cls >> 1) + 2 * rng.integers(0, 32, s)
            C = ranks_of(d, (ua & 7) + 8 * (ub & 7))[:, None]
            ok = bool(_sampled_verdicts(C, lv, d)[0])
            # the form keeps all six digits; the verdict reads three
            f = digit_form(d, ua, ub, lv, 6)
            out = search_certificate(f)
            assert out.status in ("FOUND", "NOT_FOUND")
            assert ok == (out.status == "FOUND"), (d, list(lv), list(ua), list(ub))
            assert ok == (decide_isotropy_exhaustive(f).verdict == "ISOTROPIC")
            pos += ok
            neg += not ok
    assert pos > 10 and neg > 10


def test_one_level_profile_search_agrees_with_trial_search():
    # a mod-8 profile decides like any trial with the same three digits
    rng = np.random.default_rng(7)
    for _ in range(40):
        s = int(rng.integers(2, 6))
        cls = rng.integers(1, 4, s)
        ua = (cls & 1) + 2 * rng.integers(0, 4, s)
        ub = (cls >> 1) + 2 * rng.integers(0, 4, s)
        row = (ua + 8 * ub).astype(np.int32)
        lv = np.zeros(s, np.int8)
        deep_a = ua + 8 * rng.integers(0, 8, s)
        deep_b = ub + 8 * rng.integers(0, 8, s)
        a = search_certificate(_profile_form(6, row)).status
        b = search_certificate(digit_form(6, deep_a, deep_b, lv, 6)).status
        assert a == b


def test_sampled_sweep_deterministic():
    r1 = sweep_lemma("31", "SAMPLED", trials=2000, seed=42)
    r2 = sweep_lemma("31", "SAMPLED", trials=2000, seed=42)
    assert json.dumps(r1.to_json(include_timings=False), sort_keys=True) == json.dumps(
        r2.to_json(include_timings=False), sort_keys=True
    )
    # another seed draws other rows, and both draws settle clean
    lem = SWEEP_LEMMAS["31"]
    a, b = draw(lem, 2000, 42)[0], draw(lem, 2000, 43)[0]
    assert np.array_equal(a, draw(lem, 2000, 42)[0])
    assert all(not np.array_equal(x, y) for x, y in zip(a, b))
    r3 = sweep_lemma("31", "SAMPLED", trials=2000, seed=43)
    assert r1.failures == [] and r3.failures == []
    assert r1.resolution["closure"] == r3.resolution["closure"] == 2000


# sha256 of the JSON reports (no timings) of every sampled lemma at 20 000
# trials, seed 42, joined by newlines.  These reports hold no failure
# record, so no drawn code shows in them and the pin does not depend on
# how the trials are drawn.  Any change to a verdict or a route count
# changes it.
REAL_SAMPLED_DIGEST = "1dc2711abf08afb70c4ddd19a6dda67de87604c0db4e03074fcae4e10af65d5e"
# the same of the failing shapes (2,) at d = 6 and (2, 1) at d = 10 at 300
# trials, seed 1.  Any change to a draw, a verdict or a failure record
# changes it.
FAILING_SAMPLED_DIGEST = "0ab98bdf048afa53333dd2f3feedda93d09c116a43b8cbc6f6458a49777f8d5a"


def _report_lines(runs) -> list:
    return [json.dumps(sweep_lemma(lid, "SAMPLED", trials=trials, seed=seed)
                       .to_json(include_timings=False), sort_keys=True)
            for lid, trials, seed in runs]


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _check_real_digest():
    real = _report_lines([(lid, 20_000, 42) for lid in sampled_lemma_ids()])
    assert all(json.loads(line)["failures"] == [] for line in real)
    assert _digest(real) == REAL_SAMPLED_DIGEST


def _check_failing_digest(monkeypatch):
    # registered after any real run: sampled_lemma_ids() would list them
    for lem in (SweepLemma("fail6", 6, None, (2,), None),
                SweepLemma("fail10", 10, None, (2, 1), None)):
        monkeypatch.setitem(SWEEP_LEMMAS, lem.id, lem)
    failing = _report_lines([("fail6", 300, 1), ("fail10", 300, 1)])
    assert [len(json.loads(line)["failures"]) for line in failing] == [278, 139]
    assert _digest(failing) == FAILING_SAMPLED_DIGEST


def test_sampled_outputs_are_pinned(monkeypatch):
    _check_real_digest()
    _check_failing_digest(monkeypatch)


# the same of every sampled lemma at 20 000 trials, seed 7, recorded
# while the draws were still stored as codes
SEED7_SAMPLED_DIGEST = "fc5153739c4064bb304634a22402fb4c0a1613e037feb4f33c36cc1a312f16f7"


def test_sampled_outputs_at_another_seed_are_pinned():
    assert _digest(_report_lines([(lid, 20_000, 7) for lid in sampled_lemma_ids()])) == SEED7_SAMPLED_DIGEST


def test_blocks_change_no_draw_or_verdict(monkeypatch):
    # codes are drawn, and trials decided, in blocks of sweeps._BLOCK; at
    # a size that divides neither 20 000 nor a whole generator word, and
    # at 7, every draw and report is the pinned one
    want = draw(MIXED, 1000, 3)[0]
    monkeypatch.setattr(sweeps, "_BLOCK", 3001)
    assert np.array_equal(draw(MIXED, 1000, 3)[0], want)
    _check_real_digest()
    monkeypatch.setattr(sweeps, "_BLOCK", 7)
    assert np.array_equal(draw(MIXED, 1000, 3)[0], want)
    _check_failing_digest(monkeypatch)


def test_sampled_sweep_traced_peak_is_bounded():
    # 541's 100 000 trials hold a million free codes, a 1 MB code matrix.
    # Drawn and decided in blocks, a sweep's Python allocations peak
    # below 4 MB once a first run has filled the automata (about 6 MB
    # when a sweep drew and decided all its trials at once)
    sweep_lemma("541", "SAMPLED", trials=100_000, seed=1)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sweep_lemma("541", "SAMPLED", trials=100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_sampled_sweep_needs_trials_and_a_seed():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="at least 1 trial"):
            sweep_lemma("5", "SAMPLED", trials=trials)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        sweep_lemma("5", "SAMPLED", trials=10, seed=-1)
    # an exhaustive sweep draws nothing, so it reads neither
    assert sweep_lemma("007", "EXHAUSTIVE", trials=0, seed=-1).total == 170_544


def test_sampled_small_runs_clean():
    for lid in sampled_lemma_ids():
        rep = sweep_lemma(lid, "SAMPLED", trials=3000, seed=42)
        assert rep.failures == [], lid
        assert sum(rep.resolution.values()) == 3000


def test_failure_reporting_is_search_confirmed():
    # a two-variable single-level shape is not a theorem: failures must
    # surface with the offending profile rather than being swallowed
    bogus = SweepLemma("bogus2", 6, None, (2,), None)
    SWEEP_LEMMAS["bogus2"] = bogus
    try:
        rep = sweep_lemma("bogus2", "SAMPLED", trials=300, seed=1)
    finally:
        del SWEEP_LEMMAS["bogus2"]
    assert rep.failures, "expected genuine failures on a false claim"
    for rec in rep.failures:
        assert set(rec) == {"levels", "unitsA", "unitsB", "status"}
        assert rec["status"] == "NOT_FOUND"
        ua = np.array(rec["unitsA"], np.int64)
        ub = np.array(rec["unitsB"], np.int64)
        lv = np.array(rec["levels"], np.int8)
        assert ua.max() < 8 and ub.max() < 8
        # confirmed apart from the flat kernel, by the FFT oracle, on the
        # form with 3-digit windows the record stands for
        f = _trial_form(6, ua, ub, lv)
        assert f.windows == (3, 3)
        assert decide_isotropy_exhaustive(f).verdict == "ANISOTROPIC"


def test_mode_validation():
    with pytest.raises(ValueError):
        sweep_lemma("541", "EXHAUSTIVE")
    # the lemma fixes the mode: a sampled sweep of a lemma with a declared
    # total used to run
    with pytest.raises(ValueError, match="swept EXHAUSTIVE"):
        sweep_lemma("025", "SAMPLED")
    with pytest.raises(ValueError):
        sweep_lemma("007", "BULK")
    with pytest.raises(KeyError):
        sweep_lemma("999")


def test_report_json_shape():
    rep = sweep_lemma("5", "SAMPLED", trials=500, seed=42)
    doc = rep.to_json(include_timings=False)
    assert doc["kind"] == "sweep"
    assert doc["mode"] == "SAMPLED"
    assert doc["trials"] == 500 and doc["seed"] == 42
    assert "elapsed" not in doc
    assert set(doc["resolution"]) == {"pair", "chain", "split", "closure", "search"}
    doc2 = rep.to_json()
    assert "elapsed" in doc2


def test_minimality_probe_007():
    rep = minimality_probe("007")
    assert len(rep.decrements) == 1
    rec = rep.decrements[0]
    assert rec["counts"] == "0/0/6"
    assert rec["total"] == 54264  # multisets of 6 from the 16 profiles
    assert rec["searchFailures"] == 1_024, "count 7 would not be minimal"
    assert rec["anisotropicConfirmed"] == 5
    # the reported example really is a six-variable anisotropic form
    f = AdditiveForm.from_json(rec["example"])
    assert f.s == 6
    assert decide_isotropy_exhaustive(f).verdict == "ANISOTROPIC"


def test_minimality_probe_dedupes_and_validates():
    rep = minimality_probe("223")
    # decrements (1,2,3) and (2,1,3) coincide as multisets; (2,2,2) differs
    assert [r["counts"] for r in rep.decrements] == ["1/2/3", "2/2/2"]
    with pytest.raises(ValueError):
        minimality_probe("541")


def test_minimality_probe_refuses_one_variable(monkeypatch):
    # dropping the only variable leaves no class slot to enumerate
    monkeypatch.setitem(
        SWEEP_LEMMAS, "one", SweepLemma("one", 6, (0, 0, 1), (), 16)
    )
    with pytest.raises(ValueError, match="one variable"):
        minimality_probe("one")


# --- internal checks raise library errors, also under python -O -----------


def test_exhaustive_total_mismatch_raises(monkeypatch):
    # 0/0/1 enumerates the 16 class-3 codes; a declared 17 must not pass
    monkeypatch.setitem(
        SWEEP_LEMMAS, "short", SweepLemma("short", 6, (0, 0, 1), (), 17)
    )
    with pytest.raises(PadicFormsError):
        sweep_lemma("short", "EXHAUSTIVE")


def test_tables_reject_reps_that_are_not_a_group(monkeypatch):
    ms = multiplier_set(6, 3)
    ident = ms.reps[0]
    bogus = replace(ms, reps=(
        ident,
        replace(ident, value=RingElem(3, 0, 3)),
        replace(ident, value=RingElem(5, 0, 3)),  # 3 * 5 = 7 mod 8 is missing
    ))
    monkeypatch.setattr(flat, "multiplier_set", lambda d, K: bogus)
    with pytest.raises(PadicFormsError):
        flat.mod8_table.__wrapped__(6)


def test_orbits_that_leave_a_class_raise():
    # at d = 10 some reps move a unit to another residue class, so class
    # multisets cannot be enumerated by orbits
    with pytest.raises(PadicFormsError):
        _exhaustive_slots((1, 0, 0), 10)


def test_probe_raises_when_search_finds_a_certificate(monkeypatch):
    # a profile the slot join leaves uncontracted must be anisotropic for
    # the kernel too
    real = sweeps.search_certificate
    monkeypatch.setattr(
        sweeps, "search_certificate", lambda f: replace(real(f), status="FOUND")
    )
    with pytest.raises(PadicFormsError, match="decided isotropic"):
        minimality_probe("007")
