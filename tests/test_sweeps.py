import json
from dataclasses import replace

import numpy as np
import pytest

from padic_forms import oracle, sweeps
from padic_forms.engine import validate_certificate
from padic_forms.errors import PadicFormsError
from padic_forms.flat import SearchOutcome, search_certificate
from padic_forms.oracle import decide_isotropy_exhaustive
from padic_forms.ring import RingElem
from padic_forms.sweeps import (
    SWEEP_LEMMAS,
    SweepLemma,
    _class_codes,
    _codes_at,
    _exhaustive_slots,
    _flat_zero_dp,
    _iter_exhaustive,
    _mul8,
    _prescreen,
    _profile_form,
    _sample_rows,
    _tables,
    _trial_form,
    exhaustive_lemma_ids,
    minimality_probe,
    sampled_lemma_ids,
    sweep_lemma,
)


def fast_depth3_verdicts(lem, UA, UB, lv, tab):
    X0 = _codes_at(UA, UB, lv, 0)
    n = len(X0)
    _, rem = _prescreen(X0, tab, lem.uniform_level0())
    verdict = np.ones(n, bool)
    verdict[rem] = False
    if rem.size:
        r = _flat_zero_dp(X0[rem], tab)
        verdict[rem] |= r
        rem = rem[~r]
    for kappa in range(1, int(lv.max()) + 1):
        if not rem.size:
            break
        cols = np.flatnonzero((lv >= kappa) & (lv <= kappa + 2))
        if cols.size < 2 or not (lv[cols] == kappa).any():
            continue
        Xk = _codes_at(UA[np.ix_(rem, cols)], UB[np.ix_(rem, cols)], lv[cols], kappa)
        r = _flat_zero_dp(Xk, tab)
        verdict[rem] |= r
        rem = rem[~r]
    return verdict


def test_multiplier_reps_form_group_mod8():
    for d, size in ((6, 2), (10, 6)):
        tab = _tables(d)
        reps = {(r.value.a & 7, r.value.b & 7) for r in tab.ms.reps}
        assert len(reps) == size
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
    slots = _exhaustive_slots(lem)
    sizes = [len(a) for a in slots]
    assert sizes == [136, 136, 816]
    rows = sum(len(X) for X in _iter_exhaustive(slots[:2], 1000))
    assert rows == 136 * 136
    first = next(_iter_exhaustive(slots, 7))
    assert first.shape == (7, 7)
    # class slots stay sorted inside each row
    for row in first:
        assert list(row[:2]) == sorted(row[:2])
        assert list(row[2:4]) == sorted(row[2:4])
        assert list(row[4:]) == sorted(row[4:])


def test_sweep_007_exhaustive_complete():
    rep = sweep_lemma("007", "EXHAUSTIVE")
    assert rep.total == 170_544
    assert rep.failures == []
    assert sum(rep.resolution.values()) == rep.total
    assert rep.resolution["pair"] > 0 and rep.resolution["split"] > 0


def test_prescreen_hits_are_search_sound():
    rng = np.random.default_rng(11)
    for lid in ("223", "0241", "401"):
        lem = SWEEP_LEMMAS[lid]
        tab = _tables(lem.d)
        UA, UB, lv = _sample_rows(lem, 200, seed=23, digits=6)
        X0 = _codes_at(UA, UB, lv, 0)
        _, rem = _prescreen(X0, tab, lem.uniform_level0())
        hit_rows = np.setdiff1d(np.arange(200), rem)
        for i in rng.choice(hit_rows, size=min(25, hit_rows.size), replace=False):
            f = _trial_form(lem.d, UA[i], UB[i], lv, 6)
            out = search_certificate(f)
            assert out.status == "FOUND"
            assert validate_certificate(f, out.certificate)


def test_reachability_matches_search_both_polarities():
    # with levels 0..2 and d >= 6 a zero needs no entry 2 * unit, so the
    # FFT oracle's isotropy verdict is the same question, decided apart
    rng = np.random.default_rng(5)
    pos = neg = 0
    for d in (6, 10):
        tab = _tables(d)
        for _ in range(120):
            s = int(rng.integers(2, 6))
            lv = np.sort(rng.integers(0, 3, s)).astype(np.int8)
            cls = rng.integers(1, 4, s)
            UA = ((cls & 1) + 2 * rng.integers(0, 32, s)).astype(np.int64)[None, :]
            UB = ((cls >> 1) + 2 * rng.integers(0, 32, s)).astype(np.int64)[None, :]
            lem = SweepLemma("tmp", d, None, (s,), None, "SAMPLED")
            ok = bool(fast_depth3_verdicts(lem, UA, UB, lv, tab)[0])
            f = _trial_form(d, UA[0], UB[0], lv, 6)
            out = search_certificate(f)
            assert out.status in ("FOUND", "NOT_FOUND")
            assert ok == (out.status == "FOUND"), (d, list(lv), list(UA[0]), list(UB[0]))
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
        b = search_certificate(_trial_form(6, deep_a, deep_b, lv, 6)).status
        assert a == b


def test_sampled_sweep_deterministic():
    r1 = sweep_lemma("31", "SAMPLED", trials=2000, seed=42)
    r2 = sweep_lemma("31", "SAMPLED", trials=2000, seed=42)
    assert json.dumps(r1.to_json(include_timings=False), sort_keys=True) == json.dumps(
        r2.to_json(include_timings=False), sort_keys=True
    )
    r3 = sweep_lemma("31", "SAMPLED", trials=2000, seed=43)
    assert r3.resolution != r1.resolution


def test_sampled_small_runs_clean():
    for lid in sampled_lemma_ids():
        rep = sweep_lemma(lid, "SAMPLED", trials=3000, seed=42)
        assert rep.failures == [], lid
        assert sum(rep.resolution.values()) == 3000


def test_failure_reporting_is_search_confirmed():
    # a two-variable single-level shape is not a theorem: failures must
    # surface with the offending profile rather than being swallowed
    bogus = SweepLemma("bogus2", 6, None, (2,), None, "SAMPLED")
    SWEEP_LEMMAS["bogus2"] = bogus
    try:
        rep = sweep_lemma("bogus2", "SAMPLED", trials=300, seed=1)
    finally:
        del SWEEP_LEMMAS["bogus2"]
    assert rep.failures, "expected genuine failures on a false claim"
    for rec in rep.failures[:5]:
        assert rec["status"] == "NOT_FOUND"
        ua = np.array(rec["unitsA"], np.int64)
        ub = np.array(rec["unitsB"], np.int64)
        lv = np.array(rec["levels"], np.int8)
        # confirmed apart from the flat kernel, by the FFT oracle
        f = _trial_form(6, ua, ub, lv, 6)
        assert decide_isotropy_exhaustive(f).verdict == "ANISOTROPIC"


def test_mode_validation():
    with pytest.raises(ValueError):
        sweep_lemma("541", "EXHAUSTIVE")
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
    from padic_forms.forms import AdditiveForm

    rep = minimality_probe("007", confirm_cap=4)
    assert len(rep.decrements) == 1
    rec = rep.decrements[0]
    assert rec["counts"] == "0/0/6"
    assert rec["total"] == 54264  # multisets of 6 from the 16 profiles
    assert rec["searchFailures"] > 0, "count 7 would not be minimal"
    assert rec["anisotropicConfirmed"] == 4
    # the reported example really is a six-variable anisotropic form
    f = AdditiveForm.from_json(rec["example"])
    assert f.s == 6
    assert decide_isotropy_exhaustive(f).verdict == "ANISOTROPIC"


def test_minimality_probe_dedupes_and_validates():
    rep = minimality_probe("223", confirm_cap=0)
    # decrements (1,2,3) and (2,1,3) coincide as multisets; (2,2,2) differs
    assert [r["counts"] for r in rep.decrements] == ["1/2/3", "2/2/2"]
    with pytest.raises(ValueError):
        minimality_probe("541")


# --- internal checks raise library errors, also under python -O -----------


def test_exhaustive_total_mismatch_raises(monkeypatch):
    # 0/0/1 enumerates the 16 class-3 codes; a declared 17 must not pass
    monkeypatch.setitem(
        SWEEP_LEMMAS, "short", SweepLemma("short", 6, (0, 0, 1), (), 17, "EXHAUSTIVE")
    )
    with pytest.raises(PadicFormsError):
        sweep_lemma("short", "EXHAUSTIVE")


def test_tables_reject_reps_that_are_not_a_group(monkeypatch):
    ms = _tables(6).ms
    ident = ms.reps[0]
    bogus = replace(ms, reps=(
        ident,
        replace(ident, value=RingElem(3, 0, 3)),
        replace(ident, value=RingElem(5, 0, 3)),  # 3 * 5 = 7 mod 8 is missing
    ))
    monkeypatch.setattr(sweeps, "multiplier_set", lambda d, K: bogus)
    with pytest.raises(PadicFormsError):
        _tables.__wrapped__(6)


def test_probe_raises_when_search_finds_a_certificate(monkeypatch):
    monkeypatch.setattr(
        sweeps, "search_certificate", lambda f: SearchOutcome("FOUND", None, 0)
    )
    with pytest.raises(PadicFormsError):
        minimality_probe("007", confirm_cap=1)


def test_probe_raises_when_oracle_finds_isotropy(monkeypatch):
    real = oracle.decide_isotropy_exhaustive
    monkeypatch.setattr(
        oracle, "decide_isotropy_exhaustive", lambda f: replace(real(f), verdict="ISOTROPIC")
    )
    with pytest.raises(PadicFormsError):
        minimality_probe("007", confirm_cap=1)
