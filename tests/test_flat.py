"""Flat mod-8 reachability kernel and the one-pass pipeline built on it.

The kernel is never its own reference: verdicts are compared with the FFT
torus oracle on an isotropy-equivalent cyclic frame (or with descent
where no frame fits the oracle's policy), witnesses go through
verify_witness, and certificates through validate_certificate.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import padic_forms
from padic_forms.artifacts import named_form, sample_form, verify_descent
from padic_forms.engine import (
    _collect_tree,
    certificate_from_json,
    certificate_to_json,
    contract,
    make_leaf,
    validate_certificate,
)
from padic_forms.errors import CertificateError, PrecisionMismatch
from padic_forms.flat import (
    FlatPick,
    FlatSolution,
    _by_level,
    _options,
    _reach,
    _term,
    contraction_from_flat,
    flat_zero,
    mod8_table,
    search_certificate,
)
from padic_forms.forms import AdditiveForm, cyclic_shift, normalize, reduce_levels
from padic_forms.oracle import decide_isotropy_exhaustive
from padic_forms.ring import RingElem, mul_pair, multiplier_set
from padic_forms.solver import decide_isotropy, isotropy_threshold, lift_witness
from padic_forms.witness import exact_coeffs, solve_anchor, verify_witness
from test_witness import dense_back_map

# Forms whose zeros all need a variable equal to 2 times a unit in the
# normalized frame, which a search over unit variables alone misses.
# Found by seeded random search.
WRAPPED_ONLY = {
    6: [
        (12, [(724, 354), (3566, 3180), (1376, 1120), (1888, 2784), (3124, 586),
              (550, 2246), (3344, 3040), (431, 1292), (120, 1237), (1352, 1600),
              (3732, 1435), (4080, 4080)]),
        (12, [(1160, 1432), (3328, 2144), (3000, 2376), (42, 1234), (434, 320),
              (2176, 1248), (3633, 1593)]),
        (12, [(3368, 304), (1552, 3344), (272, 2264), (1536, 2328), (528, 2096),
              (392, 3970), (224, 62), (2881, 2909)]),
        (12, [(1808, 1744), (2192, 848), (3184, 2768), (2842, 1386), (1492, 100),
              (1168, 864), (2369, 1756), (2844, 1808), (2694, 765), (3024, 1888),
              (660, 224)]),
    ],
    10: [
        (14, [(4238, 13268), (14592, 5888), (8224, 8800), (7228, 5896), (512, 11520),
              (13928, 5152), (576, 1856), (10652, 3356), (9664, 4544), (7680, 14592)]),
    ],
}
# one more at d = 10 whose every cyclic frame needs the FFT at M = 11
WRAPPED_ONLY_BEYOND_FFT = (10, 14, [
    (5704, 12408), (16016, 11744), (9280, 8320), (15840, 184), (2304, 4864),
    (10496, 6656), (640, 16256), (5873, 6130), (7508, 3396), (5403, 708)])


def _window_form(rng, d, s, width=5):
    """Levels drawn from a cyclic window of `width` consecutive levels, so
    the window may straddle d - 1 and 0 and some cyclic shift brings
    every level to at most width - 1."""
    K = 2 * d
    start = rng.randrange(d)
    pairs = []
    for _ in range(s):
        lvl = (start + rng.randrange(width)) % d
        cls = rng.randrange(1, 4)
        a = (cls & 1) | (rng.getrandbits(K) << 1)
        b = (cls >> 1) | (rng.getrandbits(K) << 1)
        pairs.append(((a << lvl) % (1 << K), (b << lvl) % (1 << K)))
    return AdditiveForm.from_pairs(d, pairs, K)


def _deep_variants(d, K, pairs, rng, n):
    """The form with every digit above level + 2 redrawn: flat questions
    read no deeper, and normalization reads only levels."""
    out = []
    for _ in range(n):
        new = []
        for a, b in pairs:
            keep = RingElem(a, b, K).valuation() + 3
            mask = (1 << keep) - 1
            new.append(((a & mask) | (rng.getrandbits(K) << keep) % (1 << K),
                        (b & mask) | (rng.getrandbits(K) << keep) % (1 << K)))
        out.append(AdditiveForm.from_pairs(d, new, K))
    return out


def _lowest_frame(f):
    red = reduce_levels(f)
    t = min(range(f.d), key=lambda t: (cyclic_shift(red, t).max_level(), t))
    return cyclic_shift(red, t)


def _check_certificate(f, r):
    """r's contraction validates against f itself and through f's
    normalized frame, whose root is f, before and after a JSON round trip."""
    doc = json.dumps(certificate_to_json(r.contraction))
    again = certificate_from_json(json.loads(doc))
    assert json.dumps(certificate_to_json(again)) == doc
    g = normalize(reduce_levels(f))[0]
    for cert in (r.contraction, again):
        assert validate_certificate(f, cert) and validate_certificate(g, cert)


def test_mod8_table_matches_direct_multiplication():
    for d in (6, 10):
        table = mod8_table(d)
        for K in (3, 10, 14):
            reps = [(r.value.a % 8, r.value.b % 8) for r in multiplier_set(d, K).reps]
            for v in range(64):
                a, b = v % 8, v // 8
                direct = [(a * ra + b * rb) % 8 + 8 * ((a * rb + b * ra + b * rb) % 8)
                          for ra, rb in reps]
                assert list(table.products[v]) == direct, (d, K, v)
                first = {}
                for i, code in enumerate(direct):
                    first.setdefault(code, i)
                assert list(table.options[v]) == list(first.items()), (d, K, v)


def _plus(x: int, t: int) -> int:
    """x + t in Z8 x Z8, both coded a + 8b."""
    return ((x & 7) + (t & 7)) % 8 + 8 * (((x >> 3) + (t >> 3)) % 8)


def _set_reach(terms):
    """`_reach` on plain Python sets: per term, the sets (no level-k term
    used yet, one used) in force before it, then the final second set and
    the summed set sizes."""
    S0, S1 = {0}, set()
    trail, states = [], 0
    for _, opts, _, _ in terms:
        trail.append((S0, S1))
        n0, n1 = set(S0), set(S1)
        for code, at_k, _, _ in opts:
            n1 |= {_plus(x, code) for x in S1}
            (n1 if at_k else n0).update(_plus(x, code) for x in S0)
        S0, S1 = n0, n1
        states += len(S0) + len(S1)
    return trail, S1, states


def _decode(half: int) -> set:
    """The codes a + 8b of a half of the kernel's guarded layout, where
    (a, b) sits at bit a + 16b; a set guard bit is an error."""
    bits = {x for x in range(half.bit_length()) if half >> x & 1}
    assert all(x < 128 and x & 15 < 8 for x in bits), sorted(bits)
    return {(x & 15) + 8 * (x >> 4) for x in bits}


def test_reach_matches_set_dp():
    # each term's options are all at level k, none, or a mix (as at d = 2)
    rng = random.Random(3)
    half = (1 << 256) - 1
    for _ in range(300):
        terms = []
        for var in range(rng.randrange(1, 9)):
            codes = rng.sample(range(64), rng.randrange(1, 7))
            p = rng.choice((0.0, 1.0, 0.4))
            terms.append(_term(var, tuple((c, rng.random() < p, 0, i) for i, c in enumerate(codes))))
        trail, R1, states = _reach(terms)
        want_trail, want_R1, want_states = _set_reach(terms)
        assert [(_decode(R & half), _decode(R >> 256)) for R in trail] == want_trail
        assert _decode(R1) == want_R1 and states == want_states


def _plain_options(f, k):
    """`_options` by enumeration: per variable each x = 2^j u (j = 0, 1)
    whose term lands in k..k+2 and is trusted there, the codes of
    c 2^(jd) r / 2^k mod 8 over the reps r, the first (j, rep) per code."""
    d = f.d
    reps = [(r.value.a, r.value.b) for r in multiplier_set(d, 3).reps]
    terms, short, seen = [], False, Counter()
    for var, (c, w, lvl) in enumerate(zip(f.coeffs, f.windows, f.levels())):
        first = {}
        for j in (0, 1):
            if not k <= lvl + j * d < k + 3:
                continue
            kind = ("own", "wrapped")[j]
            if w + j * d < k + 3:
                short = True
                seen["short " + kind] += 1
                continue
            seen[kind] += 1
            for idx, (ra, rb) in enumerate(reps):
                pa, pb = mul_pair(c.a << j * d, c.b << j * d, ra, rb, 1 << k + 3)
                first.setdefault((pa >> k) + 8 * (pb >> k), (lvl + j * d == k, j, idx))
        if len({j for _, j, _ in first.values()}) == 2:
            seen["both"] += 1
        if first:
            opts = tuple((code, *rest) for code, rest in first.items())
            terms.append((var, opts,
                          tuple((x & 7) + 16 * (x >> 3) for x, at, _, _ in opts if not at),
                          tuple((x & 7) + 16 * (x >> 3) for x, at, _, _ in opts if at)))
    return terms, short, seen


def test_options_match_plain_enumeration():
    rng = random.Random(2029)
    seen = Counter()
    for d in (2, 6, 10, 14):
        for _ in range(250):
            f = sample_form(rng, d, rng.randrange(1, 10))
            windows = tuple(rng.choice((f.K, rng.randrange(lvl + 1, f.K + 1), lvl + 1))
                            for lvl in f.levels())
            f = AdditiveForm(d, f.coeffs, windows=windows)
            by_level = _by_level(f)
            for k in range(d):
                terms, short, counts = _plain_options(f, k)
                assert _options(f, k, by_level) == (terms, short), (f.to_json(), k)
                seen.update({(d, key): n for key, n in counts.items()})
    # the d = 2 double wrap, and short windows on own and wrapped terms
    assert seen[2, "both"] >= 50
    for d in (2, 6, 10, 14):
        assert min(seen[d, kind] for kind in ("wrapped", "short own", "short wrapped")) >= 20, seen


@pytest.mark.parametrize("d", [6, 10])
def test_solution_picks_vanish_mod_anchor_plus_three(d):
    rng = random.Random(11 + d)
    found = 0
    for _ in range(200):
        f = sample_form(rng, d, rng.randrange(2, 10))
        ms = multiplier_set(d, f.K)
        out = flat_zero(f)
        if out.solution is None:
            continue
        found += 1
        sol = out.solution
        total_a = total_b = 0
        for p in sol.picks:
            c = f.coeffs[p.var]
            x = ms.reps[p.rep].root
            x = RingElem(x.a << p.wrap, x.b << p.wrap, f.K)
            term = c * x ** d
            total_a += term.a
            total_b += term.b
        need = 1 << (sol.k + 3)
        assert total_a % need == 0 and total_b % need == 0
        assert f.coeffs[sol.anchor].valuation() == sol.k
        assert sol.anchor in {p.var for p in sol.picks if p.wrap == 0}
    assert found > 50


def test_lone_anchor_term_has_no_zero():
    # flat_zero runs no DP and reads no window at an anchor with one
    # level-k term; the DP itself finds no anchored zero there
    rng = random.Random(2031)
    lone = 0
    for d in (2, 6, 10, 14):
        for _ in range(150):
            f = sample_form(rng, d, rng.randrange(2, 12))
            by_level = _by_level(f)
            for k in range(d):
                if len(by_level[k]) == 1:
                    lone += 1
                    assert not _reach(_options(f, k, by_level)[0])[1] & 1
    assert lone >= 300


@pytest.mark.parametrize("d", [6, 10])
def test_pipeline_agrees_with_fft_oracle(d):
    rng = random.Random(20261018 + d)
    forms = [_window_form(rng, d, rng.randrange(2, 13)) for _ in range(300)]
    forms += [AdditiveForm.from_pairs(d, pairs, K) for K, pairs in WRAPPED_ONLY[d]]
    tally = {}
    for f in forms:
        r = decide_isotropy(f)
        ref = decide_isotropy_exhaustive(_lowest_frame(f))
        assert r.verdict == ref.verdict, (f.to_json(), r.verdict, ref.verdict)
        tally[r.verdict, r.stage] = tally.get((r.verdict, r.stage), 0) + 1
        if r.verdict == "ISOTROPIC":
            assert verify_witness(f, r.witness)
            _check_certificate(f, r)
        else:
            assert r.witness is None and r.contraction is None
            doc = r.certificate.to_json()
            assert doc["kind"] == "exhaustion"
            assert doc["M"] == reduce_levels(f).max_level() + 3
    assert tally.get(("ISOTROPIC", "search"), 0) > 50
    assert tally.get(("ANISOTROPIC", "oracle"), 0) > 50


def test_degree_two_agrees_with_fft_oracle():
    """At d = 2 a variable's unit term at level k and its wrapped term at
    k + 2 both fall in an anchor's range; the kernel may use only one of
    them.  x^2 + c y^2 for every small c, plus seeded window forms."""
    forms = [AdditiveForm.from_pairs(2, [(1, 0), (a, b)])
             for a in range(-8, 8) for b in range(-8, 8) if (a | b) & 1]
    rng = random.Random(20261020)
    forms += [_window_form(rng, 2, rng.randrange(2, 5), width=2) for _ in range(150)]
    tally = {}
    for f in forms:
        r = decide_isotropy(f)
        ref = decide_isotropy_exhaustive(_lowest_frame(f))
        assert r.verdict == ref.verdict, (f.to_json(), r.verdict, ref.verdict)
        if r.verdict == "ISOTROPIC":
            assert verify_witness(f, r.witness)
        tally[r.verdict] = tally.get(r.verdict, 0) + 1
    assert tally["ANISOTROPIC"] > 50 and tally["ISOTROPIC"] > 50


def test_wrapped_only_zero_gives_witness_and_contraction():
    rng = random.Random(5)
    cases = [(d, K, pairs) for d, group in WRAPPED_ONLY.items() for K, pairs in group]
    cases.append(WRAPPED_ONLY_BEYOND_FFT)
    checked = wrapped = 0
    for d, K, pairs in cases:
        for f in [AdditiveForm.from_pairs(d, pairs, K)] + _deep_variants(d, K, pairs, rng, 4):
            r = decide_isotropy(f)
            assert r.verdict == "ISOTROPIC" and r.stage == "search"
            assert verify_witness(f, r.witness)
            _check_certificate(f, r)
            wrapped += any(n.exp for n in r.contraction.nodes)
            checked += 1
    assert checked == 5 * len(cases) and wrapped > 0


@pytest.mark.parametrize("d", [6, 10])
def test_certificates_validate_and_roundtrip(d):
    rng = random.Random(77 + d)
    ms = multiplier_set(d, d + 4)
    ident = ms.reps[0]
    seen = 0
    for _ in range(150):
        f = sample_form(rng, d, rng.randrange(4, 26 if d == 6 else 17))
        r = decide_isotropy(f)
        if r.contraction is None:
            continue
        seen += 1
        _check_certificate(f, r)
        assert verify_witness(f, r.witness)
        cert = r.contraction
        nodes = cert.node_map()
        for n in cert.nodes:
            for cid, choice in zip(n.children, n.choices):
                if nodes[cid].kind == "leaf":
                    assert choice in ms.reps
                else:
                    assert choice == ident
        assert cert.anchor_level == r.diagnostics["anchorLevel"]
    assert seen > 100


def test_unreduced_input_with_wrapped_witness_maps_back():
    # levels up to 10 at d = 6: the reduced frame has substitutions, and
    # the kernel's solution uses 2 times a unit in a variable with the
    # largest substitution
    pairs = [(2623488, 1897984), (3009536, 2117632), (3963718, 37408),
             (1871552, 3533216), (2787648, 787264), (1909760, 3637760),
             (3772388, 1045652), (1593688, 3327800), (2515072, 1887520),
             (1333248, 2344576), (2404100, 3166528)]
    f = AdditiveForm.from_pairs(6, pairs, 22)
    r = decide_isotropy(f)
    assert r.verdict == "ISOTROPIC" and r.stage == "search"
    assert verify_witness(f, r.witness)
    _check_certificate(f, r)
    assert decide_isotropy_exhaustive(_lowest_frame(f)).verdict == "ISOTROPIC"


def test_short_window_without_zero_raises():
    # G(6) with the alpha coefficient trusted only mod 4: at anchor 0 it
    # cannot take part, and the two others alone have no zero
    base = AdditiveForm.from_pairs(6, [(1, 0), (1, 0), (0, 1)], 10)
    f = AdditiveForm(6, base.coeffs, windows=(10, 10, 2))
    with pytest.raises(PrecisionMismatch):
        decide_isotropy(f)


def test_lone_anchor_short_window_is_decided():
    # a lone level-k term is 2^k times a unit for every completion of its
    # digits, so a short window there cannot hide a zero anchored at k
    one = RingElem(1, 0, 10)
    for f in (AdditiveForm(6, (one,), windows=(2,)),
              AdditiveForm(6, (one, RingElem(4, 0, 10)), windows=(2, 10))):
        assert flat_zero(f).short is False
        r = decide_isotropy(f)
        assert (r.verdict, r.certificate.to_json()["kind"]) == ("ANISOTROPIC", "exhaustion")
        assert decide_isotropy_exhaustive(AdditiveForm(6, f.coeffs)).verdict == "ANISOTROPIC"


def test_window_one_digit_short_is_left_out():
    # 1 + 7 = 8 vanishes mod 2^3 only when the 7 is trusted to three
    # digits; at two, the kernel leaves it out and says so
    base = AdditiveForm.from_pairs(6, [(1, 0), (7, 0)], 10)
    for window, found in ((2, False), (3, True)):
        f = AdditiveForm(6, base.coeffs, windows=(10, window))
        out = flat_zero(f)
        assert (out.solution is not None, out.short) == (found, not found)


def test_short_window_ignored_when_zero_found():
    base = AdditiveForm.from_pairs(6, [(1, 0), (7, 0), (0, 1)], 10)
    f = AdditiveForm(6, base.coeffs, windows=(10, 10, 2))
    r = decide_isotropy(f)
    assert r.verdict == "ISOTROPIC" and (r.witness.values[2].a, r.witness.values[2].b) == (0, 0)
    assert verify_witness(f, r.witness)


@pytest.mark.parametrize(
    "name,d,verdict",
    [
        ("G", 6, "ANISOTROPIC"),
        ("G", 10, "ANISOTROPIC"),
        ("F", 6, "ANISOTROPIC"),
        ("F", 10, "ISOTROPIC"),
        ("H", 6, "ANISOTROPIC"),
        ("H", 10, "ANISOTROPIC"),
        ("I", 6, "ANISOTROPIC"),
    ],
)
def test_named_families(name, d, verdict):
    bf = named_form(name, d)
    f = bf.form()
    r = decide_isotropy(f)
    assert r.verdict == verdict
    if verdict == "ISOTROPIC":
        assert verify_witness(f, r.witness)
    if f.max_level() + 3 <= 8:
        assert decide_isotropy_exhaustive(f).verdict == verdict
    else:
        assert verify_descent(bf).status == "DESCENT"


def test_full_range_d10_never_inconclusive():
    rng = random.Random(300)
    verdicts = {"ISOTROPIC": 0, "ANISOTROPIC": 0}
    for _ in range(300):
        f = sample_form(rng, 10, rng.randrange(2, 17))
        r = decide_isotropy(f)
        verdicts[r.verdict] += 1
        if r.verdict == "ISOTROPIC":
            assert verify_witness(f, r.witness)
    assert verdicts["ISOTROPIC"] > 0 and verdicts["ANISOTROPIC"] > 0


# sha256 of the decide_isotropy JSON lines (no timings) of _pinned_forms(),
# re-recorded when the decision became one kernel pass on the reduced
# form with its certificates over the caller's form.  Any change to a
# verdict, stage, witness, certificate or counter on these forms changes it.
PINNED_DIGEST = "92ce73a40eb706d30d34d2e6b8d771d8d801b62376e0f7656a1866c83cdcf14a"


def _pinned_forms():
    forms = [AdditiveForm.from_pairs(d, WRAPPED_ONLY[d][0][1], WRAPPED_ONLY[d][0][0])
             for d in (6, 10)]
    rng = random.Random(2026)
    for i in range(160):
        d = (6, 10)[i % 2]
        K = d + 4
        pairs = []
        for _ in range(rng.randrange(2, isotropy_threshold(d) + 1)):
            lvl = rng.randrange(d)
            cls = rng.randrange(1, 4)
            a = (cls & 1) | (rng.getrandbits(K - 1) << 1)
            b = (cls >> 1) | (rng.getrandbits(K - 1) << 1)
            pairs.append(((a << lvl) % (1 << K), (b << lvl) % (1 << K)))
        forms.append(AdditiveForm.from_pairs(d, pairs, K))
    return forms


# the same digest over _unreduced_forms(), re-recorded at the same change
UNREDUCED_DIGEST = "9487703f5bceda87566cdef10a5058d3ad300fbc8cdbb06ae5bf62c681183b3f"


def _unreduced_forms():
    """Forms with levels up to 2d - 1 at K = 3d + 2, each trusted window
    long enough for `reduce_levels` to divide its coefficient, so the
    lifts go through the reduction's substitutions.  The wrapped-only
    forms come last, every other coefficient scaled by 2^d, so wrapped
    picks lift through them too."""
    rng = random.Random(2027)
    forms = []
    for i in range(160):
        d = (6, 10)[i % 2]
        K = 3 * d + 2
        coeffs, windows = [], []
        for _ in range(rng.randrange(2, isotropy_threshold(d) + 1)):
            lvl = rng.randrange(2 * d)
            cls = rng.randrange(1, 4)
            a = (cls & 1) | (rng.getrandbits(K - 1) << 1)
            b = (cls >> 1) | (rng.getrandbits(K - 1) << 1)
            coeffs.append(RingElem(a << lvl, b << lvl, K))
            windows.append(rng.choice((K, rng.randrange(lvl + d + 1, K + 1))))
        forms.append(AdditiveForm(d, tuple(coeffs), windows=tuple(windows)))
    for d in (6, 10):
        for K0, pairs in WRAPPED_ONLY[d]:
            K = 3 * d + 2
            coeffs = [RingElem(a << (d * (j % 2)), b << (d * (j % 2)), K)
                      for j, (a, b) in enumerate(pairs)]
            windows = [K if j % 2 else K0 for j in range(len(pairs))]
            forms.append(AdditiveForm(d, tuple(coeffs), windows=tuple(windows)))
    return forms


# the same digest over _degree_forms(), re-recorded at the same change
DEGREE_DIGEST = "44324db15a59c9563ea82a8ae4a449efdac9ea68aad6a36d5dfa48e535c9330e"

# unreduced d = 2 forms (K, coefficient pairs, windows) whose zeros all
# need a variable equal to 2 times a unit in the normalized frame, so
# wrapped picks lift through the reduction's substitutions; found by
# seeded random search
WRAPPED_ONLY_D2 = [
    (8, [(15, 149), (232, 8), (177, 69), (112, 250)], [3, 7, 3, 4]),
    (8, [(232, 8), (8, 128), (48, 124), (176, 140)], [8, 8, 8, 8]),
    (8, [(224, 124), (196, 28), (188, 20)], [8, 6, 5]),
    (8, [(40, 0), (8, 232), (244, 12), (93, 203)], [8, 8, 8, 3]),
]


def _degree_forms():
    """Seeded forms at the degrees the other digests leave out: d = 2,
    where one term can offer the kernel an anchored and an unanchored
    option, and d = 14 and 18; then WRAPPED_ONLY_D2."""
    rng = random.Random(2029)
    forms = []
    for d, n in ((2, 200), (14, 100), (18, 80)):
        K = d + 4
        for _ in range(n):
            pairs = []
            for _ in range(rng.randrange(2, isotropy_threshold(d) + 1)):
                lvl = rng.randrange(d)
                cls = rng.randrange(1, 4)
                a = (cls & 1) | (rng.getrandbits(K - 1) << 1)
                b = (cls >> 1) | (rng.getrandbits(K - 1) << 1)
                pairs.append(((a << lvl) % (1 << K), (b << lvl) % (1 << K)))
            forms.append(AdditiveForm.from_pairs(d, pairs, K))
    for K, pairs, windows in WRAPPED_ONLY_D2:
        coeffs = tuple(RingElem(a, b, K) for a, b in pairs)
        forms.append(AdditiveForm(2, coeffs, windows=tuple(windows)))
    return forms


def _pipeline_digest(forms):
    lines = []
    outcomes = set()
    for f in forms:
        r = decide_isotropy(f)
        outcomes.add((r.stage, r.verdict))
        lines.append(json.dumps(r.to_json(include_timings=False), sort_keys=True))
    assert outcomes == {("search", "ISOTROPIC"), ("search-threshold", "ISOTROPIC"),
                        ("oracle", "ANISOTROPIC")}
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# sha256 of the verdicts alone, one per line, over _pinned_forms(),
# _unreduced_forms() and _degree_forms() in that order, recorded before
# the decision became one kernel pass on the reduced form.  The byte
# digests above were re-recorded at that change; this one was not.
VERDICT_DIGEST = "3870b6b6932852ee6e22ffada1b9d8088e18b6231579b224a412d2038b961e48"


def test_pipeline_verdicts_are_pinned():
    forms = _pinned_forms() + _unreduced_forms() + _degree_forms()
    verdicts = "\n".join(decide_isotropy(f).verdict for f in forms)
    assert hashlib.sha256(verdicts.encode()).hexdigest() == VERDICT_DIGEST


def test_pipeline_output_is_pinned():
    assert _pipeline_digest(_pinned_forms()) == PINNED_DIGEST


def test_pipeline_output_is_pinned_under_python_O():
    # python -O strips asserts; the Newton lift and the value-type
    # constructors hold most of the package's remaining ones
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_flat\n"
        "print(test_flat._pipeline_digest(test_flat._pinned_forms()))\n"
    )
    pkg_root = str(Path(padic_forms.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(Path(__file__).parent)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": pkg_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [PINNED_DIGEST]


def test_pipeline_output_on_unreduced_inputs_is_pinned():
    forms = _unreduced_forms()
    assert sum(not f.is_reduced() for f in forms) >= 150
    assert _pipeline_digest(forms) == UNREDUCED_DIGEST


def test_pipeline_output_on_degrees_2_14_18_is_pinned():
    forms = _degree_forms()
    for f in forms[-len(WRAPPED_ONLY_D2):]:
        r = decide_isotropy(f)
        assert not f.is_reduced() and r.verdict == "ISOTROPIC"
        assert r.stage in ("search", "search-threshold")
        assert verify_witness(f, r.witness)
        _check_certificate(f, r)
    assert _pipeline_digest(forms) == DEGREE_DIGEST


# --- certificates over the caller's form ---


def _unreduced_sample(rng, d, n):
    """n forms with levels uniform in 0..2d-1 at K = 3d + 2, every window
    K, so `reduce_levels` divides every coefficient at level d or more."""
    K = 3 * d + 2
    forms = []
    for _ in range(n):
        pairs = []
        for _ in range(rng.randrange(2, isotropy_threshold(d) + 1)):
            lvl = rng.randrange(2 * d)
            cls = rng.randrange(1, 4)
            a = (cls & 1) | (rng.getrandbits(K - 1) << 1)
            b = (cls >> 1) | (rng.getrandbits(K - 1) << 1)
            pairs.append(((a << lvl) % (1 << K), (b << lvl) % (1 << K)))
        forms.append(AdditiveForm.from_pairs(d, pairs, K))
    return forms


def _isotropic_decisions():
    """(form, result) for every ISOTROPIC decision on seeded reduced forms
    at d = 2, 6, 10, 14 and 18, unreduced ones at K = 3d + 2 for d = 2, 6,
    10 and 14, and WRAPPED_ONLY_D2."""
    rng = random.Random(2030)
    forms = _pinned_forms() + _unreduced_forms() + _degree_forms()
    forms += _unreduced_sample(rng, 2, 100) + _unreduced_sample(rng, 14, 60)
    out = [(f, decide_isotropy(f)) for f in forms]
    return [(f, r) for f, r in out if r.verdict == "ISOTROPIC"]


def test_every_isotropic_contraction_validates_against_the_input():
    decisions = _isotropic_decisions()
    degrees = {(f.d, f.is_reduced()) for f, _ in decisions}
    assert degrees >= {(d, True) for d in (2, 6, 10, 14)} | {(d, False) for d in (2, 6, 10, 14)}
    exps = 0
    for f, r in decisions:
        _check_certificate(f, r)
        exps += any(n.exp for n in r.contraction.nodes)
        assert r.diagnostics["anchorLevel"] == r.contraction.anchor_level
    assert len(decisions) >= 500 and exps >= 100
    # an anchor level of d or more only on unreduced inputs
    assert any(r.contraction.anchor_level >= f.d for f, r in decisions)
    assert all(r.contraction.anchor_level < f.d for f, r in decisions if f.is_reduced())


def test_doctored_exponent_or_form_fails_the_check():
    # an exponent raised or dropped on one leaf, or the certificate checked
    # against a form with the same levels whose anchor coefficient differs
    # two digits above its level: each moves the root below anchor + 3
    checked = 0
    for f, r in _isotropic_decisions():
        doc = certificate_to_json(r.contraction)
        leaves = [i for i, rec in enumerate(doc["nodes"]) if rec["kind"] == "leaf"]
        for i in leaves:
            exp = doc["nodes"][i].get("exp", 0)
            for changed in {exp + 1, 0} - {exp}:
                bad = json.loads(json.dumps(doc))
                bad["nodes"][i]["exp"] = changed
                assert not validate_certificate(f, certificate_from_json(bad))
                checked += exp > 0
        anchor = r.contraction.anchor_leaf
        c = f.coeffs[anchor]
        coeffs = list(f.coeffs)
        coeffs[anchor] = RingElem(c.a + (2 << f.levels()[anchor]), c.b, f.K)
        other = AdditiveForm(f.d, tuple(coeffs), windows=f.windows)
        assert other.levels() == f.levels()
        assert not validate_certificate(other, r.contraction)
    assert checked >= 100


# --- the contraction tree and the lift, against node-by-node references ---


def _contraction_by_nodes(g, sol):
    """`contraction_from_flat`'s tree built node by node with make_leaf
    and contract over g's root form: each pick's leaf is the root
    coefficient times 2^(d m), m = N - e + wrap, at precision
    K = max(K_root, A + 3), A = k + d N - scale the anchor level; the two
    lowest-id nodes of the minimal level below A + 3 are combined, leaves
    taking their picked rep and composite nodes the identity.  Returns
    every node, the finished ones and K."""
    root, subst = g.root(), g.subst_log
    N = max(subst[p.var] for p in sol.picks)
    need = sol.k + g.d * N - g.scale_log + 3
    K = max(root.K, need)
    ms = multiplier_set(g.d, K)
    arena, choice = {}, {}
    for p in sol.picks:
        m = N - subst[p.var] + p.wrap
        c = root.coeffs[p.var]
        value = RingElem(c.a * 2 ** (g.d * m), c.b * 2 ** (g.d * m), K)
        leaf = make_leaf(p.var, value, min(root.windows[p.var] + g.d * m, K), m)
        arena[leaf.id] = leaf
        choice[leaf.id] = ms.reps[p.rep]
    active = set(arena)
    while True:
        low = sorted((arena[i].level, i) for i in active
                     if arena[i].level is not None and arena[i].level < need)
        if not low:
            break
        assert len(low) >= 2 and low[0][0] == low[1][0]
        pair = [arena[low[0][1]], arena[low[1][1]]]
        new_id = g.s + len(arena) - len(sol.picks)
        node = contract(tuple(pair), tuple(choice.get(n.id, ms.reps[0]) for n in pair), new_id)
        arena[node.id] = node
        active -= {low[0][1], low[1][1]}
        active.add(node.id)
    return sorted(arena.values(), key=lambda n: n.id), [arena[i] for i in sorted(active)], K


def _lift_by_tree_walk(g, cert):
    """The lift read off the certificate: each leaf's value in g's frame
    is 2^wrap times the product of the multiplier roots along its path
    from the root, wrap its exponent less the frame's N - e, at
    K* = max(K, K_orig + scale - d N) with N the largest substitution
    over the leaves; Newton on the anchor runs over every variable, and
    the test's own dense back-mapping takes the zero to the root frame."""
    nodes = cert.node_map()
    roots = {}
    N = max(g.subst_log[n.var] for n in cert.nodes if n.kind == "leaf")
    K = max(g.K, g.root().K + g.scale_log - g.d * N)
    stack = [(cert.root, RingElem.one(K))]
    while stack:
        nid, acc = stack.pop()
        n = nodes[nid]
        if n.kind == "leaf":
            wrap = n.exp - (N - g.subst_log[n.var])
            roots[n.var] = acc * RingElem(2 ** wrap, 0, K)
        for cid, rep in zip(n.children, n.choices):
            stack.append((cid, acc * RingElem(rep.root.a, rep.root.b, K)))
    values = [roots.get(j, RingElem.zero(K)) for j in range(g.s)]
    terms = [(t.a, t.b) for t in (c * x ** g.d for c, x in zip(exact_coeffs(g, K), values))]
    rest = [t for j, t in enumerate(terms) if j != cert.anchor_leaf]
    z = solve_anchor(terms[cert.anchor_leaf], (sum(a for a, _ in rest), sum(b for _, b in rest)),
                     g.d, K)
    values[cert.anchor_leaf] = values[cert.anchor_leaf] * RingElem(*z, K)
    return dense_back_map(g, values, K, cert.anchor_leaf), K


def _search_frames():
    """Normalized frames of the pinned and unreduced forms, then every
    cyclic shift of the first 60 of them, so some lifts need K* > K."""
    forms = _pinned_forms() + _unreduced_forms()
    frames = [normalize(f)[0] for f in forms]
    for f in forms[:60]:
        red = reduce_levels(f)
        frames += [cyclic_shift(red, t) for t in range(1, f.d)]
    return forms, frames


def test_contraction_from_flat_matches_node_by_node_tree():
    forms, frames = _search_frames()
    assert len(forms) >= 300
    found = 0
    for g in frames:
        out = search_certificate(g)
        if out.status != "FOUND":
            continue
        found += 1
        cert = contraction_from_flat(g, out.solution)
        nodes, finished, K = _contraction_by_nodes(g, out.solution)
        assert finished == [nodes[-1]]  # one tree holds every pick
        root = finished[0]
        assert cert.nodes == tuple(nodes) and cert.K == K
        assert cert.root == root.id and cert.achieved == root.achieved()
        assert cert.anchor_level == root.kappa
        assert cert.anchor_leaf == out.solution.anchor
    assert found >= 450


def test_flat_zero_refuses_unreduced_forms():
    f = AdditiveForm.from_pairs(6, [(64, 0), (1, 0)], 16)
    for run in (lambda: flat_zero(f), lambda: search_certificate(f)):
        with pytest.raises(ValueError, match="levels below the degree"):
            run()


def test_contraction_nodes_come_in_tree_walk_order():
    # contraction_from_flat emits its nodes in id order without walking
    # the tree, the order certificate_from_json rebuilds them in; the walk
    # validate_certificate takes reaches every node, each after its children
    found = 0
    for f in _pinned_forms():
        out = search_certificate(normalize(f)[0])
        if out.status != "FOUND":
            continue
        found += 1
        cert = out.certificate
        nmap = cert.node_map()
        assert [n.id for n in cert.nodes] == sorted(nmap)
        assert certificate_from_json(certificate_to_json(cert)).nodes == cert.nodes
        walk = _collect_tree(nmap[cert.root], nmap)
        pos = {n.id: i for i, n in enumerate(walk)}
        assert sorted(pos) == sorted(nmap)
        assert all(pos[c] < pos[n.id] for n in walk for c in n.children)
    assert found >= 100


def _doctored_solutions() -> dict:
    """The kernel's answer on d = 6 (1, 7, 8), broken in one way per entry,
    as JSON-ready [coefficient pairs, k, anchor, picks as (var, wrap, rep)],
    with the refusal each must meet."""
    pairs = [[1, 0], [7, 0], [8, 0]]
    sol = search_certificate(AdditiveForm.from_pairs(6, pairs)).solution
    picks = [[p.var, p.wrap, p.rep] for p in sol.picks]
    assert (sol.k, sol.anchor, picks) == (0, 0, [[0, 0, 0], [1, 0, 0]])
    return {
        # 1 + 1 = 2 leaves one node at level 1 < k + 3
        "does not vanish": [[[1, 0], [1, 0], [8, 0]], 0, 0, picks],
        # the level-3 pick is never contracted into the anchor's tree
        "outside the anchor's contraction": [pairs, 0, 0, picks + [[2, 0, 0]]],
    }


@pytest.mark.parametrize("refusal", list(_doctored_solutions()))
def test_contraction_from_flat_refuses_doctored_solution(refusal):
    pairs, k, anchor, picks = _doctored_solutions()[refusal]
    sol = FlatSolution(k, anchor, tuple(FlatPick(*p) for p in picks))
    with pytest.raises(CertificateError, match=refusal):
        contraction_from_flat(AdditiveForm.from_pairs(6, pairs), sol)


def test_contraction_from_flat_refusals_are_the_same_under_python_O():
    # python -O strips asserts; a doctored solution must still raise
    # CertificateError, not a different error or none
    script = (
        "import json, sys\n"
        "from padic_forms.flat import FlatPick, FlatSolution, contraction_from_flat\n"
        "from padic_forms.forms import AdditiveForm\n"
        "for pairs, k, anchor, picks in json.load(sys.stdin):\n"
        "    sol = FlatSolution(k, anchor, tuple(FlatPick(*p) for p in picks))\n"
        "    try:\n"
        "        contraction_from_flat(AdditiveForm.from_pairs(6, pairs), sol)\n"
        "        print('accepted')\n"
        "    except Exception as e:\n"
        "        print(type(e).__name__)\n"
    )
    cases = list(_doctored_solutions().values())
    pkg_root = str(Path(padic_forms.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], input=json.dumps(cases),
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": pkg_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["CertificateError"] * len(cases)


def test_lift_from_picks_matches_tree_walk():
    forms, frames = _search_frames()
    above = 0
    for g in frames:
        out = search_certificate(g)
        if out.status != "FOUND":
            continue
        want, K = _lift_by_tree_walk(g, out.certificate)
        above += K > g.K
        assert lift_witness(g, out.solution, K) == want
        assert verify_witness(g.root(), want)
    assert above >= 60
