"""Bulk verification sweeps over one-level and two-level coefficient shapes.

A sweep checks a contraction claim over coefficient profiles mod 8,
either over the whole declared shape space (EXHAUSTIVE) or over seeded
random draws (SAMPLED).  A profile succeeds exactly when some contraction
tree builds a value divisible by 8 whose subtree contains a level-0
variable (more generally, divisible by 2^(k+3) over a level-k variable).

Three lookup tables decide the bulk of profiles.  Each table encodes a
literal short move line, so a table hit is a contraction certificate:

  pair   u + r*v == 0 mod 8 for two level-0 variables;
  chain  x = u + r1*v nonzero, then x + r3*w == 0 mod 8 with w at the
         level of x (u, v at level 0);
  split  x = u + r1*v and y = w + r2*z nonzero at one level, then
         x + r3*y == 0 mod 8 (all four at level 0).

Together the tables are exhaustive for successes that combine at most
four level-0 variables: a vanishing combination can always be
reassociated into one of the three lines, with the level matches forced
by the cancellation itself.

Profiles left over go through an exact 64-state reachability pass.
Success is equivalent to a flat combination sum(c_i * u_i) == 0
mod 2^(k+3), with coefficients from the multiplier group and k the
minimum level among the variables used: such a combination can always
be built bottom-up by contracting two nodes of minimal level, because a
vanishing total forces its minimal level to repeat, and conversely the
root value of a successful tree is such a combination.  Dividing by 2^k
turns each candidate anchor level k into the same mod-8 reachability
question, tracked as achievable subset sums with a used-anchor-level
flag, vectorised here over all rows of a chunk.

Profiles every pass rejects are built as forms and handed to
`search_certificate`, the pipeline's own contraction search (flat.py);
a certificate there counts as route `search`, anything else is reported
as a failure with its profile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, prod

import numpy as np

from .errors import PadicFormsError
from .flat import search_certificate
from .forms import AdditiveForm
from .ring import MultiplierSet, RingElem, multiplier_set

SAMPLE_DIGITS = 6  # unit digits drawn per sampled variable


# ---------------------------------------------------------------------------
# lookup tables


@dataclass(frozen=True)
class _Tables:
    d: int
    ms: MultiplierSet
    LV: np.ndarray  # valuation of each residue code, 3 for code 0
    pair: np.ndarray  # 64^2 flat bool
    chain: np.ndarray  # 64^3 flat bool
    split: np.ndarray  # 64^4 flat bool
    mulr: np.ndarray  # (reps, 64) code of r * v
    sub: np.ndarray  # (64, 64) code of t - w, gather index for translation


def _code_level(code: int) -> int:
    a, b = code & 7, code >> 3
    if a == 0 and b == 0:
        return 3
    v = 0
    while (a | b) & 1 == 0:
        a >>= 1
        b >>= 1
        v += 1
    return v


def _mul8(x, y):
    a, b = x
    c, d = y
    return (a * c + b * d) & 7, (a * d + b * c + b * d) & 7


@lru_cache(maxsize=None)
def _tables(d: int) -> _Tables:
    ms = multiplier_set(d, 3)
    reps = [(r.value.a & 7, r.value.b & 7) for r in ms.reps]
    # the reachability pass needs the reps mod 8 to form a group
    rep_set = set(reps)
    if (1, 0) not in rep_set or any(_mul8(x, y) not in rep_set for x in reps for y in reps):
        raise PadicFormsError(f"multiplier reps mod 8 for d={d} are not a group")
    LV = np.array([_code_level(c) for c in range(64)], np.int8)
    ua = np.arange(64, dtype=np.int64) & 7
    ub = np.arange(64, dtype=np.int64) >> 3
    sums = []
    mulr = []
    for ra, rb in reps:
        rva = (ra * ua + rb * ub) & 7
        rvb = (ra * ub + rb * ua + rb * ub) & 7
        mulr.append(rva + 8 * rvb)
        sa = (ua[:, None] + rva[None, :]) & 7
        sb = (ub[:, None] + rvb[None, :]) & 7
        sums.append((sa + 8 * sb).astype(np.int32))
    mulr = np.array(mulr, dtype=np.intp)
    # sub[w, t] = code of t - w: gathering R[:, sub[w]] translates R by +w
    sub_tab = (((ua[None, :] - ua[:, None]) & 7) + 8 * ((ub[None, :] - ub[:, None]) & 7)).astype(np.intp)

    lvl0 = LV == 0
    nonzero = np.arange(64) != 0
    zero2 = np.zeros((64, 64), bool)
    for S in sums:
        zero2 |= S == 0
    # pairable one step from zero: nonzero operands at one shared level
    P2 = zero2 & nonzero[:, None] & nonzero[None, :] & (LV[:, None] == LV[None, :])
    pair = zero2 & lvl0[:, None] & lvl0[None, :]

    chain = np.zeros((64, 64, 64), bool)
    for S in sums:
        chain |= P2[S]  # chain[u, v, w] via x = u + r*v
    chain &= lvl0[:, None, None] & lvl0[None, :, None]

    split = np.zeros((64, 64, 64, 64), bool)
    for S1 in sums:
        X = S1[:, :, None, None]
        for S2 in sums:
            split |= P2[X, S2[None, None, :, :]]
    m = lvl0
    split &= (
        m[:, None, None, None]
        & m[None, :, None, None]
        & m[None, None, :, None]
        & m[None, None, None, :]
    )
    return _Tables(
        d, ms, LV, pair.ravel(), chain.ravel(), split.ravel(), mulr, sub_tab
    )


# ---------------------------------------------------------------------------
# profile spaces


def _class_codes(cls: int) -> list:
    """The 16 residues mod 8 of level-0 coefficients in one residue class."""
    out = []
    for ta in range(4):
        for tb in range(4):
            a = (cls & 1) + 2 * ta
            b = (cls >> 1) + 2 * tb
            out.append(a + 8 * b)
    return sorted(out)


def _codes_at(UA: np.ndarray, UB: np.ndarray, levels: np.ndarray, kappa: int) -> np.ndarray:
    """Residue codes mod 8 of the variables rescaled to anchor level
    kappa: unit part shifted up by (level - kappa).  Callers pass only
    columns with level >= kappa."""
    sh = (levels - kappa).astype(np.int64)
    a = ((UA & 7) << sh) & 7
    b = ((UB & 7) << sh) & 7
    return (a + 8 * b).astype(np.int32)


@dataclass(frozen=True)
class SweepLemma:
    id: str
    d: int
    class_counts: tuple | None  # level-0 count per residue class, fixed labeling
    level_counts: tuple  # free-class count per level, index = level
    exhaustive_total: int | None
    default_mode: str

    @property
    def s(self) -> int:
        return sum(self.class_counts or ()) + sum(self.level_counts)

    def uniform_level0(self) -> bool:
        return all(k == 0 for lvl, k in enumerate(self.level_counts) if lvl > 0)

    def space(self) -> str:
        bits = []
        if self.class_counts is not None:
            bits.append(
                "level-0 class counts " + "/".join(str(k) for k in self.class_counts)
            )
        if any(self.level_counts):
            bits.append(
                "level counts " + "/".join(str(k) for k in self.level_counts)
            )
        return ", ".join(bits)


def _lemma(id, d, class_counts, level_counts, total=None, mode="SAMPLED"):
    return SweepLemma(id, d, class_counts, tuple(level_counts), total, mode)


def _multiset_total(class_counts) -> int:
    return prod(comb(15 + k, k) for k in class_counts if k)


SWEEP_LEMMAS = {
    lem.id: lem
    for lem in [
        _lemma("223", 6, (2, 2, 3), (), _multiset_total((2, 2, 3)), "EXHAUSTIVE"),
        _lemma("133", 6, (1, 3, 3), (), _multiset_total((1, 3, 3)), "EXHAUSTIVE"),
        _lemma("115", 6, (1, 1, 5), (), _multiset_total((1, 1, 5)), "EXHAUSTIVE"),
        _lemma("044", 6, (0, 4, 4), (), _multiset_total((0, 4, 4)), "EXHAUSTIVE"),
        _lemma("025", 6, (0, 2, 5), (), _multiset_total((0, 2, 5)), "EXHAUSTIVE"),
        _lemma("007", 6, (0, 0, 7), (), _multiset_total((0, 0, 7)), "EXHAUSTIVE"),
        _lemma("0061", 6, (0, 0, 6), (0, 1)),
        _lemma("0241", 6, (0, 2, 4), (0, 1)),
        _lemma("0225", 6, (0, 2, 2), (0, 5)),
        _lemma("0045", 6, (0, 0, 4), (0, 5)),
        _lemma("541", 6, None, (5, 4, 1)),
        _lemma("211", 10, None, (2, 1, 1)),
        _lemma("31", 10, None, (3, 1)),
        _lemma("5", 10, None, (5,)),
        _lemma("401", 10, None, (4, 0, 1)),
        _lemma("23", 10, None, (2, 3)),
    ]
}


def _exhaustive_slots(lem: SweepLemma) -> list:
    slots = []
    for cls, k in zip((1, 2, 3), lem.class_counts):
        if k:
            codes = _class_codes(cls)
            slots.append(
                np.array(list(combinations_with_replacement(codes, k)), np.int32)
            )
    return slots


def _iter_exhaustive(slots, chunk_rows: int):
    sizes = [len(a) for a in slots]
    total = prod(sizes)
    for start in range(0, total, chunk_rows):
        stop = min(start + chunk_rows, total)
        idx = np.arange(start, stop, dtype=np.int64)
        parts = []
        for a in reversed(slots):
            n = len(a)
            parts.append(a[idx % n])
            idx //= n
        parts.reverse()
        yield np.concatenate(parts, axis=1)


def _sample_rows(lem: SweepLemma, trials: int, seed: int, digits: int):
    """Draw trial coefficients: per variable a fixed level, a uniform
    nonzero residue class, and uniform unit digits mod 2^digits.  Returns
    unit component matrices and the per-column level vector."""
    rng = np.random.default_rng(seed)
    ua_cols, ub_cols, levels = [], [], []
    hi = 1 << (digits - 1)
    if lem.class_counts is not None:
        for cls, k in zip((1, 2, 3), lem.class_counts):
            if not k:
                continue
            ua_cols.append((cls & 1) + 2 * rng.integers(0, hi, (trials, k)))
            ub_cols.append((cls >> 1) + 2 * rng.integers(0, hi, (trials, k)))
            levels += [0] * k
    for lvl, k in enumerate(lem.level_counts):
        if not k:
            continue
        cls = rng.integers(1, 4, (trials, k))
        ua_cols.append((cls & 1) + 2 * rng.integers(0, hi, (trials, k)))
        ub_cols.append((cls >> 1) + 2 * rng.integers(0, hi, (trials, k)))
        levels += [lvl] * k
    UA = np.concatenate(ua_cols, axis=1).astype(np.int64)
    UB = np.concatenate(ub_cols, axis=1).astype(np.int64)
    return UA, UB, np.array(levels, np.int8)


# ---------------------------------------------------------------------------
# sweep driver


@dataclass
class SweepReport:
    lemma: str
    d: int
    mode: str
    space: str
    total: int
    failures: list
    resolution: dict
    escalations: dict
    elapsed: float
    trials: int | None = None
    seed: int | None = None

    def to_json(self, include_timings: bool = True) -> dict:
        doc = {
            "kind": "sweep",
            "lemma": self.lemma,
            "degree": self.d,
            "mode": self.mode,
            "space": self.space,
            "total": self.total,
            "failures": self.failures,
            "resolution": self.resolution,
            "escalations": {str(k): v for k, v in sorted(self.escalations.items())},
        }
        if self.mode == "SAMPLED":
            doc["trials"] = self.trials
            doc["seed"] = self.seed
        if include_timings:
            doc["elapsed"] = self.elapsed
        return doc


def _prescreen(X: np.ndarray, tab: _Tables, uniform_level0: bool):
    """Split chunk rows into table-certified routes and a residual.

    Returns (counts per route, residual row indices)."""
    n, s = X.shape
    cols = list(range(s))
    hit = np.zeros(n, bool)
    for i, j in combinations(cols, 2):
        hit |= tab.pair[(X[:, i] << 6) | X[:, j]]
    n_pair = int(hit.sum())

    rem = np.flatnonzero(~hit)
    n_chain = 0
    if rem.size and s >= 3:
        Xs = X[rem]
        sub = np.zeros(rem.size, bool)
        for i, j, l in combinations(cols, 3):
            sub |= tab.chain[(Xs[:, i] << 12) | (Xs[:, j] << 6) | Xs[:, l]]
            if not uniform_level0:
                # the level-0 pair may sit in either other orientation
                sub |= tab.chain[(Xs[:, i] << 12) | (Xs[:, l] << 6) | Xs[:, j]]
                sub |= tab.chain[(Xs[:, j] << 12) | (Xs[:, l] << 6) | Xs[:, i]]
        n_chain = int(sub.sum())
        rem = rem[~sub]

    n_split = 0
    if rem.size and s >= 4:
        Xs = X[rem]
        sub = np.zeros(rem.size, bool)
        # one partition per 4-subset: on rows with no vanishing pair any
        # partition realizes any vanishing 4-combination
        for i, j, k, l in combinations(cols, 4):
            idx = (Xs[:, i] << 18) | (Xs[:, j] << 12) | (Xs[:, k] << 6) | Xs[:, l]
            sub |= tab.split[idx]
        n_split = int(sub.sum())
        rem = rem[~sub]

    return {"pair": n_pair, "chain": n_chain, "split": n_split}, rem


def _flat_zero_dp(X: np.ndarray, tab: _Tables) -> np.ndarray:
    """Exact success decision per row: can some subset of variables,
    scaled by multipliers, sum to 0 mod 8 while using a level-0 one?

    R0 holds achievable sums over level->=1 variables only, R1 those that
    already absorbed a level-0 variable.  Every update gathers from the
    pre-column snapshot, so each variable enters a sum at most once."""
    n, s = X.shape
    R0 = np.zeros((n, 64), bool)
    R1 = np.zeros((n, 64), bool)
    rows = np.arange(n)
    for i in range(s):
        col = X[:, i]
        lvl0 = tab.LV[col] == 0
        all0 = bool(lvl0.all())
        none0 = not lvl0.any()
        snap0, snap1 = R0.copy(), R1.copy()
        for r in range(len(tab.mulr)):
            w = tab.mulr[r][col]
            tr = tab.sub[w]
            sh0 = np.take_along_axis(snap0, tr, axis=1)
            sh1 = np.take_along_axis(snap1, tr, axis=1)
            R1 |= sh1
            if all0:
                R1 |= sh0
                R1[rows, w] = True
            elif none0:
                R0 |= sh0
                R0[rows, w] = True
            else:
                R1[lvl0] |= sh0[lvl0]
                R0[~lvl0] |= sh0[~lvl0]
                R1[rows[lvl0], w[lvl0]] = True
                R0[rows[~lvl0], w[~lvl0]] = True
    return R1[:, 0]


def _trial_form(d: int, ua, ub, levels, digits: int) -> AdditiveForm:
    """Variable i as the coefficient 2^level_i * (ua_i + ub_i w), trusted
    to `digits` digits from its level up."""
    K = int(levels.max()) + digits
    coeffs = tuple(
        RingElem(int(a) << int(lvl), int(b) << int(lvl), K)
        for a, b, lvl in zip(ua, ub, levels)
    )
    return AdditiveForm(d, coeffs, windows=tuple(int(lvl) + digits for lvl in levels))


def _profile_form(d: int, row) -> AdditiveForm:
    """A one-level profile of residue codes as a form modulo 8."""
    return _trial_form(d, row & 7, row >> 3, np.zeros(len(row), np.int8), 3)


def _settle(form: AdditiveForm, record: dict, resolution: dict, failures: list) -> None:
    """Hand a row every pass rejected to the contraction search: a
    certificate counts as route `search`, anything else is a failure."""
    out = search_certificate(form)
    if out.status == "FOUND":
        resolution["search"] += 1
    else:
        failures.append({**record, "status": out.status})


def sweep_lemma(
    lemma_id: str,
    mode: str | None = None,
    trials: int = 100_000,
    seed: int = 42,
    chunk_rows: int = 1 << 21,
) -> SweepReport:
    """Verify one shape claim, returning a report with every failure
    profile (each confirmed by the contraction search)."""
    lem = SWEEP_LEMMAS[lemma_id]
    if mode is None:
        mode = lem.default_mode
    if mode not in ("EXHAUSTIVE", "SAMPLED"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    if mode == "EXHAUSTIVE" and lem.exhaustive_total is None:
        raise ValueError(f"lemma {lemma_id} is declared sample-only")

    tab = _tables(lem.d)
    uniform = lem.uniform_level0()
    t0 = time.perf_counter()
    resolution = {"pair": 0, "chain": 0, "split": 0, "closure": 0, "search": 0}
    failures = []
    total = 0

    if mode == "EXHAUSTIVE":
        for X in _iter_exhaustive(_exhaustive_slots(lem), chunk_rows):
            total += len(X)
            counts, rem = _prescreen(X, tab, uniform)
            for key, val in counts.items():
                resolution[key] += val
            if rem.size:
                reach = _flat_zero_dp(X[rem], tab)
                resolution["closure"] += int(reach.sum())
                rem = rem[~reach]
            for row in X[rem]:
                record = {"profile": [int(c) for c in row]}
                _settle(_profile_form(lem.d, row), record, resolution, failures)
        if total != lem.exhaustive_total:
            raise PadicFormsError(
                f"lemma {lemma_id}: enumerated {total} profiles, "
                f"declared {lem.exhaustive_total}"
            )
    else:
        UA, UB, col_levels = _sample_rows(lem, trials, seed, SAMPLE_DIGITS)
        total = trials
        X0 = _codes_at(UA, UB, col_levels, 0)
        counts, rem = _prescreen(X0, tab, uniform)
        for key, val in counts.items():
            resolution[key] += val
        if rem.size:
            reach = _flat_zero_dp(X0[rem], tab)
            resolution["closure"] += int(reach.sum())
            rem = rem[~reach]
        # higher anchor levels: only variables within reach of level kappa
        for kappa in range(1, int(col_levels.max()) + 1):
            if not rem.size:
                break
            cols = np.flatnonzero((col_levels >= kappa) & (col_levels <= kappa + 2))
            if cols.size < 2 or not (col_levels[cols] == kappa).any():
                continue
            Xk = _codes_at(UA[np.ix_(rem, cols)], UB[np.ix_(rem, cols)],
                           col_levels[cols], kappa)
            reach = _flat_zero_dp(Xk, tab)
            resolution["closure"] += int(reach.sum())
            rem = rem[~reach]
        for ridx in rem:
            ua, ub = UA[ridx], UB[ridx]
            record = {
                "levels": [int(v) for v in col_levels],
                "unitsA": [int(v) for v in ua],
                "unitsB": [int(v) for v in ub],
            }
            form = _trial_form(lem.d, ua, ub, col_levels, SAMPLE_DIGITS)
            _settle(form, record, resolution, failures)

    return SweepReport(
        lemma=lemma_id,
        d=lem.d,
        mode=mode,
        space=lem.space(),
        total=total,
        failures=failures,
        resolution=resolution,
        escalations={},
        elapsed=time.perf_counter() - t0,
        trials=trials if mode == "SAMPLED" else None,
        seed=seed if mode == "SAMPLED" else None,
    )


def exhaustive_lemma_ids() -> list:
    return [k for k, v in SWEEP_LEMMAS.items() if v.default_mode == "EXHAUSTIVE"]


def sampled_lemma_ids() -> list:
    return [k for k, v in SWEEP_LEMMAS.items() if v.default_mode == "SAMPLED"]


@dataclass
class MinimalityReport:
    lemma: str
    d: int
    decrements: list  # one record per distinct decremented count multiset
    elapsed: float

    def to_json(self, include_timings: bool = True) -> dict:
        doc = {
            "kind": "minimality",
            "lemma": self.lemma,
            "degree": self.d,
            "decrements": self.decrements,
        }
        if include_timings:
            doc["elapsed"] = round(self.elapsed, 3)
        return doc


def minimality_probe(
    lemma_id: str,
    confirm_cap: int = 5,
    chunk_rows: int = 1 << 21,
) -> MinimalityReport:
    """Probe whether a one-level lemma's class counts can drop by one.

    For each class slot, remove a variable and exhaust the smaller space.
    Profiles the search cannot contract are handed to the complete
    modular decision as plain forms; an anisotropic answer there is a
    concrete instance showing the decremented type does not always
    contract, so the original counts are not slack.  This is corroborative
    only, not part of the verification battery.
    """
    from .forms import default_precision
    from .oracle import decide_isotropy_exhaustive

    lem = SWEEP_LEMMAS[lemma_id]
    if lem.class_counts is None or any(lem.level_counts):
        raise ValueError(f"lemma {lemma_id} is not a one-level class lemma")
    tab = _tables(lem.d)
    K = default_precision(lem.d)
    t0 = time.perf_counter()
    records = []
    seen = set()
    for pos in range(len(lem.class_counts)):
        if lem.class_counts[pos] == 0:
            continue
        counts = list(lem.class_counts)
        counts[pos] -= 1
        key = tuple(sorted(counts))
        if key in seen:  # class relabeling makes these spaces equivalent
            continue
        seen.add(key)
        sub = SweepLemma("probe", lem.d, tuple(counts), (), None, "EXHAUSTIVE")
        total = 0
        fail_rows = []
        for X in _iter_exhaustive(_exhaustive_slots(sub), chunk_rows):
            total += len(X)
            _, rem = _prescreen(X, tab, True)
            if rem.size:
                good = _flat_zero_dp(X[rem], tab)
                bad = X[rem[~good]]
                if len(bad):
                    fail_rows.append(bad.copy())
        failures = (
            np.concatenate(fail_rows)
            if fail_rows
            else np.empty((0, sub.s), np.int32)
        )
        confirmed = 0
        example = None
        for row in failures[: max(confirm_cap, 0)]:
            if search_certificate(_profile_form(lem.d, row)).status != "NOT_FOUND":
                raise PadicFormsError("probe failure not confirmed by the contraction search")
            f = AdditiveForm.from_pairs(
                lem.d, [(int(c) & 7, int(c) >> 3) for c in row], K
            )
            if decide_isotropy_exhaustive(f).verdict != "ANISOTROPIC":
                raise PadicFormsError("search-refuted probe profile decided isotropic")
            confirmed += 1
            if example is None:
                example = f.to_json()
        records.append(
            {
                "counts": "/".join(str(k) for k in counts),
                "total": total,
                "searchFailures": int(len(failures)),
                "anisotropicConfirmed": confirmed,
                "example": example,
            }
        )
    return MinimalityReport(lemma_id, lem.d, records, time.perf_counter() - t0)
