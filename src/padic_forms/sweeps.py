"""Bulk verification sweeps over one-level and two-level coefficient shapes.

A sweep checks a contraction claim over coefficient profiles mod 8,
either over the whole declared shape space (EXHAUSTIVE) or over seeded
random draws (SAMPLED); a lemma that declares its space's total is swept
exhaustively, any other by sampling, and a sweep asked for in the other
mode is refused.  A profile succeeds exactly when some contraction tree
builds a value divisible by 8 whose subtree contains a level-0 variable
(more generally, divisible by 2^(k+3) over a level-k variable).

Success is equivalent to a flat combination sum(c_i * u_i) == 0
mod 2^(k+3), with coefficients from the multiplier group and k the
minimum level among the variables used: such a combination can always
be built bottom-up by contracting two nodes of minimal level, because a
vanishing total forces its minimal level to repeat, and conversely the
root value of a successful tree is such a combination.  Dividing by 2^k
turns each candidate anchor level k into the same mod-8 reachability
question.  In a group of variables that are all at the anchor level,
every nonempty sub-sum uses one, so the question is whether 0 lies in
the set of multiplier-scaled sums over the group's nonempty subsets.
Such a Z8 x Z8 set is packed into a uint64, (a, b) at bit a + 8b, and
is a state of a sum-set automaton of its degree and code family
(`_SumAutomaton`, unit codes or negated even ones): a table filled on
first use gives the state after one more variable of each column, and
`_fill`, the one step that builds a set, fills a missing entry.  A unit
code's rank is orbit-major (`_Tables`: orbit index << s | place, 24
orbits of 2 when 3 | d, 8 of 6 otherwise) and its column is its orbit,
rank >> s: scaling a variable by a rep does not change the codes it can
add.  `_unit_sums` gives a group of unit variables its set, from a
64 x 64 table of the state after each pair of ranks, walked whole when
the automata are built, and one lookup per further variable.

Exhaustive spaces (and the minimality probe's) are one-level and are
enumerated by orbits: each multiset of orbits per class is decided once,
at their least codes, and weighted by the number of code multisets it
stands for.  `_slot_join` decides the product of the class slots from
the `_unit_sums` of all slots but the last and of the last slot's rows,
each code negated.

Sampled trials read only each variable's unit code mod 8, so
`_sample_ranks` draws one code a + 8b per variable and trial from raw
generator words, uniform over its residue class's 16 codes or over all
48 unit codes, and stores its rank.  At each anchor kappa a trial splits
into the anchor-level group and the deeper one (levels kappa + 1,
kappa + 2, a code v read as 2^(level - kappa) v).  Its anchored sums are
A + B, A the nonempty sums of the first group (`_unit_sums`) and B the
sums of the second, the empty one included, walked on the even
automaton (a column per deeper shift and unit orbit); 0 is among them
iff A meets -B (`_anchor_misses`, which runs the deeper group only on
rows whose A misses 0).  Every admissible degree has the reps mod 8 of
d = 6 (when 3 | d) or of d = 10, and from the empty row only 28,298 unit
and 1,546 even states can be reached (53 and 16 otherwise); each
family's table holds that many (`_CAP`), and a walk past them raises.

Beyond its rank matrix (one byte per variable and trial), a sampled
sweep works in blocks: `_sample_ranks` reads the generator and maps
words to ranks `_BLOCK` codes at a time, and `_sampled_verdicts` plans
the anchors once, from the levels, then decides `_BLOCK` trials at a
time.  numpy's `take` copies a uint8 or uint16 index array to intp
whole, and each step of the decision allocates arrays as wide as its
trials, so at 100,000 trials whole-width work held several MB at once;
a block holds a few hundred KB.  Each trial is decided on its own
column, and the generator is read in whole words in its original order,
so the blocks change no draw and no verdict.

Profiles the pass rejects are built as forms and handed to
`search_certificate`, the pipeline's own contraction search (flat.py);
a certificate there counts as route `search`, anything else is reported
as a failure with its profile.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

import numpy as np

from .errors import PadicFormsError
from .flat import mod8_table, search_certificate
from .forms import AdditiveForm, default_precision
from .ring import RingElem


# ---------------------------------------------------------------------------
# packed reachability


@dataclass(frozen=True)
class _Tables:
    mulr: np.ndarray  # (reps, 64) code of r * v, from flat.mod8_table
    # a unit code's rank: its orbit's index (by least code) << s | its place
    # in the orbit, ascending; orbits of 2 (s = 1) or of 6 padded to 8 (s = 3)
    shift: int  # s
    code: np.ndarray  # per rank, its unit code (0 past its orbit's end)
    rank: np.ndarray  # (64,) per unit code, its rank


# the 48 unit codes a + 8b, a or b odd, in increasing order
_UNITS = np.array([v for v in range(64) if (v | v >> 3) & 1], np.uint8)


@lru_cache(maxsize=None)
def _tables(d: int) -> _Tables:
    mulr = np.array(mod8_table(d).products, dtype=np.uint8).T
    orbit, s = mulr.min(axis=0), (len(mulr) - 1).bit_length()
    code = np.zeros((len(_UNITS) // len(mulr), 1 << s), np.uint8)
    code[:, : len(mulr)] = np.sort(mulr[:, _distinct(orbit[_UNITS])].T, axis=1)
    rank = np.zeros(64, np.uint8)
    rank[code] = np.arange(code.size).reshape(code.shape)  # code 0, a padding's, is no unit
    return _Tables(mulr, s, code.ravel(), rank)


# per code v = a + 8b, as uint64 so that no shift needs a cast: the bits
# of each byte whose a-coordinate stays below 8 after adding a, the byte
# shifts a and 8 - a, and the word shifts 8b and (64 - 8b) mod 64
_KEEP, _UP, _DOWN, _WUP, _WDOWN = np.array(
    [((0xFF >> (v & 7)) * 0x0101010101010101, v & 7, 8 - (v & 7), 8 * (v >> 3), -8 * (v >> 3) & 63)
     for v in range(64)], np.uint64).T.copy()
# the code of -v for each code v = a + 8b
_NEG_CODE = np.array([(-v & 7) | ((-(v >> 3) & 7) << 3) for v in range(64)], np.uint8)
# row s: the code of 2^s * v for each code v.  Built from a flat list:
# converting a nested one runs numpy code that adds about 0.1 MB of RSS
_SCALE = np.array([(v << s & 7) | ((v >> 3) << s & 7) << 3 for s in range(3) for v in range(64)],
                  np.uint8).reshape(3, 64)


def _translate_rows(M: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The mask M[i] moved by the code w[i]: a rotate of every byte by
    w's a, then of the word by 8 times w's b.  In place where it can be:
    an automaton fills up to a block of rows at once (sampled trials are
    decided `_BLOCK` at a time, which bounds every such array), and a
    temporary per operation would add one more array of that width."""
    keep = _KEEP.take(w)
    out = M & keep
    out <<= _UP.take(w)
    np.bitwise_and(M, np.invert(keep, out=keep), out=keep)
    keep >>= _DOWN.take(w)
    out |= keep
    np.left_shift(out, _WUP.take(w), out=keep)
    out >>= _WDOWN.take(w)
    out |= keep
    return out


def _fill(N: np.ndarray, v: np.ndarray, tab: _Tables) -> np.ndarray:
    """Per row, the Z8 x Z8 sum set N[i] ((a, b) at bit a + 8b) with one
    more variable of code v[i]: each multiplier-scaled v[i] added to the
    sums of N[i] and to the empty sum, so a variable enters a sum at most
    once.  N is updated."""
    pre = N | 1
    for mul in tab.mulr:
        N |= _translate_rows(pre, mul.take(v))
    return N


_CAP = (28_298, 1_546)  # unit and even states a walk can reach: uint16 ids, 0 is unfilled


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of x (np.unique is slower and imports numpy.ma)."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


class _SumAutomaton:
    """Sum sets built one variable at a time, for one degree and code family:
    a state is a mask, T[state * W + o] the state after one more variable of
    column o (the code reps[o]), id 1 the empty row, at most `cap` states.
    The automata are shared by every sweep of their degree, so a walk holds
    the lock: `sweep_lemma` may be called from threads."""

    def __init__(self, reps: np.ndarray, tab: _Tables, cap: int):
        self.reps, self.tab, self.cap, self.lock = reps, tab, cap, threading.Lock()
        self.T = np.zeros((cap + 1) * len(reps), np.uint16)
        self.masks = np.zeros(cap + 1, np.uint64)  # per id
        self.known, self.ids = np.zeros(1, np.uint64), np.ones(1, np.uint16)  # sorted masks, ids
        self.pairs = None  # the unit family's pair table, see `_automata`

    def number(self, N: np.ndarray) -> np.ndarray:
        """The ids of the masks N, numbering new ones."""
        vals = _distinct(N)
        pos = np.searchsorted(self.known, vals)
        new = self.known.take(pos, mode="clip") != vals
        if len(self.known) + new.sum() > self.cap:
            raise PadicFormsError(f"sum-set automaton needs more than {self.cap} states")
        ids = self.ids.take(pos, mode="clip")
        ids[new] = len(self.known) + 1 + np.arange(new.sum())
        self.masks[ids[new]] = vals[new]
        self.known = np.insert(self.known, pos[new], vals[new])
        self.ids = np.insert(self.ids, pos[new], ids[new])
        return ids.take(np.searchsorted(vals, N))

    def walk(self, st: np.ndarray, cols) -> np.ndarray:
        """Per row, the state after the variables of columns cols (one
        array per variable) from the state st.  A missing entry is
        filled by a `_fill` step."""
        W = len(self.reps)
        with self.lock:
            key = np.empty(len(st), np.intp)  # one buffer for every step
            for idx in cols:
                np.multiply(st, W, out=key, dtype=np.intp)
                key += idx
                st = self.T.take(key)
                if not st.all():
                    miss = _distinct(key[st == 0])
                    N = _fill(self.masks.take(miss // W), self.reps.take(miss % W), self.tab)
                    self.T[miss] = self.number(N)
                    st = self.T.take(key)
            return st


@lru_cache(maxsize=None)
def _automata(d: int) -> tuple:
    """The unit-code and even-code automata of degree d.  Unit column o is
    unit orbit o (a rank r walks r >> s); even column (sh - 1) * U + o, U
    unit orbits, is -2^sh times orbit o, for the deeper shifts sh = 1, 2.

    The unit automaton's `pairs` holds, per two unit ranks r1 and r2 at
    r1 * 64 + r2, the state after a variable of each: a walk's first two
    steps in one lookup (other entries stay 0).  It is walked whole here,
    before another thread can see the automaton, so its ids do not depend
    on the sweeps that follow."""
    tab = _tables(d)
    units = tab.code[:: 1 << tab.shift]  # each orbit's least code
    aut = _SumAutomaton(units, tab, _CAP[0])
    r = np.flatnonzero(tab.code)  # the ranks of unit codes
    r1, r2 = np.repeat(r, len(r)), np.tile(r, len(r))
    aut.pairs = np.zeros(64 * 64, np.uint16)
    aut.pairs[r1 * 64 + r2] = aut.walk(np.ones(len(r1), np.uint16), (r1 >> tab.shift, r2 >> tab.shift))
    return aut, _SumAutomaton(_NEG_CODE[_SCALE[1:, units]].ravel(), tab, _CAP[1])


def _unit_sums(units: _SumAutomaton, ranks, n: int) -> np.ndarray:
    """Per column, the sum set of one unit code per variable, read from
    `ranks` (one array of n ranks per variable): the pair table's state
    of the first two, then a walk of the others' orbits."""
    if len(ranks) > 1:
        st = np.multiply(ranks[0], 64, dtype=np.intp)  # the pair's key, freed by its lookup
        st += ranks[1]
        st, ranks = units.pairs.take(st), ranks[2:]
    else:
        st = np.ones(n, np.uint16)
    return units.masks.take(units.walk(st, (r >> units.tab.shift for r in ranks)))


# ---------------------------------------------------------------------------
# profile spaces


def _class_codes(cls: int) -> list:
    """The 16 residues mod 8 of level-0 coefficients in one residue class."""
    return sorted(a + 8 * b for a in range(cls & 1, 8, 2) for b in range(cls >> 1, 8, 2))


@dataclass(frozen=True)
class SweepLemma:
    id: str
    d: int
    class_counts: tuple | None  # level-0 count per residue class, fixed labeling
    level_counts: tuple  # free-class count per level, index = level
    exhaustive_total: int | None = None  # declared exactly for the exhaustive lemmas

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


def _multiset_total(class_counts) -> int:
    return prod(comb(15 + k, k) for k in class_counts if k)


SWEEP_LEMMAS = {
    lem.id: lem
    for lem in [
        SweepLemma("223", 6, (2, 2, 3), (), _multiset_total((2, 2, 3))),
        SweepLemma("133", 6, (1, 3, 3), (), _multiset_total((1, 3, 3))),
        SweepLemma("115", 6, (1, 1, 5), (), _multiset_total((1, 1, 5))),
        SweepLemma("044", 6, (0, 4, 4), (), _multiset_total((0, 4, 4))),
        SweepLemma("025", 6, (0, 2, 5), (), _multiset_total((0, 2, 5))),
        SweepLemma("007", 6, (0, 0, 7), (), _multiset_total((0, 0, 7))),
        SweepLemma("0061", 6, (0, 0, 6), (0, 1)),
        SweepLemma("0241", 6, (0, 2, 4), (0, 1)),
        SweepLemma("0225", 6, (0, 2, 2), (0, 5)),
        SweepLemma("0045", 6, (0, 0, 4), (0, 5)),
        SweepLemma("541", 6, None, (5, 4, 1)),
        SweepLemma("211", 10, None, (2, 1, 1)),
        SweepLemma("31", 10, None, (3, 1)),
        SweepLemma("5", 10, None, (5,)),
        SweepLemma("401", 10, None, (4, 0, 1)),
        SweepLemma("23", 10, None, (2, 3)),
    ]
}


def _exhaustive_slots(class_counts, d: int) -> list:
    """Per nonempty class, every multiset of its multiplier orbits as a
    sorted row of the ranks of their least codes, with the number of code
    multisets it stands for: the product of C(m + t - 1, m), m picks from
    an orbit of size t, read off the rank layout like the orbits.  Rows
    grow a pick at a time, lexicographically (each by every orbit from its
    last on, after a placeholder orbit 0), and the m-th pick of an orbit
    of size t multiplies the weight by (m + t - 1) / m."""
    tab = _tables(d)
    slots, s = [], tab.shift
    for cls, k in zip((1, 2, 3), class_counts):
        if k:
            orbits = _distinct(tab.rank.take(_class_codes(cls)) >> s)
            size = np.count_nonzero(tab.code.reshape(-1, 1 << s)[orbits], axis=1)
            if size.sum() != 16:  # some orbit holds a code of another class
                raise PadicFormsError(f"multiplier orbits leave residue class {cls}")
            picks, run, weights = np.zeros((1, 1), np.intp), np.zeros(1, np.intp), np.ones(1, np.int64)
            for _ in range(k):  # run: the picks of each row's last orbit
                ext = len(orbits) - picks[:, -1]
                new = np.arange(ext.sum()) - np.repeat(ext.cumsum() - len(orbits), ext)
                run = np.where(new == picks[:, -1].repeat(ext), run.repeat(ext) + 1, 1)
                weights = weights.repeat(ext) * (run + size[new] - 1) // run
                picks = np.concatenate([picks.repeat(ext, axis=0), new[:, None]], axis=1)
            slots.append(((orbits << s)[picks[:, 1:]], weights))
    return slots


def _slot_join(slots, d: int) -> tuple:
    """Per row of the slot product, last slot fastest: its weight, whether
    some multiplier-scaled sub-sum vanishes mod 8, and the failing rows as
    codes.  With P the `_unit_sums` of the product X of all slots but the
    last and Q those of the last slot's rows, each code negated, the sums
    of row (i, j) hold 0 iff P[i] holds 0 or P[i] | {0} meets Q[j]."""
    units = _automata(d)[0]
    tab = units.tab
    X, W = np.zeros((1, 0), np.uint8), np.ones(1, np.int64)
    for rows, weights in slots[:-1]:
        X = np.concatenate([X.repeat(len(rows), axis=0), np.tile(rows, (len(X), 1))], axis=1)
        W = np.outer(W, weights).ravel()
    rows, weights = slots[-1]
    P = _unit_sums(units, X.T, len(X))[:, None]
    Q = _unit_sums(units, tab.rank.take(_NEG_CODE.take(tab.code.take(rows.T))), len(rows))
    ok = ((P | 1) & Q | P & 1) != 0
    i, j = np.nonzero(~ok)
    return np.outer(W, weights).ravel(), ok.ravel(), tab.code.take(np.concatenate([X[i], rows[j]], axis=1))


# codes drawn, and trials decided, per block: `take`'s intp copy of a
# block's indices is 256 KB, of 541's million free codes it would be
# 8 MB.  No draw or verdict depends on the size
_BLOCK = 1 << 15


@lru_cache(maxsize=None)
def _free_ranks(d: int) -> np.ndarray:
    """Per 16-bit word w < 65520, the rank of the (w % 48)-th unit code
    (a or b odd): a lookup in place of a division per draw, built on
    first use."""
    return np.tile(_tables(d).rank.take(_UNITS), 65520 // 48)


def _sample_ranks(lem: SweepLemma, trials: int, raw) -> tuple:
    """Draw trial coefficients mod 8: per variable a fixed level and a
    unit code a + 8b, uniform over its residue class's 16 codes, or over
    all 48 unit codes for a variable of free class.  Returns the codes'
    ranks (`_tables`; uint8, one row per variable, one column per trial)
    and each row's level.

    `raw(n)` gives n 64-bit generator words.  A fixed-class code is the
    class's code at the low 4 bits of one byte.  A free code is the unit
    code at w % 48 of one 16-bit word w < 65520 = 48 * 1365, read from
    `_free_ranks`; after the group's words, the positions whose word is
    65520 or more draw a new word, until none is left.  Each group reads
    its words in blocks of about `_BLOCK` codes, whole words each, and
    maps a block by one `take`: the stream is that of one full-length
    read, so every draw is too."""
    groups = [(0, k, cls) for cls, k in zip((1, 2, 3), lem.class_counts or ()) if k]
    groups += [(lvl, k, None) for lvl, k in enumerate(lem.level_counts) if k]
    C = np.empty((sum(k for _, k, _ in groups), trials), np.uint8)
    levels = []
    for lvl, k, cls in groups:
        out = C[len(levels) : len(levels) + k].reshape(-1)  # a view: the rows are contiguous
        n = out.size
        free = cls is None
        table = _free_ranks(lem.d) if free else _tables(lem.d).rank.take(_class_codes(cls))
        dtype = np.uint16 if free else np.uint8
        per = 8 // np.dtype(dtype).itemsize  # codes per generator word
        step = -(-_BLOCK // per) * per  # whole words per block: no draw depends on the size
        bad = []
        for i in range(0, n, step):
            idx = raw(-(-min(step, n - i) // per)).view(dtype)[: n - i]
            if free:
                bad.append(np.flatnonzero(idx >= 65520) + i)
            else:
                idx &= 15
            table.take(idx, out=out[i : i + step], mode="clip")  # a rejected word: redrawn below
        if free:
            pos = np.concatenate(bad)
            w = np.empty(pos.size, np.uint16)
            redo = np.arange(pos.size)
            while redo.size:
                w[redo] = raw(-(-redo.size // 4)).view(np.uint16)[: redo.size]
                redo = redo[w.take(redo) >= 65520]
            out[pos] = table.take(w)
        levels += [lvl] * k
    return C, np.array(levels, np.int8)


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


def _trial_form(d: int, ua, ub, levels) -> AdditiveForm:
    """Variable i as the coefficient 2^level_i * (ua_i + ub_i w), trusted
    to 3 digits from its level up."""
    K = int(levels.max()) + 3
    coeffs = tuple(
        RingElem(int(a) << int(lvl), int(b) << int(lvl), K)
        for a, b, lvl in zip(ua, ub, levels)
    )
    return AdditiveForm(d, coeffs, windows=tuple(int(lvl) + 3 for lvl in levels))


def _profile_form(d: int, row) -> AdditiveForm:
    """A one-level profile of residue codes as a form modulo 8."""
    return _trial_form(d, row & 7, row >> 3, np.zeros(len(row), np.int8))


def _anchor(shift: np.ndarray, d: int) -> tuple:
    """One anchor's part of a sweep's plan, row j read as 2^shift[j] times
    its unit codes: the rows of shift 0, and those of shifts 1 and 2, each
    with the offset of its shift's columns in the even family.  Rows of
    other shifts are left out."""
    U = len(_automata(d)[0].reps)
    deeper = np.flatnonzero((shift == 1) | (shift == 2)).tolist()
    return tuple(np.flatnonzero(shift == 0).tolist()), tuple((j, (int(shift[j]) - 1) * U) for j in deeper)


def _anchor_misses(C: np.ndarray, anchor: tuple, d: int) -> np.ndarray:
    """The columns of the rank matrix C (ascending) where no
    multiplier-scaled sub-sum that uses a shift-0 row of `anchor` (as
    `_anchor` plans it) vanishes mod 8.

    Such a sum is x + y, x in A the nonempty sums of the shift-0 rows and
    y in B the sums of the others, the empty one included; it vanishes iff
    A meets -B.  A column whose A holds 0 is a hit whatever its deeper
    rows, so those run only on the other columns; there the empty sum in
    -B meets nothing, and the rest is the sum set of the deeper codes
    scaled and negated, negation being additive.  A is `_unit_sums` of
    the shift-0 rows."""
    units, evens = _automata(d)
    s, (rows, deeper) = units.tab.shift, anchor
    A = _unit_sums(units, [C[j] for j in rows], C.shape[1])
    rest = np.flatnonzero((A & 1) == 0)
    if rest.size and deeper:
        st = evens.walk(np.ones(rest.size, np.uint16), ((C[j].take(rest) >> s) + off for j, off in deeper))
        rest = rest[(A.take(rest) & evens.masks.take(st)) == 0]
    return rest


def _sampled_verdicts(C: np.ndarray, col_levels: np.ndarray, d: int) -> np.ndarray:
    """Per trial, whether some anchor level kappa has a vanishing
    combination over the variables at levels kappa..kappa+2 (deeper ones
    vanish mod 2^(kappa+3)) that uses a level-kappa one.  C holds the
    ranks with one row per variable, as `_sample_ranks` draws them.

    The anchors are planned once, from the levels alone; an anchor with
    no level-kappa row, or with one row in its three levels (one variable
    never vanishes), is left out.  Then each block of `_BLOCK` trials
    runs the anchors from the lowest, each on the trials no earlier one
    decided."""
    plan = [_anchor(col_levels - kappa, d) for kappa in range(int(col_levels.max()) + 1)]
    plan = [(rows, deeper) for rows, deeper in plan if rows and len(rows) + len(deeper) > 1]
    ok = np.ones(C.shape[1], bool)
    for i in range(0, C.shape[1], _BLOCK):
        block = C[:, i : i + _BLOCK]
        rem = np.arange(block.shape[1])  # the block's trials no anchor decided yet
        for anchor in plan:
            if not rem.size:
                break
            sub = block if rem.size == block.shape[1] else block.take(rem, axis=1)
            rem = rem.take(_anchor_misses(sub, anchor, d))
        ok[i + rem] = False
    return ok


def _settle(form: AdditiveForm, record: dict, weight: int, resolution: dict, failures: list) -> None:
    """Hand a row the reachability pass rejected to the contraction
    search: a certificate counts its weight as route `search`, anything
    else is a failure."""
    out = search_certificate(form)
    if out.status == "FOUND":
        resolution["search"] += weight
    else:
        failures.append({**record, "status": out.status})


def sweep_lemma(
    lemma_id: str,
    mode: str | None = None,
    trials: int = 100_000,
    seed: int = 42,
) -> SweepReport:
    """Verify one shape claim, returning a report with every failure
    profile (each confirmed by the contraction search).  The lemma fixes
    the mode: EXHAUSTIVE when it declares its space's total, else
    SAMPLED; a `mode` given that differs is a ValueError."""
    lem = SWEEP_LEMMAS[lemma_id]
    own = "SAMPLED" if lem.exhaustive_total is None else "EXHAUSTIVE"
    if mode is not None and mode != own:
        raise ValueError(f"lemma {lemma_id} is swept {own}, not {mode!r}")
    mode = own
    if mode == "SAMPLED" and trials < 1:
        raise ValueError(f"a sampled sweep needs at least 1 trial, got {trials}")
    if mode == "SAMPLED" and seed < 0:
        raise ValueError(f"sweep seed must be non-negative, got {seed}")

    tab = _tables(lem.d)
    t0 = time.perf_counter()
    # every row the pass decides is route `closure`; `pair`, `chain` and
    # `split` stay 0 so reports keep their five route keys
    resolution = {"pair": 0, "chain": 0, "split": 0, "closure": 0, "search": 0}
    failures = []

    if mode == "EXHAUSTIVE":
        W, ok, failed = _slot_join(_exhaustive_slots(lem.class_counts, lem.d), lem.d)
        total = int(W.sum())
        if total != lem.exhaustive_total:
            raise PadicFormsError(
                f"lemma {lemma_id}: enumerated {total} profiles, "
                f"declared {lem.exhaustive_total}"
            )
        resolution["closure"] = int(W[ok].sum())
        for row, weight in zip(failed, W[~ok]):
            record = {"profile": [int(c) for c in row], "weight": int(weight)}
            _settle(_profile_form(lem.d, row), record, int(weight), resolution, failures)
    else:
        C, col_levels = _sample_ranks(lem, trials, np.random.default_rng(seed).bit_generator.random_raw)
        total = trials
        ok = _sampled_verdicts(C, col_levels, lem.d)
        resolution["closure"] = int(ok.sum())
        for ridx in np.flatnonzero(~ok):
            codes = tab.code.take(C[:, ridx])
            ua, ub = codes & 7, codes >> 3
            record = {
                "levels": [int(v) for v in col_levels],
                "unitsA": [int(v) for v in ua],
                "unitsB": [int(v) for v in ub],
            }
            _settle(_trial_form(lem.d, ua, ub, col_levels), record, 1, resolution, failures)

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
    return [k for k, v in SWEEP_LEMMAS.items() if v.exhaustive_total is not None]


def sampled_lemma_ids() -> list:
    return [k for k, v in SWEEP_LEMMAS.items() if v.exhaustive_total is None]


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


PROBE_CONFIRMATIONS = 5  # failing profiles per decremented space the kernel confirms


def minimality_probe(lemma_id: str) -> MinimalityReport:
    """Probe whether a one-level lemma's class counts can drop by one.

    For each class slot, remove a variable and exhaust the smaller space
    (by orbit representatives; counts are weighted to code multisets).
    The first PROBE_CONFIRMATIONS profiles the slot join cannot contract
    are handed to `search_certificate` as plain forms, as `_settle` hands
    a sweep's, so the flat kernel checks the join on its own; no
    certificate there is a concrete instance showing the decremented type
    does not always contract, so the original counts are not slack.  This
    is corroborative only, not part of the verification battery.
    """
    lem = SWEEP_LEMMAS[lemma_id]
    if lem.class_counts is None or any(lem.level_counts):
        raise ValueError(f"lemma {lemma_id} is not a one-level class lemma")
    if sum(lem.class_counts) < 2:
        raise ValueError(f"lemma {lemma_id} has one variable: no smaller space to probe")
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
        W, ok, failures = _slot_join(_exhaustive_slots(counts, lem.d), lem.d)
        confirmed = 0
        example = None
        for row in failures[:PROBE_CONFIRMATIONS]:
            f = AdditiveForm.from_pairs(
                lem.d, [(int(c) & 7, int(c) >> 3) for c in row], K
            )
            if search_certificate(f).status == "FOUND":
                raise PadicFormsError("probe failure decided isotropic by the kernel")
            confirmed += 1
            if example is None:
                example = f.to_json()
        records.append(
            {
                "counts": "/".join(str(k) for k in counts),
                "total": int(W.sum()),
                "searchFailures": int(W[~ok].sum()),
                "anisotropicConfirmed": confirmed,
                "example": example,
            }
        )
    return MinimalityReport(lemma_id, lem.d, records, time.perf_counter() - t0)
