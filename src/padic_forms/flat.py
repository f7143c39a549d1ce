"""Exact isotropy decision by flat reachability modulo 8.

Unit d-th powers contain 1 + 8O, so with x = 2^j u (u a unit) the term
c * x^d runs, modulo 2^(lvl + jd + 3), over exactly c * 2^(jd) * r for r
in the multiplier reps, lvl being the level of c.  A form with levels
below d therefore has a nontrivial zero iff, for some anchor level k < d,
the terms of level lvl + jd in k..k+2 have a multiplier-scaled sub-sum
that vanishes mod 2^(k+3) and uses a level-k term:

- necessity: scale a zero so some variable is a unit and let k be the
  lowest term level it reaches; k < d, only j in {0, 1} can land in
  k..k+2, a level-k term has j = 0, and terms at k+3 or above vanish
  mod 2^(k+3);
- sufficiency: the level-k term is a unit variable whose Hensel lift
  (`newton_anchor_solve`) needs exactly the sum mod 2^(k+3).

Dividing by 2^k turns each anchor level into one question about subset
sums in Z8 x Z8, 64 states, kept as two 64-bit masks: sums that used no
level-k term yet, and sums that did, packed into one int (the second
mask in the high word) so that one shift moves both.  A term takes part
only when its trusted window covers the digits the question reads
(k + 3 - jd); the outcome records whether some term was left out for
that reason, since then a missing zero proves nothing.

A solution becomes a contraction certificate by contracting two nodes of
minimal level until the combination vanishes (a vanishing total forces
its minimal level to repeat), each node built by engine's `make_leaf`
and `contract` and the pending nodes kept in one id-ordered queue per
level, or a witness by Newton on the anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .engine import ContractionCertificate, _certificate_from, contract, make_leaf
from .errors import CertificateError, PadicFormsError
from .forms import AdditiveForm
from .ring import mul_pair, multiplier_set

_ALL = (1 << 64) - 1
_BOTH = (1 << 128) - 1


def _move(code: int) -> tuple:
    """Masks and shifts that translate both words of a packed mask pair
    by t = code, with x = a + 8b coding (a, b) in Z8 x Z8: rotate every
    byte left by t's a, then each 64-bit word left by 8 times t's b."""
    ta, s = code & 7, 8 * (code >> 3)
    keep = (0xFF >> ta) * 0x01010101010101010101010101010101  # bits staying in their byte
    wrap = ((1 << s) - 1) * (1 | 1 << 64)  # bits rotated round their word
    return keep, keep ^ _BOTH, ta, 8 - ta, wrap ^ _BOTH, wrap, s, 64 - s


_MOVES = tuple(_move(code) for code in range(64))


@dataclass(frozen=True)
class Mod8Table:
    """The multiplier reps acting on the 64 codes a + 8b of Z8 x Z8."""

    products: tuple  # products[v][i]: code of reps[i] * v
    options: tuple  # options[v]: distinct (code, index of its first rep) of products[v]


@lru_cache(maxsize=None)
def mod8_table(d: int) -> Mod8Table:
    """Degree d's reps mod 8 times every code, in rep order.  The reps
    mod 8 do not depend on the precision and must form a group: the
    kernel's option sets and the sweeps' orbit reduction rely on it."""
    reps = [(r.value.a & 7, r.value.b & 7) for r in multiplier_set(d, 3).reps]
    products = []
    for v in range(64):
        row = (mul_pair(v & 7, v >> 3, ra, rb, 8) for ra, rb in reps)
        products.append(tuple(x | (y << 3) for x, y in row))
    group = set(products[1])
    if 1 not in group or any(p not in group for x in group for p in products[x]):
        raise PadicFormsError(f"multiplier reps mod 8 for d={d} are not a group")
    options = tuple(
        tuple((code, row.index(code)) for code in dict.fromkeys(row)) for row in products
    )
    return Mod8Table(tuple(products), options)


def _minus(x: int, t: int) -> int:
    return ((x - t) & 7) | ((((x >> 3) - (t >> 3)) & 7) << 3)


# the kernel's answers are named tuples: it builds them on every search


class FlatPick(NamedTuple):
    var: int
    wrap: int  # the variable is 2^wrap times a unit
    rep: int  # index into the multiplier set's reps


class FlatSolution(NamedTuple):
    k: int  # anchor level
    anchor: int  # variable of a used level-k term
    picks: tuple[FlatPick, ...]  # ordered by variable


class FlatOutcome(NamedTuple):
    solution: FlatSolution | None
    states: int  # reachable-set sizes summed over anchors and steps
    short: bool  # some term was left out because of its window


@lru_cache(maxsize=None)
def _tagged(d: int) -> dict:
    """mod8_table(d).options as kernel rows (code, at level k, wrap, rep
    index), keyed by (at level k, wrap), then indexed by the term's code."""
    rows = mod8_table(d).options
    return {(at_k, j): tuple(tuple((code, at_k, j, idx) for code, idx in row) for row in rows)
            for at_k in (False, True) for j in (0, 1)}


def _options(f: AdditiveForm, k: int, wraps):
    """Per variable, the distinct codes (term / 2^k mod 8) it can add at
    anchor k, each as (code, at level k, wrap, rep index), the first wrap
    and rep reaching a code winning; and whether a term in range was left
    out for its window.  Both wraps fall in range only when d = 2."""
    d = f.d
    tagged = _tagged(d)
    top = k + 3
    terms = []
    short = False
    for i, (c, w, lvl) in enumerate(zip(f.coeffs, f.windows, f.levels())):
        opts = ()
        for j in wraps:
            shift = j * d
            at = lvl + shift
            if not k <= at < top:
                continue
            if w + shift < top:
                short = True
                continue
            v = (((c.a << shift) >> k) & 7) | ((((c.b << shift) >> k) & 7) << 3)
            row = tagged[at == k, j][v]
            if opts:
                seen = {o[0] for o in opts}
                row = tuple(o for o in row if o[0] not in seen)
            opts += row
        if opts:
            terms.append((i, opts))
    return terms, short


def _reach(terms):
    """Run the two-mask DP, both masks in one int R0 | R1 << 64.
    Returns the packed masks in force before each term, the final
    anchored mask, and the reachable-set sizes summed over the steps."""
    R = 1  # bit 0 of R0: the empty sum
    trail = []
    states = 0
    for _, opts in terms:
        trail.append(R)
        n = R
        for code, at_k, _, _ in opts:
            keep, drop, ta, ua, stay, wrap, s, us = _MOVES[code]
            x = ((R & keep) << ta) | ((R & drop) >> ua)
            x = ((x << s) & stay) | ((x >> us) & wrap)
            if at_k:  # a level-k term anchors every sum it joins
                n |= ((x | x >> 64) & _ALL) << 64
            else:
                n |= x
        R = n
        states += R.bit_count()
    return trail, R >> 64, states


def _backtrack(k: int, terms, trail) -> FlatSolution:
    """Walk the trail backward from 0 in the anchored mask, leaving a
    term out whenever that still reaches, and collect the picks."""
    target, anchored = 0, True
    picks = []
    anchor = None
    for (var, opts), R in zip(reversed(terms), reversed(trail)):
        R0, R1 = R & _ALL, R >> 64
        if (R1 if anchored else R0) >> target & 1:
            continue  # reachable without this term
        for code, at_k, wrap, idx in opts:
            prev = _minus(target, code)
            if anchored and R1 >> prev & 1:
                pass  # an earlier term carries the anchor
            elif anchored == at_k and R0 >> prev & 1:
                if anchored:
                    anchor, anchored = var, False
            else:
                continue
            picks.append(FlatPick(var, wrap, idx))
            target = prev
            break
        else:
            raise CertificateError("flat reachability trail broke while backtracking")
    if target != 0 or anchored or anchor is None:
        raise CertificateError("flat reachability trail does not end at the empty sum")
    return FlatSolution(k, anchor, tuple(reversed(picks)))


def flat_zero(f: AdditiveForm, wrapped: bool) -> FlatOutcome:
    """Solution at the lowest anchor level that has one.  With `wrapped`
    a variable may also be 2 times a unit, which makes the search
    complete; without, it covers the zeros whose used entries are units."""
    if not f.is_reduced():
        raise ValueError("flat reachability needs levels below the degree")
    wraps = (0, 1) if wrapped else (0,)
    states = 0
    short = False
    levels = set(f.levels())
    for k in range(f.d):
        if k not in levels:
            continue  # no term can carry the anchor
        terms, left_out = _options(f, k, wraps)
        short |= left_out
        trail, R1, seen = _reach(terms)
        states += seen
        if R1 & 1:
            return FlatOutcome(_backtrack(k, terms, trail), states, short)
    return FlatOutcome(None, states, short)


def contraction_from_flat(g: AdditiveForm, sol: FlatSolution) -> ContractionCertificate:
    """Contract the solution's leaves bottom-up: while some node has a
    level below k + 3, two nodes share the minimal one, and those two
    (lowest ids first) are combined.  Leaves take their chosen
    multiplier, composite nodes the identity (the set's first rep).  The
    root is the finished node holding the anchor; it must hold every pick,
    since the lift reads each picked variable off its rep alone.  A
    combination never lands below its children's level, so one id-ordered
    queue per level below k + 3 is drained from the lowest level up.  The
    nodes come out in id order: the leaves in the picks' variable order,
    then each contraction as it is built, so no walk of the tree is needed."""
    reps = multiplier_set(g.d, g.K).reps
    need = sol.k + 3
    queues = [[] for _ in range(need)]  # per level, (node, multiplier its parent applies)
    finished = []
    nodes = []
    for p in sol.picks:
        if p.wrap:
            raise CertificateError("a contraction certificate takes unit variables only")
        leaf = make_leaf(p.var, g.coeffs[p.var], g.windows[p.var])
        nodes.append(leaf)
        if leaf.level < need:
            queues[leaf.level].append((leaf, reps[p.rep]))
        else:
            finished.append(leaf)
    new_id = g.s
    for queue in queues:
        i = 0
        while len(queue) - i >= 2:
            (x, rx), (y, ry) = queue[i], queue[i + 1]
            i += 2
            node = contract((x, y), (rx, ry), new_id)
            new_id += 1
            nodes.append(node)
            if node.level is not None and node.level < need:
                queues[node.level].append((node, reps[0]))
            else:
                finished.append(node)
        if len(queue) > i:
            raise CertificateError("flat solution does not vanish modulo 2^(k+3)")
    if len(finished) != 1 or sol.anchor not in finished[0].leaves:
        raise CertificateError("flat solution picks terms outside the anchor's contraction")
    root = finished[0]
    if not root.is_success():
        raise CertificateError("flat solution left no vanishing node over the anchor")
    return _certificate_from(root, nodes, g.d, g.K)


@dataclass
class SearchOutcome:
    status: str  # "FOUND" | "NOT_FOUND"
    certificate: ContractionCertificate | None
    nodes_expanded: int  # the kernel's reachable-set sizes, summed
    solution: FlatSolution | None = None  # the kernel's picks behind the certificate


def search_certificate(g: AdditiveForm) -> SearchOutcome:
    """Pass 1 of the decision: a contraction certificate for a zero of g
    whose used entries are units, if g has one."""
    out = flat_zero(g, wrapped=False)
    if out.solution is None:
        return SearchOutcome("NOT_FOUND", None, out.states)
    cert = contraction_from_flat(g, out.solution)
    return SearchOutcome("FOUND", cert, out.states, out.solution)
