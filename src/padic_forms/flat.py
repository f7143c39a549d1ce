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
  (`anchor_solve_pair`) needs exactly the sum mod 2^(k+3).

Dividing by 2^k turns each anchor level into one question about subset
sums in Z8 x Z8, 64 states.  State (a, b) sits at bit a + 16b of a
256-bit half, the sums that used no level-k term yet in the low half of
one int and those that did in the high half.  The bits a + 16b with
a or b at 8 or more are guards: translating by (ta, tb) is one left
shift by ta + 16 tb, whose carries land in the guards, and after a
term's shifted copies are ORed together one fold takes every sum back
mod 8.  The variables are sorted into levels once per form, so each
anchor visits only the terms that can reach its range and reads each
term's code straight off its coefficient (j = 0) or off 2^d times it
(j = 1); a wrapped term never lands at level k, since k < d.  A term
takes part only when its trusted window covers the digits the question
reads (k + 3 - jd); the outcome records whether some term was left out
for that reason, since then a missing zero proves nothing.  One pass
over the anchors (`flat_zero`) decides the form; it skips an anchor with
fewer than two level-k terms, windows included, since a lone 2^k times a
unit cannot be cancelled mod 2^(k+1) by terms of higher level whatever
the unseen digits.

A solution becomes a contraction certificate over the caller's form (the
root of the form searched) by contracting two nodes of minimal level
until the combination vanishes (a vanishing total forces its minimal
level to repeat), each node built on int pairs as engine's `make_leaf`
and `contract` would build it and the pending nodes kept in one
id-ordered queue per level; and a witness by Newton on the anchor
(solver.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .engine import ContractionCertificate, VarNode, _certificate_from
from .errors import CertificateError, PadicFormsError
from .forms import AdditiveForm
from .ring import mul_pair, multiplier_set, reduced_elem

_node = tuple.__new__  # a VarNode past its generated constructor

# a half's 64 states, bits 0..7 of its 16-bit lanes 0..7; then both halves
_LOW = 0xFF * sum(1 << 16 * b for b in range(8))
_LOW2 = _LOW | _LOW << 256


def _bit(code: int) -> int:
    """Where the code a + 8b of (a, b) sits in a half: bit a + 16b, which
    is also the shift that translates a half by (a, b)."""
    return (code & 7) | (code >> 3) << 4


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


# the kernel's picks are named tuples: it builds them on every search


class FlatPick(NamedTuple):
    var: int
    wrap: int  # the variable is 2^wrap times a unit
    rep: int  # index into the multiplier set's reps


class FlatSolution(NamedTuple):
    k: int  # anchor level
    anchor: int  # variable of a used level-k term
    picks: tuple[FlatPick, ...]  # ordered by variable


@dataclass
class SearchOutcome:
    """The kernel pass's one record; `search_certificate` adds the
    certificate."""

    status: str  # "FOUND" | "NOT_FOUND"
    certificate: ContractionCertificate | None
    nodes_expanded: int  # reachable-set sizes summed over anchors and steps
    solution: FlatSolution | None = None  # the kernel's picks behind the certificate
    short: bool = False  # a term was left out for its window, so NOT_FOUND proves nothing


@lru_cache(maxsize=None)
def _rows(d: int) -> tuple:
    """mod8_table(d).options as the kernel's three row tables: a term at
    its own level above k, one at level k, and one wrapped (never at level
    k).  Each is indexed by the term's code and holds its options (code,
    at level k, wrap, rep index) and their shifts."""
    rows = mod8_table(d).options
    return tuple(tuple((tuple((code, at_k, j, idx) for code, idx in row),
                        tuple(_bit(code) for code, _ in row)) for row in rows)
                 for at_k, j in ((False, 0), (True, 0), (False, 1)))


def _term(var: int, opts: tuple) -> tuple:
    """A kernel term: the variable, its options, and the shifts of its
    options that are not at level k and of those that are."""
    return (var, opts, tuple(_bit(o[0]) for o in opts if not o[1]),
            tuple(_bit(o[0]) for o in opts if o[1]))


def _by_level(f: AdditiveForm) -> list:
    """Per level below the degree, its variables in order, each as
    (variable, coefficient's a and b, window, level)."""
    by_level = [[] for _ in range(f.d)]
    for i, (c, w, lvl) in enumerate(zip(f.coeffs, f.windows, f.levels())):
        by_level[lvl].append((i, c.a, c.b, w, lvl))
    return by_level


def _options(f: AdditiveForm, k: int, by_level: list):
    """The kernel terms at anchor k, in variable order: per variable the
    distinct codes (term / 2^k mod 8) it can add, each as (code, at level
    k, wrap, rep index), the first wrap and rep reaching a code winning;
    and whether a term in range was left out for its window.  Only the
    levels of `by_level` (from `_by_level`) that reach the range are
    visited.

    A term at level k or above reads its code off its coefficient and
    needs a window of k + 3; one below level k + 3 - d reads it off 2^d
    times its coefficient and needs a window of k + 3 - d.  Only when
    d = 2 does a term (at level k) do both: the wrap adds the codes the
    unwrapped term does not reach."""
    d = f.d
    plain, at_k, wrapped = _rows(d)
    top = k + 3
    low = top - d  # the terms below this level wrap into range
    up = d - k  # 2^d times a coefficient, divided by 2^k
    near = by_level[k:top] + by_level[:max(0, min(low, k))]
    terms = []
    short = False
    for i, a, b, w, lvl in sorted(sum(near, [])):
        term = None
        if lvl >= k:
            if w < top:
                short = True
            elif lvl == k:
                opts, shifts = at_k[(a >> k) & 7 | ((b >> k) & 7) << 3]
                term = (i, opts, (), shifts)
            else:
                opts, shifts = plain[(a >> k) & 7 | ((b >> k) & 7) << 3]
                term = (i, opts, shifts, ())
        if lvl < low:
            if w < low:
                short = True
            else:
                opts, shifts = wrapped[(a << up) & 7 | ((b << up) & 7) << 3]
                if term is None:
                    term = (i, opts, shifts, ())
                else:  # the wrap adds only codes the unwrapped term does not reach
                    seen = {o[0] for o in term[1]}
                    term = _term(i, term[1] + tuple(o for o in opts if o[0] not in seen))
        if term is not None:
            terms.append(term)
    return terms, short


def _reach(terms):
    """Run the DP on the guarded layout, R holding both halves.  A term
    ORs R shifted by each option not at level k, and the union of both
    halves shifted by each option at level k, which anchors every sum it
    joins; each group is folded once into its half.  Returns R before
    each term, the final anchored half, and the reachable-set sizes
    summed over the steps."""
    R = 1  # bit 0 of the low half: the empty sum
    trail = []
    states = 0
    for _, _, plain, anchoring in terms:
        trail.append(R)
        n = R
        if plain:
            x = 0
            for s in plain:
                x |= R << s
            x |= x >> 8  # fold the carries of a, then of b
            n |= (x | x >> 128) & _LOW2
        if anchoring:
            y = (R | R >> 256) & _LOW
            x = 0
            for s in anchoring:
                x |= y << s
            x |= x >> 8
            n |= ((x | x >> 128) & _LOW) << 256
        R = n
        states += R.bit_count()
    return trail, R >> 256, states


def _backtrack(k: int, terms, trail) -> FlatSolution:
    """Walk the trail backward from 0 in the anchored half, leaving a
    term out whenever that still reaches, and collect the picks.  The
    target is kept as its bit a + 16b."""
    target, anchored = 0, True
    picks = []
    anchor = None
    for (var, opts, _, _), R in zip(reversed(terms), reversed(trail)):
        R0, R1 = R & _LOW, R >> 256
        if (R1 if anchored else R0) >> target & 1:
            continue  # reachable without this term
        for code, at_k, wrap, idx in opts:
            prev = ((target - code) & 7) | (((target >> 4) - (code >> 3)) & 7) << 4
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


def flat_zero(f: AdditiveForm) -> SearchOutcome:
    """Solution at the lowest anchor level that has one.  A variable may
    be a unit or 2 times a unit, which makes the search complete.  The
    states are summed over the anchors whose DP ran; `short` covers those
    anchors before the solution, or all of them when there is none."""
    try:  # a level at or above the degree has no bucket
        by_level = _by_level(f)
    except IndexError:
        raise ValueError("flat reachability needs levels below the degree") from None
    states = 0
    short = False
    for k in range(f.d):
        if len(by_level[k]) < 2:
            continue  # a lone 2^k times a unit: no zero anchors here, whatever the digits
        terms, left_out = _options(f, k, by_level)
        short |= left_out
        trail, R1, seen = _reach(terms)
        states += seen
        if R1 & 1:
            return SearchOutcome("FOUND", None, states, _backtrack(k, terms, trail), short)
    return SearchOutcome("NOT_FOUND", None, states, short=short)


def contraction_from_flat(g: AdditiveForm, sol: FlatSolution) -> ContractionCertificate:
    """The solution as a contraction certificate over g's root form, the
    caller's.  Each pick is written in the root's variables as
    x_j = 2^(m_j) u_j with m_j = N - e_j + wrap_j, e_j the substitution of
    g's frame and N the largest over the picks, so its leaf is the root's
    coefficient times 2^(d m_j) with exponent m_j, at the coefficient's
    level plus d m_j and trusted to its window plus d m_j.  Every term
    moves by the same d N - scale from its level in g, so the anchor level
    is k + d N - scale, and the tree is computed mod 2^K with K the larger
    of the root's precision and the anchor level + 3.

    The leaves are contracted bottom-up: while some node has a level
    below the anchor level + 3, two nodes share the minimal one, and those
    two (lowest ids first) are combined.  Leaves take their chosen
    multiplier, composite nodes the identity (the set's first rep).  The
    root is the finished node holding the anchor; it must hold every pick,
    since the lift reads each picked variable off its rep alone.  A
    combination never lands below its children's level, so one id-ordered
    queue per level below the anchor level + 3 is drained from the lowest
    level up.  The nodes come out in id order: the leaves in the picks'
    variable order, then each contraction as it is built, so no walk of
    the tree is needed.

    Each node is the one engine's `make_leaf` or `contract` would build
    (`test_contraction_from_flat_matches_node_by_node_tree` checks that),
    built here on int pairs: a leaf keeps every level below its window,
    and a two-child contraction takes its value from the queued pairs,
    masked once."""
    d, subst, root = g.d, g.subst_log, g.root()
    N = max([subst[var] for var, _, _ in sol.picks], default=0)
    need = sol.k + d * N - g.scale_log + 3
    K0 = root.K
    K = K0 if need <= K0 else need
    reps = multiplier_set(d, K).reps
    mask = (1 << K) - 1
    coeffs, windows, levels = root.coeffs, root.windows, root.levels()
    queues = [[] for _ in range(need)]  # per level, (node, its a, b, multiplier its parent applies)
    finished = []
    nodes = []
    for var, wrap, idx in sol.picks:
        m = N - subst[var] + wrap
        c, lvl, J = coeffs[var], levels[var], windows[var]
        if m or K != K0:  # the term scaled by 2^(d m), trusted to K digits at most
            shift = d * m
            c = reduced_elem((c.a << shift) & mask, (c.b << shift) & mask, K)
            lvl += shift
            J = min(J + shift, K)
        leaf = _node(VarNode, (var, c, J if J < lvl + 3 else lvl + 3, lvl, lvl,
                               frozenset((var,)), "leaf", var, (), (), m))
        nodes.append(leaf)
        if lvl < need:
            queues[lvl].append((leaf, c.a, c.b, reps[idx]))
        else:
            finished.append(leaf)
    one = reps[0]
    new_id = g.s
    for queue in queues:
        i = 0
        while len(queue) - i >= 2:
            (x, xa, xb, rx), (y, ya, yb, ry) = queue[i], queue[i + 1]
            i += 2
            if not x.leaves.isdisjoint(y.leaves):
                raise CertificateError("children overlap in original variables")
            u, v = rx.value, ry.value
            bx, by = xb * u.b, yb * v.b  # the products as in mul_pair, inline
            ta = (xa * u.a + bx + ya * v.a + by) & mask
            tb = (xa * u.b + xb * u.a + bx + ya * v.b + yb * v.a + by) & mask
            J = x.J if x.J < y.J else y.J
            low = (ta | tb) & ((1 << J) - 1)  # the level inside the window
            lvl = (low & -low).bit_length() - 1 if low else None
            node = _node(VarNode, (new_id, reduced_elem(ta, tb, K), J, lvl,
                                   x.kappa if x.kappa < y.kappa else y.kappa,
                                   x.leaves | y.leaves, "contraction", None, (x.id, y.id),
                                   (rx, ry), 0))
            new_id += 1
            nodes.append(node)
            if lvl is not None and lvl < need:
                queues[lvl].append((node, ta, tb, one))
            else:
                finished.append(node)
        if len(queue) > i:
            raise CertificateError("flat solution does not vanish modulo 2^(k+3)")
    if len(finished) != 1 or sol.anchor not in finished[0].leaves:
        raise CertificateError("flat solution picks terms outside the anchor's contraction")
    top = finished[0]
    if not top.is_success():
        raise CertificateError("flat solution left no vanishing node over the anchor")
    return _certificate_from(top, nodes, d, K)


def search_certificate(g: AdditiveForm) -> SearchOutcome:
    """The decision's one kernel pass: a contraction certificate over g's
    root form for a zero of g, if g has one.  The pass is complete, so
    NOT_FOUND proves g anisotropic unless `short` is set."""
    out = flat_zero(g)
    if out.solution is not None:
        out.certificate = contraction_from_flat(g, out.solution)
    return out
