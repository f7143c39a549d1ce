"""Contraction calculus over partially known coefficients.

A contraction replaces several variables at one level with a single fresh
variable whose coefficient is the sum of theirs, each scaled by a chosen
unit d-th power.  Repeating this drives the working coefficient upward in
level; once the combined value vanishes mod 2^(k+3), where k is the lowest
leaf level consumed, the anchor variable admits a Hensel lift and the form
has a nontrivial zero.

Each node (VarNode) holds its value together with J, the number of low
digits trusted, and the value's level inside that window.  A leaf trusts
the three digits from its level up, the digits the mod 2^(k+3) question
reads, so a certificate built on leaves is valid for every completion of
the unseen digits; validation recomputes the tree with exact arithmetic
to confirm.  A leaf may also carry an exponent m: its variable is 2^m
times a unit, so the leaf stands for the coefficient times 2^(d m).
Certificates name the caller's form, the root of any derived form, and
`validate_certificate` checks them against it.  `make_leaf` and
`contract` build the nodes of a JSON document; flat.py's
`contraction_from_flat` builds the same nodes on int pairs for the
kernel's solutions, one leaf per pick and two children per contraction,
and the tests check its trees against these two builders.
`_certificate_from` is the only certificate builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import CertificateError, NotADthPower, NotAUnit
from .forms import AdditiveForm
from .ring import INFINITE, MultiplierRep, RingElem, dth_root, multiplier_set, pow_pair


class VarNode(NamedTuple):
    """One node of a contraction forest.  Its value is trusted only mod
    2^J, and level is the value's valuation inside that window (None when
    the value is 0 mod 2^J).  `choices` holds the multiplier applied to
    each child, aligned with `children`; kappa is the minimum leaf level
    in the subtree (the prospective anchor level).  A leaf's `exp` is m
    when its variable is 2^m times a unit: its value is the coefficient
    times 2^(d m).  A named tuple, the cheapest immutable record to build
    once per node."""

    id: int
    value: RingElem
    J: int
    level: int | None
    kappa: int
    leaves: frozenset
    kind: str  # "leaf" | "contraction"
    var: int | None = None
    children: tuple = ()
    choices: tuple = ()
    exp: int = 0

    def achieved(self) -> int:
        return self.J if self.level is None else self.level

    def is_success(self) -> bool:
        need = self.kappa + 3
        return self.J >= need and self.achieved() >= need


def make_leaf(var_index: int, coeff: RingElem, window: int, exp: int = 0) -> VarNode:
    """A leaf trusting the three digits from its level up; since that
    window reaches past the level, the level is the valuation.  `coeff` is
    the term's coefficient, already times 2^(d exp)."""
    x = coeff.a | coeff.b  # the valuation is the lowest set bit, val_pair inline
    lvl = (x & -x).bit_length() - 1 if x else coeff.K
    if not lvl < window <= coeff.K:
        raise CertificateError(f"leaf {var_index}: level {lvl} is not below its window {window}")
    return VarNode(var_index, coeff, min(window, lvl + 3), lvl, lvl,
                   frozenset((var_index,)), "leaf", var_index, (), (), exp)


def contract(children: tuple, choices: tuple, new_id: int) -> VarNode:
    """Combine nodes at one shared level into a new node with value
    sum(child * choice), trusted to the children's least window.
    Children must be leaf-disjoint: their leaf sets' union must count
    every child's leaves."""
    if len(children) < 2 or len(children) != len(choices):
        raise CertificateError("contraction needs >= 2 children with choices")
    first = children[0]
    lvl0, J, kappa = first.level, first.J, first.kappa
    seen: frozenset = frozenset()
    ids = []
    count = ta = tb = 0
    for c, ch in zip(children, choices):
        if c.level is None or c.level != lvl0:
            raise CertificateError("children must share a determined level")
        ids.append(c.id)
        seen |= c.leaves
        count += len(c.leaves)
        v, r = c.value, ch.value  # the product as in mul_pair, inline
        bd = v.b * r.b
        ta += v.a * r.a + bd
        tb += v.a * r.b + v.b * r.a + bd
        if c.J < J:
            J = c.J
        if c.kappa < kappa:
            kappa = c.kappa
    if len(seen) != count:
        raise CertificateError("children overlap in original variables")
    value = RingElem(ta, tb, first.value.K)
    x = (value.a | value.b) & ((1 << J) - 1)  # the level inside the window
    lvl = (x & -x).bit_length() - 1 if x else None
    return VarNode(new_id, value, J, lvl, kappa, seen,
                   "contraction", None, tuple(ids), choices)


# ---------------------------------------------------------------------------
# certificates


class ContractionCertificate(NamedTuple):
    """A contraction tree over a form's variables whose root vanishes mod
    2^(anchor_level + 3).  A named tuple, as VarNode: one is built per
    ISOTROPIC decision."""

    d: int
    K: int
    nodes: tuple  # VarNode, in id order
    root: int
    anchor_leaf: int
    anchor_level: int
    achieved: int

    def node_map(self) -> dict:
        return {n.id: n for n in self.nodes}


@dataclass(frozen=True)
class ExhaustionCertificate:
    """No primitive zero modulo 2^M, M = max level + 3: the anisotropy
    evidence, with the decision's reachable-set sizes."""

    M: int
    states_visited: int

    def to_json(self) -> dict:
        return {"kind": "exhaustion", "M": self.M, "statesVisited": self.states_visited}


def _collect_tree(root: VarNode, arena: dict) -> list[VarNode]:
    """The nodes reachable from root, each after the child through which
    the walk reached them: in a tree, every node after its children,
    whatever their ids.  KeyError on an unknown child."""
    found = {root.id}
    order = [root]
    stack = [root]
    while stack:
        for cid in stack.pop().children:
            if cid not in found:
                found.add(cid)
                node = arena[cid]
                order.append(node)
                stack.append(node)
    order.reverse()
    return order


def _certificate_from(root: VarNode, nodes: list, d: int, K: int) -> ContractionCertificate:
    """The certificate over root's tree, `nodes` in id order.  The anchor
    level is root's kappa, the least leaf level, and the anchor leaf the
    least variable there."""
    kappa = root.kappa
    anchor = min(n.var for n in nodes if n.kind == "leaf" and n.level == kappa)
    return ContractionCertificate(
        d=d,
        K=K,
        nodes=tuple(nodes),
        root=root.id,
        anchor_leaf=anchor,
        anchor_level=kappa,
        achieved=root.achieved(),
    )


@lru_cache(maxsize=None)
def _unit_powers_mod8(d: int) -> frozenset:
    """The d-th powers of the 48 units mod 8, as codes a + 8b.  Enumerated
    here rather than read off the multiplier reps, so that the check does
    not trust the reps it checks.  A unit congruent mod 8 to one of them is
    a unit d-th power, since 1 + 8O consists of d-th powers."""
    return frozenset(x | y << 3 for x, y in (pow_pair(a, b, d, 8) for a in range(8)
                                             for b in range(8) if (a | b) & 1))


def validate_certificate(f: AdditiveForm, cert: ContractionCertificate) -> bool:
    """Recompute the tree with exact arithmetic against f's root form, the
    caller's form any derived form came from, and check the root vanishes
    mod 2^(anchor + 3).  A leaf with exponent m stands for its variable's
    coefficient times 2^(d m): its level is the coefficient's plus d m and
    it is trusted only to the coefficient's window plus d m.  Values are
    computed mod 2^max(K, anchor + 3), K the root form's precision.  Also
    refused: a structural defect, a node that is not exactly one node's
    child (the root excepted), a multiplier that is not a unit d-th power,
    a negative exponent, a leaf whose trusted window stops below
    anchor + 3, and a contraction whose recorded value is not the sum of
    its children's recorded values times their multipliers.  The leaves'
    recorded values are not compared with the form's coefficients: the
    tree proves every form it recomputes to a zero."""
    nmap = cert.node_map()
    if cert.root not in nmap:
        return False
    try:
        order = _collect_tree(nmap[cert.root], nmap)
    except KeyError:
        return False
    root = f.root()
    d = root.d
    coeffs, levels, windows, s = root.coeffs, root.levels(), root.windows, root.s
    powers = _unit_powers_mod8(d)
    values: dict[int, tuple[int, int]] = {}  # exact node values as int pairs
    leaf_level: dict[int, int] = {}  # variable -> its leaf's level
    shifted = []  # (node id, variable, d exp) of the leaves with an exponent
    kmin = wmin = INFINITE  # the least leaf level and window
    # the leaves first; then the contractions in `order`, each after its
    # children, so a child's value is known unless the walk met a cycle
    for n in order:
        if n.kind == "leaf":
            var, m = n.var, n.exp
            if var is None or not 0 <= var < s or var in leaf_level or m < 0:
                return False
            lvl, w = levels[var], windows[var]
            if m:
                shift = d * m
                lvl += shift
                w += shift
                shifted.append((n.id, var, shift))
            else:
                c = coeffs[var]
                values[n.id] = (c.a, c.b)
            leaf_level[var] = lvl
            if lvl < kmin:
                kmin = lvl
            if w < wmin:
                wmin = w
    if not leaf_level:
        return False
    need = kmin + 3
    if wmin < need:
        return False
    K = max(root.K, need)
    mask = (1 << K) - 1
    for nid, var, shift in shifted:  # masked here, once K is known
        c = coeffs[var]
        values[nid] = ((c.a << shift) & mask, (c.b << shift) & mask) if shift < K else (0, 0)
    consumed = 0
    for n in order:
        if n.kind != "leaf":
            children, choices = n.children, n.choices
            if len(children) < 2 or len(children) != len(choices):
                return False
            consumed += len(children)
            ta = tb = ua = ub = 0  # from the form's coefficients, from the recorded values
            for cid, choice in zip(children, choices):
                r = choice.value
                ra, rb = r.a, r.b
                pair = values.get(cid)
                if pair is None or (ra & 7) | (rb & 7) << 3 not in powers:
                    return False
                va, vb = pair  # the products as in mul_pair, inline
                bd = vb * rb
                ta += va * ra + bd
                tb += va * rb + vb * ra + bd
                c = nmap[cid].value
                bd = c.b * rb
                ua += c.a * ra + bd
                ub += c.a * rb + c.b * ra + bd
            v = n.value
            vmask = (1 << v.K) - 1
            if (ua - v.a) & vmask or (ub - v.b) & vmask:
                return False
            values[n.id] = (ta & mask, tb & mask)
    # the walk reached every node but the root as some node's child, so a
    # count above that means a node consumed twice (or the root consumed)
    if consumed != len(order) - 1:
        return False
    if cert.anchor_level != kmin or leaf_level.get(cert.anchor_leaf) != kmin:
        return False
    ra, rb = values[cert.root]
    return not (ra | rb) & ((1 << need) - 1)


def certificate_to_json(cert: ContractionCertificate) -> dict:
    nodes = []
    consumed_by: dict[int, tuple] = {}
    for n in cert.nodes:
        for cid, choice in zip(n.children, n.choices):
            consumed_by[cid] = choice
    for n in cert.nodes:
        rec = {
            "id": n.id,
            "kind": n.kind,
            "value": [n.value.a, n.value.b],
            "level": n.level,
        }
        if n.kind == "leaf":
            rec["var"] = n.var
            if n.exp:
                rec["exp"] = n.exp
        else:
            rec["children"] = list(n.children)
        choice = consumed_by.get(n.id)
        rec["multiplier"] = [choice.value.a, choice.value.b] if choice else None
        rec["epsilon"] = choice.epsilon if choice else None
        nodes.append(rec)
    return {
        "kind": "contraction",
        "degree": cert.d,
        "precision": cert.K,
        "root": cert.root,
        "anchor": cert.anchor_leaf,
        "anchorLevel": cert.anchor_level,
        "achieved": cert.achieved,
        "nodes": nodes,
    }


def certificate_from_json(doc: dict) -> ContractionCertificate:
    """Rebuild a certificate through `make_leaf` and `contract`; a leaf's
    `exp` defaults to 0.  A malformed document (a missing or mistyped
    field, an unknown or cyclic node id, a leaf that is 0 at the precision
    or whose `var` or `exp` is not a whole number, a negative `exp`, a
    multiplier that is not a unit d-th power, a rep's value with another
    epsilon, a contraction whose recorded value is not its children's sum)
    raises CertificateError."""
    try:
        d, K = doc["degree"], doc["precision"]
        raw = {rec["id"]: rec for rec in doc["nodes"]}
        root_id = doc["root"]
    except KeyError as e:
        raise CertificateError(f"certificate document lacks {e}") from None
    ms = multiplier_set(d, K)
    by_value = {(r.value.a, r.value.b): r for r in ms.reps}

    def recover(pair, eps) -> MultiplierRep:
        key = (pair[0] % (1 << K), pair[1] % (1 << K))
        if key in by_value:
            if eps != by_value[key].epsilon:
                raise CertificateError(f"multiplier {pair} has epsilon {eps!r}, "
                                       f"its rep {by_value[key].epsilon}")
            return by_value[key]
        val = RingElem(pair[0], pair[1], K)
        try:
            root = dth_root(val, d)
        except (NotAUnit, NotADthPower) as e:
            raise CertificateError(f"multiplier {pair} is not a unit d-th power: {e}") from None
        return MultiplierRep(val, root, eps or 0)

    built: dict[int, VarNode] = {}
    open_ids: set = set()  # on the current path from the root

    def build(nid: int) -> VarNode:
        if nid in built:
            return built[nid]
        if nid not in raw:
            raise CertificateError(f"certificate names unknown node {nid!r}")
        if nid in open_ids:
            raise CertificateError(f"certificate node {nid!r} is its own descendant")
        rec = raw[nid]
        open_ids.add(nid)
        try:
            val = RingElem(rec["value"][0], rec["value"][1], K)
            if rec["kind"] == "leaf":
                var, exp = rec["var"], rec.get("exp", 0)
                if any(type(x) is not int for x in (var, exp)) or exp < 0:
                    raise CertificateError(f"certificate leaf {nid!r} has variable {var!r} "
                                           f"and exponent {exp!r}")
                node = make_leaf(var, val, K, exp)
            else:
                children = tuple(build(c) for c in rec["children"])
                choices = tuple(
                    recover(raw[c]["multiplier"], raw[c]["epsilon"])
                    for c in rec["children"]
                )
                node = contract(children, choices, nid)
                if node.value != val:
                    raise CertificateError(f"certificate node {nid!r} records {rec['value']}, "
                                           f"its children sum to {[node.value.a, node.value.b]}")
        except (KeyError, IndexError, TypeError) as e:
            raise CertificateError(f"certificate node {nid!r} is malformed: {e!r}") from None
        open_ids.discard(nid)
        built[nid] = node
        return node

    root = build(root_id)
    return _certificate_from(root, [built[i] for i in sorted(built)], d, K)
