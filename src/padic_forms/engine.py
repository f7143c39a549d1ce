"""Contraction calculus over partially known coefficients.

A contraction replaces several variables at one level with a single fresh
variable whose coefficient is the sum of theirs, each scaled by a chosen
unit d-th power.  Repeating this drives the working coefficient upward in
level; once the combined value vanishes mod 2^(k+3), where k is the lowest
leaf level consumed, the anchor variable admits a Hensel lift and the form
has a nontrivial zero.

Coefficients are tracked as PartialValue: a residue trusted only mod 2^J.
A leaf trusts the three digits from its level up, the digits the
mod 2^(k+3) question reads, so a certificate built on leaves is valid for
every completion of the unseen digits; validation recomputes the tree
with exact arithmetic to confirm.  `make_leaf` and `contract` are the
only node builders: trees from the flat reachability kernel's solutions
(flat.py) and from JSON documents both go through them, and through
`_certificate_from` for the anchor leaf, kappa and the achieved level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import CertificateError
from .forms import AdditiveForm
from .ring import MultiplierRep, RingElem, dth_root, mul_pair, multiplier_set, val_pair


@dataclass(frozen=True, slots=True, init=False)
class PartialValue:
    """A residue whose low J digits are trusted; storage precision is
    value.K >= J.  Level queries answer only below J."""

    value: RingElem
    J: int

    def __init__(self, value: RingElem, J: int):
        # built once per certificate node: the slot descriptors write past
        # the frozen dataclass's raising __setattr__ at less cost than
        # object.__setattr__; the dataclass keeps eq and repr
        assert 1 <= J <= value.K
        _set_pv_value(self, value)
        _set_pv_J(self, J)

    def masked(self) -> tuple[int, int]:
        m = (1 << self.J) - 1
        return self.value.a & m, self.value.b & m

    def level(self) -> int | None:
        a, b = self.masked()
        if a == 0 and b == 0:
            return None  # >= J, unresolved
        return val_pair(a, b)


_set_pv_value, _set_pv_J = PartialValue.value.__set__, PartialValue.J.__set__


class VarNode(NamedTuple):
    """One node of a contraction forest.  `choices` holds the multiplier
    applied to each child, aligned with `children`; kappa is the minimum
    leaf level in the subtree (the prospective anchor level).  A named
    tuple, the cheapest immutable record to build once per node."""

    id: int
    pv: PartialValue
    level: int | None
    kappa: int
    leaves: frozenset
    kind: str  # "leaf" | "contraction"
    var: int | None = None
    children: tuple = ()
    choices: tuple = ()

    def achieved(self) -> int:
        lvl = self.pv.level()
        return self.pv.J if lvl is None else lvl

    def is_success(self) -> bool:
        need = self.kappa + 3
        return self.pv.J >= need and self.achieved() >= need


def make_leaf(var_index: int, coeff: RingElem, window: int) -> VarNode:
    """A leaf trusting the three digits from its level up; since that
    window reaches past the level, the level is the valuation."""
    x = coeff.a | coeff.b  # the valuation is the lowest set bit, val_pair inline
    lvl = (x & -x).bit_length() - 1 if x else coeff.K
    if not lvl < window <= coeff.K:
        raise CertificateError(f"leaf {var_index}: level {lvl} is not below its window {window}")
    pv = PartialValue(coeff, min(window, lvl + 3))
    return VarNode(var_index, pv, lvl, lvl, frozenset((var_index,)), "leaf", var_index)


def contract(children: tuple, choices: tuple, new_id: int) -> VarNode:
    """Combine nodes at one shared level into a new node with value
    sum(child * choice), trusted to the children's least window.
    Children must be leaf-disjoint: their leaf sets' union must count
    every child's leaves."""
    if len(children) < 2 or len(children) != len(choices):
        raise CertificateError("contraction needs >= 2 children with choices")
    first = children[0]
    lvl0, J, kappa = first.level, first.pv.J, first.kappa
    seen: frozenset = frozenset()
    ids = []
    count = ta = tb = 0
    for c, ch in zip(children, choices):
        if c.level is None or c.level != lvl0:
            raise CertificateError("children must share a determined level")
        ids.append(c.id)
        seen |= c.leaves
        count += len(c.leaves)
        v, r = c.pv.value, ch.value
        ma, mb = mul_pair(v.a, v.b, r.a, r.b)
        ta += ma
        tb += mb
        if c.pv.J < J:
            J = c.pv.J
        if c.kappa < kappa:
            kappa = c.kappa
    if len(seen) != count:
        raise CertificateError("children overlap in original variables")
    pv = PartialValue(RingElem(ta, tb, first.pv.value.K), J)
    return VarNode(new_id, pv, pv.level(), kappa, seen,
                   "contraction", None, tuple(ids), choices)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class ContractionCertificate:
    d: int
    K: int
    nodes: tuple  # VarNode, topologically ordered (children precede parents)
    root: int
    anchor_leaf: int
    anchor_level: int
    achieved: int

    def node_map(self) -> dict:
        return {n.id: n for n in self.nodes}


def _collect_tree(root: VarNode, arena: dict) -> list[VarNode]:
    """The nodes reachable from root, by id; KeyError on an unknown child."""
    found = {root.id: root}
    stack = [root]
    while stack:
        for cid in stack.pop().children:
            if cid not in found:
                found[cid] = node = arena[cid]
                stack.append(node)
    return [found[i] for i in sorted(found)]


def _certificate_from(root: VarNode, arena: dict, d: int, K: int) -> ContractionCertificate:
    nodes = _collect_tree(root, arena)
    leaf_nodes = [n for n in nodes if n.kind == "leaf"]
    kmin = min(n.level for n in leaf_nodes)
    anchor = min(n.var for n in leaf_nodes if n.level == kmin)
    return ContractionCertificate(
        d=d,
        K=K,
        nodes=tuple(nodes),
        root=root.id,
        anchor_leaf=anchor,
        anchor_level=kmin,
        achieved=root.achieved(),
    )


def validate_certificate(f: AdditiveForm, cert: ContractionCertificate) -> bool:
    """Recompute the tree with exact arithmetic at precision K and check the
    root vanishes mod 2^(anchor + 3).  Structural defects also fail."""
    try:
        nmap = cert.node_map()
        if cert.root not in nmap:
            return False
        root = nmap[cert.root]
        order = _collect_tree(root, nmap)
    except KeyError:
        return False
    mask = (1 << f.K) - 1
    coeffs, levels, s = f.coeffs, f.levels(), f.s
    values: dict[int, tuple[int, int]] = {}  # exact node values as int pairs mod 2^K
    leaf_levels = []
    leaf_vars: set = set()
    # `order` is by id: the leaves first, then the contractions by id
    for n in order:
        if n.kind == "leaf":
            if n.var is None or not 0 <= n.var < s or n.var in leaf_vars:
                return False
            leaf_vars.add(n.var)
            coeff = coeffs[n.var]
            values[n.id] = (coeff.a, coeff.b)
            leaf_levels.append((levels[n.var], n.var))
    for n in order:
        if n.kind != "leaf":
            if len(n.children) < 2 or len(n.children) != len(n.choices):
                return False
            ta = tb = 0
            for cid, choice in zip(n.children, n.choices):
                if cid not in values:
                    return False
                ma, mb = mul_pair(*values[cid], choice.value.a, choice.value.b)
                ta += ma
                tb += mb
            values[n.id] = (ta & mask, tb & mask)
    if not leaf_levels:
        return False
    kmin = min(leaf_levels)[0]
    if cert.anchor_level != kmin or (kmin, cert.anchor_leaf) not in leaf_levels:
        return False
    need = kmin + 3
    if need > f.K:
        return False
    ra, rb = values[cert.root]
    return ra % (1 << need) == 0 and rb % (1 << need) == 0


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
            "value": [n.pv.value.a, n.pv.value.b],
            "level": n.level,
        }
        if n.kind == "leaf":
            rec["var"] = n.var
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
    """Rebuild a certificate through `make_leaf` and `contract`; a
    malformed document (a missing or mistyped field, an unknown or cyclic
    node id, a leaf that is 0 at the precision) raises CertificateError."""
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
            return by_value[key]
        val = RingElem(pair[0], pair[1], K)
        root = dth_root(val, d)
        return MultiplierRep(val, root, val.residue(), eps or 0)

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
                node = make_leaf(rec["var"], val, K)
            else:
                children = tuple(build(c) for c in rec["children"])
                choices = tuple(
                    recover(raw[c]["multiplier"], raw[c]["epsilon"])
                    for c in rec["children"]
                )
                node = contract(children, choices, nid)
        except (KeyError, IndexError, TypeError) as e:
            raise CertificateError(f"certificate node {nid!r} is malformed: {e!r}") from None
        open_ids.discard(nid)
        built[nid] = node
        return node

    root = build(root_id)
    return _certificate_from(root, built, d, K)
