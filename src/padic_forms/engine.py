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
`validate_certificate` checks them against it, the one check that no
variable or node is used twice: no node keeps the variables below it.
`make_leaf` and `contract` build the nodes of a JSON document, which
`certificate_from_json` walks depth first with an explicit stack, so no
depth of tree meets the interpreter's recursion limit; flat.py's
`contraction_from_flat` builds the same nodes on int pairs for the
kernel's solutions, one leaf per pick and two children per contraction,
and the tests check its trees against these two builders.
`_certificate_from` is the only certificate builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import CertificateError, DegreeShapeError, NotADthPower, NotAUnit
from .forms import MAX_PRECISION, AdditiveForm, whole
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
    return VarNode(var_index, coeff, min(window, lvl + 3), lvl, lvl, "leaf", var_index, (), (), exp)


def contract(children: tuple, choices: tuple, new_id: int) -> VarNode:
    """Combine nodes at one shared level into a new node with value
    sum(child * choice), trusted to the children's least window.  The
    children need not be disjoint here: a variable or node used twice is
    `validate_certificate`'s refusal."""
    if len(children) < 2 or len(children) != len(choices):
        raise CertificateError("contraction needs >= 2 children with choices")
    first = children[0]
    lvl0, J, kappa = first.level, first.J, first.kappa
    ids = []
    ta = tb = 0
    for c, ch in zip(children, choices):
        if c.level is None or c.level != lvl0:
            raise CertificateError("children must share a determined level")
        ids.append(c.id)
        v, r = c.value, ch.value  # the product as in mul_pair, inline
        bd = v.b * r.b
        ta += v.a * r.a + bd
        tb += v.a * r.b + v.b * r.a + bd
        if c.J < J:
            J = c.J
        if c.kappa < kappa:
            kappa = c.kappa
    value = RingElem(ta, tb, first.value.K)
    x = (value.a | value.b) & ((1 << J) - 1)  # the level inside the window
    lvl = (x & -x).bit_length() - 1 if x else None
    return VarNode(new_id, value, J, lvl, kappa, "contraction", None, tuple(ids), choices)


# ---------------------------------------------------------------------------
# certificates


_new_tuple = tuple.__new__


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
    anchor = None
    for n in nodes:
        if n.kind == "leaf" and n.level == kappa and (anchor is None or n.var < anchor):
            anchor = n.var
    # built past the generated constructor, fields in declaration order
    return _new_tuple(ContractionCertificate,
                      (d, K, tuple(nodes), root.id, anchor, kappa, root.achieved()))


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
    refused: a degree other than the form's, a structural defect, a
    variable with two leaves, a node not exactly one node's child (the root
    excepted), a multiplier not a unit d-th power, an exponent negative or
    whose 2^(d m) does not divide its leaf's recorded value, a leaf window
    that stops below anchor + 3, a contraction whose recorded value is not
    the sum of its children's recorded values times their multipliers.  The
    leaves' recorded values are not compared with the form's coefficients:
    the tree proves every form it recomputes to a zero."""
    root = f.root()
    d = root.d
    nmap = cert.node_map()
    if cert.d != d or cert.root not in nmap:
        return False
    try:
        order = _collect_tree(nmap[cert.root], nmap)
    except KeyError:
        return False
    coeffs, levels, windows, s = root.coeffs, root.levels(), root.windows, root.s
    powers = _unit_powers_mod8(d)
    values: dict[int, tuple[int, int]] = {}  # exact node values as int pairs
    leaf_level: dict[int, int] = {}  # variable -> its leaf's level
    kmin = wmin = INFINITE  # the least leaf level and window
    # the leaves first; then the contractions in `order`, each after its
    # children, so a child's value is known unless the walk met a cycle
    for n in order:
        if n.kind == "leaf":
            var, shift = n.var, d * n.exp
            # 2^shift divides the recorded value, which bounds the shift
            if var is None or not 0 <= var < s or var in leaf_level or not 0 <= shift <= n.level:
                return False
            c = coeffs[var]
            values[n.id] = (c.a << shift, c.b << shift) if shift else (c.a, c.b)
            lvl, w = levels[var] + shift, windows[var] + shift
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
    `exp` defaults to 0.  A malformed document raises CertificateError: a
    missing or mistyped field, a degree not 2m with m odd, a precision K
    below 1 or above MAX_PRECISION, an unknown, cyclic or repeated
    node id, a leaf 0 at the precision, a value or multiplier that is not
    a pair, a node id, child id, root, `var`, `exp`, value or multiplier
    component or epsilon that is not a whole number (the root's null
    multiplier and epsilon are never read), a kind other than `leaf` and
    `contraction`, a negative `exp`, a multiplier that is not a unit d-th
    power or whose epsilon is not that of its rep mod 8, a contraction
    whose recorded value is not its children's sum.  A tree that uses a
    variable or a node twice is read: `validate_certificate` refuses it."""
    try:
        d, K, recs = doc["degree"], doc["precision"], doc["nodes"]
        raw = {whole(rec["id"], "certificate node id", CertificateError): rec for rec in recs}
        root_id = whole(doc["root"], "certificate root", CertificateError)
    except KeyError as e:
        raise CertificateError(f"certificate document lacks {e}") from None
    if len(raw) != len(recs):
        raise CertificateError("certificate lists a node id twice")
    if whole(K, "certificate precision", CertificateError) < 1:
        raise CertificateError(f"certificate precision must be an integer at least 1, got {K!r}")
    if K > MAX_PRECISION:
        raise CertificateError(f"certificate precision {K} is too large to hold")
    try:
        ms = multiplier_set(whole(d, "certificate degree", CertificateError), K)
    except DegreeShapeError as e:
        raise CertificateError(f"certificate {e}") from None
    by_value = {(r.value.a, r.value.b): r for r in ms.reps}

    def recover(pair, eps) -> MultiplierRep:
        a, b = pair
        a = whole(a, "certificate multiplier", CertificateError)
        b = whole(b, "certificate multiplier", CertificateError)
        eps = whole(eps, "certificate epsilon", CertificateError)
        key = (a % (1 << K), b % (1 << K))
        rep = by_value.get(key)
        if rep is None:  # a unit d-th power, with the epsilon of its rep mod 8
            val = RingElem(a, b, K)
            try:
                root = dth_root(val, d)
            except (NotAUnit, NotADthPower) as e:
                raise CertificateError(f"multiplier {pair} is not a unit d-th power: {e}") from None
            # unique, since the reps mod 8 form a group (flat.mod8_table)
            by_code = {r.value.a & 7 | (r.value.b & 7) << 3: r.epsilon for r in ms.reps}
            rep = MultiplierRep(val, root, by_code[key[0] & 7 | (key[1] & 7) << 3])
        if eps != rep.epsilon:
            raise CertificateError(f"multiplier {pair} has epsilon {eps!r}, its rep {rep.epsilon}")
        return rep

    # depth first on an explicit stack, in a recursive walk's order: each
    # node's own fields before its children, its multipliers and sum after
    built: dict[int, VarNode | None] = {}  # None while a contraction is open
    path: list = []  # the open contractions from the root down: id, record, value, ids, children
    nid = root_id
    while True:
        node = built.get(nid)
        if node is None:
            if nid in built:
                raise CertificateError(f"certificate node {nid!r} is its own descendant")
            if nid not in raw:
                raise CertificateError(f"certificate names unknown node {nid!r}")
            rec = raw[nid]
            try:
                a, b = rec["value"]
                val = RingElem(whole(a, "certificate node value", CertificateError),
                               whole(b, "certificate node value", CertificateError), K)
                kind = rec["kind"]
                if kind == "leaf":  # the messages formatted only for a fault
                    var, exp = rec["var"], rec.get("exp", 0)
                    if type(var) is not int or type(exp) is not int or exp < 0:
                        whole(var, f"certificate leaf {nid!r} variable", CertificateError)
                        whole(exp, f"certificate leaf {nid!r} exponent", CertificateError)
                        raise CertificateError(f"certificate leaf {nid!r} has exponent {exp!r}")
                    node = built[nid] = make_leaf(var, val, K, exp)
                elif kind == "contraction":
                    path.append((nid, rec, val, iter(rec["children"]), []))
                    built[nid] = None
                else:
                    raise CertificateError(f"certificate node {nid!r} has kind {kind!r}")
            except (KeyError, TypeError, ValueError) as e:
                raise CertificateError(f"certificate node {nid!r} is malformed: {e!r}") from None
        # hand the node to its parent, closing each contraction whose
        # children are all built, until one has a child left to build
        while True:
            if node is not None:
                if not path:
                    return _certificate_from(node, [built[i] for i in sorted(built)], d, K)
                path[-1][4].append(node)
            c = next(path[-1][3], _END)
            if c is not _END:
                nid = whole(c, "certificate node child", CertificateError)
                break
            pid, rec, val, _, children = path.pop()
            try:
                choices = tuple([recover(raw[c]["multiplier"], raw[c]["epsilon"])
                                 for c in rec["children"]])
                node = built[pid] = contract(tuple(children), choices, pid)
            except (KeyError, TypeError, ValueError) as e:
                raise CertificateError(f"certificate node {pid!r} is malformed: {e!r}") from None
            if node.value != val:
                raise CertificateError(f"certificate node {pid!r} records {rec['value']}, "
                                       f"its children sum to {[node.value.a, node.value.b]}")


_END = object()  # the end of a contraction's children
