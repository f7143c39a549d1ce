"""Contraction nodes, certificates from the flat kernel's search, and
exact revalidation."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import padic_forms

from padic_forms.engine import (
    ContractionCertificate,
    VarNode,
    certificate_from_json,
    certificate_to_json,
    contract,
    make_leaf,
    validate_certificate,
)
from padic_forms.errors import CertificateError, PrecisionMismatch
from padic_forms.flat import search_certificate
from padic_forms.forms import AdditiveForm
from padic_forms.ring import MultiplierRep, RingElem, dth_root, multiplier_set


def form(d, pairs, K=None):
    return AdditiveForm.from_pairs(d, pairs, K)


def leaf(i, a, b, K=10):
    return make_leaf(i, RingElem(a, b, K), K)


MS6 = multiplier_set(6, 10)
IDENT = MS6.reps[0]
FIVE = MS6.reps[1]  # 5^3 = 125, the epsilon-carrying rep


# --- trusted windows -------------------------------------------------------


def test_value_types_stay_immutable():
    # RingElem and AdditiveForm write their slots through the slot
    # descriptors, VarNode is a named tuple; setting an attribute
    # afterwards must still raise
    f = form(6, [(1, 0), (7, 0)], 10)
    node = make_leaf(0, f.coeffs[0], 10)
    for obj, attr in ((f.coeffs[0], "a"), (f.coeffs[0], "K"), (f, "coeffs"), (f, "_levels"),
                      (node, "J"), (node, "value"), (node, "level"), (node, "children")):
        before = getattr(obj, attr)
        with pytest.raises(AttributeError):
            setattr(obj, attr, 5)
        assert getattr(obj, attr) == before
    assert not hasattr(node, "__dict__") and not hasattr(f, "__dict__")


def test_node_level_inside_window():
    x = make_leaf(0, RingElem(4, 0, 10), 3)
    assert (x.level, x.J) == (2, 3)
    assert x.achieved() == 2
    # 4 + 4 = 8: 0 mod 2^3, so undetermined in a window of 3 digits
    node = contract((make_leaf(0, RingElem(4, 0, 10), 3), make_leaf(1, RingElem(4, 0, 10), 3)),
                    (IDENT, IDENT), 100)
    assert (node.value, node.J, node.level) == (RingElem(8, 0, 10), 3, None)
    assert node.achieved() == 3
    # the same sum in a window of 4 digits has level 3
    node = contract((make_leaf(0, RingElem(4, 0, 10), 4), make_leaf(1, RingElem(4, 0, 10), 4)),
                    (IDENT, IDENT), 100)
    assert (node.J, node.level) == (4, 3)


def test_contract_meets_windows():
    # two level-2 leaves, one trusting the digits 2..4, one only digit 2
    x = make_leaf(0, RingElem(4, 0, 10), 10)
    y = make_leaf(1, RingElem(12, 0, 10), 3)
    assert (x.J, y.J) == (5, 3)
    assert contract((x, y), (IDENT, IDENT), 100).J == 3


# --- contract --------------------------------------------------------------


def test_contract_same_class_pair():
    node = contract((leaf(0, 1, 0), leaf(1, 1, 0)), (IDENT, IDENT), 100)
    assert node.value == RingElem(2, 0, 10)
    assert node.level == 1
    # 2 = 2 * 1: the unit part lies in residue class 1
    assert RingElem(node.value.a >> 1, node.value.b >> 1, 9).residue().code == 1


def test_contract_complementary_pair():
    node = contract((leaf(0, 1, 0), leaf(1, 3, 0)), (IDENT, IDENT), 100)
    assert node.value == RingElem(4, 0, 10)
    assert node.level == 2


def test_contract_epsilon_reaches_three_levels():
    # 125*1 + 1*3 = 128: vanishes in the mod-8 window, certificate-grade
    node = contract((leaf(0, 1, 0), leaf(1, 3, 0)), (FIVE, IDENT), 100)
    assert node.level is None and node.J == 3
    assert node.is_success()
    assert node.achieved() == 3


def test_contract_three_classes():
    node = contract(
        (leaf(0, 1, 0), leaf(1, 0, 1), leaf(2, 1, 1)), (IDENT, IDENT, IDENT), 100
    )
    assert node.value == RingElem(2, 2, 10)
    assert node.level == 1


def test_contract_rejects_overlap_and_mixed_levels():
    # a leaf contracted with itself: `contract` builds the node, and
    # validate_certificate, the one owner of the overlap rule, refuses
    # it; the same sum over four distinct variables is valid
    ones = form(6, [(1, 0)] * 4, 10)
    choices = (IDENT, IDENT, IDENT, FIVE)  # 1 + 1 + 1 + 125 = 128
    a = make_leaf(0, ones.coeffs[0], 10)
    root = contract((a, a, a, a), choices, 4)
    assert root.is_success()
    assert not validate_certificate(ones, ContractionCertificate(6, 10, (a, root), 4, 0, 0, 3))
    xs = tuple(make_leaf(i, c, 10) for i, c in enumerate(ones.coeffs))
    root = contract(xs, choices, 4)
    assert validate_certificate(ones, ContractionCertificate(6, 10, (*xs, root), 4, 0, 0, 3))
    a = leaf(0, 1, 0)
    with pytest.raises(CertificateError):
        contract((leaf(0, 1, 0), leaf(1, 2, 0)), (IDENT, IDENT), 100)
    with pytest.raises(CertificateError):
        contract((a,), (IDENT,), 100)


# --- search ----------------------------------------------------------------


def test_search_pair_with_epsilon():
    out = search_certificate(form(6, [(1, 0), (7, 0)]))
    assert out.status == "FOUND"
    cert = out.certificate
    assert cert.anchor_level == 0
    assert cert.achieved >= 3
    assert validate_certificate(form(6, [(1, 0), (7, 0)]), cert)


def test_search_four_ones():
    f = form(6, [(1, 0)] * 4)
    out = search_certificate(f)
    assert out.status == "FOUND"
    assert validate_certificate(f, out.certificate)
    assert out.certificate.anchor_level == 0


def test_search_not_found_on_cross_class_pair():
    out = search_certificate(form(6, [(1, 0), (1, 2)]))
    assert out.status == "NOT_FOUND"
    assert out.certificate is None


def test_search_monotone_under_extension():
    f = form(6, [(1, 0), (7, 0)])
    out = search_certificate(f)
    assert out.status == "FOUND"
    g = form(6, [(1, 0), (7, 0), (1, 2), (0, 3)])
    out2 = search_certificate(g)
    assert out2.status == "FOUND"
    assert validate_certificate(g, out2.certificate)


def test_search_d10_transitive_classes():
    # cross-class pair: with 3 not dividing d the multiplier can rotate classes
    f = form(10, [(1, 0), (0, 1), (1, 1)])
    out = search_certificate(f)
    if out.status == "FOUND":
        assert validate_certificate(f, out.certificate)
    # the reps reach all three nonzero residue classes
    assert {r.value.residue().code for r in multiplier_set(10, 14).reps} == {1, 2, 3}


def test_search_anchor_is_min_level_leaf():
    f = form(6, [(2, 0), (14, 0), (1, 2)])
    out = search_certificate(f)
    assert out.status == "FOUND"
    cert = out.certificate
    leaf_levels = {
        n.var: n.level for n in cert.nodes if n.kind == "leaf"
    }
    assert cert.anchor_level == min(leaf_levels.values())
    assert leaf_levels[cert.anchor_leaf] == cert.anchor_level


# --- validation ------------------------------------------------------------


def test_validate_on_compatible_deep_digits():
    f = form(6, [(1, 0), (7, 0)])
    cert = search_certificate(f).certificate
    # deeper digits shifted: 7 -> 15; exact sum 16 still vanishes mod 8
    assert validate_certificate(form(6, [(1, 0), (15, 0)]), cert)


def ring_validate(f, cert):
    """validate_certificate on well-formed trees, with every node value
    summed one RingElem operation at a time."""
    K = f.K
    values = {}
    for n in sorted(cert.nodes, key=lambda n: (n.kind != "leaf", n.id)):
        if n.kind == "leaf":
            values[n.id] = f.coeffs[n.var]
            continue
        total = RingElem.zero(K)
        for cid, choice in zip(n.children, n.choices):
            total = total + values[cid] * RingElem(choice.value.a, choice.value.b, K)
        values[n.id] = total
    leaves = [(f.coeffs[n.var].valuation(), n.var) for n in cert.nodes if n.kind == "leaf"]
    kmin = min(leaves)[0]
    need = kmin + 3
    root = values[cert.root]
    return (
        cert.anchor_level == kmin
        and (kmin, cert.anchor_leaf) in leaves
        and need <= K
        and root.a % (1 << need) == 0
        and root.b % (1 << need) == 0
    )


def test_validate_matches_ring_elem_loop():
    rng = random.Random(37)
    verdicts = []
    for _ in range(150):
        d = rng.choice((6, 10))
        K = d + 4
        pairs = [((rng.getrandbits(K) | 1) << rng.randrange(3), rng.getrandbits(K))
                 for _ in range(rng.randrange(2, 9))]
        out = search_certificate(form(d, pairs, K))
        if out.certificate is None:
            continue
        cert = out.certificate
        if rng.random() < 0.5:  # redraw digits, low ones included, so some checks fail
            pairs = [(a ^ (rng.getrandbits(4) << rng.randrange(1, 6)), b) for a, b in pairs]
        for at_K in (K - 3, K, K + 4):
            mask = (1 << at_K) - 1
            try:
                g = form(d, [(a & mask, b & mask) for a, b in pairs], at_K)
            except PrecisionMismatch:
                continue
            want = ring_validate(g, cert)
            assert validate_certificate(g, cert) == want
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_validate_fails_on_broken_sum():
    f = form(6, [(1, 0), (7, 0)])
    cert = search_certificate(f).certificate
    assert not validate_certificate(form(6, [(1, 0), (9, 0)]), cert)


def test_validate_fails_on_overlapping_leaves():
    f = form(6, [(1, 0), (7, 0)])
    cert = search_certificate(f).certificate
    hacked_nodes = []
    for n in cert.nodes:
        if n.kind == "leaf" and n.var == 1:
            n = n._replace(var=0)
        hacked_nodes.append(n)
    hacked = ContractionCertificate(
        d=cert.d,
        K=cert.K,
        nodes=tuple(hacked_nodes),
        root=cert.root,
        anchor_leaf=cert.anchor_leaf,
        anchor_level=cert.anchor_level,
        achieved=cert.achieved,
    )
    assert not validate_certificate(f, hacked)


# G = (1, 1, w) at d = 6 is anisotropic, so every certificate for it is forged
G = form(6, [(1, 0), (1, 0), (0, 1)], 10)


def test_forged_multiplier_is_refused():
    from padic_forms.solver import decide_isotropy

    assert decide_isotropy(G).verdict == "ANISOTROPIC"
    minus_one = MultiplierRep(RingElem(-1, 0, 10), RingElem(-1, 0, 10), 0)
    x0, x1 = make_leaf(0, G.coeffs[0], 10), make_leaf(1, G.coeffs[1], 10)
    root = contract((x0, x1), (IDENT, minus_one), 3)
    assert root.is_success()  # 1 - 1 = 0, but -1 is not a sixth power
    cert = ContractionCertificate(6, 10, (x0, x1, root), 3, 0, 0, root.achieved())
    assert not validate_certificate(G, cert)
    # a sixth power that is not one of the reps is a fair multiplier:
    # 9 = 1 mod 8, and 9 * 1 + 7 = 16
    f = form(6, [(1, 0), (7, 0)], 10)
    nine = MultiplierRep(RingElem(9, 0, 10), dth_root(RingElem(9, 0, 10), 6), 0)
    y0, y1 = make_leaf(0, f.coeffs[0], 10), make_leaf(1, f.coeffs[1], 10)
    root = contract((y0, y1), (nine, IDENT), 2)
    assert validate_certificate(f, ContractionCertificate(6, 10, (y0, y1, root), 2, 0, 0, 3))


def test_node_consumed_twice_is_refused():
    x0, x1 = make_leaf(0, G.coeffs[0], 10), make_leaf(1, G.coeffs[1], 10)
    a = contract((x0, x1), (IDENT, IDENT), 3)  # 1 + 1 = 2
    # 2 + 2 + 2 + 2 = 8 vanishes mod 8, but uses x0 and x1 four times each
    root = contract((a, a, a, a), (IDENT,) * 4, 4)
    assert root.is_success()
    cert = ContractionCertificate(6, 10, (x0, x1, a, root), 4, 0, 0, 3)
    assert not validate_certificate(G, cert)


def test_node_with_two_parents_is_refused():
    # 1 + 3 = 4 twice, and 4 + 4 = 8 vanishes mod 8; x0 and x1 are each
    # listed under both a and b, which no tree allows.  The same tree
    # over four variables, (1, 3, 1, 3), is valid
    f = form(6, [(1, 0), (3, 0)], 10)
    x0, x1 = make_leaf(0, f.coeffs[0], 10), make_leaf(1, f.coeffs[1], 10)
    a = contract((x0, x1), (IDENT, IDENT), 2)
    b = contract((x0, x1), (IDENT, IDENT), 3)
    root = contract((a, b), (IDENT, IDENT), 4)
    assert root.is_success()
    assert not validate_certificate(f, ContractionCertificate(6, 10, (x0, x1, a, b, root),
                                                              4, 0, 0, 3))
    g = form(6, [(1, 0), (3, 0)] * 2, 10)
    xs = tuple(make_leaf(i, c, 10) for i, c in enumerate(g.coeffs))
    a = contract(xs[:2], (IDENT, IDENT), 4)
    b = contract(xs[2:], (IDENT, IDENT), 5)
    root = contract((a, b), (IDENT, IDENT), 6)
    assert validate_certificate(g, ContractionCertificate(6, 10, (*xs, a, b, root), 6, 0, 0, 3))


def test_cycles_are_refused():
    # a contraction below the root that lists the root, and two
    # contractions below it that list each other
    f = form(6, [(1, 0), (7, 0), (1, 0)], 10)
    leaves = tuple(make_leaf(i, c, 10) for i, c in enumerate(f.coeffs))

    def node(nid, children):
        return VarNode(nid, RingElem(8, 0, 10), 3, None, 0, "contraction", None, children,
                       (IDENT,) * len(children))

    root_consumed = (*leaves, node(3, (0, 4)), node(4, (1, 2, 3)))
    below = (*leaves, node(3, (1, 4)), node(4, (2, 3)), node(5, (0, 3)))
    assert not validate_certificate(f, ContractionCertificate(6, 10, root_consumed, 3, 0, 0, 3))
    assert not validate_certificate(f, ContractionCertificate(6, 10, below, 5, 0, 0, 3))

def test_contraction_ids_need_not_rise_toward_the_root():
    # a pipeline certificate at d = 6 whose root 8 contracts leaf 5 with
    # contraction 7; renumbered 1000, that contraction comes after its
    # parent by id, and the certificate is just as sound
    f = form(6, [(275, 129), (522, 241), (1014, 920), (967, 777), (429, 192), (999, 58),
                 (798, 886)])
    cert = search_certificate(f).certificate
    assert [(n.id, n.children) for n in cert.nodes if n.kind == "contraction"] == [
        (7, (0, 1)), (8, (5, 7))]
    doc = certificate_to_json(cert)
    for rec in doc["nodes"]:
        rec["id"] = 1000 if rec["id"] == 7 else rec["id"]
        if "children" in rec:
            rec["children"] = [1000 if c == 7 else c for c in rec["children"]]
    renumbered = certificate_from_json(doc)
    assert [n.id for n in renumbered.nodes] == [0, 1, 5, 8, 1000]
    assert validate_certificate(f, cert) and validate_certificate(f, renumbered)


def test_leaf_outside_its_trusted_window_is_refused():
    cert = search_certificate(form(6, [(1, 0), (7, 0)], 10)).certificate
    # 1 + 7 = 0 mod 8 needs the digits of 7 up to 2^2
    short = AdditiveForm(6, (RingElem(1, 0, 10), RingElem(7, 0, 10)), windows=(10, 2))
    assert not validate_certificate(short, cert)
    enough = AdditiveForm(6, (RingElem(1, 0, 10), RingElem(7, 0, 10)), windows=(10, 3))
    assert validate_certificate(enough, cert)


def test_abstraction_soundness_sampled():
    rng = random.Random(7)
    checked = 0
    while checked < 20:
        pairs = [
            (rng.randrange(1, 1 << 10, 2), rng.randrange(0, 1 << 10)) for _ in range(6)
        ]
        f = form(6, pairs)
        out = search_certificate(f)
        if out.status != "FOUND":
            continue
        checked += 1
        for _ in range(50):
            deep = [
                (a + (rng.randrange(1 << 7) << 3), b + (rng.randrange(1 << 7) << 3))
                for a, b in pairs
            ]
            assert validate_certificate(form(6, deep), out.certificate)


# --- serialization ---------------------------------------------------------


def test_certificate_json_roundtrip():
    f = form(6, [(1, 0), (7, 0), (1, 0), (1, 0)])
    cert = search_certificate(f).certificate
    doc = certificate_to_json(cert)
    assert doc["kind"] == "contraction"
    assert doc["anchor"] == cert.anchor_leaf
    assert doc["achieved"] == cert.achieved
    back = certificate_from_json(doc)
    assert validate_certificate(f, back)
    assert certificate_to_json(back) == doc


def test_certificate_json_roundtrip_keeps_epsilon():
    # 125 * 1 + 3 = 128: the rep 125 carries epsilon 1, the identity 0.
    # Both come back as they went out, and a flipped epsilon is refused
    doc = certificate_to_json(search_certificate(form(6, [(1, 0), (3, 0)])).certificate)
    assert sorted(rec["epsilon"] for rec in doc["nodes"] if rec["kind"] == "leaf") == [0, 1]
    assert certificate_to_json(certificate_from_json(doc)) == doc
    for i, rec in enumerate(doc["nodes"]):
        if rec["kind"] == "leaf":
            bad = json.loads(json.dumps(doc))
            bad["nodes"][i]["epsilon"] = 1 - rec["epsilon"]
            with pytest.raises(CertificateError, match="epsilon"):
                certificate_from_json(bad)


def test_forged_node_values_are_refused():
    f = form(6, [(1, 0), (7, 0), (1, 0), (1, 0)])
    cert = search_certificate(f).certificate
    doc = certificate_to_json(cert)
    # leaf 0 recorded as 9: the root above it records 1 + 7 = 8, not 9 + 7
    forged = json.loads(json.dumps(doc))
    forged["nodes"][0]["value"][0] += 8
    with pytest.raises(CertificateError, match="children sum"):
        certificate_from_json(forged)
    # a hand-built certificate whose contraction records another value
    root = cert.node_map()[cert.root]
    nodes = tuple(n._replace(value=RingElem(16, 0, 10)) if n is root else n for n in cert.nodes)
    assert validate_certificate(f, cert)
    assert not validate_certificate(f, cert._replace(nodes=nodes))
    # with the root recording 9 + 7 = 16 as well, the tree is the one for
    # the form (9, 7, 1, 1); it reads only the three low digits of each
    # leaf, so it proves (1, 7, 1, 1) too
    forged["nodes"][2]["value"][0] += 8
    assert validate_certificate(f, certificate_from_json(forged))


def test_certificate_json_deterministic():
    f = form(6, [(1, 0), (7, 0), (3, 2), (1, 4)])
    a = json.dumps(certificate_to_json(search_certificate(f).certificate), sort_keys=True)
    b = json.dumps(certificate_to_json(search_certificate(f).certificate), sort_keys=True)
    assert a == b



def _malformed_certificate_docs() -> dict:
    """A valid certificate document, broken in one place per entry."""
    good = certificate_to_json(
        search_certificate(form(6, [(1, 0), (7, 0), (1, 0), (1, 0)])).certificate
    )
    docs = {}
    cases = ("zero leaf", "unknown root", "unknown child", "missing kind", "cycle",
             "multiplier not a sixth power", "multiplier not a unit", "flipped epsilon",
             "leaf value off its parent's", "unknown kind", "epsilon off its rep's mod 8",
             "node id listed twice", "value not a pair", "multiplier not a pair",
             "degree not an integer", "degree not 2m with m odd")
    for case in cases:
        doc = json.loads(json.dumps(good))
        nodes = {n["id"]: n for n in doc["nodes"]}
        root = nodes[doc["root"]]
        leaf = next(n for n in doc["nodes"] if n["kind"] == "leaf")
        if case == "zero leaf":
            leaf["value"] = [0, 0]
        elif case == "unknown root":
            doc["root"] = 999
        elif case == "unknown child":
            root["children"][1] = 999
        elif case == "missing kind":
            del leaf["kind"]
        elif case == "multiplier not a sixth power":
            leaf["multiplier"] = [3, 0]  # sixth powers of units are 1 or 5 mod 8
        elif case == "multiplier not a unit":
            leaf["multiplier"] = [2, 0]
        elif case == "flipped epsilon":
            leaf["epsilon"] = 1 - leaf["epsilon"]
        elif case == "leaf value off its parent's":
            leaf["value"][0] += 8
        elif case == "unknown kind":
            root["kind"] = "bogus"  # read as a contraction, it is one
        elif case == "epsilon off its rep's mod 8":
            # 9 = 1 mod 8, a sixth power whose rep 1 has epsilon 0; the
            # root records the sum the new multiplier gives
            assert leaf["multiplier"] == [1, 0] and leaf["id"] in root["children"]
            leaf["multiplier"], leaf["epsilon"] = [9, 0], 7
            root["value"] = [x + 8 * v for x, v in zip(root["value"], leaf["value"])]
        elif case == "node id listed twice":
            doc["nodes"].append(json.loads(json.dumps(doc["nodes"][0])))
        elif case == "value not a pair":
            leaf["value"].append(0)
        elif case == "multiplier not a pair":
            leaf["multiplier"].append(0)
        elif case == "degree not an integer":
            doc["degree"] = "6"
        elif case == "degree not 2m with m odd":
            doc["degree"] = 4
        else:
            root["children"][0] = root["id"]
        docs[case] = doc
    return docs


def test_a_malformed_document_raises_what_it_raised_through_recursion():
    # the reader walks depth first as the recursive reader did, each
    # node's own fields before its children, the multipliers and sum after
    # them: a document with two faults reports the one met first
    doc = certificate_to_json(
        search_certificate(form(6, [(1, 0), (7, 0), (1, 0), (1, 0)])).certificate)
    nodes = {n["id"]: n for n in doc["nodes"]}
    first, second = (nodes[c] for c in nodes[doc["root"]]["children"])
    first["value"], second["var"] = [0, 0], "x"
    with pytest.raises(CertificateError, match="level 10 is not below its window"):
        certificate_from_json(doc)
    first["value"], first["multiplier"] = [1, 0], [3, 0]
    with pytest.raises(CertificateError, match="leaf 1 variable must be an integer"):
        certificate_from_json(doc)
    second["var"] = 1
    with pytest.raises(CertificateError, match="not a unit d-th power"):
        certificate_from_json(doc)


def chain_certificate(n: int) -> dict:
    """A contraction chain over n variables, d = 6, K = 10: each
    contraction joins the previous node and a new leaf and records its
    children's sum.  Leaf 0 records 1 times the rep 125, every other leaf
    w, so each partial sum is 1 or 1 + w mod 2, a unit; against the form
    of n ones the root is 125 + (n - 1), not 0 mod 8 for n = 2000."""
    K = 10
    mask = (1 << K) - 1
    nodes = [{"id": 0, "kind": "leaf", "value": [1, 0], "var": 0,
              "multiplier": [125, 0], "epsilon": 1}]
    total = (125, 0)
    prev = 0
    for j in range(1, n):
        nodes.append({"id": j, "kind": "leaf", "value": [0, 1], "var": j,
                      "multiplier": [1, 0], "epsilon": 0})
        total = (total[0], (total[1] + 1) & mask)
        node = {"id": n + j, "kind": "contraction", "value": list(total),
                "children": [prev, j], "multiplier": [1, 0], "epsilon": 0}
        nodes.append(node)
        prev = n + j
    node["multiplier"] = node["epsilon"] = None
    return {"kind": "contraction", "degree": 6, "precision": K, "root": prev, "nodes": nodes}


def test_a_deep_chain_is_read_without_recursion():
    # 2,000 levels of contractions, twice the interpreter's recursion limit
    f = form(6, [(1, 0)] * 2000)
    cert = certificate_from_json(chain_certificate(2000))
    assert len(cert.nodes) == 3999 and cert.anchor_level == 0
    assert not validate_certificate(f, cert)


def test_reading_a_chain_takes_memory_linear_in_its_length():
    # each node used to hold the set of the variables below it, so a chain
    # of n contractions stored about n^2 / 2 of them: some 330 MB here
    doc = chain_certificate(4000)
    tracemalloc.start()
    try:
        cert = certificate_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.nodes) == 7999 and peak < 20 * 2**20, peak


@pytest.mark.parametrize("case", list(_malformed_certificate_docs()))
def test_certificate_from_json_rejects_malformed_document(case):
    with pytest.raises(CertificateError):
        certificate_from_json(_malformed_certificate_docs()[case])


def test_certificate_from_json_errors_are_the_same_under_python_O():
    # python -O strips asserts; a malformed document must still raise
    # CertificateError, not a different error or none
    script = (
        "import json, sys\n"
        "from padic_forms.engine import certificate_from_json\n"
        "for doc in json.load(sys.stdin):\n"
        "    try:\n"
        "        certificate_from_json(doc)\n"
        "        print('accepted')\n"
        "    except Exception as e:\n"
        "        print(type(e).__name__)\n"
    )
    docs = list(_malformed_certificate_docs().values())
    pkg_root = str(Path(padic_forms.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], input=json.dumps(docs),
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": pkg_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["CertificateError"] * len(docs)
