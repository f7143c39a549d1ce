"""Top-level isotropy decision pipeline.

Reduce and normalize, then ask the exact flat reachability kernel
(flat.py) twice.  Pass 1 (`search_certificate`) looks on the normalized
form for a zero whose used entries are units and turns it into a
contraction certificate, Newton-lifted into a full-precision witness in
the caller's variable frame.  Pass 2 looks on the level-reduced form
with entries 2 times a unit allowed too, which is complete: a solution
Newton-lifts to a witness, and no solution is an anisotropy proof unless
a coefficient's trusted window was too short to take part.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .engine import ContractionCertificate, certificate_to_json, validate_certificate
from .errors import CertificateError, PrecisionMismatch
from .flat import FlatSolution, flat_zero, search_certificate
from .forms import AdditiveForm, normalize, reduce_levels
from .oracle import ExhaustionCertificate
from .ring import MultiplierSet, RingElem, multiplier_set
from .witness import Witness, exact_coeffs, map_to_origin, solve_anchor, verify_witness

# unused here; perfbench/spans.py wraps it by name in this module for --trace
from .oracle import decide_isotropy_exhaustive  # noqa: F401


def isotropy_threshold(d: int) -> int:
    """Variable count at which every form of degree d is isotropic."""
    return 4 * d + 1 if d % 3 == 0 else (3 * d) // 2 + 1


@dataclass
class IsotropyResult:
    verdict: str  # "ISOTROPIC" | "ANISOTROPIC"
    stage: str  # pipeline stage that decided
    witness: Witness | None = None
    certificate: object | None = None  # anisotropy evidence, has to_json()
    contraction: ContractionCertificate | None = None
    diagnostics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_json(self, include_timings: bool = True) -> dict:
        doc: dict = {"verdict": self.verdict, "stage": self.stage}
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json()
        if self.contraction is not None:
            doc["contraction"] = certificate_to_json(self.contraction)
        if self.diagnostics:
            doc["diagnostics"] = self.diagnostics
        if include_timings:
            doc["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return doc


def lift_witness(g: AdditiveForm, cert: ContractionCertificate) -> Witness:
    """Turn a validated contraction into a witness for g's root form.

    Each certificate leaf gets the product of multiplier roots along its
    path (a unit); the anchor variable is then corrected by Newton so the
    exact sum vanishes at a precision high enough that, after the frame
    back-mapping, the witness still certifies the root's full precision.
    """
    if not validate_certificate(g, cert):
        raise CertificateError("certificate does not validate against the form")
    node_map = cert.node_map()
    roots: dict[int, RingElem] = {}

    def walk(nid: int, acc: RingElem):
        n = node_map[nid]
        if n.kind == "leaf":
            roots[n.var] = acc
            return
        for cid, rep in zip(n.children, n.choices):
            r = rep.root
            walk(cid, acc * RingElem(r.a, r.b, acc.K))

    root_form = g.root()
    K_orig = root_form.K
    used = sorted(
        n.var for n in cert.nodes if n.kind == "leaf"
    )
    N = max(g.subst_log[j] for j in used)
    K_star = max(g.K, K_orig + g.scale_log - g.d * N)
    walk(cert.root, RingElem.one(K_star))

    coeffs = exact_coeffs(g, K_star)
    values = [RingElem.zero(K_star)] * g.s
    for j, lam in roots.items():
        values[j] = lam
    values = solve_anchor(coeffs, g.d, values, cert.anchor_leaf)
    w = map_to_origin(g, Witness(tuple(values), cert.anchor_leaf, K_star))
    if not verify_witness(root_form, w):
        raise CertificateError("lifted witness failed verification")
    return w


def witness_from_flat(reduced: AdditiveForm, sol: FlatSolution, ms: MultiplierSet) -> Witness:
    """Newton-lift a pass-2 solution on the level-reduced form: each used
    variable is 2^wrap times its multiplier's root, the anchor is solved
    for exactly, and the result is checked against the original form."""
    K = reduced.K
    values = [RingElem.zero(K)] * reduced.s
    for p in sol.picks:
        r = ms.reps[p.rep].root
        values[p.var] = RingElem(r.a << p.wrap, r.b << p.wrap, K)
    values = solve_anchor(exact_coeffs(reduced, K), reduced.d, values, sol.anchor)
    w = map_to_origin(reduced, Witness(tuple(values), sol.anchor, K))
    if not verify_witness(reduced.root(), w):
        raise CertificateError("flat witness failed verification")
    return w


def decide_isotropy(f: AdditiveForm) -> IsotropyResult:
    """Decide isotropy of f (witnesses refer to f's own variables).

    Stages: reduce and normalize; pass 1, a contraction certificate on
    the normalized form (stage "search", or "search-threshold" when the
    variable count clears the always-isotropic threshold); pass 2 on the
    reduced form, a witness or an exhaustion certificate (stage "oracle").
    """
    timings: dict = {}
    t0 = time.perf_counter()
    reduced = reduce_levels(f)
    g, _shift = normalize(reduced)
    timings["normalize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    first = search_certificate(g)
    timings["search"] = time.perf_counter() - t0
    if first.status == "FOUND":
        cert = first.certificate
        t0 = time.perf_counter()
        w = lift_witness(g, cert)
        timings["lift"] = time.perf_counter() - t0
        stage = "search-threshold" if g.s >= isotropy_threshold(g.d) else "search"
        return IsotropyResult(
            "ISOTROPIC",
            stage,
            witness=w,
            contraction=cert,
            diagnostics={"anchorLevel": cert.anchor_level, "statesVisited": first.nodes_expanded},
            timings=timings,
        )

    t0 = time.perf_counter()
    second = flat_zero(reduced, wrapped=True)
    states = first.nodes_expanded + second.states
    if second.solution is not None:
        ms = multiplier_set(reduced.d, reduced.K)
        w = witness_from_flat(reduced, second.solution, ms)
        timings["oracle"] = time.perf_counter() - t0
        return IsotropyResult(
            "ISOTROPIC",
            "oracle",
            witness=w,
            diagnostics={"anchorLevel": second.solution.k, "statesVisited": states},
            timings=timings,
        )
    if second.short:
        raise PrecisionMismatch(
            "a coefficient's trusted window is too short for the flat decision; "
            "increase the working precision"
        )
    timings["oracle"] = time.perf_counter() - t0
    return IsotropyResult(
        "ANISOTROPIC",
        "oracle",
        certificate=ExhaustionCertificate(reduced.max_level() + 3, second.states),
        diagnostics={"statesVisited": states},
        timings=timings,
    )
