"""Top-level isotropy decision pipeline.

Reduce the levels of the caller's root form below the degree, then ask
the exact flat reachability kernel (flat.py) once: `search_certificate`
runs one complete pass on the reduced form.  A solution becomes a
contraction certificate over the root form, which is checked against the
caller's form, and is Newton-lifted from the kernel's picks, whose
coefficients are read off the reduced form, and mapped in one pass
(`map_to_origin`) into a witness in the root's variables.  No solution
is an anisotropy proof unless a coefficient's trusted window was too
short to take part.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .engine import (
    ContractionCertificate,
    ExhaustionCertificate,
    certificate_to_json,
    validate_certificate,
)
from .errors import CertificateError, PrecisionMismatch
from .flat import FlatSolution, search_certificate
from .forms import AdditiveForm, reduce_levels
from .ring import multiplier_set, solve_anchor
from .witness import Witness, map_to_origin, verify_witness

# unused here; perfbench/spans.py wraps them by name in this module for --trace
from .forms import normalize  # noqa: F401
from .oracle import decide_isotropy_exhaustive  # noqa: F401


def isotropy_threshold(d: int) -> int:
    """Variable count at which every form of degree d is isotropic: the
    paper's bounds, and 5 for quadratic forms, since the u-invariant of a
    local field is 4 (some 4-variable form is anisotropic)."""
    if d == 2:
        return 5
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


def lift_witness(g: AdditiveForm, sol: FlatSolution) -> Witness:
    """Turn a kernel solution on g into a witness for g's root form.

    Each picked variable is x = 2^wrap times its multiplier's root (on a
    certificate built from the solution, the product of roots along the
    leaf's path: composite nodes carry the identity); the others are 0.
    So x^d = 2^(wrap d) times the rep's value, read off the rep, times the
    pick's coefficient in g, each term masked mod 2^K (K = g.K) as it is
    formed; the same loop sums the terms other than the anchor's.  Newton
    then corrects the anchor so the sum vanishes mod 2^K, and the picks
    are mapped back to the root frame in one pass (`map_to_origin`) and
    verified there.
    """
    d, K = g.d, g.K
    mask = (1 << K) - 1
    coeffs = g.coeffs
    reps = multiplier_set(d, K).reps
    anchor, used = sol.anchor, []
    term = None
    ra = rb = 0  # the sum of the other terms
    for var, wrap, idx in sol.picks:
        c, rep = coeffs[var], reps[idx]
        v, r, shift = rep.value, rep.root, wrap * d
        va, vb = v.a << shift, v.b << shift
        bd = c.b * vb  # the product as in mul_pair, inline
        ta, tb = (c.a * va + bd) & mask, (c.a * vb + c.b * va + bd) & mask
        if var == anchor:
            term, xa, xb = (ta, tb), r.a << wrap, r.b << wrap
        else:
            ra += ta
            rb += tb
            used.append((var, r.a << wrap, r.b << wrap))
    if term is None:
        raise CertificateError("flat solution does not pick its anchor")
    za, zb = solve_anchor(term, (ra, rb), d, K)
    bd = xb * zb  # the anchor's x times z, the product as in mul_pair, inline
    used.append((anchor, xa * za + bd, xa * zb + xb * za + bd))
    w = map_to_origin(g, used, anchor)
    if not verify_witness(g.root(), w):
        raise CertificateError("lifted witness failed verification")
    return w


def decide_isotropy(f: AdditiveForm) -> IsotropyResult:
    """Decide isotropy of f (witnesses and certificates refer to the
    variables of f's root form, f itself unless f is a transformed frame).

    Stages: reduce the root form, then one complete kernel pass on the
    reduced form.  A zero gives a contraction certificate, checked against
    f, and a witness lifted at the reduced form's precision (stage
    "search", or "search-threshold" when the variable count clears the
    always-isotropic threshold); none gives an exhaustion certificate
    (stage "oracle").
    The timings, shown under `solve -v`, are keyed "search", then
    "validate" and "lift" after a zero.
    """
    timings: dict = {}
    t0 = time.perf_counter()
    reduced = reduce_levels(f.root())
    found = search_certificate(reduced)
    t1 = time.perf_counter()
    timings["search"] = t1 - t0
    states = found.nodes_expanded
    if found.status == "FOUND":
        cert = found.certificate
        if not validate_certificate(f, cert):
            raise CertificateError("certificate does not validate against the form")
        t2 = time.perf_counter()
        timings["validate"] = t2 - t1
        w = lift_witness(reduced, found.solution)
        timings["lift"] = time.perf_counter() - t2
        stage = "search-threshold" if f.s >= isotropy_threshold(f.d) else "search"
        return IsotropyResult(
            "ISOTROPIC",
            stage,
            witness=w,
            contraction=cert,
            diagnostics={"anchorLevel": cert.anchor_level, "statesVisited": states},
            timings=timings,
        )
    if found.short:
        raise PrecisionMismatch(
            "a coefficient's trusted window is too short for the flat decision; "
            "increase the working precision"
        )
    return IsotropyResult(
        "ANISOTROPIC",
        "oracle",
        certificate=ExhaustionCertificate(reduced.max_level() + 3, states),
        diagnostics={"statesVisited": states},
        timings=timings,
    )
