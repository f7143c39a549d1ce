"""Top-level isotropy decision pipeline.

Reduce the levels below the degree, then ask the exact flat reachability
kernel (flat.py) once: `search_certificate` runs one complete pass on the
reduced form.  A solution becomes a contraction certificate over the
caller's form, which is checked against that form, and is Newton-lifted
from the kernel's picks, whose coefficients are read off the root form,
and mapped in one pass (`map_to_origin`) into a witness in the caller's
variable frame.  No solution is an anisotropy proof unless a
coefficient's trusted window was too short to take part.
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
from .ring import mul_pair, multiplier_set
from .witness import Witness, map_to_origin, solve_anchor, verify_witness

# unused here; perfbench/spans.py wraps them by name in this module for --trace
from .forms import normalize  # noqa: F401
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


def lift_witness(g: AdditiveForm, sol: FlatSolution, K: int) -> Witness:
    """Turn a kernel solution on g into a witness for g's root form.

    Each picked variable is x = 2^wrap times its multiplier's root (on a
    certificate built from the solution, the product of roots along the
    leaf's path: composite nodes carry the identity); the others are 0.
    So x^d = 2^(wrap d) times the rep's value, read off the rep, and each
    pick's coefficient is recomputed at precision K from the root form's
    exact representative through the frame.  Each term is masked mod 2^K
    as it is formed, and the same loop sums the terms other than the
    anchor's.  Newton then corrects the anchor so the sum vanishes mod
    2^K, and the picks are mapped back to the root frame in one pass
    (`map_to_origin`) and verified there.  On a frame without scale, as
    the decision's reduced form, K = g.K keeps the root's full precision.

    A scaled frame (`normalize`'s) needs K = root.K + scale - d N for
    that, N the picks' largest substitution exponent.  The rep's value is
    root^d only mod 2^(g.K), yet exact in the terms: a pick with exponent
    e <= N has a coefficient divisible by 2^(scale - d e), so by
    2^(K - g.K).
    """
    d, mask = g.d, (1 << K) - 1
    coeffs, scale, subst = g.root().coeffs, g.scale_log, g.subst_log
    reps = multiplier_set(d, g.K).reps
    anchor, used = sol.anchor, []
    term = None
    ra = rb = 0  # the sum of the other terms
    for var, wrap, idx in sol.picks:
        c, down = coeffs[var], d * subst[var]
        rep = reps[idx]
        v, r, shift = rep.value, rep.root, wrap * d
        ca, cb = (c.a << scale) >> down, (c.b << scale) >> down
        va, vb = v.a << shift, v.b << shift
        bd = cb * vb  # the product as in mul_pair, inline
        ta, tb = (ca * va + bd) & mask, (ca * vb + cb * va + bd) & mask
        if var == anchor:
            term, xa, xb = (ta, tb), r.a << wrap, r.b << wrap
        else:
            ra += ta
            rb += tb
            used.append((var, r.a << wrap, r.b << wrap))
    if term is None:
        raise CertificateError("flat solution does not pick its anchor")
    za, zb = solve_anchor(term, (ra, rb), d, K)
    used.append((anchor, *mul_pair(xa, xb, za, zb)))
    w = map_to_origin(g, used, anchor, K)
    if not verify_witness(g.root(), w):
        raise CertificateError("lifted witness failed verification")
    return w


def decide_isotropy(f: AdditiveForm) -> IsotropyResult:
    """Decide isotropy of f (witnesses and certificates refer to f's own
    variables).

    Stages: reduce, then one complete kernel pass on the reduced form.  A
    zero gives a contraction certificate, checked against f, and a witness
    lifted at the reduced form's precision (stage "search", or
    "search-threshold" when the variable count clears the always-isotropic
    threshold); none gives an exhaustion certificate (stage "oracle").
    The timings, shown under `solve -v`, are keyed "search", then
    "validate" and "lift" after a zero.
    """
    timings: dict = {}
    t0 = time.perf_counter()
    reduced = reduce_levels(f)
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
        w = lift_witness(reduced, found.solution, reduced.K)
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
