"""Top-level isotropy decision pipeline.

Reduce and normalize, then ask the exact flat reachability kernel
(flat.py) twice.  Pass 1 (`search_certificate`) looks on the normalized
form for a zero whose used entries are units and turns it into a
contraction certificate.  Pass 2 looks on the level-reduced form with
entries 2 times a unit allowed too, which is complete: no solution is an
anisotropy proof unless a coefficient's trusted window was too short to
take part.  Either pass's solution is Newton-lifted from the kernel's
picks, whose coefficients are read off the root form, and mapped in one
pass (`map_to_origin`) into a witness in the caller's variable frame.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .engine import ContractionCertificate, certificate_to_json, validate_certificate
from .errors import CertificateError, PrecisionMismatch
from .flat import FlatSolution, flat_zero, search_certificate
from .forms import AdditiveForm, normalize, reduce_levels
from .oracle import ExhaustionCertificate
from .ring import mul_pair, multiplier_set
from .witness import Witness, map_to_origin, solve_anchor, verify_witness

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
    (`map_to_origin`) and verified there, so K must be high enough for the
    back-mapping to keep the root's full precision.

    The rep's value is root^d only mod 2^(g.K), yet exact in the terms:
    above g.K = root.K the lift runs at K = root.K + scale - d N, N the
    picks' largest substitution exponent, and a pick with exponent e <= N
    has a coefficient divisible by 2^(scale - d e), so by 2^(K - g.K).
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
    """Decide isotropy of f (witnesses refer to f's own variables).

    Stages: reduce and normalize; pass 1, a contraction certificate on
    the normalized form (stage "search", or "search-threshold" when the
    variable count clears the always-isotropic threshold); pass 2 on the
    reduced form, a witness or an exhaustion certificate (stage "oracle").
    The timings, shown under `solve -v`, are keyed "normalize", "search",
    then "validate" and "lift" after pass 1 or "oracle" for pass 2.
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
        cert, sol = first.certificate, first.solution
        t0 = time.perf_counter()
        if not validate_certificate(g, cert):
            raise CertificateError("certificate does not validate against the form")
        t1 = time.perf_counter()
        timings["validate"] = t1 - t0
        # the back-mapping multiplies by 2^(d N - scale); lift high enough
        # that the root's full precision survives it
        N = max(g.subst_log[p.var] for p in sol.picks)
        w = lift_witness(g, sol, max(g.K, g.root().K + g.scale_log - g.d * N))
        timings["lift"] = time.perf_counter() - t1
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
        w = lift_witness(reduced, second.solution, reduced.K)
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
