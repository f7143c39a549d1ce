"""Nontrivial-zero witnesses and their verification.

A witness for a form is an assignment with at least one unit entry whose
evaluated sum vanishes to a declared valuation V.  When V is at least
three above the level of the unit entry's coefficient, solving for that
variable meets the Hensel criterion, so the residue statement certifies
an exact zero for every completion of the coefficients beyond their
working precision.  V never exceeds the working precision: a deeper claim
would silently depend on unknown digits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError
from .forms import AdditiveForm
from .ring import RingElem, newton_anchor_solve


@dataclass(frozen=True)
class Witness:
    values: tuple[RingElem, ...]
    primitive: int  # index of a unit entry justifying the lift
    V: int  # target valuation of the evaluated sum

    def to_json(self) -> dict:
        return {
            "values": [[x.a, x.b] for x in self.values],
            "primitive": self.primitive,
            "target_valuation": self.V,
            "precision": self.values[0].K,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Witness":
        K = doc["precision"]
        if K < 1:
            raise ValueError(f"witness precision must be at least 1, got {K}")
        return cls(
            values=tuple(RingElem(a, b, K) for a, b in doc["values"]),
            primitive=doc["primitive"],
            V=doc["target_valuation"],
        )


def verify_witness(f: AdditiveForm, w: Witness) -> bool:
    """Evaluate the form at the witness and check all three clauses: the
    sum vanishes mod 2^V, the declared variable is a unit, and V clears
    its coefficient level by 3.  V must fit the working precision."""
    if len(w.values) != f.s or not 0 <= w.primitive < f.s:
        return False
    if not (1 <= w.V <= f.K):
        return False
    x = w.values[w.primitive]
    if not x.is_unit():
        return False
    if w.V < f.levels()[w.primitive] + 3:
        return False
    total = f.evaluate(w.values, at_K=f.K)
    mask = (1 << w.V) - 1
    return (total.a & mask) == 0 and (total.b & mask) == 0


def exact_coeff(g: AdditiveForm, j: int, K: int) -> RingElem:
    """Variable j's current-frame coefficient recomputed from the
    origin's exact representative at precision K, undoing any truncation
    the frame's scale may have caused in storage."""
    rep = g.root().coeffs[j]
    down = g.d * g.subst_log[j]
    return RingElem((rep.a << g.scale_log) >> down, (rep.b << g.scale_log) >> down, K)


def exact_coeffs(g: AdditiveForm, K: int) -> list[RingElem]:
    """Every current-frame coefficient at precision K (`exact_coeff`)."""
    return [exact_coeff(g, j, K) for j in range(g.s)]


def solve_anchor(terms: list[tuple[int, int]], d: int, anchor: int, K: int) -> RingElem:
    """The unit z with terms[anchor] * z^d + (the other terms) = 0 mod
    2^K, each term c_j * x_j^d given as an int pair; the caller scales
    x_anchor by z.  Requires the usual valuation agreement; a failure here
    means the incoming certificate was not sound."""
    ra = rb = 0
    for j, (ta, tb) in enumerate(terms):
        if j != anchor:
            ra += ta
            rb += tb
    fa, fb = terms[anchor]
    return newton_anchor_solve(RingElem(fa, fb, K), d, RingElem(ra, rb, K))


def map_to_origin(g: AdditiveForm, w: Witness) -> Witness:
    """Push a witness for a framed (reduced or shifted) form back to the
    original variables: x_j = 2^(N - e_j) y_j with N the largest
    e_j - v(y_j) among used variables, the least N that keeps every x_j
    integral, so the entries reaching it are units."""
    orig = g.origin
    if orig is None:
        return w
    d = g.d
    used = [j for j, x in enumerate(w.values) if not x.is_zero()]
    if not used:
        raise CertificateError("witness uses no variables")
    N = max(g.subst_log[j] - w.values[j].valuation() for j in used)
    V_avail = w.V + d * N - g.scale_log
    K = orig.K
    V = min(K, V_avail)
    if V < 1:
        raise CertificateError("scale bookkeeping left no certified digits")
    values = [RingElem.zero(K)] * g.s
    for j in used:
        x = w.values[j]
        up = N - g.subst_log[j]
        if up >= 0:
            values[j] = RingElem(x.a << up, x.b << up, K)
        else:
            values[j] = RingElem(x.a >> -up, x.b >> -up, K)
    candidates = [j for j in used if values[j].is_unit()]
    if not candidates:
        raise CertificateError("no unit variable survives the back-mapping")
    levels = orig.levels()
    primitive = min(candidates, key=lambda j: (levels[j], j))
    return Witness(values=tuple(values), primitive=primitive, V=V)
