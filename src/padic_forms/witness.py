"""Nontrivial-zero witnesses and their verification.

A witness for a form is an assignment with at least one unit entry whose
evaluated sum vanishes to a declared valuation V.  When V is at least
three above the level of the unit entry's coefficient, solving for that
variable meets the Hensel criterion, so the residue statement certifies
an exact zero for every completion of the coefficients beyond their
working precision.  V never exceeds the working precision: a deeper claim
would silently depend on unknown digits.  Both lifts, the pipeline's and
the FFT oracle's, find a zero of the root form's reduction and map it to
the root by `map_to_origin`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError
from .forms import MAX_PRECISION, AdditiveForm, whole
from .ring import RingElem, reduced_elem


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
        """Every field and value component must be an integer (not a bool)."""
        K = whole(doc["precision"], "witness precision")
        if K < 1:
            raise ValueError(f"witness precision must be at least 1, got {K}")
        if K > MAX_PRECISION:
            raise ValueError(f"witness precision {K} is too large to hold")
        values = tuple(RingElem(whole(a, "witness value"), whole(b, "witness value"), K)
                       for a, b in doc["values"])
        return cls(
            values=values,
            primitive=whole(doc["primitive"], "witness primitive"),
            V=whole(doc["target_valuation"], "witness target_valuation"),
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
    total = f.evaluate(w.values)
    mask = (1 << w.V) - 1
    return (total.a & mask) == 0 and (total.b & mask) == 0


def map_to_origin(g: AdditiveForm, used, anchor: int) -> Witness:
    """The witness for g's root form of a zero of g mod 2^K, K = g.K,
    given by its used entries (var, a, b); zero entries are ignored.  Each
    is mapped back by x_j = 2^(N - e_j) y_j with N the largest
    e_j - v(y_j) over the used variables, the least N that keeps every x_j
    integral, so the entries reaching N are exactly the units.  The values
    are written at the root's precision K_root, and the sum vanishes to
    V = min(K_root, K + d N); a V below 1 (N < 0: every entry divisible
    by a deep power of 2) certifies nothing and is refused.  The
    primitive is the unit `anchor` when g has no frame, else the unit of
    least (root level, variable).  A rotated frame (`normalize`'s, with a
    scale) is refused: the deciders map zeros of reduced forms only."""
    if g.scale_log:
        raise ValueError("map_to_origin maps zeros of unrotated frames only")
    K, subst = g.K, g.subst_log
    mask = (1 << K) - 1
    lift = []  # (e_j - v(y_j), j, y_j) per nonzero entry, v the lowest set bit of a | b
    N = None
    for j, a, b in used:
        x = (a | b) & mask
        if x:
            n = subst[j] - (x & -x).bit_length() + 1
            if N is None or n > N:
                N = n
            lift.append((n, j, a & mask, b & mask))
    if N is None:
        raise CertificateError("witness uses no variables")
    root = g.root()
    K0 = root.K
    V = min(K0, K + g.d * N)
    if V < 1:
        raise CertificateError("no certified digits remain after mapping back")
    mask0 = (1 << K0) - 1
    values = [reduced_elem(0, 0, K0)] * g.s
    for _, j, a, b in lift:
        up = N - subst[j]
        if up >= 0:
            values[j] = reduced_elem((a << up) & mask0, (b << up) & mask0, K0)
        else:
            values[j] = reduced_elem((a >> -up) & mask0, (b >> -up) & mask0, K0)
    if g.origin is not None:
        anchor = min((root.levels()[j], j) for n, j, _, _ in lift if n == N)[1]
    return Witness(tuple(values), anchor, V)
