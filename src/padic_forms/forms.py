"""Additive forms a_1 x_1^d + ... + a_s x_s^d and their level bookkeeping.

A form is a coefficient vector over the base ring at a common storage
precision K.  Coefficients are residues mod 2^K; every verdict downstream
is valid for all ways of completing the unknown higher digits, so each
coefficient also carries a trusted-window exponent that shrinks when a
transformation divides digits away.

Level reduction keeps a frame: per-variable substitution exponents e_j
with

    coeff_cur[j] = coeff_orig[j] / 2^(d * e_j)

so a zero of the reduced form maps back to a zero of the original (its
root) via x_j = 2^(N - e_j) * y_j with N = max e_j over the variables
used.  The rotation `normalize` also multiplies the form by 2^t and
records t as the frame's scale `scale_log`; only it writes a scale, and
the deciders read none: they decide the root.
"""

from __future__ import annotations

import json

from .errors import PrecisionMismatch
from .ring import INFINITE, RingElem, check_degree_shape, parse_elem, pow_pair, reduced_elem


def default_precision(d: int) -> int:
    return d + 4


def whole(x, what: str, error: type = ValueError) -> int:
    """x itself if it is an int and not a bool (JSON's true would read as
    1), else `error`: every document reader checks its integers here."""
    if type(x) is not int:
        raise error(f"{what} must be an integer, got {x!r}")
    return x


class AdditiveForm:
    __slots__ = ("d", "coeffs", "windows", "scale_log", "subst_log", "origin", "_levels", "K", "s")

    def __init__(
        self,
        d: int,
        coeffs: tuple[RingElem, ...],
        *,
        windows: tuple[int, ...] | None = None,
        subst_log: tuple[int, ...] | None = None,
        origin: "AdditiveForm | None" = None,
    ):
        check_degree_shape(d)
        coeffs = tuple(coeffs)
        assert len(coeffs) >= 1
        K = coeffs[0].K
        if windows is None:
            windows = (K,) * len(coeffs)
        if subst_log is None:
            subst_log = (0,) * len(coeffs)
        assert len(windows) == len(coeffs) == len(subst_log)
        levels = []
        for c, w in zip(coeffs, windows):
            if c.K != K:
                raise PrecisionMismatch("coefficients at mixed precisions")
            assert 1 <= w <= K
            x = c.a | c.b  # the level is the lowest set bit, val_pair inline
            lvl = (x & -x).bit_length() - 1 if x else INFINITE
            if lvl >= w:
                raise PrecisionMismatch(
                    f"coefficient {c} indistinguishable from 0 in its trusted window"
                )
            levels.append(lvl)
        # K (the storage precision) and s (the variable count) are read on
        # every hot path, so they are stored rather than derived; the scale
        # is 0, since only `_shift` writes one
        for setter, x in zip(_SETTERS, (d, coeffs, windows, 0, subst_log, origin,
                                        tuple(levels), K, len(coeffs))):
            setter(self, x)

    def __setattr__(self, *_):
        raise AttributeError("AdditiveForm is immutable")

    # constructors
    @classmethod
    def from_pairs(cls, d: int, pairs, K: int | None = None) -> "AdditiveForm":
        if K is None:
            K = default_precision(d)
        if K < 1:
            raise PrecisionMismatch(f"precision must be at least 1, got {K}")
        try:
            coeffs = tuple(RingElem(a, b, K) for a, b in pairs)
        except OverflowError:  # 2^K has more digits than an int can hold
            raise PrecisionMismatch(f"precision {K} is too large to hold") from None
        if not coeffs:
            raise ValueError("form has no coefficients")
        return cls(d, coeffs)

    @classmethod
    def from_json(cls, doc: dict | str) -> "AdditiveForm":
        if isinstance(doc, str):
            doc = json.loads(doc)
        K = doc["precision"]  # None, from form text without one: the default
        pairs = [(whole(a, "coefficient"), whole(b, "coefficient")) for a, b in doc["coeffs"]]
        return cls.from_pairs(doc["degree"], pairs, None if K is None else whole(K, "precision"))

    def to_json(self) -> dict:
        return {
            "degree": self.d,
            "precision": self.K,
            "coeffs": [[c.a, c.b] for c in self.coeffs],
        }

    # queries
    def levels(self) -> tuple[int, ...]:
        """Each coefficient's valuation, computed once by the constructor."""
        return self._levels

    def max_level(self) -> int:
        return max(self._levels)

    def is_reduced(self) -> bool:
        return self.max_level() < self.d

    def root(self) -> "AdditiveForm":
        return self.origin if self.origin is not None else self

    def evaluate(self, values) -> RingElem:
        """Sum of coeff * value^d at the storage precision K, each power
        by `pow_pair` mod 2^K."""
        K, d = self.K, self.d
        mod = 1 << K
        assert len(values) == self.s
        ta = tb = 0
        for c, x in zip(self.coeffs, values):
            if x.a or x.b:
                pa, pb = pow_pair(x.a, x.b, d, mod)
                bd = c.b * pb  # the product as in mul_pair, inline
                ta += c.a * pa + bd
                tb += c.a * pb + c.b * pa + bd
        return RingElem(ta, tb, K)

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"AdditiveForm(d={self.d}, K={self.K}, [{inner}])"


def parse_form_text(text: str) -> dict:
    """`d=6; 1, 1, 1*w, 4` with an optional `K=12;` segment, as the JSON
    document `from_json` reads; precision None when no K is given."""
    head, _, tail = text.partition(";")
    if "=" not in head:
        raise ValueError("form text must start with d=<degree>;")
    key, val = head.split("=", 1)
    if key.strip() != "d":
        raise ValueError("form text must start with d=<degree>;")
    d = int(val)
    K = None
    if "=" in tail.split(";")[0]:
        kseg, _, tail = tail.partition(";")
        kkey, kval = kseg.split("=", 1)
        if kkey.strip().lower() not in ("k", "precision"):
            raise ValueError(f"unknown form option {kkey.strip()!r}")
        K = int(kval)
    pairs = [parse_elem(tok) for tok in tail.split(",") if tok.strip()]
    return {"degree": d, "precision": K, "coeffs": pairs}


# slot descriptors write past the raising __setattr__ (see ring.RingElem)
_SETTERS = tuple(getattr(AdditiveForm, name).__set__ for name in AdditiveForm.__slots__)


# ---------------------------------------------------------------------------
# transformations


def reduce_levels(f: AdditiveForm) -> AdditiveForm:
    """Bring every level into [0, d) by folding 2^(id) factors into the
    variable substitutions.  A coefficient that needs reduction but whose
    level reaches K - d is rejected: after division fewer than d digits
    would remain trusted."""
    if f.is_reduced():
        return f
    d = f.d
    coeffs = []
    windows = []
    subst = []
    for c, w, e, lvl in zip(f.coeffs, f.windows, f.subst_log, f.levels()):
        if lvl < d:
            coeffs.append(c)
            windows.append(w)
            subst.append(e)
            continue
        if lvl >= w - d:
            raise PrecisionMismatch(
                f"coefficient {c} at level {lvl} is too close to the trusted "
                f"window 2^{w} to reduce"
            )
        i = lvl // d
        coeffs.append(RingElem(c.a >> (i * d), c.b >> (i * d), c.K))
        windows.append(w - i * d)
        subst.append(e + i)
    return AdditiveForm(
        d,
        tuple(coeffs),
        windows=tuple(windows),
        subst_log=tuple(subst),
        origin=f.root(),
    )


def _shift(f: AdditiveForm, t: int) -> AdditiveForm:
    """The reduced form f times 2^t, t in [0, d), re-reduced: every level
    goes to (level + t) mod d.  Isotropy-equivalent; the frame's scale
    grows by t."""
    if t == 0:
        return f
    d = f.d
    K = f.K
    mask = (1 << K) - 1
    down = d - t  # a level reaching d wraps round: divide by 2^(d - t) instead
    coeffs = []
    windows = []
    subst = []
    levels = []
    # the coefficients are built past the RingElem constructor: a right
    # shift of a reduced value stays reduced, a left shift is masked
    for c, w, e, lvl in zip(f.coeffs, f.windows, f.subst_log, f._levels):
        if lvl >= down:  # lvl + t reaches d, and the rep stays exactly divisible
            coeffs.append(reduced_elem(c.a >> down, c.b >> down, K))
            windows.append(w - down)
            subst.append(e + 1)
            levels.append(lvl - down)
        elif lvl + t < K:
            coeffs.append(reduced_elem((c.a << t) & mask, (c.b << t) & mask, K))
            windows.append(w + t if w + t < K else K)
            subst.append(e)
            levels.append(lvl + t)
        else:  # the constructor's refusal of a coefficient that shifted out
            raise PrecisionMismatch("coefficient 0 indistinguishable from 0 in its trusted window")
    # built past the constructor: the levels follow from f's, and every
    # window stays in 1..K above its level, the constructor's other checks
    g = object.__new__(AdditiveForm)
    for setter, x in zip(_SETTERS, (d, tuple(coeffs), tuple(windows), f.scale_log + t,
                                    tuple(subst), f.root(), tuple(levels), K, f.s)):
        setter(g, x)
    return g


def normalize(f: AdditiveForm) -> tuple[AdditiveForm, int]:
    """Rotate levels so every prefix of the level distribution holds its
    proportional share: d * (s_0 + ... + s_j) >= (j+1) * s for all j.
    Shifting by t starts the counts at level p = -t mod d; by the cycle
    lemma the valid p are those of least prefix sum of d * count - s, so
    one exists.  The smallest t wins: 0 if p = 0 is valid, else d minus
    the largest valid p.  A form with a level at or above d is reduced
    first: counting the levels finds such a level, so a form already
    reduced costs no separate check."""
    d, s = f.d, f.s
    counts = [0] * d
    try:
        for lvl in f._levels:
            counts[lvl] += 1
    except IndexError:
        return normalize(reduce_levels(f))
    pref = low = start = 0
    for p in range(1, d):
        pref += d * counts[p - 1] - s
        if pref < low or (pref == low and start):
            low, start = pref, p
    t = -start % d
    return _shift(f, t), t
