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
records t as the frame's scale `scale_log`.  One builder, `_reframe`,
writes every frame, reduced and rotated alike, and only it writes a
scale; the deciders read none: they decide the root.
"""

from __future__ import annotations

import json

from .errors import PrecisionMismatch
from .ring import INFINITE, RingElem, check_degree_shape, parse_elem, pow_pair, reduced_elem

MAX_PRECISION = 1 << 16  # the most digits a form or document may ask for: 2^K in 8 KB


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

    def __init__(self, d: int, coeffs: tuple[RingElem, ...], *,
                 windows: tuple[int, ...] | None = None):
        """A root form, with no substitution and no scale: `_reframe`
        builds every frame."""
        check_degree_shape(d)
        coeffs = tuple(coeffs)
        assert len(coeffs) >= 1
        K, s = coeffs[0].K, len(coeffs)
        if windows is None:
            windows = (K,) * s
        assert len(windows) == s
        levels = []
        for c, w in zip(coeffs, windows):
            if c.K != K:
                raise PrecisionMismatch("coefficients at mixed precisions")
            assert 1 <= w <= K
            x = c.a | c.b  # the level is the lowest set bit, val_pair inline
            lvl = (x & -x).bit_length() - 1 if x else INFINITE
            if lvl >= w:
                raise PrecisionMismatch(
                    f"coefficient {c} indistinguishable from 0 in its trusted window")
            levels.append(lvl)
        # K (the storage precision) and s (the variable count) are read on
        # every hot path, so they are stored rather than derived
        for setter, x in zip(_SETTERS, (d, coeffs, windows, 0, (0,) * s, None,
                                        tuple(levels), K, s)):
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
        if K > MAX_PRECISION:
            raise PrecisionMismatch(f"precision {K} is too large to hold")
        coeffs = tuple(RingElem(a, b, K) for a, b in pairs)
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


class _Draft(AdditiveForm):
    """AdditiveForm's layout with plain slot writes, three times faster than
    the descriptors': `_reframe` fills one, then assigns it AdditiveForm."""
    __slots__ = ()
    __setattr__ = object.__setattr__


# ---------------------------------------------------------------------------
# transformations


def reduce_levels(f: AdditiveForm) -> AdditiveForm:
    """Bring every level into [0, d) by folding 2^(id) factors into the
    variable substitutions: `_reframe(f, 0)`, or f itself when it is
    already reduced."""
    return f if f.is_reduced() else _reframe(f, 0)


def _reframe(f: AdditiveForm, t: int) -> AdditiveForm:
    """f times 2^t, t in [0, d), with every level l brought to (l + t) mod d
    by the substitution x -> 2^i x, i = (l + t) div d: the one builder of
    a frame.  The coefficient moves by t - d i digits, its window with it
    (capped at K), its substitution grows by i and the frame's scale by t.
    Refused: a level at or above d that reaches w - d, w its window (after
    division fewer than d digits would remain trusted), and a coefficient
    that a left shift takes out of K."""
    d, K = f.d, f.K
    mask = (1 << K) - 1
    coeffs, windows, subst, levels = [], [], [], []
    # coefficients built past the RingElem constructor: a right shift of an
    # exactly divisible reduced value stays reduced, a left shift is masked
    for c, w, e, lvl in zip(f.coeffs, f.windows, f.subst_log, f._levels):
        q = lvl + t
        if q < d:  # i = 0: times 2^t
            if q >= K:  # the constructor's refusal of a coefficient shifted out
                raise PrecisionMismatch(
                    "coefficient 0 indistinguishable from 0 in its trusted window")
            c = reduced_elem((c.a << t) & mask, (c.b << t) & mask, K)
            w = w + t if w + t < K else K
        else:
            if lvl >= d and lvl >= w - d:
                raise PrecisionMismatch(f"coefficient {c} at level {lvl} is too close to "
                                        f"the trusted window 2^{w} to reduce")
            i = q // d
            q -= d * i
            down = lvl - q  # over 2^(d i - t), exactly
            c = reduced_elem(c.a >> down, c.b >> down, K)
            w -= down
            e += i
        coeffs.append(c)
        windows.append(w)
        subst.append(e)
        levels.append(q)
    # built past the constructor: the levels follow from f's, and every
    # window stays in 1..K above its level, the constructor's other checks
    g = object.__new__(_Draft)
    g.d, g.coeffs, g.windows, g.scale_log = d, tuple(coeffs), tuple(windows), f.scale_log + t
    g.subst_log, g.origin, g._levels, g.K, g.s = tuple(subst), f.root(), tuple(levels), K, f.s
    g.__class__ = AdditiveForm
    return g


def normalize(f: AdditiveForm) -> tuple[AdditiveForm, int]:
    """Rotate levels so every prefix of the level distribution holds its
    proportional share: d * (s_0 + ... + s_j) >= (j+1) * s for all j.
    Shifting by t starts the counts at level p = -t mod d; by the cycle
    lemma the valid p are those of least prefix sum of d * count - s, so
    one exists.  The smallest t wins: 0 if p = 0 is valid, else d minus
    the largest valid p.  The levels are counted mod d, so a form with a
    level at or above d is reduced and rotated in one frame."""
    d, s = f.d, f.s
    mass = [0] * d  # d times each level's count
    reduced = True
    try:
        for lvl in f._levels:
            mass[lvl] += d
    except IndexError:  # a level at or above d: count every level mod d
        mass, reduced = [0] * d, False
        for lvl in f._levels:
            mass[lvl % d] += d
    pref = low = start = 0
    for p in range(1, d):
        pref += mass[p - 1] - s
        if pref < low or (pref == low and start):
            low, start = pref, p
    t = -start % d
    return (f if t == 0 and reduced else _reframe(f, t)), t
