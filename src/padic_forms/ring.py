"""Exact arithmetic in O / 2^K O, where O = Z2[w] and w^2 = w + 1.

O is the ring of integers of the unramified quadratic extension of the
2-adic field; 2 stays prime and the residue field has four elements
{0, 1, w, 1+w}.  An element is a pair (a, b) meaning a + b*w with both
components reduced modulo 2^K.  The only precision that ever matters is
the power of 2, so valuations, residues and Hensel lifting are
all plain bit manipulation on the two components.

Everything in this module is immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DegreeShapeError,
    HenselError,
    NotADthPower,
    NotAUnit,
    PrecisionMismatch,
    SelfCheckError,
)

INFINITE = math.inf  # valuation sentinel: means ">= K", a lower bound only


# ---------------------------------------------------------------------------
# residue field


class F4:
    """Residue-field element, coded in two bits: bit 0 is the coefficient
    of 1, bit 1 the coefficient of w.  Addition is xor; the three nonzero
    elements form a cyclic group of order three under multiplication."""

    __slots__ = ("code",)

    _MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
    _NAMES = ("0", "1", "w", "1+w")

    def __init__(self, code: int):
        assert 0 <= code < 4
        object.__setattr__(self, "code", code)

    def __setattr__(self, *_):
        raise AttributeError("F4 is immutable")

    def __add__(self, other: "F4") -> "F4":
        return F4(self.code ^ other.code)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "F4") -> "F4":
        return F4(self._MUL[self.code][other.code])

    def __eq__(self, other):
        return isinstance(other, F4) and self.code == other.code

    def __hash__(self):
        return hash(("F4", self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"F4({self._NAMES[self.code]})"


F4.ZERO = F4(0)
F4.ONE = F4(1)
F4.A = F4(2)
F4.A1 = F4(3)


# ---------------------------------------------------------------------------
# raw pair helpers (used by hot loops that skip RingElem allocation)


def mul_pair(a: int, b: int, c: int, d: int, mod: int):
    """(a + b*w)(c + d*w) = (ac + bd) + (ad + bc + bd) w, from w^2 = w + 1,
    modulo mod, a power of 2."""
    assert mod > 0 and not mod & (mod - 1), "mod a power of 2"
    mask = mod - 1
    bd = b * d
    return (a * c + bd) & mask, (a * d + b * c + bd) & mask


def pow_pair(a: int, b: int, e: int, mod: int):
    """(a + b*w)^e modulo mod, a power of 2, by left-to-right binary
    powering: one squaring per bit below the top one, one multiplication
    per set bit among them, each masked as it is formed.  The package's
    one power loop on int pairs."""
    assert e >= 0 and mod > 0 and not mod & (mod - 1), "e >= 0 and mod a power of 2"
    if e == 0:
        return 1, 0
    mask = mod - 1
    a, b = a & mask, b & mask
    ra, rb = a, b
    for bit in bin(e)[3:]:
        sq = rb * rb  # (x + y*w)^2 = x^2 + y^2 + (2xy + y^2) w
        ra, rb = (ra * ra + sq) & mask, (2 * ra + rb) * rb & mask
        if bit == "1":
            bd = rb * b
            ra, rb = (ra * a + bd) & mask, (ra * b + rb * a + bd) & mask
    return ra, rb


def inv_unit_pair(a: int, b: int, mod: int) -> tuple[int, int]:
    """Inverse of a unit a + b*w modulo mod = 2^K.

    (a + b*w)((a+b) - b*w) = a^2 + ab - b^2, an odd integer for units,
    so the inverse is ((a+b)*t, -b*t) with t the integer inverse of that."""
    det = a * a + a * b - b * b
    assert det % 2 != 0, "not a unit"
    t = pow(det, -1, mod)
    return ((a + b) * t) % mod, (-b * t) % mod


def val_pair(a: int, b: int) -> int | float:
    """min(v2(a), v2(b)): the lowest set bit of a | b."""
    x = a | b
    if x == 0:
        return INFINITE
    return (x & -x).bit_length() - 1


# ---------------------------------------------------------------------------
# ring elements


class RingElem:
    """Residue a + b*w modulo 2^K.  Arithmetic requires equal K on both
    operands; use reduce_to for an explicit precision change."""

    __slots__ = ("a", "b", "K")

    def __init__(self, a: int, b: int, K: int):
        assert K >= 1
        mask = (1 << K) - 1
        _set_a(self, a & mask)
        _set_b(self, b & mask)
        _set_K(self, K)

    def __setattr__(self, *_):
        raise AttributeError("RingElem is immutable")

    # constructors
    @classmethod
    def zero(cls, K: int) -> "RingElem":
        return cls(0, 0, K)

    @classmethod
    def one(cls, K: int) -> "RingElem":
        return cls(1, 0, K)

    def _chk(self, other: "RingElem"):
        if not isinstance(other, RingElem):
            raise TypeError(f"expected RingElem, got {type(other).__name__}")
        if other.K != self.K:
            raise PrecisionMismatch(f"precision mismatch: 2^{self.K} vs 2^{other.K}")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._chk(other)
        return RingElem(self.a + other.a, self.b + other.b, self.K)

    def __sub__(self, other: "RingElem") -> "RingElem":
        self._chk(other)
        return RingElem(self.a - other.a, self.b - other.b, self.K)

    def __neg__(self) -> "RingElem":
        return RingElem(-self.a, -self.b, self.K)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._chk(other)
        x, y = mul_pair(self.a, self.b, other.a, other.b, 1 << self.K)
        return RingElem(x, y, self.K)

    def __pow__(self, e: int) -> "RingElem":
        x, y = pow_pair(self.a, self.b, e, 1 << self.K)
        return RingElem(x, y, self.K)

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and self.K == other.K
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.a, self.b, self.K))

    def __repr__(self):
        return f"RingElem({format_elem(self.a, self.b)} mod 2^{self.K})"

    def __str__(self):
        return format_elem(self.a, self.b)

    # predicates / queries
    def is_unit(self) -> bool:
        return (self.a | self.b) & 1 == 1

    def valuation(self) -> int | float:
        """min of the component 2-adic valuations; INFINITE means >= K."""
        return val_pair(self.a, self.b)

    def residue(self) -> F4:
        return F4((self.a & 1) | ((self.b & 1) << 1))

    # precision moves
    def reduce_to(self, K2: int) -> "RingElem":
        assert 1 <= K2 <= self.K
        return RingElem(self.a, self.b, K2)


# the slot descriptors write past the raising __setattr__, and are
# cheaper to call than object.__setattr__
_set_a, _set_b, _set_K = RingElem.a.__set__, RingElem.b.__set__, RingElem.K.__set__
_new = object.__new__


def reduced_elem(a: int, b: int, K: int) -> RingElem:
    """RingElem(a, b, K) for components already reduced mod 2^K, built
    past the constructor's mask: for hot paths whose inputs are masked or
    shifted down from reduced values."""
    x = _new(RingElem)
    _set_a(x, a)
    _set_b(x, b)
    _set_K(x, K)
    return x


# ---------------------------------------------------------------------------
# element text syntax: "a+b*w"


def format_elem(a: int, b: int) -> str:
    if b == 0:
        return str(a)
    wpart = f"{b}*w"
    if a == 0:
        return wpart
    return f"{a}+{wpart}" if b >= 0 else f"{a}{wpart}"


_TERM = re.compile(r"[+-]?(?:(?:\d+\*)?w|\d+)")


def parse_elem(text: str) -> tuple[int, int]:
    """Parse "a", "b*w", "w", or "a+b*w" (whitespace tolerated, b may be negative)."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty element")
    a = b = 0
    pos = 0
    while pos < len(s):
        if pos > 0 and s[pos] not in "+-":
            raise ValueError(f"bad element syntax: {text!r}")
        m = _TERM.match(s, pos)
        if m is None:
            raise ValueError(f"bad element syntax: {text!r}")
        term = m.group()
        pos = m.end()
        if term.endswith("w"):
            coeff = term[:-1].rstrip("*")
            if coeff in ("", "+"):
                b += 1
            elif coeff == "-":
                b -= 1
            else:
                b += int(coeff)
        else:
            a += int(term)
    return a, b


# ---------------------------------------------------------------------------
# d-th powers of units


def teichmuller_alpha(K: int) -> RingElem:
    """The cube root of unity congruent to w mod 2, via the stable limit of
    x -> x^4 starting from w (gains two trusted digits per step)."""
    mod = 1 << K
    a, b = 0, 1
    for _ in range(K + 2):
        na, nb = pow_pair(a, b, 4, mod)
        if (na, nb) == (a, b):
            break
        a, b = na, nb
    w = RingElem(a, b, K)
    if w ** 3 != RingElem.one(K) or w.residue() != F4.A:
        raise SelfCheckError(f"no cube root of unity congruent to w found at precision {K}")
    return w


@dataclass(frozen=True)
class MultiplierRep:
    """One unit d-th power usable as a contraction multiplier: value with a
    stored root (root ** d == value), and the epsilon telling whether it
    carries the extra 1+4 factor mod 8."""

    value: RingElem
    root: RingElem
    epsilon: int


@dataclass(frozen=True)
class MultiplierSet:
    """Canonical unit d-th powers: one rep per residue class the d-th power
    map hits, times epsilon in {0, 1}.  Two reps when 3 | d, six otherwise
    (then the map is transitive on nonzero classes)."""

    d: int
    K: int
    reps: tuple[MultiplierRep, ...]


def check_degree_shape(d: int):
    try:
        operator.index(d)
    except TypeError:
        raise DegreeShapeError(f"degree must be an integer, got {d!r}") from None
    if d < 2 or d % 2 != 0 or (d // 2) % 2 != 1:
        raise DegreeShapeError(
            f"degree must be 2m with m odd (got {d}); other degrees are "
            "out of scope for the contraction machinery"
        )


_MULTIPLIER_CACHE: dict[tuple[int, int], MultiplierSet] = {}


def multiplier_set(d: int, K: int) -> MultiplierSet:
    """The multiplier reps of degree d at precision K, built once per pair.
    Only a checked degree is cached, so an int degree that finds its set
    skips the check; any other degree (a float equal to one, say) is
    checked first."""
    if type(d) is int:
        cached = _MULTIPLIER_CACHE.get((d, K))
        if cached is not None:
            return cached
    check_degree_shape(d)
    assert K >= 1
    key = (d, K)
    cached = _MULTIPLIER_CACHE.get(key)
    if cached is not None:
        return cached

    KK = max(K, 4)  # construction wants a mod-16 window; reduce afterwards
    m = d // 2
    one = RingElem.one(KK)
    five_m = RingElem(5, 0, KK) ** m  # (2w - 1)^d, congruent to 5 mod 8
    root5 = RingElem(-1, 2, KK)
    reps = [
        MultiplierRep(one, one, 0),
        MultiplierRep(five_m, root5, 1),
    ]
    if d % 3 != 0:
        w = teichmuller_alpha(KK)
        j = 1 if d % 3 == 1 else 2  # omega = (omega^j)^d
        rw = w ** j
        w2 = w * w
        rw2 = rw * rw
        reps += [
            MultiplierRep(w, rw, 0),
            MultiplierRep(w * five_m, rw * root5, 1),
            MultiplierRep(w2, rw2, 0),
            MultiplierRep(w2 * five_m, rw2 * root5, 1),
        ]
    for r in reps:
        if not r.root.is_unit() or r.root ** d != r.value:
            raise SelfCheckError(f"multiplier {r.value} of degree {d}: stored root is no unit d-th root")
        # independent root extraction must also succeed
        if dth_root(r.value, d) ** d != r.value:
            raise SelfCheckError(f"multiplier {r.value} of degree {d}: dth_root found no root")
    if KK != K:
        reps = [
            MultiplierRep(r.value.reduce_to(K), r.root.reduce_to(K), r.epsilon)
            for r in reps
        ]
    ms = MultiplierSet(d=d, K=K, reps=tuple(reps))
    _MULTIPLIER_CACHE[key] = ms
    return ms


# ---------------------------------------------------------------------------
# root extraction (Hensel / Newton)


@lru_cache(maxsize=None)
def _seed_table(d: int, L: int) -> dict[tuple[int, int], tuple[int, int]]:
    """x^d mod 2^L for every unit x mod 2^L, first root wins (deterministic)."""
    mod = 1 << L
    table = {}
    for a in range(mod):
        for b in range(mod):
            if (a | b) & 1:
                table.setdefault(pow_pair(a, b, d, mod), (a, b))
    return table


@lru_cache(maxsize=None)
def _anchor_seed_table(d: int) -> array:
    """t mod 512 -> its d-th root in 1 + 4O, mod 256, for every t in 1 + 8O,
    packed as 12-bit codes: t = (1 + 8i) + 8j w sits at index i | j << 6
    and holds p | q << 6 for the root (1 + 4p) + 4q w.

    x -> x^d maps 1 + 4O onto 1 + 8O one to one (squaring does, and so
    does the odd power d/2), and x^d mod 512 depends on x mod 256 only, so
    the 4096 classes x mod 256 meet the 4096 classes t mod 512 once each.
    A seed from here leaves a residual of valuation >= 9, which one step
    of `_newton_root` takes to >= 16.

    The classes are walked as x = 5^i (1 + 4w)^j, i, j < 64: 1 + 4O is
    4O under the logarithm, and the logarithms of 5 and 1 + 4w, 4 and 4w
    mod 8, span 4O / 8O, so these x meet every class mod 256 once.  Then
    x^d = (5^d)^i ((1 + 4w)^d)^j costs two products per entry.  Built at
    the degree's first anchor solve (a few ms), 8 KB per degree."""
    table = array("H", bytes(8192))
    f = pow_pair(5, 0, d, 512)[0]  # 5^d, an integer
    ga, gb = pow_pair(1, 4, d, 512)  # (1 + 4w)^d
    r, x = 1, 1  # (5^d)^i mod 512, 5^i mod 256
    for _ in range(64):
        ta, tb, ya, yb = r, 0, x, 0
        for _ in range(64):
            table[ta >> 3 | tb >> 3 << 6] = ya >> 2 | yb >> 2 << 6
            bd = tb * gb  # t times (1 + 4w)^d, y times 1 + 4w
            ta, tb = (ta * ga + bd) & 511, (ta * gb + tb * ga + bd) & 511
            ya, yb = (ya + 4 * yb) & 255, (4 * ya + 5 * yb) & 255
        r, x = r * f & 511, x * 5 & 255
    return table


def _newton_root(seed: tuple[int, int], d: int, t: tuple[int, int], KK: int):
    """Lift seed to a root of f(x) = x^d - t working modulo 2^KK, t a unit.

    Valid when the seed residual has valuation v >= 3 > 2*v(d).  A seed
    from `_anchor_seed_table` (v >= 9) needs one step for KK <= 16, one
    from `dth_root`'s mod-16 table (v >= 4) three for KK <= 18.  Newton's
    step is s = f(x) / f'(x) with f'(x) = 2 * (d/2) * x^(d-1); this one
    takes s = (f(x) / 2) * x / ((d/2) t), which differs from it by the
    factor x^d / t = 1 + f(x) / t, so by an error of valuation 2v - 1.
    Either step leaves a residual of valuation >= 2v - 2 (the quadratic
    terms of (x - s)^d, s of valuation v - 1, carry the odd binomial
    d(d-1)/2), so the loop stops once that reaches KK, and one unit
    inverse, of (d/2) t, serves every step.  The pairs are kept masked
    mod 2^KK."""
    mod = 1 << KK
    mask = mod - 1
    m = d // 2
    ta, tb = t
    wa, wb = inv_unit_pair((m * ta) & mask, (m * tb) & mask, mod)
    xa, xb = seed
    for _ in range(2 * KK.bit_length() + 8):
        fa, fb = pow_pair(xa, xb, d, mod)
        fa = (fa - ta) & mask
        fb = (fb - tb) & mask
        if fa == 0 and fb == 0:
            break
        x = fa | fb
        if x & 1:
            raise HenselError("residual too shallow for Newton")
        v = (x & -x).bit_length() - 1  # the residual's valuation, val_pair inline
        ha, hb = fa >> 1, fb >> 1  # f(x) / 2 times x, then times 1 / ((d/2) t)
        bd = hb * xb
        ga, gb = ha * xa + bd, ha * xb + hb * xa + bd
        bd = gb * wb
        xa = (xa - ga * wa - bd) & mask
        xb = (xb - ga * wb - gb * wa - bd) & mask
        if 2 * v - 2 >= KK:
            break
    return xa, xb


def dth_root(t: RingElem, d: int) -> RingElem:
    """A unit x with x^d = t mod 2^K, or NotADthPower.

    The root mod 2^min(K, 4) comes from the seed table.  For K > 4 the
    candidates are exactly the solutions mod 16: any of them lifts by
    Newton since the residual valuation is >= 4 > 2 = 2*v(d), and
    conversely a root mod 2^K reduces to one mod 16."""
    if not t.is_unit():
        raise NotAUnit(f"{t} is not a unit; only unit roots are extracted")
    K = t.K
    L = min(K, 4)
    low = (1 << L) - 1
    seed = _seed_table(d, L).get((t.a & low, t.b & low))
    if seed is None:
        raise NotADthPower(f"{t} is not a d-th power mod 2^{L} (d={d})")
    if K <= 4:
        return RingElem(*seed, K)
    # x^d mod 2^(K+1) fixes x mod 2^K among the roots = seed mod 4: two
    # such roots differ by a factor 1 + e, and (1 + e)^d - 1 has
    # valuation v(e) + 1
    KK = K + 1
    xa, xb = _newton_root(seed, d, (t.a, t.b), KK)
    x = RingElem(xa, xb, K)
    if x ** d != t:
        raise HenselError(f"Newton failed to converge to a d-th root of {t} (internal error)")
    return x


def solve_anchor(anchor: tuple[int, int], rest: tuple[int, int], d: int, K: int) -> tuple[int, int]:
    """The unit z, as a pair, with anchor * z^d + rest = 0 mod 2^K: anchor
    is the anchor's term c * x^d and rest the sum of the other terms, as
    int pairs taken mod 2^K; the caller scales x_anchor by z.  The seed
    z = 1 must already satisfy valuation(anchor + rest) >= k + 3, where
    k = valuation(anchor) = valuation(rest); a refusal here means the
    incoming certificate was not sound."""
    mask = (1 << K) - 1
    (fa, fb), (ca, cb) = anchor, rest
    fa, fb, ca, cb = fa & mask, fb & mask, ca & mask, cb & mask
    x, y = fa | fb, ca | cb  # the valuations are their lowest set bits
    if not x or not y:
        raise HenselError("anchor coefficient or target vanishes at this precision")
    k = (x & -x).bit_length() - 1
    c_level = (y & -y).bit_length() - 1
    if c_level != k:
        raise HenselError(f"valuation mismatch: coefficient level {k}, target level {c_level}")
    if K < k + 3:
        raise HenselError(f"precision 2^{K} cannot show a residual of valuation {k + 3}")
    res = val_pair((fa + ca) & mask, (fb + cb) & mask)
    if res < k + 3:
        raise HenselError(f"residual valuation {res} < {k + 3}: certificate invalid")
    KK = K + 1  # enough to fix x mod 2^K, as in dth_root
    wide = (mask << 1) | 1  # mod 2^KK
    ia, ib = inv_unit_pair(fa >> k, fb >> k, wide + 1)
    na, nb = -(ca >> k) & wide, -(cb >> k) & wide
    bd = nb * ib  # t = -(C / 2^k) / (f / 2^k), the product as in mul_pair, inline
    ta, tb = (na * ia + bd) & wide, (na * ib + nb * ia + bd) & wide
    # t = 1 mod 8 by the residual check; its root mod 256 leaves one
    # Newton step for KK <= 16, where a seed of 1 would need four
    code = _anchor_seed_table(d)[ta >> 3 & 63 | (tb >> 3 & 63) << 6]
    xa, xb = _newton_root((1 + ((code & 63) << 2), code >> 6 << 2), d, (ta, tb), KK)
    xa, xb = xa & mask, xb & mask
    pa, pb = pow_pair(xa, xb, d, mask + 1)
    bd = fb * pb
    if (fa * pa + bd + ca) & mask or (fa * pb + fb * pa + bd + cb) & mask:
        raise HenselError("anchor solve failed to cancel (internal error)")
    return xa, xb
