"""Exhaustive ground truth modulo 2^M.

Every d-th power in O/2^M O is 2^(jd) times a unit d-th power, so the
achievable values per variable form a small explicit set.  For d = 2m
with m odd the unit d-th powers are the multiplier reps times 1 + 8O, so
the value tables are read off the reps' residues mod 8; a full
enumeration of x^d cross-checks them for every 4^M <= 10^6.  A dynamic
program over partial sums (the full additive group O/2^M, a 2^M x 2^M
torus) decides whether some assignment with a liftable unit variable sums
to zero.  At M = max coefficient level + 3 this is a complete isotropy
criterion: a hit lifts by Newton, a miss is an anisotropy proof.

Transitions are boolean convolutions on the torus, done by FFT on counts
and thresholding.  Each variable's step transforms the two DP layers and
its two value grids once; the unit-flag layer's two sources share one
inverse FFT of their summed spectra, since a cell counted twice still
reads as reached.  A count is at most 3 * 4^M <= 3 * 2^20, far below
2^53, so float64 is exact enough, and every inverse checks that its
output is integral before it is thresholded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import ExhaustionCertificate
from .errors import CertificateError, OracleBudgetError, PadicFormsError, PrecisionMismatch
from .forms import AdditiveForm, reduce_levels
from .ring import RingElem, dth_root, multiplier_set, mul_pair, pow_pair
from .witness import Witness, exact_coeffs, map_to_origin, solve_anchor, verify_witness

MAX_ORACLE_M = 10  # 2 * 4^M boolean cells per DP layer


def _pow_vec(xa, xb, d: int, mask: int):
    """Componentwise (xa + xb*w)^d on int64 arrays, masked each step."""
    ra = np.ones_like(xa)
    rb = np.zeros_like(xb)
    e = d
    while e:
        if e & 1:
            ra, rb = (ra * xa + rb * xb) & mask, (ra * xb + rb * xa + rb * xb) & mask
        e >>= 1
        if e:
            xa, xb = (xa * xa + xb * xb) & mask, (2 * xa * xb + xb * xb) & mask
    return ra, rb


def _unit_power_codes(d: int, L: int) -> np.ndarray:
    """Sorted codes (a << L) | b of {u^d : u unit mod 2^L}.  For d = 2m
    with m odd the unit d-th powers are the multiplier reps times 1 + 8O,
    so mod 2^L they are the units whose residue mod 8 is a rep's: for
    L >= 3 each of the 2 or 6 rep residues plus 8 * (0..2^(L-3) - 1) in
    both components, for L < 3 those residues reduced mod 2^L.  They are
    read off a presence table over (a, b), tiled from the one mod 8."""
    n = 1 << L
    low = min(n, 8) - 1
    table = np.zeros((low + 1, low + 1), dtype=bool)
    for r in multiplier_set(d, 3).reps:
        table[r.value.a & low, r.value.b & low] = True
    if n > 8:
        table = np.tile(table, (n // 8, n // 8))
    return np.flatnonzero(table).astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class PowerValueSet:
    """The nonzero values A + B*w of x^d mod 2^M, by shift: codes[j] holds
    the sorted codes (A << M) | B of those that are 2^(jd) times a unit
    d-th power."""

    d: int
    M: int
    codes: tuple[np.ndarray, ...]

    def root_of(self, value: tuple[int, int]) -> RingElem:
        """A residue x mod 2^M with x^d = value mod 2^M."""
        a, b = value
        if a == 0 and b == 0:
            return RingElem.zero(self.M)
        jd = RingElem(a, b, self.M).valuation()
        assert jd % self.d == 0
        j = jd // self.d
        L = self.M - jd
        u = dth_root(RingElem(a >> jd, b >> jd, L), self.d)
        return RingElem(u.a << j, u.b << j, self.M)


_PVS_CACHE: dict = {}


def _check_modulus(M: int) -> None:
    if M < 1:
        raise PrecisionMismatch(f"oracle modulus 2^{M} is below 2^1")
    if M > MAX_ORACLE_M:
        raise OracleBudgetError(f"modulus 2^{M} exceeds the oracle policy")


def power_value_set(d: int, M: int) -> PowerValueSet:
    _check_modulus(M)
    key = (d, M)
    got = _PVS_CACHE.get(key)
    if got is not None:
        return got
    codes = []
    j = 0
    while j * d < M:
        L = M - j * d
        units = _unit_power_codes(d, L)  # at j = 0 these are the codes
        if j:
            # (a, b) -> (a << jd, b << jd) keeps the order of the codes
            a = (units >> L) << (j * d)
            b = (units & ((1 << L) - 1)) << (j * d)
            units = (a << M) | b
        codes.append(units)
        j += 1
    pvs = PowerValueSet(d, M, tuple(codes))
    if 4 ** M <= 10 ** 6:
        ours = np.sort(np.concatenate([np.zeros(1, np.int64), *codes]))
        if not np.array_equal(ours, _brute_power_codes(d, M)):
            raise PadicFormsError(f"power value set (d={d}, M={M}) disagrees with brute force")
    _PVS_CACHE[key] = pvs
    return pvs


_BRUTE_BLOCK = 1 << 14  # residues x per block of the brute-force enumeration


def _brute_power_codes(d: int, M: int) -> np.ndarray:
    """Sorted distinct codes (A << M) | B of x^d over every x mod 2^M: a
    full enumeration, a block of rows (x's a-component) at a time, that
    marks a presence table over all 4^M codes."""
    mask = (1 << M) - 1
    n = 1 << M
    present = np.zeros(n * n, dtype=bool)
    rows = min(n, max(1, _BRUTE_BLOCK >> M))
    xb = np.tile(np.arange(n, dtype=np.int64), rows)
    for a0 in range(0, n, rows):
        xa = np.repeat(np.arange(a0, a0 + rows, dtype=np.int64), n)
        ra, rb = _pow_vec(xa, xb, d, mask)
        present[(ra << M) | rb] = True
    return np.flatnonzero(present)


# ---------------------------------------------------------------------------
# primitive zeros mod 2^M


@dataclass
class ZeroSearch:
    found: bool
    assignment: tuple | None  # variable roots mod 2^M
    anchor: int | None  # index of the liftable unit variable
    states_visited: int
    M: int


def _hits(spectrum: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The cells whose count, the inverse FFT of spectrum, is positive."""
    out = np.fft.irfft2(spectrum, s=shape)
    counts = np.rint(out)
    if np.abs(out - counts).max() >= 0.25:
        raise PadicFormsError("FFT convolution lost exactness; counts are not integral")
    return counts > 0


def _grid_of(codes: np.ndarray, M: int) -> np.ndarray:
    n = 1 << M
    g = np.zeros((n, n), dtype=bool)
    g[codes & (n - 1), codes >> M] = True
    return g


def _translate(c: RingElem, vals: np.ndarray, M: int):
    """The sorted distinct grid codes a + (b << M) of c * value mod 2^M,
    over power-value codes (A << M) | B, and per grid code the first value
    in the order of vals that gives it (a stable sort keeps that order)."""
    mask = (1 << M) - 1
    ca, cb = c.a & mask, c.b & mask
    va, vb = vals >> M, vals & mask
    code = ((ca * va + cb * vb) & mask) | (((ca * vb + cb * va + cb * vb) & mask) << M)
    order = np.argsort(code, kind="stable")
    s = code[order]
    first = np.ones(len(s), bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first], vals[order[first]]


def _liftable_level(M: int, max_unit_level: int | None) -> int:
    """max_unit_level, by default M - 3.  Below 0 no variable may carry the
    unit, so a search mod 2^M could find nothing: that is a ValueError."""
    if max_unit_level is None:
        max_unit_level = M - 3
    if max_unit_level < 0:
        raise ValueError(
            f"max_unit_level {max_unit_level} is below 0: no variable may carry the unit, "
            f"so the search mod 2^{M} could find nothing (the default M - 3 needs M >= 3)"
        )
    return max_unit_level


def primitive_zero_mod(
    f: AdditiveForm, M: int, max_unit_level: int | None = None
) -> ZeroSearch:
    """Search O/2^M for a zero using at least one unit variable whose
    coefficient level allows lifting (level <= max_unit_level, default
    M - 3).  Complete within the modulus: NONE means no such zero exists
    for any completion of the coefficients.  A max_unit_level below 0
    would let no variable carry the unit, so it is a ValueError."""
    _check_modulus(M)
    assert f.is_reduced()
    if min(f.windows) < M:
        raise PrecisionMismatch(
            f"coefficients trusted below 2^{M}; oracle verdict would not "
            "cover all completions"
        )
    max_unit_level = _liftable_level(M, max_unit_level)
    pvs = power_value_set(f.d, M)
    mask = (1 << M) - 1
    n = 1 << M

    # power values as their codes (A << M) | B, in table order
    unit_vals = pvs.codes[0]
    rest_vals = np.concatenate([np.zeros(1, np.int64), *pvs.codes[1:]])
    every_val = np.concatenate([rest_vals, unit_vals])

    per_var = []
    for c in f.coeffs:
        liftable = c.valuation() <= max_unit_level
        flag_codes, flag_src = _translate(c, unit_vals if liftable else unit_vals[:0], M)
        plain_codes, plain_src = _translate(c, rest_vals if liftable else every_val, M)
        per_var.append((flag_codes, flag_src, plain_codes, plain_src))

    def fft_of(grid):
        return np.fft.rfft2(grid.astype(np.float64))

    S0 = np.zeros((n, n), dtype=bool)
    S0[0, 0] = True
    S1 = np.zeros((n, n), dtype=bool)
    # the layers in force before each variable, kept for the backtrack
    # bit-packed along the rows (cell [r, c] is bit c & 7 of byte c >> 3)
    layers = []
    visited = 1
    for flag_codes, _, plain_codes, _ in per_var:
        layers.append((np.packbits(S0, axis=-1, bitorder="little"),
                       np.packbits(S1, axis=-1, bitorder="little")))
        F_flag = fft_of(_grid_of(flag_codes, M))
        F_plain = fft_of(_grid_of(plain_codes, M))
        F0, F1 = fft_of(S0), fft_of(S1)
        # products in place and each spectrum (8.4 MB at M = 10) dropped
        # once used: four live spectra would lift the step's peak memory
        F1 *= F_flag + F_plain
        F1 += F0 * F_flag
        F0 *= F_plain
        del F_flag, F_plain
        S1, S0 = _hits(F1, S1.shape), _hits(F0, S0.shape)
        del F0, F1
        visited += int(S0.sum()) + int(S1.sum())
    if not S1[0, 0]:
        return ZeroSearch(False, None, None, visited, M)

    # walk the layers backward, peeling one variable's value at a time: the
    # first code in sorted order whose remainder the layer below reaches
    assignment_vals = [None] * f.s
    anchor = None
    ta, tb, flag = 0, 0, True
    for i in range(f.s - 1, -1, -1):
        S0_prev, S1_prev = layers[i]
        flag_codes, flag_src, plain_codes, plain_src = per_var[i]
        if flag:  # the unit here, or the flag still to come below
            tries = ((S0_prev, flag_codes, flag_src, False),
                     (S1_prev, plain_codes, plain_src, True),
                     (S1_prev, flag_codes, flag_src, True))
        else:
            tries = ((S0_prev, plain_codes, plain_src, False),)
        for S, codes, src, below in tries:
            col = (tb - (codes >> M)) & mask
            hit = S[(ta - (codes & mask)) & mask, col >> 3] >> (col & 7) & 1
            if hit.any():
                k = int(hit.argmax())
                break
        else:
            raise CertificateError("backtracking lost the DP trail")
        if flag and not below:
            anchor = i
        code, value, flag = int(codes[k]), int(src[k]), below
        assignment_vals[i] = (value >> M, value & mask)
        ta = (ta - (code & mask)) & mask
        tb = (tb - (code >> M)) & mask
    if (ta, tb) != (0, 0) or flag:
        raise CertificateError("backtracking did not end at the empty sum")
    roots = tuple(pvs.root_of(pv) for pv in assignment_vals)
    return ZeroSearch(True, roots, anchor, visited, M)


# ---------------------------------------------------------------------------
# full exhaustive decision


@dataclass
class OracleDecision:
    verdict: str  # "ISOTROPIC" | "ANISOTROPIC"
    witness: Witness | None
    certificate: ExhaustionCertificate | None
    states_visited: int


def decide_isotropy_exhaustive(f: AdditiveForm) -> OracleDecision:
    """Complete decision at M = max level + 3: every unit variable is then
    liftable, so a missing primitive zero mod 2^M rules out zeros outright
    and a found one Newton-lifts to a verified witness."""
    g = reduce_levels(f)
    M = g.max_level() + 3
    zs = primitive_zero_mod(g, M)
    if not zs.found:
        return OracleDecision(
            "ANISOTROPIC", None, ExhaustionCertificate(M, zs.states_visited), zs.states_visited
        )
    K = g.K
    vals = [RingElem(x.a, x.b, K) for x in zs.assignment]
    terms = [mul_pair(c.a, c.b, *pow_pair(x.a, x.b, g.d, 1 << K))
             for c, x in zip(exact_coeffs(g, K), vals)]
    anchor = terms.pop(zs.anchor)
    rest = (sum(t[0] for t in terms), sum(t[1] for t in terms))
    vals[zs.anchor] = vals[zs.anchor] * RingElem(*solve_anchor(anchor, rest, g.d, K), K)
    w = map_to_origin(g, ((j, x.a, x.b) for j, x in enumerate(vals)), zs.anchor, K)
    if not verify_witness(f.root(), w):
        raise CertificateError("oracle witness failed verification")
    return OracleDecision("ISOTROPIC", w, None, zs.states_visited)
