"""Canonical anisotropic families, the descent verifier, and sampling runs.

The families G, H, F, I are block-structured diagonal forms whose
anisotropy is established by descent: every window of low-level variables
provably lacks a primitive zero modulo a small power of 2, which forces
the minimum-level block even; dividing the form down and repeating shows
any zero would be infinitely divisible.  All arithmetic here is exact
integer arithmetic on coefficient pairs, never truncated residues.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .errors import DegreeShapeError
from .flat import mod8_table
from .forms import AdditiveForm, default_precision
from .ring import check_degree_shape, mul_pair, val_pair


@dataclass(frozen=True)
class Block:
    level: int
    units: tuple  # three exact unit pairs, one per inner variable

    def coefficient_pairs(self):
        return tuple((a << self.level, b << self.level) for a, b in self.units)


@dataclass(frozen=True)
class BlockForm:
    d: int
    blocks: tuple

    @property
    def s(self) -> int:
        return 3 * len(self.blocks)

    def coefficient_pairs(self):
        out = []
        for blk in self.blocks:
            out.extend(blk.coefficient_pairs())
        return tuple(out)

    def max_level(self) -> int:
        return max(b.level for b in self.blocks)

    def form(self, K: int | None = None) -> AdditiveForm:
        if K is None:
            K = max(default_precision(self.d), self.max_level() + 4)
        return AdditiveForm.from_pairs(self.d, self.coefficient_pairs(), K)


_ONE = (1, 0)
_ALPHA = (0, 1)
_ALPHA1 = (1, 1)


def named_form(name: str, d: int) -> BlockForm:
    """The four standard families.

    G: one block (1, 1, alpha).  F: one block (1, 1, 1).  H: a G block at
    every even level below d, s = 3d/2.  I: a plain block at every level
    below d with units cycling 1, alpha, 1+alpha, s = 3d; needs 3 | d.
    """
    check_degree_shape(d)
    if d < 6:
        raise DegreeShapeError(f"degree {d} below the smallest supported case 6")
    if name == "G":
        return BlockForm(d, (Block(0, (_ONE, _ONE, _ALPHA)),))
    if name == "F":
        return BlockForm(d, (Block(0, (_ONE, _ONE, _ONE)),))
    if name == "H":
        blocks = tuple(
            Block(2 * i, (_ONE, _ONE, _ALPHA)) for i in range(d // 2)
        )
        return BlockForm(d, blocks)
    if name == "I":
        if d % 3 != 0:
            raise DegreeShapeError(f"family I needs 3 | d, got d={d}")
        cycle = (_ONE, _ALPHA, _ALPHA1)
        blocks = tuple(
            Block(lvl, (cycle[lvl % 3],) * 3) for lvl in range(d)
        )
        return BlockForm(d, blocks)
    raise ValueError(f"unknown family {name!r}; expected G, H, F or I")


# ---------------------------------------------------------------------------
# descent


@dataclass(frozen=True)
class DescentRound:
    index: int
    level: int  # minimum level entering the round
    modulus: int  # window obstruction checked mod 2^modulus
    window: tuple  # variable indices with level < modulus
    min_vars: tuple  # the block forced even this round
    window_values: tuple  # all achievable window sums, sorted pairs
    divided_by: int  # power of two divided out after forcing

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "level": self.level,
            "modulus": self.modulus,
            "window": list(self.window),
            "minVars": list(self.min_vars),
            "windowValues": [list(v) for v in self.window_values],
            "dividedBy": self.divided_by,
        }


@dataclass(frozen=True)
class DescentCertificate:
    d: int
    s: int
    rounds: tuple

    def to_json(self) -> dict:
        return {
            "kind": "descent",
            "degree": self.d,
            "variables": self.s,
            "rounds": [r.to_json() for r in self.rounds],
        }


@dataclass
class DescentResult:
    status: str  # "DESCENT" | "FAILURE"
    certificate: DescentCertificate | None
    failure: dict | None


def verify_descent(bf: BlockForm) -> DescentResult:
    """Run the descent schedule and record the transcript.

    Each round inspects the window of variables whose level is within 2 of
    the minimum: their terms mod 2^(min+2) depend only on d-th power
    values mod 4, so one pass over the window's variables finds every
    window sum, keeping per (sum, whether a minimum-level variable took a
    unit value) the first picks that reach it, options in reverse order.
    If no pick with a unit on a minimum-level variable sums to zero, those
    variables are forced even; their coefficients pick up 2^d and the
    whole form is divided by the new minimal power of two.  Success once
    every variable has been forced means any zero is infinitely divisible.

    The proofs also divide out the leading unit each round; we only
    divide by the power of two.  A unit factor scales every window sum by
    a unit and cannot create or destroy an obstruction.
    """
    d = bf.d
    coeffs = list(bf.coefficient_pairs())
    s = len(coeffs)
    forced = [False] * s
    # the d-th powers mod 4: 0, and the unit ones, which are the multiplier reps'
    pv_opts = sorted({(0, 0)} | {(c & 3, c >> 3 & 3) for c in mod8_table(d).products[1]},
                     reverse=True)
    rounds = []
    index = 0
    while not all(forced):
        if index > 4 * s:
            return DescentResult(
                "FAILURE", None, {"round": index, "reason": "schedule did not terminate"}
            )
        levels = [val_pair(*c) for c in coeffs]
        lmin = min(levels)
        modulus = lmin + 2
        mask = (1 << modulus) - 1
        window = [i for i in range(s) if levels[i] < modulus]
        min_vars = [i for i in range(s) if levels[i] == lmin]

        reach = {(0, 0, False): ()}
        for i in window:
            step = {}
            options = [(mul_pair(*coeffs[i], *pv, mask + 1),
                        pv != (0, 0) and levels[i] == lmin, pv) for pv in pv_opts]
            for (acc_a, acc_b, prim), picks in reach.items():
                for (ta, tb), unit, pv in options:
                    key = ((acc_a + ta) & mask, (acc_b + tb) & mask, prim or unit)
                    if key not in step:
                        step[key] = picks + (pv,)
            reach = step
        picks = reach.get((0, 0, True))
        if picks is not None:
            return DescentResult("FAILURE", None, {
                "round": index,
                "window": list(window),
                "assignment": [list(pv) for pv in picks],
            })

        for i in min_vars:
            a, b = coeffs[i]
            coeffs[i] = (a << d, b << d)
            forced[i] = True
        new_min = min(val_pair(*c) for c in coeffs)
        coeffs = [(a >> new_min, b >> new_min) for a, b in coeffs]
        rounds.append(
            DescentRound(
                index=index,
                level=lmin,
                modulus=modulus,
                window=tuple(window),
                min_vars=tuple(min_vars),
                window_values=tuple(sorted({(a, b) for a, b, _ in reach})),
                divided_by=new_min,
            )
        )
        index += 1
    return DescentResult("DESCENT", DescentCertificate(d, s, tuple(rounds)), None)


# ---------------------------------------------------------------------------
# sampling harness


@dataclass
class GammaReport:
    d: int
    s: int
    trials: int
    seed: int
    isotropic: int = 0
    anisotropic: int = 0
    refuting_examples: list = field(default_factory=list)
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "degree": self.d,
            "variables": self.s,
            "trials": self.trials,
            "seed": self.seed,
            "isotropic": self.isotropic,
            "anisotropic": self.anisotropic,
            "refutingExamples": self.refuting_examples,
        }


def sample_form(rng: random.Random, d: int, s: int, max_level: int | None = None) -> AdditiveForm:
    """Uniform level in [0, max_level], uniform nonzero residue class,
    uniform higher digits, at the default precision."""
    K = default_precision(d)
    if max_level is None:
        max_level = d - 1
    pairs = []
    for _ in range(s):
        lvl = rng.randrange(0, max_level + 1)
        cls = rng.randrange(1, 4)
        a = (cls & 1) | (rng.getrandbits(K) << 1)
        b = (cls >> 1) | (rng.getrandbits(K) << 1)
        pairs.append(((a << lvl) & ((1 << K) - 1), (b << lvl) & ((1 << K) - 1)))
    return AdditiveForm.from_pairs(d, pairs, K)


def gamma_experiment(d: int, s: int, trials: int, seed: int) -> GammaReport:
    """Sample forms and tally pipeline verdicts.  Anisotropic examples
    with more than 3d variables would contradict the expected threshold
    picture and are archived in the report."""
    from .solver import decide_isotropy

    if s < 1:
        raise ValueError(f"a gamma experiment needs at least 1 variable, got {s}")
    if trials < 1:
        raise ValueError(f"a gamma experiment needs at least 1 trial, got {trials}")
    rng = random.Random(seed)
    report = GammaReport(d, s, trials, seed)
    t0 = time.perf_counter()
    for _ in range(trials):
        f = sample_form(rng, d, s)
        res = decide_isotropy(f)
        if res.verdict == "ISOTROPIC":
            report.isotropic += 1
        else:
            report.anisotropic += 1
            if s > 3 * d:
                report.refuting_examples.append(f.to_json())
    report.elapsed = time.perf_counter() - t0
    return report


@dataclass
class AgreementReport:
    d: int
    trials: int
    seed: int
    isotropic: int = 0
    anisotropic: int = 0
    mismatches: list = field(default_factory=list)
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "degree": self.d,
            "trials": self.trials,
            "seed": self.seed,
            "isotropic": self.isotropic,
            "anisotropic": self.anisotropic,
            "mismatches": self.mismatches,
        }


def agreement_experiment(d: int, trials: int, seed: int) -> AgreementReport:
    """Cross-check the flat-kernel pipeline against the FFT oracle.

    Forms have 2 to 8 variables.  Levels stay at or below 4 so the full
    enumeration runs at a modulus of at most 2^7.  Any verdict difference
    is recorded as a mismatch.
    """
    from .oracle import decide_isotropy_exhaustive
    from .solver import decide_isotropy

    if trials < 1:
        raise ValueError(f"an agreement experiment needs at least 1 trial, got {trials}")
    rng = random.Random(seed)
    report = AgreementReport(d, trials, seed)
    t0 = time.perf_counter()
    for k in range(trials):
        s = rng.randrange(2, 9)
        f = sample_form(rng, d, s, max_level=4)
        got = decide_isotropy(f).verdict
        want = decide_isotropy_exhaustive(f).verdict
        if want == "ISOTROPIC":
            report.isotropic += 1
        else:
            report.anisotropic += 1
        if got != want:
            report.mismatches.append(
                {"trial": k, "form": f.to_json(), "pipeline": got, "oracle": want}
            )
    report.elapsed = time.perf_counter() - t0
    return report
