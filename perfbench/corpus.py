"""Seeded form corpus of the below-threshold workload.

The generator is the benchmark's own, so a change to the library's
sampling helpers cannot silently change a workload.  Each coefficient
gets a uniform level, a uniform nonzero residue class and uniform higher
digits; forms are built through the public `AdditiveForm.from_pairs`.

The corpus is stratified on the largest level, which
fixes the oracle modulus M = max level + 3: for every (degree, variable
count) it holds the same number of forms, with largest levels at fixed
quantiles of the distribution a uniform draw gives.  The levels under the
maximum, the residue classes and the digits stay uniform.

Its cost is still carried by a handful of forms: a search that exhausts
without a certificate costs from 0.1 s at 8 variables to the 15 s budget
cut at 12 or more, and an M = 10 oracle call about a second, while most
forms take a millisecond or two.  A fresh draw of a few hundred forms per
seed would move throughput by a factor of two between seeds, so the
benchmark always solves the default seed's below-threshold forms and lets
the workload seed choose their order only.
"""

from __future__ import annotations

import hashlib
import json
import random

from padic_forms import AdditiveForm

# (degree, variable counts, highest level) of each stratum
STRATA = ((6, tuple(range(8, 17)), 5), (10, tuple(range(2, 17)), 9))


def form_key(f: AdditiveForm) -> str:
    """Stable short name of a form for the reference table."""
    text = json.dumps(f.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def make_form(rng: random.Random, d: int, levels) -> AdditiveForm:
    """A form with the given coefficient levels, a uniform nonzero residue
    class per coefficient and uniform digits above it."""
    K = d + 4  # the library's default working precision
    mask = (1 << K) - 1
    pairs = []
    for lvl in levels:
        cls = rng.randrange(1, 4)
        a = (cls & 1) | (rng.getrandbits(K - 1) << 1)
        b = (cls >> 1) | (rng.getrandbits(K - 1) << 1)
        pairs.append(((a << lvl) & mask, (b << lvl) & mask))
    return AdditiveForm.from_pairs(d, pairs, K)


def levels_with_max(rng: random.Random, s: int, top: int) -> list[int]:
    """Uniform levels in [0, top] conditioned on the largest being top."""
    while True:
        levels = [rng.randrange(0, top + 1) for _ in range(s)]
        if max(levels) == top:
            return levels


def max_level_quantiles(s: int, top: int, n: int) -> list[int]:
    """Largest level of s uniform levels in [0, top], at the n midpoint
    quantiles (i + 1/2) / n of its distribution."""
    out = []
    for i in range(n):
        q = (i + 0.5) / n
        L = 0
        while ((L + 1) / (top + 1)) ** s < q:
            L += 1
        out.append(L)
    return out


def below_corpus(seed: int, per_count: dict[int, int]) -> list[AdditiveForm]:
    """per_count[d] forms for every variable count of degree d, with largest
    levels at fixed quantiles; degrees interleaved."""
    rng = random.Random(seed)
    by_degree = []
    for d, counts, top in STRATA:
        forms = []
        for s in counts:
            for L in max_level_quantiles(s, top, per_count[d]):
                forms.append(make_form(rng, d, levels_with_max(rng, s, L)))
        by_degree.append(forms)
    out = []
    for pair in zip(*by_degree):
        out.extend(pair)
    return out
