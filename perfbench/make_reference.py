"""Rebuild perfbench/reference.json, the frozen verdicts the below-threshold
workload is checked against.  Takes a few minutes; run from the repository
root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It covers every form of the workload.  Where the oracle modulus
M = max level + 3 is within the oracle policy (M <= 10) the verdict comes
from `decide_isotropy_exhaustive`; above it, from the pipeline of the
commit that built the table, with every ISOTROPIC answer's witness
verified.  A later pipeline may turn a recorded
INCONCLUSIVE into a verdict; any other change counts as a failure.
"""

from __future__ import annotations

import json
import os
import sys

from padic_forms import (
    decide_isotropy,
    decide_isotropy_exhaustive,
    reduce_levels,
    verify_witness,
)
from padic_forms.oracle import MAX_ORACLE_M

import corpus
from worker import BELOW_PER_COUNT, DEFAULT_SEED, HERE


def verdict_of(f) -> str:
    if reduce_levels(f).max_level() + 3 <= MAX_ORACLE_M:
        dec = decide_isotropy_exhaustive(f)
        if dec.witness is not None and not verify_witness(f, dec.witness):
            raise SystemExit("oracle witness failed verification")
        return dec.verdict
    res = decide_isotropy(f)
    if res.witness is not None and not verify_witness(f, res.witness):
        raise SystemExit("pipeline witness failed verification")
    return res.verdict


def main() -> int:
    forms = corpus.below_corpus(DEFAULT_SEED, BELOW_PER_COUNT)
    table = {}
    for i, f in enumerate(forms):
        table[corpus.form_key(f)] = verdict_of(f)
        if i % 50 == 49:
            print(f"{i + 1}/{len(forms)}", file=sys.stderr, flush=True)
    doc = {"seed": DEFAULT_SEED, "oracle_max_m": MAX_ORACLE_M,
           "verdicts": {"below-threshold": dict(sorted(table.items()))}}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
