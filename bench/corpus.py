"""How the seed of the fixed membership corpus is chosen.

    python3 bench/corpus.py

The corpus (``workloads.fixed_membership_ops``) holds the membership
inputs on which the program fails on some draws and not on others, so it
is drawn from one seed, ``workloads.FIXED_SEED``, in every run.  This
script draws the corpus from each of the seeds in ``RATE_SEEDS`` and
prints, for each kind of operation and order, the share that failed.
It then prints the first seed from 0 up whose corpus fails on exactly
round(share x count) operations of each kind and order: a corpus whose
failures are as typical as its size allows.  That seed is
``FIXED_SEED``.
"""

from __future__ import annotations

import os

# One BLAS thread, as in run.py, so that the answers are the same.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import causalcurves  # noqa: E402,F401  (workloads call the package through sys.modules)
import workloads  # noqa: E402

RATE_SEEDS = range(1000, 1100)
SEARCH_LIMIT = 500


def failures(seed):
    """Failed operations of one corpus by name, and the unexpected ones."""
    failed, unexpected = Counter(), []
    for op in workloads.fixed_membership_ops(seed):
        outcome = workloads.execute(op)
        if outcome.error is not None:
            failed[op.name] += 1
            if not outcome.expected:
                unexpected.append(f"{op.name}: {outcome.error}")
    return failed, unexpected


def main():
    per_corpus = Counter(op.name for op in workloads.fixed_membership_ops(0))
    failed = Counter()
    for seed in RATE_SEEDS:
        got, unexpected = failures(seed)
        if unexpected:
            sys.exit(f"seed {seed}: failures that are no known fault: {unexpected}")
        failed.update(got)
    draws = len(RATE_SEEDS)
    target = {name: round(failed[name] / draws) for name in per_corpus}
    print(f"failed share over the corpora of seeds {RATE_SEEDS.start}-{RATE_SEEDS.stop - 1}:\n")
    print("| operation | per corpus | draws | failed | share | expected per corpus |")
    print("|---|---|---|---|---|---|")
    for name, count in per_corpus.items():
        n = count * draws
        print(f"| {name} | {count} | {n} | {failed[name]} | {failed[name] / n:.4f} | {failed[name] / draws:.2f} |")
    total = sum(per_corpus.values()) * draws
    print(f"| all | {sum(per_corpus.values())} | {total} | {sum(failed.values())} "
          f"| {sum(failed.values()) / total:.4f} | {sum(failed.values()) / draws:.2f} |")
    for seed in range(SEARCH_LIMIT):
        got, unexpected = failures(seed)
        if not unexpected and all(got[name] == target[name] for name in per_corpus):
            print(f"\nfirst seed whose corpus fails on the rounded expected number of each: {seed}"
                  f" ({sum(got.values())} failed); FIXED_SEED is {workloads.FIXED_SEED}")
            return
    sys.exit(f"no seed below {SEARCH_LIMIT} matches")


if __name__ == "__main__":
    main()
