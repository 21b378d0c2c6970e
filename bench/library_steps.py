"""Benchmark steps that have no CLI command, run as their own process.

    python3 bench/library_steps.py stability --seed N

``stability``: the squared distance of the family B_8 to
span{(8), (6,2), (6,1,1)} through ``bounds.exact_distance_sq_to_span``.  The
seed picks a permutation pi and the step works on pi B_8 pi^-1; conjugation
leaves the distance unchanged, so the printed report depends on the seed only
through its echo.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from snspectra import bounds, families, perms

STABILITY_SPAN = ((8,), (6, 2), (6, 1, 1))


def stability(seed: int) -> dict:
    n = 8
    family = families.family_B(n)
    pi = tuple(random.Random(seed).sample(range(1, n + 1), n))
    pi_inv = perms.inverse(pi)
    members = sorted(perms.compose(perms.compose(pi, s), pi_inv) for s in family.members)
    d2 = bounds.exact_distance_sq_to_span(members, STABILITY_SPAN, n)
    return {
        "step": "stability",
        "config": {"family": "B", "n": str(n), "seed": str(seed)},
        "members": str(len(members)),
        "span": [",".join(map(str, a)) for a in STABILITY_SPAN],
        "distance_sq": str(d2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="benchmark library steps")
    parser.add_argument("step", choices=("stability",))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = stability(args.seed)
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
