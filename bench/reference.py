"""The benchmark's reference programs: fixed work that does not depend on
the package, timed in a fresh interpreter between steps.

    python3 bench/reference.py small|large

Both pay what every step pays (interpreter start and ``import numpy``),
then do pure-Python work of the kind the package does: a dict over the
permutations of a few points, ``Fraction`` sums, and a small matrix
product.  ``small`` (8 points, twice; about 10 MB) is about half start-up,
like the README-sized steps.  ``large`` (9 points, once; about 95 MB) is
mostly compute over a large working set, like the large steps.  The first
line of output is the fixed result; the second is the time spent after the
imports.  ``run.py`` divides step times by the reference's wall time, to
cancel the slow and fast spells of a shared host.  Do not change them: a
changed reference changes every normalised figure.
"""

import sys
import time
from fractions import Fraction
from itertools import permutations

import numpy

SIZES = {"small": (8, 2), "large": (9, 1)}  # points, rounds


def work(points: int) -> tuple[Fraction, float]:
    fixed = {p: sum(i == x for i, x in enumerate(p)) for p in permutations(range(points))}
    counts: dict[int, int] = {}
    for v in fixed.values():
        counts[v] = counts.get(v, 0) + 1
    total = sum((Fraction(c, k + 1) for k, c in counts.items()), Fraction(0))
    m = numpy.arange(40000, dtype=numpy.float64).reshape(200, 200)
    return total, float((m @ m).trace())


if __name__ == "__main__":
    points, rounds = SIZES[sys.argv[1]]
    start = time.perf_counter()
    (total, trace), = {work(points) for _ in range(rounds)}
    compute_s = time.perf_counter() - start
    print(total, trace)
    print(f"compute_s {compute_s!r}")
