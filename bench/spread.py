"""Run-to-run spread of the metrics in several benchmark records.

    python3 bench/spread.py RECORD.json [RECORD.json ...]

Each RECORD is a file written by ``run.py --out`` for one workload.  For every
workload and metric it prints the first quartile, the median and the third
quartile over the records, as ``statistics.quantiles(values, n=4)`` gives
them, and the spread: the distance between the quartiles as a share of the
median.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from harness import quartiles, relative_spread


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    values: dict[tuple[str, str], list[float]] = {}
    for path in argv:
        records = json.loads(Path(path).read_text())
        for record in records if isinstance(records, list) else [records]:
            for name, metric in record["metrics"].items():
                values.setdefault((record["workload"], name), []).append(metric["value"])
    print(f"{'workload':10s} {'metric':28s} {'runs':>4s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s}")
    for (workload, name), vals in values.items():
        q1, q2, q3 = quartiles(vals)
        spread = relative_spread(vals)
        print(f"{workload:10s} {name:28s} {len(vals):4d} {q1:12.6g} {q2:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
