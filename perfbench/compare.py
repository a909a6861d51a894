"""Compare two sets of untraced runs, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the run records (*-trace0.json) that run.py wrote to
perfbench/out/, copied away after each set of runs.  For every end-to-end
metric this prints each side's median and quartiles and the change of the
medians as a share of the base median.  It refuses to compare (exit 2)
runs whose environment stamps differ in gmpy2 or in the Python minor
version: gmpy2 changes the Q scalar type and shifts Q timings about 4x.
"""

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> dict:
    runs: dict = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    return runs


def comparable(stamp: dict) -> tuple:
    return stamp["gmpy2"], ".".join(stamp["python"].split(".")[:2])


def spread(values: list) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = load(argv[0]), load(argv[1])
    stamps = {comparable(r["stamp"]) for side in (base, new)
              for records in side.values() for r in records}
    if len(stamps) > 1:
        sys.stderr.write("refusing to compare: the runs differ in gmpy2 or "
                         f"in the Python minor version: {sorted(stamps)}\n")
        return 2
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}: {len(base[workload])} base runs, "
              f"{len(new[workload])} new runs")
        for metric in base[workload][0]["metrics"]:
            b = [r["metrics"][metric] for r in base[workload]]
            n = [r["metrics"][metric] for r in new[workload]]
            change = statistics.median(n) / statistics.median(b) - 1
            print(f"  {metric:<12} base {spread(b)}  new {spread(n)}  "
                  f"change {change:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
