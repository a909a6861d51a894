"""Every workload, untraced and then traced, in one command.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Each run is a fresh process of perfbench/run.py.  For each workload this
prints every end-to-end metric with its unit, the wall time of a round
(verdict_s, raw and at reference speed), the failed share, the
tracing overhead (traced cpu_s minus untraced cpu_s), the self
time of each layer with the dominant one, and every per-layer metric.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        plain = run(name, args.seed, args.seconds, 0)
        traced = run(name, args.seed, args.seconds, 1)
        print(f"== {name} (seed {args.seed})")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:<34} {m['value']:.6g} {m['unit']}")
        record = json.loads((HERE / "out" / f"{name}-seed{args.seed}-trace0.json")
                            .read_text())
        for metric in ("verdict_s", "verdict_ref_s"):
            print(f"  {metric:<34} {record['metrics'][metric]:.6g} s "
                  "(wall time, kept out of BENCHMARK.json)")
        print(f"  {'failed_share':<34} {plain['failed'] / plain['attempted']:.6g}"
              f" ({plain['failed']} of {plain['attempted']} jobs)")
        if not traced["correct"]:
            print(f"  traced run: {traced['failed']} of {traced['attempted']} "
                  "jobs failed")
        tm = traced["metrics"]
        untraced = plain["metrics"]["cpu_s"]["value"]
        over = tm["trace.cpu_s"]["value"] - untraced
        print(f"  tracing overhead {over:+.3f} s "
              f"({over / untraced:+.1%} of the untraced cpu_s)")
        layers = {k[5:-2]: m["value"] for k, m in tm.items()
                  if k.startswith("self.")}
        total = sum(layers.values())
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        print("  self time by layer: " + ", ".join(
            f"{layer} {t:.3f} s ({t / total:.0%})" for layer, t in ranked))
        print(f"  dominant layer: {ranked[0][0]}")
        for metric, m in tm.items():
            if not metric.startswith("self."):
                print(f"  {metric:<34} {m['value']:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
