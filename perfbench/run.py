"""cgva's benchmark: one workload, one process, one client.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; cgva is imported from its src/.
The run repeats the workload's set-up a few times, then runs whole
rounds until --seconds have passed and at least the workload's MIN_ROUNDS
have run.  Every job's output is checked, against known answers and
against the report digests in digests.json.

Each set-up and round is timed with speed.timed(), which also samples the
core's speed, and is reported as process CPU time at reference speed:
setup_s and cpu_s are the medians over set-ups and over rounds.  The wall
time of a round (verdict_s), raw and at reference speed, stays in the
record: on a shared host it also counts the time other tenants held the
core.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 tracing.py wraps
cgva's public functions first and the line holds the per-layer metrics.
The full record (environment stamp, every round, every job) goes to
perfbench/out/, and the spans of a traced run next to it.

perfbench/report.py runs every workload untraced and traced and prints
all metrics; perfbench/compare.py compares two sets of run records;
perfbench/design.json says why each workload exists and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the set-up is repeated at least SETUP_REPS times and for SETUP_MIN_S
# seconds, so that a set-up of a few milliseconds still gives a steady median
SETUP_REPS = 3
SETUP_MIN_S = 1.0


def stamp() -> dict:
    """What a timing depends on besides the code.  gmpy2 changes the
    rational scalar type, which shifts Q timings about 4x."""
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cgva").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timing(t) -> dict:
    return {"ref_s": t.ref_s, "ref_cpu_s": t.ref_cpu_s, "wall_s": t.wall_s,
            "cpu_s": t.cpu_s, "probe_s": t.probe_s, "speed": t.speed}


def _no_span(name):
    return contextlib.nullcontext()


def run(args, workloads, tracing, speed):
    """Returns the run's record and its span recorder (None untraced)."""
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    rec = tracing.Recorder() if args.trace else None
    if rec:
        rec.install()
    span = rec.span if rec else _no_span

    setups = []
    while (len(setups) < SETUP_REPS
           or sum(t.wall_s for t in setups) < SETUP_MIN_S):
        state = None  # release the previous set-up before building the next
        with speed.timed() as timing, span("setup"):
            state = wl.setup()
        setups.append(timing)

    rounds = []
    began = time.perf_counter()
    while True:
        with speed.timed() as timing, span("round"):
            jobs = wl.round(state, span)
        rounds.append({"timing": timing, "jobs": jobs})
        if (len(rounds) >= wl.MIN_ROUNDS
                and time.perf_counter() - began >= args.seconds):
            break
    peak = _peak_rss_mb()

    digests = json.loads((HERE / "digests.json").read_text())
    jobs = [job for r in rounds for job in r["jobs"]]
    for job in jobs:
        if job.ok and job.digest_key is not None:
            want = digests.get(job.digest_key)
            if want != job.digest:
                job.ok = False
                job.detail = (f"report digest {job.digest[:12]} differs from "
                              f"the recorded {str(want)[:12]}")
    failed = sum(not job.ok for job in jobs)
    cpu_s = statistics.median(r["timing"].ref_cpu_s for r in rounds)
    metrics = {
        "setup_s": statistics.median(t.ref_cpu_s for t in setups),
        "cpu_s": cpu_s,
        "peak_rss_mb": peak,
        # wall time also counts the time other tenants held the core; it is
        # kept in the record, not in BENCHMARK.json
        "verdict_s": statistics.median(r["timing"].wall_s for r in rounds),
        "verdict_ref_s": statistics.median(r["timing"].ref_s for r in rounds),
    }
    if rec:
        metrics = rec.per_layer()
        metrics["fields.q_over_fp"] = statistics.median(
            wl.q_over_fp(r["jobs"]) for r in rounds)
        metrics["trace.cpu_s"] = cpu_s
        silent = [m for m in wl.EXERCISES if not metrics.get(m)]
        if silent:
            raise RuntimeError(f"traced run read zero for {silent}: a wrapper "
                               "missed the binding cgva actually calls")
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "stamp": stamp(),
        "attempted": len(jobs), "failed": failed,
        "failures": [f"{j.name}: {j.detail}" for j in jobs if not j.ok],
        "setups": [_timing(t) for t in setups],
        "rounds": [{**_timing(r["timing"]),
                    "jobs": {j.name: j.wall_s for j in r["jobs"]}}
                   for r in rounds],
        "metrics": metrics,
    }, rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cgva" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no cgva sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    result, rec = run(args, workloads, tracing, speed)
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if rec:
        rec.write(outdir / f"{stem}-spans.json.gz")

    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"stamp {json.dumps(result['stamp'], sort_keys=True)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"].get(m["name"], 0),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
