"""Record the report digests that run.py checks every job against.

    python3 perfbench/record_digests.py

Run it at the commit whose reports are the reference, from the root of the
checkout.  It runs one round for every input set in each workload's pool,
about three minutes in all, and rewrites perfbench/digests.json.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import _no_span  # noqa: E402


def main() -> int:
    digests = {}
    for cls in workloads.WORKLOADS.values():
        for seed in cls.DIGEST_SEEDS:
            wl = cls(seed, HERE.parent)
            for job in wl.round(wl.setup(), _no_span):
                if not job.ok:
                    sys.stderr.write(f"{cls.name} seed {seed}: {job.name} "
                                     f"failed: {job.detail}\n")
                    return 1
                if digests.setdefault(job.digest_key, job.digest) != job.digest:
                    sys.stderr.write(f"{job.digest_key}: the report differs "
                                     "between inputs that share its key\n")
                    return 1
    (HERE / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
