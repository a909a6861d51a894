"""The three workloads: vertex-axioms, verify-sl4 and e8-rank.

Each workload has a set-up, which the runner repeats and times on its own,
and a round: a fixed list of jobs sent one after another, each only after
the previous verdict, by a single client in this process.  A job's time
covers the call into cgva and nothing else; its output is checked
afterwards.  The seed picks the inputs from a small fixed pool (a prime
field, or the CLI's sampling seed), so every run does the same amount of
work and every report has a digest recorded in digests.json.

Why each workload exists, the layers it exercises and bypasses, and which
end-to-end metric each layer metric should move are in design.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from cgva import cg, cli, lie, linalg, vertex
from cgva.fields import QQ, PrimeField


@dataclass
class Job:
    name: str
    wall_s: float
    ok: bool
    detail: str = ""
    digest_key: Optional[str] = None
    digest: Optional[str] = None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _call(fn):
    """Time fn(); an exception becomes a failed job, not a failed run."""
    start = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # counted in `failed`; the loop goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, error


class VertexAxioms:
    """axiom_suite with criterion 1's parameters (seed 0, max_degree 4) on
    sl2/Q, sl2/F_p and sl3/F_p; axiom_suite makes a fresh engine per job.

    The sl3 job stops before criterion 1's sample #182, which alone takes
    about 48 s and 684 MB, more than a run's whole budget.  The sl2 jobs
    keep all 200 samples, #182 included.
    """

    name = "vertex-axioms"
    EXERCISES = ("vertex.nth_product_calls", "vertex.apply_mode_calls",
                 "lie.validate_s")
    # A round is short (about 12 s); the median of three keeps one round
    # that the speed probe corrects badly from setting the result.
    MIN_ROUNDS = 3
    PRIMES = (7, 11, 13, 17)
    DIGEST_SEEDS = range(len(PRIMES))
    JOBS = (("sl2", "q", 200), ("sl2", "fp", 200), ("sl3", "fp", 182))

    def __init__(self, seed: int, root: Path):
        self.prime = self.PRIMES[seed % len(self.PRIMES)]

    def setup(self):
        fields = {"q": QQ, "fp": PrimeField(self.prime)}
        return [(f"{name}/{f}", lie.algebra_from_name(name, fields[f]), samples)
                for name, f, samples in self.JOBS]

    def round(self, algebras, span) -> list[Job]:
        jobs = []
        for name, alg, samples in algebras:
            rep, wall, error = _call(lambda: vertex.axiom_suite(
                alg, samples=samples, seed=0, max_degree=4))
            if error:
                jobs.append(Job(name, wall, False, error))
                continue
            ok = rep.passed and all(c.details == f"{samples} samples"
                                    for c in rep.checks)
            jobs.append(Job(name, wall, ok,
                            "" if ok else str(rep.first_failure),
                            f"{self.name} {name}",
                            _sha256(json.dumps(rep.to_dict(), sort_keys=True))))
        return jobs

    @staticmethod
    def q_over_fp(jobs: list[Job]) -> float:
        """sl2/Q time over sl2/F_p time: the same 200 samples, two fields."""
        wall = {j.name: j.wall_s for j in jobs}
        return wall["sl2/q"] / wall["sl2/fp"]


class VerifySl4:
    """cgva.cli.main in process, with --out: build-cg and five verify
    suites on sl4, over q and over fp:11."""

    name = "verify-sl4"
    EXERCISES = ("cg.star_calls", "cg.build_cg_calls", "cg.s_map_calls",
                 "linalg.solve_calls", "linalg.row_reduce_calls",
                 "degree2.jordan_product_calls", "vertex.nth_product_calls",
                 "lie.validate_s")
    FIELDS = ("q", "fp:11")
    REQUESTS = (("build-cg",), ("verify", "comp-lemmas"),
                ("verify", "cg-identities"), ("verify", "main-theorem"),
                ("verify", "conformal"), ("verify", "ideal-closure"))
    MIN_ROUNDS = 1
    CLI_SEEDS = 4
    DIGEST_SEEDS = range(CLI_SEEDS)
    # Independent answers for sl4 at level one: S^2(sl4) = 1 + 15 + 20 + 84
    # with ker S the 84-dimensional summand, so dims [120, 84, 36, 84];
    # central charge k dim g / (k + h^vee) = 15 / 5 = 3.
    DIMS = [120, 84, 36, 84]
    CENTRAL_CHARGE = "3"

    def __init__(self, seed: int, root: Path):
        self.cli_seed = seed % self.CLI_SEEDS
        self.outdir = root / "perfbench" / "out" / "reports"

    def setup(self):
        """The algebra construction and validation each request repeats."""
        return [lie.algebra_from_name("sl4", QQ if f == "q"
                                      else PrimeField(int(f[3:])))
                for f in self.FIELDS]

    def round(self, _algebras, span) -> list[Job]:
        self.outdir.mkdir(parents=True, exist_ok=True)
        jobs = []
        for field in self.FIELDS:
            for request in self.REQUESTS:
                jobs.append(self._request(field, request, span))
        return jobs

    def _request(self, field: str, request: tuple, span) -> Job:
        name = f"cli.{field.replace(':', '')}.{'-'.join(request)}"
        out = self.outdir / f"{name}.json"
        out.unlink(missing_ok=True)
        argv = [*request, "--algebra", "sl4", "--field", field,
                "--seed", str(self.cli_seed), "--out", str(out)]
        stdout = io.StringIO()

        def call():
            with span(name), contextlib.redirect_stdout(stdout):
                return cli.main(argv)

        rc, wall, error = _call(call)
        if error:
            return Job(name, wall, False, error)
        if rc != 0:
            return Job(name, wall, False, f"exit code {rc}")
        report = json.loads(out.read_text(encoding="utf-8"))
        problem = self._known_answers(field, request, report, stdout.getvalue())
        # ROADMAP item 4 may delete the `jobs` key; it is left out of the
        # digest so that deletion does not read as a changed report.
        canonical = json.dumps({k: v for k, v in report.items() if k != "jobs"},
                               indent=2, sort_keys=True) + "\n"
        return Job(name, wall, problem is None, problem or "",
                   f"{self.name} seed{self.cli_seed} {field} {' '.join(request)}",
                   _sha256(canonical))

    def _known_answers(self, field, request, report, stdout) -> Optional[str]:
        if request == ("build-cg",):
            if not stdout.startswith(f"dim A = {self.DIMS[2]}\n"):
                return f"build-cg printed {stdout.splitlines()[:1]}"
            return None
        if report.get("passed") is not True:
            return "report did not pass"
        meta = report["suites"][0]["meta"]
        if request[1] == "main-theorem":
            half = "1/2" if field == "q" else str((int(field[3:]) + 1) // 2)
            if meta.get("dims") != self.DIMS:
                return f"dims {meta.get('dims')}, expected {self.DIMS}"
            if meta.get("form_lambda") != half:
                return f"lambda {meta.get('form_lambda')}, expected {half}"
        if request[1] == "conformal" and \
                meta.get("central_charge") != self.CENTRAL_CHARGE:
            return f"central charge {meta.get('central_charge')}"
        return None

    @staticmethod
    def q_over_fp(jobs: list[Job]) -> float:
        """All six requests over Q, over the same six over F_11."""
        q = sum(j.wall_s for j in jobs if j.name.startswith("cli.q."))
        fp = sum(j.wall_s for j in jobs if j.name.startswith("cli.fp11."))
        return q / fp


class E8Rank:
    """Criterion 8's pipeline at the paper's scale: load E8 over F_p
    (set-up), build S (61504 x 30876), and check its rank is 3876
    (Chayet & Garibaldi, Forum Math. Sigma 9, 2021)."""

    name = "e8-rank"
    EXERCISES = ("cg.s_map_calls", "linalg.row_reduce_calls", "lie.validate_s")
    MIN_ROUNDS = 1
    # each checked once to give rank 3876 with 777,801 nonzeros in S
    PRIMES = (46337, 46327, 46349, 46351)
    DIGEST_SEEDS = ()  # no report; the rank is checked against 3876
    RANK = 3876
    SHAPE = (248 * 248, 248 * 249 // 2)

    def __init__(self, seed: int, root: Path):
        self.prime = self.PRIMES[seed % len(self.PRIMES)]
        self.path = root / "tools" / "e8.json"
        if not self.path.is_file():
            raise FileNotFoundError(f"{self.path} is missing")

    def setup(self):
        return lie.load_algebra(str(self.path), PrimeField(self.prime))

    def round(self, alg, span) -> list[Job]:
        def pipeline():
            smat = cg.s_matrix(alg)
            return (smat.nrows, smat.ncols), linalg.matrix_rank(smat)

        result, wall, error = _call(pipeline)
        if error:
            return [Job("e8", wall, False, error)]
        shape, rank = result
        ok = shape == self.SHAPE and rank == self.RANK
        return [Job("e8", wall, ok, "" if ok else f"shape {shape}, rank {rank}")]

    @staticmethod
    def q_over_fp(jobs: list[Job]) -> float:
        return 0.0  # no Q job at this scale


WORKLOADS = {w.name: w for w in (VertexAxioms, VerifySl4, E8Rank)}
