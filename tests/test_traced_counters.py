"""A traced benchmark run fails when Recorder.install leaves a binding
unwrapped or when a counter a workload declares in EXERCISES reads zero.
Each workload's cgva entry points run here on a tiny input under the same
recorder, in a fresh process, so either failure shows up in the tests
rather than only in a traced run.

These tests are the only guard against a TARGETS callee that cgva reaches
through a default argument, a closure or a container.  install() rewrites
and checks module-level bindings only, so such a call escapes the trace
without an error; here its EXERCISES counter reads zero and the test
fails.  A path that still calls the wrapped binding somewhere else keeps
the counter above zero and is not caught."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Run in a fresh process, since install() rebinds cgva's functions for
# good: argv is the workload name and a scratch directory.  The last line
# of stdout is the list of EXERCISES counters that read zero.
_TRACED_JOB = """
import contextlib, io, json, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracing, workloads
from cgva import cg, cli, lie, linalg, vertex
from cgva.fields import QQ, PrimeField

name, tmp = sys.argv[1], Path(sys.argv[2])


def vertex_axioms():
    alg = lie.algebra_from_name("sl2", PrimeField(7))
    yield
    rep = vertex.axiom_suite(alg, samples=3, seed=0, max_degree=4)
    assert rep.passed, rep.first_failure


def verify_sl4():
    lie.algebra_from_name("sl2", QQ)  # as the set-up; each request builds its own
    yield
    for request in workloads.VerifySl4.REQUESTS:
        argv = [*request, "--algebra", "sl2", "--field", "q", "--seed", "0",
                "--out", str(tmp / ("-".join(request) + ".json"))]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, request


def e8_rank():
    path = tmp / "sl2.json"
    path.write_text(json.dumps(lie.algebra_to_dict(
        lie.algebra_from_name("sl2", QQ))))
    alg = lie.load_algebra(str(path), PrimeField(46337))
    yield
    assert linalg.matrix_rank(cg.s_matrix(alg)) == 1  # dim A for sl2


jobs = {{"vertex-axioms": vertex_axioms, "verify-sl4": verify_sl4,
        "e8-rank": e8_rank}}
rec = tracing.Recorder()
rec.install()
steps = jobs[name]()
with rec.span("setup"):
    next(steps)
with rec.span("round"):
    next(steps, None)
metrics = rec.per_layer()
print(json.dumps([m for m in workloads.WORKLOADS[name].EXERCISES
                  if not metrics.get(m)]))
"""


def test_every_workload_has_a_traced_job(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up while the module executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert list(workloads.WORKLOADS) == ["vertex-axioms", "verify-sl4", "e8-rank"]


@pytest.mark.parametrize("name", ["vertex-axioms", "verify-sl4", "e8-rank"])
def test_traced_job_installs_and_reads_every_exercised_counter(name, tmp_path):
    script = _TRACED_JOB.format(src=str(ROOT / "src"), perfbench=str(PERFBENCH))
    proc = subprocess.run([sys.executable, "-c", script, name, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
