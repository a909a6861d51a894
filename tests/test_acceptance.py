"""Acceptance gate: one test per published criterion, each printing a
single PASS/FAIL line (the pytest -v line) and enforcing its runtime
budget with a monotonic stopwatch."""

import os
import time

import pytest

from cgva.cg import _construct, build_cg, identity_suite, s_map
from cgva.degree2 import (DegreeTwo, conformal_suite, correspondence_suite,
                          ideal_closure_suite, kernel_t)
from cgva.fields import PrimeField, QQ, parse_field_spec
from cgva.lie import AlgebraError, algebra_from_name
from cgva.linalg import Matrix
from cgva.vertex import axiom_suite, comp_lemma_suite
from oracles import abelian, casimir_element


class Stopwatch:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.seconds = time.monotonic() - self.t0
        return False


def test_criterion_1_vertex_axioms_200_triples_two_algebras_two_fields():
    jobs = [("sl2", "q"), ("sl2", "fp:7"), ("sl3", "q"), ("sl3", "fp:7")]
    job_seconds = []
    with Stopwatch() as sw:
        for name, fieldspec in jobs:
            with Stopwatch() as job_sw:
                alg = algebra_from_name(name, parse_field_spec(fieldspec))
                rep = axiom_suite(alg, samples=200, seed=0, max_degree=4)
            job_seconds.append(f"{name}/{fieldspec} {job_sw.seconds:.1f}s")
            assert rep.passed, f"{name}/{fieldspec}: {rep.first_failure}"
    per_job = ", ".join(job_seconds)
    assert sw.seconds <= 60, f"took {sw.seconds:.1f}s, budget 60s ({per_job})"
    print(f"criterion 1: PASS ({sw.seconds:.1f}s: {per_job})")


def test_criterion_2_computation_lemmas_all_basis_tuples():
    with Stopwatch() as sw:
        for name in ("sl2", "sl3"):
            rep = comp_lemma_suite(algebra_from_name(name, QQ))
            assert rep.passed, f"{name}: {rep.first_failure}"
            assert len(rep.checks) >= 13  # items (a)..(l) plus cancellation
    assert sw.seconds <= 60, f"took {sw.seconds:.1f}s, budget 60s"
    print(f"criterion 2: PASS ({sw.seconds:.1f}s)")


def test_criterion_3_operator_identities_on_all_basis_pairs():
    with Stopwatch() as sw:
        for name in ("sl2", "sl3", "so5"):
            rep = identity_suite(_construct(algebra_from_name(name, QQ)))
            assert rep.passed, f"{name}: {rep.first_failure}"
    assert sw.seconds <= 120, f"took {sw.seconds:.1f}s, budget 120s"
    print(f"criterion 3: PASS ({sw.seconds:.1f}s)")


def test_criterion_4_degree2_correspondence_three_algebras_three_fields():
    lam_by_field = {"q": "1/2", "fp:7": "4", "fp:11": "6"}
    with Stopwatch() as sw:
        for fieldspec in ("q", "fp:7", "fp:11"):
            field = parse_field_spec(fieldspec)
            for name in ("sl2", "sl3", "so5"):
                rep = correspondence_suite(
                    DegreeTwo(build_cg(algebra_from_name(name, field))))
                assert rep.passed, f"{name}/{fieldspec}: {rep.first_failure}"
                assert rep.meta["multiplicativity_ok"]
                assert rep.meta["kernel_match_ok"]
                # one lambda across every basis pair, asserted inside the
                # suite; its value is the image of 1/2
                assert str(rep.meta["form_lambda"]) == lam_by_field[fieldspec]
                if name == "sl2":
                    assert rep.meta["dims"] == [6, 5, 1, 5]
    assert sw.seconds <= 300, f"took {sw.seconds:.1f}s, budget 300s"
    print(f"criterion 4: PASS ({sw.seconds:.1f}s)")


def test_criterion_5_unitality_and_casimir_image():
    with Stopwatch() as sw:
        targets = [algebra_from_name(n, QQ) for n in ("sl2", "sl3", "so5")]
        targets.append(abelian(1, QQ))
        for alg in targets:
            cga = build_cg(alg)
            unit = cga.unit()
            assert unit is not None, f"{alg.name} has no unit"
            assert s_map(alg, cga.lift(unit)) == Matrix.identity(alg.dim, alg.field)
            h = alg.casimir_scalar() / 2
            want = Matrix.identity(alg.dim, alg.field).scale(2 * (h + 1))
            assert s_map(alg, casimir_element(alg)) == want, alg.name
    assert sw.seconds <= 30, f"took {sw.seconds:.1f}s, budget 30s"
    print(f"criterion 5: PASS ({sw.seconds:.1f}s)")


def test_criterion_6_conformal_vector_and_central_charge():
    with Stopwatch() as sw:
        alg = algebra_from_name("sl2", QQ)
        cga = build_cg(alg)
        rep = conformal_suite(DegreeTwo(cga))
        assert rep.passed, rep.first_failure
        assert str(rep.meta["central_charge"]) == "1"
        assert cga.tau(cga.unit(), cga.unit()) * 4 == QQ.one
    assert sw.seconds <= 30, f"took {sw.seconds:.1f}s, budget 30s"
    print(f"criterion 6: PASS ({sw.seconds:.1f}s)")


def test_criterion_7_kernel_is_closed_under_modes():
    with Stopwatch() as sw:
        for name in ("sl2", "sl3"):
            rep = ideal_closure_suite(
                DegreeTwo(build_cg(algebra_from_name(name, QQ))))
            assert rep.passed, f"{name}: {rep.first_failure}"
    assert sw.seconds <= 30, f"took {sw.seconds:.1f}s, budget 30s"
    print(f"criterion 7: PASS ({sw.seconds:.1f}s)")


def _e8_json() -> str:
    """tools/e8.json, generated by tools/make_e8.py if it is missing."""
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "e8.json")
    if not os.path.exists(path):
        import subprocess
        import sys
        subprocess.run(
            [sys.executable,
             os.path.join(os.path.dirname(__file__), "..", "tools",
                          "make_e8.py"), path],
            check=True)
    return path


def _e8_rank(field) -> tuple[float, int]:
    """E8 loaded and validated over field and its S matrix ranked: the
    wall time of both and the rank."""
    from cgva.cg import s_matrix
    from cgva.lie import load_algebra
    from cgva.linalg import matrix_rank

    path = _e8_json()
    with Stopwatch() as sw:
        alg = load_algebra(path, field)
        rank = matrix_rank(s_matrix(alg))
    return sw.seconds, rank


def test_criterion_8_e8_image_dimension():
    seconds, rank = _e8_rank(PrimeField(46337))
    assert rank == 3876
    # measured at 1.7-2.1 s on a 2-vCPU VM (one read 2.8 s), load and
    # validation included; 2.2-3.0 s with two double brackets per column
    assert seconds <= 30, f"took {seconds:.1f}s, budget 30s"
    print(f"criterion 8: PASS ({seconds:.1f}s, rank {rank})")


def test_criterion_8_over_q_e8_image_dimension():
    seconds, rank = _e8_rank(QQ)
    assert rank == 3876
    # measured at 2.3-2.9 s on a 2-vCPU VM, load and validation included;
    # 7.1 s for the rank alone with the elimination on Fractions
    assert seconds <= 30, f"took {seconds:.1f}s, budget 30s"
    print(f"criterion 8 over Q: PASS ({seconds:.1f}s, rank {rank})")


def test_criterion_9_centered_algebra_is_refused_not_computed():
    ab = abelian(2, QQ)
    with pytest.raises(AlgebraError) as exc:
        kernel_t(DegreeTwo(build_cg(ab)))
    assert "center has dimension 2" in str(exc.value)
    # the suite reports the same refusal instead of fabricating a kernel
    rep = correspondence_suite(DegreeTwo(build_cg(ab)))
    assert not rep.passed
    failing = rep.first_failure
    assert failing is not None and "center" in (failing.details or "")
    print("criterion 9: PASS")


def _run_e8_tool(field: str) -> tuple[float, float, list[str]]:
    """tools/time_e8_degree2.py on E8 over field, in a process of its own:
    its wall time, the peak RSS it reports (that process's own VmHWM) and
    its step lines.  Fails unless every suite passes and every known
    answer holds."""
    import subprocess
    import sys

    path = _e8_json()
    tool = os.path.join(os.path.dirname(__file__), "..", "tools",
                        "time_e8_degree2.py")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with Stopwatch() as sw:
        proc = subprocess.run([sys.executable, tool, path, field],
                              env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *steps, last = proc.stdout.splitlines()
    return sw.seconds, float(last.rsplit("peak RSS ", 1)[1].split()[0]), steps


def test_criterion_10_e8_main_theorem_conformal_and_ideal_closure():
    """The main theorem at the paper's scale: tools/time_e8_degree2.py runs
    what `cgva verify` runs for main-theorem, conformal and ideal-closure on
    E8 over F_46337, with one A and one DegreeTwo shared as the CLI shares
    them, and checks the unit, tau(u, u), the generator counts and every
    suite's values against E8's known answers.  It runs in a process of
    its own and reports that process's own peak RSS (VmHWM): ru_maxrss
    would start from this process's peak, which Linux carries across the
    spawn, and after criterion 8 read 188 MB at the load step against
    41 MB run alone."""
    seconds, peak, steps = _run_e8_tool("fp:46337")
    # measured at 17.2-17.6 s and 415 MB on a 2-vCPU VM, load, build_cg
    # and the unit's checks included; with ker T taken per degree-2
    # coordinate, 270-290 s and 1753 MB
    assert seconds <= 120, f"took {seconds:.1f}s, budget 120s"
    assert peak <= 800, f"peak RSS {peak:.0f} MB, bound 800 MB"
    print(f"criterion 10: PASS ({seconds:.1f}s, peak RSS {peak:.0f} MB; "
          + "; ".join(steps) + ")")


def test_criterion_10_over_q_e8_main_theorem_with_no_prime():
    """Criterion 10 over Q: the same run with no prime, so the unit's
    coordinates are E8's integers, lambda is 1/2 itself and every F_p run
    is the reduction of this one."""
    seconds, peak, steps = _run_e8_tool("q")
    # measured at 19.4-21.9 s and 425 MB on a 2-vCPU VM (six runs);
    # 31.4-37.6 s wall with the eliminations and the generator walks on
    # Fractions.  The budget and bound are criterion 10's
    assert seconds <= 120, f"took {seconds:.1f}s, budget 120s"
    assert peak <= 800, f"peak RSS {peak:.0f} MB, bound 800 MB"
    print(f"criterion 10 over Q: PASS ({seconds:.1f}s, peak RSS {peak:.0f} MB; "
          + "; ".join(steps) + ")")
