"""The scripts outside the package: the demos, the E8 file generator and
the E8 degree-2 tool (criterion 10 runs it on E8; here it must refuse
another algebra's answers)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cgva.fields import PrimeField
from cgva.lie import algebra_from_name, algebra_to_dict

ROOT = Path(__file__).resolve().parent.parent


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = _run([ROOT / "demos" / demo])
    assert proc.returncode == 0, proc.stderr


def test_make_e8_reproduces_the_committed_file(tmp_path):
    out = tmp_path / "e8.json"
    proc = _run([ROOT / "tools" / "make_e8.py", out])
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (ROOT / "tools" / "e8.json").read_bytes()


def test_time_e8_degree2_refuses_answers_that_are_not_e8s(tmp_path):
    sl2 = tmp_path / "sl2.json"
    sl2.write_text(json.dumps(algebra_to_dict(
        algebra_from_name("sl2", PrimeField(46337)))))
    proc = _run([ROOT / "tools" / "time_e8_degree2.py", sl2])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "dims differs: got [6, 5, 1, 5]" in proc.stdout, proc.stdout
    assert "central_charge differs" in proc.stdout, proc.stdout
