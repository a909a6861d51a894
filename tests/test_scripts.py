"""The scripts outside the package: the demos and the E8 file generator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
