"""Smoke test: every demo script, and the README quick start, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    # the in-process rule of pyproject.toml: a NaN or an overflow escaping
    # the package fails the test
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # cwd is the temporary directory: demo 05 writes wavefunctions_out/ there
    result = _run([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = _run(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == block.count("print(")
