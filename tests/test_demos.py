import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")


def test_readme_python_blocks_run(tmp_path):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) >= 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, block + proc.stderr.decode(errors="replace")
