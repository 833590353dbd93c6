"""Each demo, and README's library quick start, runs to completion as a script
in dev mode with every warning an error, as CI's smoke runs do."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def quick_start(readme):
    """The first python block under README's "Library quick start" heading."""
    section = readme.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"], ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = [str(demo)] if demo.suffix == ".py" else ["-c", quick_start(demo)]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
