"""The demos run in order (01 writes the basis the others read) and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("[0-9][0-9]_*.py"))
SRC = Path(__file__).parent.parent / "src"


def test_demos_run_in_order(tmp_path):
    assert len(DEMOS) == 5
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=path)
    for demo in DEMOS:
        done = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, (demo.name, done.stderr)
    assert (tmp_path / "demo_basis.txt").exists()
    assert (tmp_path / "demo_maps.kphm").exists()
