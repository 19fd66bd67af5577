"""The narrative scripts in ``demos/`` run to the end.

Each demo runs in a fresh interpreter that imports from this tree, with
numpy's ``RuntimeWarning`` raised as an error, in a scratch working
directory (``surface_extraction.py`` writes ``out/``).  The demos read
record fields such as ``Crossing.bracket_width``, so a field they need
cannot leave a record without this test failing.
"""
import os
import subprocess
import sys
from pathlib import Path

import gtensor_tb

_SRC = str(Path(gtensor_tb.__file__).resolve().parent.parent)
_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_run(tmp_path):
    assert _DEMOS
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))
    for demo in _DEMOS:
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, (demo.name, done.stderr[-2000:])
