"""Import-path guards: the package and its CLI run without SciPy.

SciPy is not a run-time dependency: ``fit_dipole`` (the ``atomfit``
command) is closed-form, and nothing else under the package imports it.
Each check runs in a fresh interpreter, because the test process itself
has long since imported SciPy through other tests.
"""
import os
import subprocess
import sys
from pathlib import Path

import gtensor_tb
from gtensor_tb import fit_dipole

_SRC = str(Path(gtensor_tb.__file__).resolve().parent.parent)


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports from this tree."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


_SCIPY_LOADED = ("sorted(m for m in sys.modules"
                 " if m == 'scipy' or m.startswith('scipy.'))")


def test_package_and_cli_import_without_scipy():
    out = _fresh("import sys\nimport gtensor_tb, gtensor_tb.cli\n"
                 f"print({_SCIPY_LOADED})")
    assert out.strip() == "[]"


def test_fit_dipole_and_atomfit_run_without_scipy(si, tmp_path):
    report = str(tmp_path / "atomfit.txt")
    out = _fresh(
        "import sys\n"
        "from gtensor_tb import (builtin_material_path, cli, fit_dipole,\n"
        "                        load_material)\n"
        "si = load_material(builtin_material_path('si'))\n"
        "d0 = fit_dipole(si, 'Si')\n"
        "rc = cli.main(['atomfit', '--material', 'gaas',\n"
        f"               '--out', {report!r}])\n"
        f"print(rc, {_SCIPY_LOADED} == [], repr(d0))\n")
    rc, clean, value = out.split()
    assert (rc, clean) == ("0", "True")
    assert float(value) == fit_dipole(si, "Si")
