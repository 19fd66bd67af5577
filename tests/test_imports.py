"""Import-path guards: what the package and its CLI load.

SciPy is not a run-time dependency: ``fit_dipole`` (the ``atomfit``
command) is closed-form, and nothing else under the package imports it.
A serial surface run loads neither OpenSSL's ``_hashlib`` (the sha256
digests come from CPython's builtin module), nor ``numpy.ma`` (rows are
deduplicated with a lexsort), nor ``multiprocessing`` (only a pool of
two or more workers imports it).  numpy 1.x imports ``numpy.ma`` and,
through ``numpy.random``, ``_hashlib`` itself, so the guards count only
what the package adds to a bare ``import numpy``.  Each check runs in a
fresh interpreter, because the test process itself has long since
imported SciPy through other tests.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import gtensor_tb
from gtensor_tb import builtin_material_path, fit_dipole, load_material

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


_HEAVY = ("_hashlib", "numpy.ma", "multiprocessing")
_HEAVY_LOADED = f"sorted(m for m in {_HEAVY!r} if m in sys.modules)"


def test_serial_surface_leaves_heavy_modules_unloaded(tmp_path):
    out = tmp_path / "surface.csv"
    loaded = _fresh(
        "import sys\n"
        "import numpy\n"
        f"print({_HEAVY_LOADED})\n"
        "import gtensor_tb.cli\n"
        f"print({_HEAVY_LOADED})\n"
        "rc = gtensor_tb.cli.main(['surface', '--material', 'si', '--band',\n"
        "                          'split-off', '--level', '1',\n"
        f"                          '--workers', '1', '--out', {str(out)!r}])\n"
        f"print(rc, {_HEAVY_LOADED})\n").splitlines()
    assert loaded[1] == loaded[0]            # after import gtensor_tb.cli
    assert loaded[2] == "0 " + loaded[0]     # after the serial surface run
    config, digest = (line.split(" ", 2)[2] for line in
                      out.read_text().splitlines()[1:3])
    assert digest == hashlib.sha256(config.encode()).hexdigest()


def test_file_sha256_is_the_sha256_of_the_file_bytes():
    path = builtin_material_path("gaas")
    assert (load_material(path).meta["file_sha256"]
            == hashlib.sha256(path.read_bytes()).hexdigest())


def test_sha256_falls_back_to_hashlib():
    # with the builtin modules blocked the import chain ends at hashlib,
    # and the digest is the same
    out = _fresh(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from gtensor_tb import materials\n"
        "print(materials.sha256.__module__, '_hashlib' in sys.modules,\n"
        "      materials.sha256(b'gtensor-tb').hexdigest())\n")
    module, openssl, digest = out.split()
    assert (module, openssl) == ("_hashlib", "True")
    assert digest == hashlib.sha256(b"gtensor-tb").hexdigest()
