"""Import-path guards: what the package exports and what it and its CLI load.

The package namespace follows one rule: an exported name has a caller
in ``cli.py``, a demo, the README quick start or ``bench/``, or it is
the type or exception of a value that such a caller receives.
Everything else is imported from its submodule, and code that only
tests use lives in ``tests/``.  Records follow the same rule: every
field of a package dataclass is read by the package, a demo, the README
quick start or ``bench/``.

SciPy is not a run-time dependency: ``fit_dipole`` (the ``atomfit``
command) is closed-form, and nothing else under the package imports it.
A serial surface run loads neither OpenSSL's ``_hashlib`` (the sha256
digest comes from CPython's builtin module), nor ``numpy.ma`` (rows are
deduplicated with a lexsort), nor ``multiprocessing`` (only a pool of
two or more workers imports it).  numpy 1.x imports ``numpy.ma`` and,
through ``numpy.random``, ``_hashlib`` itself, so the guards count only
what the package adds to a bare ``import numpy``.  Each check runs in a
fresh interpreter, because the test process itself has long since
imported SciPy through other tests.
"""
import ast
import builtins
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import gtensor_tb
from gtensor_tb.lande import fit_dipole

_SRC = str(Path(gtensor_tb.__file__).resolve().parent.parent)
_ROOT = Path(__file__).resolve().parents[1]


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports from this tree."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def _quick_start() -> str:
    """The ``python`` block of the README's library quick start."""
    readme = (_ROOT / "README.md").read_text()
    return re.search(r"## Library quick start\n\n```python\n(.*?)```",
                     readme, re.S).group(1)


def _callers() -> list:
    """(module, source) of every caller that the public API serves."""
    cli = importlib.import_module("gtensor_tb.cli")
    sources = [(cli.__name__, Path(cli.__file__).read_text()),
               ("README", _quick_start())]
    for folder in ("demos", "bench"):
        sources += [(path.name, path.read_text())
                    for path in sorted((_ROOT / folder).glob("*.py"))]
    return sources


def _used_and_caught() -> tuple:
    """Package names that callers import or look up, and what they catch.

    A caller uses a name it imports from ``gtensor_tb`` or one of its
    modules (relative imports in ``cli.py``), or one it looks up as
    ``gtensor_tb.name``.  Returns ({name: object}, caught exception
    classes).
    """
    used, caught = {}, set()
    for module, source in _callers():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    package = importlib.import_module(module).__package__
                    origin = ".".join(filter(None, [package, node.module]))
                elif (node.module or "").split(".")[0] == "gtensor_tb":
                    origin = node.module
                else:
                    continue
                for alias in node.names:
                    used[alias.name] = getattr(
                        importlib.import_module(origin), alias.name)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "gtensor_tb"):
                used[node.attr] = getattr(gtensor_tb, node.attr)
            elif isinstance(node, ast.ExceptHandler) and node.type:
                types = (node.type.elts if isinstance(node.type, ast.Tuple)
                         else [node.type])
                caught.update(used.get(t.id, getattr(builtins, t.id, None))
                              for t in types if isinstance(t, ast.Name))
    # a catch-all handler is not about any one exception
    return used, caught - {None, Exception, BaseException}


def _received(used: dict) -> set:
    """Exported classes that a used function returns, or that they hold.

    Follows return annotations of used callables and field annotations
    of the classes reached, by name.
    """
    exported = set(gtensor_tb.__all__)
    todo, received = list(used.values()), set()
    while todo:
        obj = todo.pop()
        if isinstance(obj, type):
            notes = list(getattr(obj, "__annotations__", {}).values())
        elif callable(obj):
            notes = [inspect.signature(obj).return_annotation]
        else:
            continue
        for name in re.findall(r"\w+", " ".join(map(str, notes))):
            if name in exported and name not in received:
                received.add(name)
                todo.append(getattr(gtensor_tb, name))
    return received


def _raised() -> set:
    """Names of the exception classes that ``raise`` statements in the
    package construct."""
    names = set()
    for path in Path(gtensor_tb.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                names.add(node.exc.func.id)
    return names


def test_every_export_has_a_caller():
    used, caught = _used_and_caught()
    received = _received(used)
    raised = [getattr(gtensor_tb, name, None) for name in _raised()]

    def is_received_exception(obj):
        # a caller catches it or a base of it, and the package raises it
        # or one of its subclasses
        return (isinstance(obj, type) and issubclass(obj, BaseException)
                and issubclass(obj, tuple(caught))
                and any(isinstance(r, type) and issubclass(r, obj)
                        for r in raised))

    orphans = [name for name in gtensor_tb.__all__
               if name not in used and name not in received
               and not is_received_exception(getattr(gtensor_tb, name))]
    assert orphans == []


def _loads() -> list:
    """The ``ast.Name`` and ``ast.Attribute`` loads of the package, the
    demos, ``bench/`` and the README quick start."""
    package = Path(gtensor_tb.__file__).parent
    sources = [path.read_text() for folder in (package, _ROOT / "demos",
                                               _ROOT / "bench")
               for path in sorted(folder.glob("*.py"))]
    return [node for source in sources + [_quick_start()]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)]


def test_every_record_field_is_read():
    # a field is read where some source loads it as an attribute,
    # ``record.field``; one that only tests read belongs in tests/
    package = Path(gtensor_tb.__file__).parent
    read = {node.attr for node in _loads() if isinstance(node, ast.Attribute)}
    unread = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"gtensor_tb.{path.stem}")
        for name, obj in sorted(vars(module).items()):
            if (dataclasses.is_dataclass(obj) and isinstance(obj, type)
                    and obj.__module__ == module.__name__):
                unread += [f"{name}.{field.name}"
                           for field in dataclasses.fields(obj)
                           if field.name not in read]
    assert unread == []


def test_every_definition_has_a_package_caller():
    # a top-level function or class of the package is called where some
    # source loads it by name, ``name`` or ``module.name``; one that only
    # tests call belongs in tests/
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for node in _loads()}
    package = Path(gtensor_tb.__file__).parent
    uncalled = [f"{path.stem}.{node.name}"
                for path in sorted(package.glob("*.py"))
                for node in ast.parse(path.read_text()).body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                and node.name not in loaded]
    assert uncalled == []


def test_readme_quick_start_runs():
    # det(g_S) and its singular values near Gamma, then the radii where
    # det(g_S) = 0 along [100], printed as a plain list of floats
    det_line, radii_line = _fresh(_quick_start()).splitlines()
    assert float(det_line.split()[0]) < 0.0
    assert re.fullmatch(r"\[0\.0\d+(, \d\.\d+)*\]", radii_line)


# a None entry in sys.modules blocks an import; it is not a loaded module
_SCIPY_LOADED = ("sorted(m for m, module in sys.modules.items()"
                 " if module is not None"
                 " and (m == 'scipy' or m.startswith('scipy.')))")


def test_package_and_cli_import_without_scipy():
    out = _fresh("import sys\nimport gtensor_tb, gtensor_tb.cli\n"
                 f"print({_SCIPY_LOADED})")
    assert out.strip() == "[]"


def test_fit_dipole_and_atomfit_run_without_scipy(si, tmp_path):
    # with SciPy blocked, atomfit, a surface run and a g-line (whose
    # g-tensors are one stacked pass) still exit 0
    runs = [["atomfit", "--material", "gaas"],
            ["surface", "--material", "si", "--band", "split-off",
             "--level", "0"],
            ["gline", "--material", "gaas", "--band", "split-off",
             "--direction", "1,2,3"]]
    runs = [argv + ["--out", str(tmp_path / f"{argv[0]}.out")]
            for argv in runs]
    out = _fresh(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from gtensor_tb import builtin_material_path, cli, load_material\n"
        "from gtensor_tb.lande import fit_dipole\n"
        "si = load_material(builtin_material_path('si'))\n"
        "d0 = fit_dipole(si, 'Si')\n"
        f"rcs = [cli.main(argv) for argv in {runs!r}]\n"
        f"print(*rcs, {_SCIPY_LOADED} == [], repr(d0))\n")
    *rcs, clean, value = out.split()
    assert rcs == ["0", "0", "0"] and clean == "True"
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


def test_sha256_falls_back_to_hashlib():
    # with the builtin modules blocked the import chain ends at hashlib,
    # and the digest is the same
    out = _fresh(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from gtensor_tb import cli\n"
        "print(cli.sha256.__module__, '_hashlib' in sys.modules,\n"
        "      cli.sha256(b'gtensor-tb').hexdigest())\n")
    module, openssl, digest = out.split()
    assert (module, openssl) == ("_hashlib", "True")
    assert digest == hashlib.sha256(b"gtensor-tb").hexdigest()


def test_bench_trace_targets_resolve():
    # the benchmark's tracer wraps these module attributes by name: each
    # must exist, be defined in the module its span names, and every
    # target of one span must be the same function
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", _ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    spans = {}
    for module, attr, span in tracing.TARGETS:
        target = getattr(importlib.import_module(module), attr)
        assert target.__module__ == "gtensor_tb." + span.split(".")[0], (
            module, attr, span)
        assert spans.setdefault(span, target) is target, (module, attr, span)
