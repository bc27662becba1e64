"""Every name a package module lists in ``__all__`` resolves, and so does
every name the package itself offers, without loading a module up front."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import rndkit


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"rndkit.{info.name}")
               for info in pkgutil.iter_modules(rndkit.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 10
    missing = {m.__name__: [n for n in m.__all__ if not hasattr(m, n)] for m in exporting}
    assert not any(missing.values()), missing


def test_importing_the_package_loads_no_module():
    code = "import sys, rndkit; print(sorted(m for m in sys.modules if m.startswith('rndkit.')))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_package_names_resolve_to_their_modules_names():
    for name, module in rndkit._LAZY.items():
        assert getattr(rndkit, name) is getattr(importlib.import_module(f"rndkit.{module}"), name)
    assert set(rndkit._LAZY) <= set(dir(rndkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        rndkit.no_such_name


def test_star_import_brings_in_every_package_name():
    namespace = {}
    exec("from rndkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rndkit._LAZY)
