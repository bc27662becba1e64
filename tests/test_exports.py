"""Every name a package module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import rndkit


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"rndkit.{info.name}")
               for info in pkgutil.iter_modules(rndkit.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 10
    missing = {m.__name__: [n for n in m.__all__ if not hasattr(m, n)] for m in exporting}
    assert not any(missing.values()), missing
