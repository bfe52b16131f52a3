import importlib
import pkgutil

import reconfig


def test_all_names_resolve():
    # a stale __all__ entry fails only on `import *`, so check every one
    modules = [m.name for m in pkgutil.iter_modules(reconfig.__path__, "reconfig.")]
    assert "reconfig.graph" in modules and "reconfig.cli" in modules
    missing = {}
    for name in modules:
        module = importlib.import_module(name)
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if stale:
            missing[name] = stale
    assert not missing
