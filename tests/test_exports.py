import importlib
import pkgutil

import pytest

import cfjoin

MODULES = sorted(info.name for info in pkgutil.iter_modules(cfjoin.__path__))


def test_modules_found():
    assert {"cf_engine", "joinings", "verifier"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name deleted from a module but left in its __all__ breaks
    # `from cfjoin.<module> import *` and nothing else
    module = importlib.import_module(f"cfjoin.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
