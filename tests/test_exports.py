import ast
import importlib
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parent.parent

# names kept in an __all__ although only the tests read them, each because
# the tests use it as the oracle of a batch kernel
ORACLES = {
    "g_mul": "scalar group law, the oracle for act",
    "g_inv": "scalar inverse, the oracle for act's inverse",
    "g_dist": "scalar distance, the comparison for the group-law oracle",
    "G_IDENTITY": "identity of the scalar group law",
    "SU2_MINUS_I": "distinguishes M from -M in quat_mul's matrix convention",
}


def _names_read(paths) -> set[str]:
    """Names loaded (ast.Name) or taken as an attribute (ast.Attribute)."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_export_has_a_caller():
    # a name whose only reader is its own test is dead weight in the program
    sources = sorted((ROOT / "src" / "cfjoin").glob("*.py"))
    sources += [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    read = _names_read(sources)
    unread = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(f"cfjoin.{name}"), "__all__", ())
        if attr not in read and attr not in ORACLES
    ]
    assert unread == []


def _imported_names(tree) -> set[str]:
    """Names bound by the module-level imports of a parsed module, less
    `from __future__` (a compiler directive, never read)."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return bound


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "cfjoin").glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_read(path):
    # an import its module never reads is dead weight, or a stale reason to
    # keep a name importable
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(_imported_names(tree) - read) == []
