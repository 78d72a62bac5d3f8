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

def _names_read(paths) -> tuple[set[str], set[str]]:
    """The names loaded (ast.Name), and the names taken as an attribute
    (ast.Attribute) together with the attribute parts of the keys of a
    TRACED dict, such as the benchmark's "cf_engine.act", which its tracer
    looks up with getattr."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
                attributes.update(part for key in node.value.keys for part in key.value.split(".")[1:])
    return names, attributes


def test_every_export_has_a_caller():
    # a name whose only reader is its own test is dead weight in the program:
    # every __all__ name, and every module-level function and class, private
    # ones too, such as a helper whose last caller has gone; and every method
    # and property of those classes, which only an attribute read can reach
    # (dunder methods are read by the language itself)
    program = sorted((ROOT / "src" / "cfjoin").glob("*.py"))
    sources = program + [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    names, attributes = _names_read(sources)
    trees = {path.stem: ast.parse(path.read_text()) for path in program}
    defined = {
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    defined |= {f"{name}.{attr}" for name in MODULES
                for attr in getattr(importlib.import_module(f"cfjoin.{name}"), "__all__", ())}
    members = {
        f"{stem}.{cls.name}.{node.name}"
        for stem, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    }
    read = names | attributes
    unread = [name for name in defined if name.partition(".")[2] not in read]
    unread += [name for name in members if name.rpartition(".")[2] not in attributes]
    assert sorted(unread) == []


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


# defaulted parameters that no program call passes, each kept because a test
# needs the other value
ONE_VALUE_DEFAULTS = {
    "build_s_map.max_retries": "test_retry_cap_error reaches DistributionTestError with a cap of 5",
}


def _defaulted_parameters(tree):
    """(callable name, parameter, position or None) of every defaulted
    parameter of the module-level functions and methods; a method's position
    skips self or cls, and a constructor goes by its class name.  Nested
    functions are not walked."""
    defs = [(node.name, node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                defs.append((cls.name if node.name == "__init__" else node.name, node, 0 if static else 1))
    for name, node, skip in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield name, positional[i].arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passes(call, parameter, position) -> bool:
    """Whether a call passes the parameter by keyword or by position; a
    *args or **kwargs in the call may pass anything."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    by_position = position is not None and len(call.args) > position
    return by_position or any(k.arg == parameter for k in call.keywords)


def test_every_optional_parameter_is_passed():
    # a default that every program call keeps is a constant dressed as a
    # parameter, and its other values are code no run reaches
    sources = sorted((ROOT / "src" / "cfjoin").glob("*.py"))
    callers = sources + [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    calls: dict[str, list[ast.Call]] = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = [
        f"{name}.{parameter}"
        for path in sources
        for name, parameter, position in _defaulted_parameters(ast.parse(path.read_text()))
        if not any(_passes(call, parameter, position) for call in calls.get(name, []))
        and f"{name}.{parameter}" not in ONE_VALUE_DEFAULTS
    ]
    assert unpassed == []


def _definitions(tree):
    """(qualified name, node) of each module-level function and method, and
    (class or '<module>', node) of every other statement at those levels."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield (f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef) else node.name), item
        else:
            yield (node.name if isinstance(node, ast.FunctionDef) else "<module>"), node


def _callers(function, sources) -> set[str]:
    """module.definition of each function, method or module statement of the
    sources that calls `function`, by name or as an attribute."""
    return {
        f"{path.stem}.{name}"
        for path in sources
        for name, definition in _definitions(ast.parse(path.read_text()))
        for node in ast.walk(definition)
        if isinstance(node, ast.Call)
        and function in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


@pytest.mark.parametrize("checker, owners", [
    ("config_int", {"cf_engine.CFParams.__post_init__", "verifier.ExperimentConfig.__post_init__"}),
    ("check_level_depth", {"cf_engine.CFParams.__post_init__"}),
])
def test_config_checks_stay_in_the_constructors(checker, owners):
    # a config rule checked anywhere but the constructor that holds the
    # value is a rule that a config built another way skips
    sources = sorted((ROOT / "src" / "cfjoin").glob("*.py"))
    sources += [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    assert _callers(checker, sources) == owners


def test_metrics_are_built_by_the_report_alone():
    # a runner that builds its own Metric decides its verdict by a
    # comparison of its own, beside the one in CheckReport.gate and check
    owners = {f"verifier.CheckReport.{method}" for method in ("add", "gate", "check")}
    assert _callers("Metric", sorted((ROOT / "src" / "cfjoin").glob("*.py"))) == owners
