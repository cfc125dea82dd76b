"""Import hygiene of the package, checked with ``ast``.

Every name a library module imports is used in that module: a name bound
by an import statement must appear as a ``Name`` load (or as the root of an
attribute chain) somewhere in the same module, or be listed in ``__all__``.
``from __future__`` imports are exempt, and so is the package
``__init__``, which imports to re-export.  No module binds a top-level
``def`` or ``class`` name twice: the second copy would silently replace the
first.  Every top-level private name (``_x``, not a dunder) is used
somewhere in the package outside its own definition: a dead helper left
behind by a refactor fails here.

Every name in ``coxeterkit.__all__`` resolves, eagerly or on first access,
to the object its one home module defines; and no module imports
``dataclasses``, whose own imports cost every process several milliseconds.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "coxeterkit"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_spares_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import a.b\n"
        "from x import y as z, w\n"
        "def f():\n"
        "    return sys.argv, a.b.c, z\n"
    )
    assert unused_imports(source) == ["os (line 2)", "w (line 4)"]


def redefined_names(source: str) -> list[str]:
    """Top-level ``def``/``class`` names bound a second time."""
    seen, out = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                out.append(f"{node.name} (line {node.lineno})")
            seen.add(node.name)
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_defines_each_top_level_name_once(path):
    assert redefined_names(path.read_text()) == []


def test_detector_flags_a_second_definition():
    source = "def f():\n    pass\nclass C:\n    pass\ndef g():\n    pass\ndef f():\n    pass\n"
    assert redefined_names(source) == ["f (line 7)"]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level private names of the modules in ``sources`` (module name ->
    text) that no module uses outside the name's own definition.

    A use is a ``Name`` load in the defining module, or a ``from .module
    import _x`` in another one; a name's own body (a recursive call, say)
    does not count.
    """
    defined, used = {}, set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            own = set()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            for name in own:
                if name.startswith("_") and not name.startswith("__"):
                    defined[(module, name)] = node.lineno
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    if sub.id not in own:
                        used.add((module, sub.id))
                elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
                    used |= {(sub.module, alias.name) for alias in sub.names}
    return [f"{m}.{name} (line {line})"
            for (m, name), line in defined.items() if (m, name) not in used]


def test_package_has_no_dead_private_helpers():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_detector_flags_a_helper_only_its_own_body_uses():
    sources = {
        "a": (
            "def _dead(n):\n"
            "    return _dead(n - 1)\n"
            "def _used():\n"
            "    pass\n"
            "def _imported():\n"
            "    pass\n"
            "def __dunder__():\n"
            "    pass\n"
            "_TABLE = {}\n"
            "def f():\n"
            "    return _used(), _TABLE, _elsewhere\n"
        ),
        "b": "from .a import _imported\ndef _elsewhere():\n    pass\n",
    }
    assert dead_private_names(sources) == ["a._dead (line 1)", "b._elsewhere (line 2)"]


# -- the package namespace: eager chain, lazy rest ------------------------------


def top_level_names(source: str) -> set:
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_exported_name_is_its_home_modules_object():
    import importlib

    import coxeterkit

    defined = {p.stem: top_level_names(p.read_text()) for p in SOURCES}
    assert len(set(coxeterkit.__all__)) == len(coxeterkit.__all__)
    for name in coxeterkit.__all__:
        homes = [m for m, names in defined.items() if name in names]
        assert len(homes) == 1, (name, homes)
        home = importlib.import_module(f"coxeterkit.{homes[0]}")
        assert getattr(coxeterkit, name) is getattr(home, name), name


def test_classify_attribute_is_the_function():
    import coxeterkit

    assert callable(coxeterkit.classify)
    assert coxeterkit.classify.__module__ == "coxeterkit.classify"


def test_star_import_binds_every_exported_name():
    import coxeterkit

    namespace = {}
    exec("from coxeterkit import *", namespace)
    assert set(coxeterkit.__all__) <= set(namespace)
    for name in coxeterkit.__all__:
        assert namespace[name] is getattr(coxeterkit, name)


def test_unknown_attribute_raises_attribute_error():
    import coxeterkit

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        coxeterkit.no_such_name
    assert not hasattr(coxeterkit, "MODULE_GUARD")
    assert not hasattr(coxeterkit, "SN_GUARD")


def test_no_module_imports_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "dataclasses" for m in modules), path.name
