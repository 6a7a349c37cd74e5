"""Package-wide rules that no single module's tests can see."""

import ast
import sys
from pathlib import Path

import fastcloud

SOURCES = sorted(Path(fastcloud.__file__).parent.glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def private(name):
    """Whether ``name`` is an underscore name: one that no other module should use.
    A dunder is a protocol name, not a private one."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_imports_only_the_standard_library():
    assert SOURCES
    allowed = sys.stdlib_module_names | {"fastcloud"}
    outside = []
    for path in SOURCES:
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # a relative import stays inside the package
            outside += [f"{path.name}: {module}" for module in modules
                        if module.split(".")[0] not in allowed]
    assert outside == []


def test_modules_share_no_private_name_and_import_at_the_top():
    """No module imports another's underscore name; only registry.py, which defines
    the registry and its store, uses an underscore attribute of an object other than
    ``self`` or ``cls``; and no module imports inside a function, as a way round an
    import cycle would."""
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = parsed(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno}: imports {alias.name}"
                          for alias in node.names if private(alias.name)]
            elif (isinstance(node, ast.Attribute) and private(node.attr)
                  and path.name != "registry.py"
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
                found.append(f"{path.name}:{node.lineno}: uses .{node.attr}")
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}: imports in {function.name}"
                          for node in ast.walk(function)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_the_model_s_rule_imports_only_intervals_from_the_package():
    """consistency.py, which owns the per-(provider, attribute) rule, imports nothing
    of the package but ``intervals``: the registry imports the rule, not the other way."""
    path = Path(fastcloud.__file__).parent / "consistency.py"
    imported = set()
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= ({node.module} if node.module
                         else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "fastcloud":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names
                         if alias.name.split(".")[0] == "fastcloud"}
    assert imported == {"intervals"}
