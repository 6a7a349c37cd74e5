"""Package-wide rules that no single module's tests can see."""

import ast
import sys
from pathlib import Path

import fastcloud


def test_imports_only_the_standard_library():
    sources = sorted(Path(fastcloud.__file__).parent.glob("*.py"))
    assert sources
    allowed = sys.stdlib_module_names | {"fastcloud"}
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # a relative import stays inside the package
            outside += [f"{path.name}: {module}" for module in modules
                        if module.split(".")[0] not in allowed]
    assert outside == []
