"""Static check, by the standard-library ast only: every name a module of
chamberflow imports is referenced in that module. The package __init__ is
exempt, since its imports are the re-exported API."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chamberflow"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    offenders = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for unused in [_unused_imports(ast.parse(path.read_text()))]
        if unused
    }
    assert offenders == {}


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, c)\n")
    assert _unused_imports(tree) == ["d (line 3)", "os (line 1)"]
