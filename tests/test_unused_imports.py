"""Static checks on the library, test and tools sources: every imported
name is used, every private helper of the library is referenced, and every
file parses as Python 3.10, the declared floor."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """Names a module imports but never references.  A crude whole-module
    check: a use anywhere counts for an import anywhere."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def unreferenced_helpers(paths):
    """Module-level private functions and classes of paths that no module
    of paths references.  A crude check, like unused_imports: a name or
    attribute of the same spelling anywhere counts as a use."""
    defined, used = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                defined[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{where}: {name}" for name, where in sorted(defined.items())
            if name not in used]


def sources():
    return [path for folder in (ROOT / "src" / "linfnorm", ROOT / "tests",
                                ROOT / "tools")
            for path in sorted(folder.glob("*.py"))]


def test_no_unused_imports():
    # __init__.py imports names to re-export them
    paths = [p for p in sources() if p.name != "__init__.py"]
    assert [u for p in paths for u in unused_imports(p)] == []


def test_no_unreferenced_private_helpers():
    paths = sorted((ROOT / "src" / "linfnorm").glob("*.py"))
    assert unreferenced_helpers(paths) == []


def test_parses_as_python_3_10():
    for path in sources():
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(3, 10))
