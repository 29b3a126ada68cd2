"""Repository tools stay in step with the library they call."""

import ast
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_witnesses_reproduces_fixture():
    tool = _load_tool("make_witnesses")
    fixture = ROOT / "tests" / "fixtures" / "theorem_witnesses.json"
    assert tool.find_witnesses() == json.loads(fixture.read_text())


def _annotation_names(node) -> set:
    """Names read by an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            used |= _annotation_names(node.returns)
    return [name for name in imported if name not in used]


def test_unused_import_check_flags_unread_names():
    source = "from typing import Sequence, TextIO\nimport os.path\nx: 'TextIO'\n"
    assert unused_imports(source) == ["Sequence", "os"]


def test_library_modules_import_only_what_they_use():
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted((ROOT / "src" / "polyroute").glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}
