"""Repository tools stay in step with the library they call."""

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
