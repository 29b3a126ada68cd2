"""Repository tools stay in step with the library they call."""

import ast
import contextlib
import importlib.util
import io
import json
import pathlib
import re
import shlex
import sys
import types
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass

import polyroute
from polyroute import cli
from polyroute.bench import METHODS
from polyroute.heuristics import _ALP_PRICES, MODES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_module(folder, name):
    """folder/name.py as module folder_name; registered in sys.modules, as
    the dataclasses it defines need."""
    spec = importlib.util.spec_from_file_location(f"{folder}_{name}",
                                                  ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_make_witnesses_reproduces_fixture():
    tool = _load_module("tools", "make_witnesses")
    fixture = ROOT / "tests" / "fixtures" / "theorem_witnesses.json"
    assert tool.find_witnesses() == json.loads(fixture.read_text())


def readme_alp_prices() -> list:
    """((case, mode), (sub, mul, div, widest term)) of each dual-landmark
    row of README's arithmetic table, in table order."""
    rows = []
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip("| ").split("|")]
        if cells[0] in ("same owner", "cross owner"):
            rows.append(((cells[0], cells[1]), tuple(map(int, cells[2:]))))
    return rows


def test_readme_price_table_matches_alp_prices():
    want = {}
    for mode, (same, cross) in _ALP_PRICES.items():
        want["same owner", mode] = same
        want["cross owner", mode] = cross
    rows = readme_alp_prices()
    assert len(rows) == len(want)
    assert dict(rows) == want
    assert {mode for (_, mode), _ in rows} == set(MODES)


def readme_lemb_sizes() -> dict:
    """benchmark input -> (k, ALT file bytes, ALP file bytes), from the
    rows of README's LEMB size table."""
    sizes = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip("| ").split("|")]
        name = cells[0].split(":")[0].strip("`")
        if name in ("grid", "road") and len(cells) == 4:
            sizes[name] = tuple(int(c.replace(",", "")) for c in cells[1:])
    return sizes


def test_readme_lemb_sizes_match_save_embedding():
    inputs = _load_module("perfbench", "inputs")
    landmark_seed = inputs.rng_for("road", 1, "landmarks").randrange(2**32)
    graphs = {
        "grid": polyroute.build_graph(2500, inputs.grid_input(50).edges),
        "road": polyroute.load_dimacs(inputs.make_input("road", 1).dimacs),
    }
    want = {}
    for name, k in (("grid", 16), ("road", 64)):
        g = graphs[name]
        L = polyroute.select_farthest(g, k, landmark_seed)
        want[name] = (k, *(
            len(_lemb(build(g, L)))
            for build in (polyroute.build_alt_embedding,
                          polyroute.build_distributed_embedding)))
    assert readme_lemb_sizes() == want


def _select_and_build(g) -> tuple:
    """The kernel path of perfbench's set-up: select_farthest, then both
    builds from the one landmark set."""
    L = polyroute.select_farthest(g, 4, 1)
    return (polyroute.build_alt_embedding(g, L),
            polyroute.build_distributed_embedding(g, L))


def test_perfbench_kernel_wrappers_see_every_kernel_call():
    """perfbench's KernelWrappers patches module globals by name; each
    kernel the builds call must show as its span, once per call, and
    the counts must not move."""
    tracing = _load_module("perfbench", "tracing")
    g = polyroute.generate_grid(6, 6)
    with polyroute.track_kernels() as plain:
        want = _select_and_build(g)
    spans = tracing.Spans()
    with polyroute.track_kernels() as traced, tracing.KernelWrappers(spans):
        got = _select_and_build(g)
    assert got == want
    assert traced == plain
    # a plain dict, since a Counter equals one that lacks its zero counts
    assert dict(Counter(name for name, *_ in spans.records)) == {
        "sssp.full_spt": plain.full_spt,
        "sssp.multi_source": plain.multi_source,
        "sssp.matrix": 1,
        "sssp.truncated_spt": plain.truncated_spt,
    }
    assert polyroute.embedding.landmark_matrix is polyroute.sssp.landmark_matrix


def _lemb(e) -> bytes:
    buf = io.BytesIO()
    polyroute.save_embedding(e, buf)
    return buf.getvalue()


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


def _top_level_definitions(tree) -> list:
    """(name, node) of each top-level function, class and constant."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, ast.Assign):
            out += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append((node.target.id, node))
    return [(name, node) for name, node in out if not name.startswith("__")]


def _reads(node) -> list:
    """Names read anywhere under node: loads, attribute names and names
    in annotations, string annotations included."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation:
            names += _annotation_names(sub.annotation)
        elif isinstance(sub, ast.FunctionDef) and sub.returns:
            names += _annotation_names(sub.returns)
    return names


def _exports(trees: dict) -> list:
    """The names each __all__ in trees lists, in order."""
    return [elt.value
            for tree in trees.values() for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", "") == "__all__" for t in node.targets)
            for elt in node.value.elts]


def _reads_outside_definitions(trees: dict) -> set:
    """Names read anywhere in trees (module name -> ast) outside their
    own top-level definition. __init__ defines nothing here."""
    read = set()
    for module, tree in trees.items():
        own = {} if module == "__init__" else dict(_top_level_definitions(tree))
        for node in tree.body:
            read |= {name for name in _reads(node) if own.get(name) is not node}
    return read


def unreferenced_definitions(sources: dict) -> list:
    """module.name of each top-level definition in sources (module name ->
    text) that nothing else in sources reads and no __all__ lists.
    __init__ defines nothing here but its reads and __all__ count."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    kept = set(_exports(trees)) | _reads_outside_definitions(trees)
    return [f"{module}.{name}" for module, tree in trees.items()
            if module != "__init__"
            for name, _ in _top_level_definitions(tree) if name not in kept]


def unread_exports(sources: dict) -> list:
    """Each name an __all__ in sources (module name -> text) lists that
    no code in sources reads outside the name's own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = _reads_outside_definitions(trees)
    return [name for name in _exports(trees) if name not in read]


def test_dead_definition_check_flags_unread_names():
    sources = {
        "__init__": "from .a import used\n__all__ = ['used']\n",
        "a": "LIMIT = 3\nPI = 3.14\n\ndef used():\n    return _helper(LIMIT)\n\n"
             "def _helper(x):\n    return x\n\n"
             "def _leftover(n):\n    return _leftover(n - 1) if n else 0\n",
    }
    assert unreferenced_definitions(sources) == ["a.PI", "a._leftover"]


def test_library_defines_only_what_it_uses_or_exports():
    sources = {
        path.stem: path.read_text()
        for path in sorted((ROOT / "src" / "polyroute").glob("*.py"))
    }
    assert unreferenced_definitions(sources) == []


def test_unread_export_check_flags_unread_names():
    sources = {
        "__init__": "from .a import run, helper, spare\n"
                    "__all__ = ['run', 'helper', 'spare']\n",
        "a": "def run():\n    return helper()\n\n"
             "def helper():\n    return 1\n\n"
             "def spare(n):\n    return spare(n - 1) if n else 0\n",
        "tools/cli": "from a import run\nrun()\n",
    }
    assert unread_exports(sources) == ["spare"]


def test_every_export_is_read_by_library_perfbench_or_tools():
    """A name in polyroute.__all__ earns its place by a reader that ships
    with the package or drives it: library code other than the name's own
    definition, perfbench/ or tools/. Tests and demos do not count."""
    sources = {
        path.stem: path.read_text()
        for path in sorted((ROOT / "src" / "polyroute").glob("*.py"))
    }
    sources |= {
        f"{folder}/{path.stem}": path.read_text()
        for folder in ("perfbench", "tools")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    assert unread_exports(sources) == []


def settable_uncompared_fields(module) -> list:
    """Class.field of each field of a dataclass in module.__all__ that
    __init__ takes but equality ignores: two equal objects could then
    carry different values, and a caller could forge one."""
    return [f"{cls.__name__}.{f.name}"
            for cls in (getattr(module, name) for name in module.__all__)
            if isinstance(cls, type) and is_dataclass(cls)
            for f in fields(cls) if f.init and not f.compare]


def test_uncompared_field_check_flags_settable_fields():
    @dataclass
    class Toy:
        key: int
        cache: list = field(default_factory=list, compare=False)
        note: str = field(default="", init=False, compare=False)

    @dataclass
    class Plain:
        key: int

    module = types.SimpleNamespace(__all__=["Toy", "Plain", "helper"],
                                   Toy=Toy, Plain=Plain, helper=len)
    assert settable_uncompared_fields(module) == ["Toy.cache"]


def test_exported_dataclasses_compare_every_settable_field():
    assert settable_uncompared_fields(polyroute) == []


def _methods(tree) -> list:
    """(Class.name, node) of each non-dunder method of a top-level class."""
    return [(f"{cls.name}.{node.name}", node)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("__")]


def unread_methods(library: list, readers: list) -> list:
    """Class.name of each non-dunder method in the library texts whose
    name nothing reads outside its own body, in library or readers."""
    trees = [ast.parse(text) for text in [*library, *readers]]
    read = Counter(name for tree in trees for name in _reads(tree))
    return [qualname
            for tree in trees[:len(library)]
            for qualname, node in _methods(tree)
            if read[node.name] == Counter(_reads(node))[node.name]]


def test_unread_method_check_flags_unread_names():
    library = [
        "class A:\n    def __len__(self):\n        return 0\n\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    def leftover(self, n):\n"
        "        return self.leftover(n - 1) if n else 0\n",
    ]
    assert unread_methods(library, []) == ["A.used", "A.leftover"]
    assert unread_methods(library, ["A().used()\n"]) == ["A.leftover"]


def test_library_methods_are_all_read():
    library = [
        path.read_text()
        for path in sorted((ROOT / "src" / "polyroute").glob("*.py"))
    ]
    readers = [
        path.read_text()
        for folder in ("perfbench", "demos", "tools")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert unread_methods(library, readers) == []


def method_constants(source: str) -> list:
    """Each string constant in source that equals a name in METHODS."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in METHODS]


def test_method_constant_check_flags_method_names():
    source = ('if m == "alt":\n    h = f"alp {m}"\n'
              'elif m in ("dijkstra", "bfs"):\n    h = None\n')
    assert method_constants(source) == ["alt", "dijkstra"]


def test_cli_names_no_method():
    """Each method is declared once, in bench's method table; a method
    name written into the CLI would be a per-method branch."""
    cli = (ROOT / "src" / "polyroute" / "cli.py").read_text()
    assert method_constants(cli) == []


def sh_commands(text: str) -> list:
    """argv of each `polyroute ...` command in text's ```sh blocks, with
    backslash continuations joined and # comments dropped."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["polyroute"]:
                commands.append(words[1:])
    return commands


def unparsed_commands(commands: list) -> list:
    """Each argv the CLI's parser refuses, joined by spaces."""
    refused = []
    for argv in commands:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                cli._build_parser().parse_args(argv)
        except SystemExit:
            refused.append(" ".join(argv))
    return refused


def test_sh_command_check_flags_unknown_flags():
    text = ("```sh\n# a path graph\npolyroute gen --path 6 \\\n"
            "    --out p.gr  # N vertices\npip install x\n```\n"
            "polyroute gen --bogus\n"
            "```sh\npolyroute gen --grid 1x6 --out p.gr\n```\n")
    commands = sh_commands(text)
    assert commands == [["gen", "--path", "6", "--out", "p.gr"],
                        ["gen", "--grid", "1x6", "--out", "p.gr"]]
    assert unparsed_commands(commands) == ["gen --path 6 --out p.gr"]


def test_readme_commands_parse():
    """Every command README shows still parses: no removed flag or
    subcommand lingers in its examples."""
    commands = sh_commands((ROOT / "README.md").read_text())
    assert commands
    assert unparsed_commands(commands) == []


def named_versions(text: str) -> list:
    """Each version number text names, as in "version 3", "versions 1 and
    2" or "versions 1-3", in order."""
    numbers = []
    for run in re.findall(r"\bversions? (\d+(?:(?:, | and | or |-)\d+)*)",
                          text, re.I):
        numbers += map(int, re.findall(r"\d+", run))
    return numbers


def refused_versions(versions) -> list:
    """Each of versions whose files load_embedding refuses: a saved file
    with that version byte fails as unsupported."""
    g = polyroute.generate_grid(1, 3)
    data = bytearray(_lemb(polyroute.build_distributed_embedding(
        g, polyroute.LandmarkSet((0,)))))
    refused = []
    for version in versions:
        data[4] = version
        try:
            polyroute.load_embedding(io.BytesIO(bytes(data)))
        except ValueError as exc:
            if str(exc).startswith("unsupported embedding version"):
                refused.append(version)
    return refused


def test_version_check_flags_refused_versions():
    text = ("Versions 1 and 2 still load. Version 3 adds scales; versions "
            "2-4 and the version byte.")
    assert named_versions(text) == [1, 2, 3, 2, 4]
    assert refused_versions(named_versions(text)) == [1, 2, 2, 4]


def test_readme_names_only_versions_that_load():
    """README describes the LEMB version load_embedding reads; a version it
    refuses, named there, would be a format the docs still promise."""
    versions = named_versions((ROOT / "README.md").read_text())
    assert 3 in versions
    assert refused_versions(versions) == []
