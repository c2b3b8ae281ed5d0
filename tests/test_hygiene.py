"""Source hygiene: no module of the package imports a name it never uses,
and every public name, method and property of the package is reached from
outside the tests.

`__init__.py` is left out of every scan: it imports to re-export.  An
import line marked `# noqa: F401` is kept on purpose (for instance so a test
can patch the name in that module) and is not reported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "edgeglue"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the code a user runs: the package, the benchmark (not its tests) and the demos
USER_CODE = MODULES + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))

# Public names that nothing in USER_CODE refers to, each with why it stays.
UNREACHED_KEPT = {
    "rough_count_check": "the paper's rough copy-count floor (K/2)^e(H) z; test_criterion_07_rough_count checks it",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_unused_and_marked_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from typing import (\n"
        "    Optional,\n"
        "    Sequence,\n"
        ")\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return osp.join(x)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 5: Sequence"]


def public_names(source: str) -> list[str]:
    """Names that source defines at module level without a leading underscore."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in out if not name.startswith("_")]


def name_reads(source: str) -> list[tuple[str, int]]:
    """(name, line) of every name source reads, bare or as an attribute."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            reads.append((node.attr, node.lineno))
    return reads


def referenced_names(source: str) -> set[str]:
    """Every name source reads.  A local of the same spelling counts too, so
    the scan can miss a dead name, never invent one."""
    return {name for name, _ in name_reads(source)}


def public_methods(source: str) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each method or property without a
    leading underscore in the module-level classes of source."""
    return [
        (f.name, f.lineno, f.end_lineno)
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        for f in node.body
        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
    ]


def unreached_methods(sources: dict, scanned) -> list[str]:
    """The public methods of the files named in `scanned`, as file:method,
    whose name no file of `sources` (path -> text) reads outside the
    method's own def.  Methods of two classes that share a name count as
    one, so again the scan can only miss."""
    reads = {path: name_reads(text) for path, text in sources.items()}
    out = []
    for path in scanned:
        for name, first, last in public_methods(sources[path]):
            if not any(
                n == name and not (where == path and first <= line <= last)
                for where, lines in reads.items()
                for n, line in lines
            ):
                out.append(f"{path}:{name}")
    return out


def test_every_public_name_is_reached_or_kept_for_a_reason():
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in USER_CODE))
    defined = [n for p in MODULES for n in public_names(p.read_text(encoding="utf-8"))]
    unreached = sorted(n for n in defined if n not in used)
    assert unreached == sorted(UNREACHED_KEPT)


def test_every_public_method_is_reached():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in USER_CODE}
    assert unreached_methods(sources, [str(p.relative_to(ROOT)) for p in MODULES]) == []


def test_method_scan_sees_unread_methods():
    source = (
        "class Shape:\n"
        "    @property\n"
        "    def width(self):\n"
        "        return 2\n"
        "    def grow(self, k):\n"
        "        return self.grow(k - 1) if k else self.width\n"
        "    def _hidden(self):\n"
        "        pass\n"
        "def area(s):\n"
        "    return s.width\n"
    )
    assert public_methods(source) == [("width", 3, 4), ("grow", 5, 6)]
    # grow reads only itself; a read in another file would reach it
    assert unreached_methods({"shape.py": source}, ["shape.py"]) == ["shape.py:grow"]
    use = {"shape.py": source, "use.py": "Shape().grow(1)\n"}
    assert unreached_methods(use, ["shape.py"]) == []


def test_name_scan_sees_defined_and_read_names():
    source = (
        "LIMIT = 3\n"
        "_private = 1\n"
        "class Shape:\n"
        "    pass\n"
        "def area(s):\n"
        "    return s.width * LIMIT\n"
    )
    assert public_names(source) == ["LIMIT", "Shape", "area"]
    assert referenced_names(source) == {"s", "width", "LIMIT"}
