"""The package's imports run one way: algebra -> linalg -> graphs -> canon ->
engine -> kts -> catalog -> cli.

Each module may import only the modules before it in that chain, and
`errors`, which imports none of them.  The imports are read from the source
with `ast`, including those inside functions, so nothing is executed.

The package also keeps only what runs: every public name in it is read
somewhere in the program (src/, scripts/ or perfbench/), and no program
file imports the tests or their oracles.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "starcomp"
CHAIN = ("algebra", "linalg", "graphs", "canon", "engine", "kts", "catalog", "cli")
ENTRY_POINTS = ("__init__", "__main__")


def package_imports(path: Path) -> set[str]:
    """The starcomp modules that the source file imports, relatively or by
    full name."""
    tree = ast.parse(path.read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and (node.module or "").startswith("starcomp."):
                found.add(node.module.split(".")[1])
            elif node.level == 0 and node.module == "starcomp":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("starcomp."))
    return found


def test_every_module_has_a_place():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(CHAIN) | {"errors"} | set(ENTRY_POINTS)


def test_errors_imports_no_package_module():
    assert package_imports(PACKAGE / "errors.py") == set()


@pytest.mark.parametrize("module", CHAIN)
def test_imports_point_down_the_chain(module):
    allowed = set(CHAIN[:CHAIN.index(module)]) | {"errors"}
    found = package_imports(PACKAGE / f"{module}.py")
    assert found <= allowed, found - allowed


def test_parser_reads_each_import_form(tmp_path):
    source = ("from .algebra import QNum\n"
              "from . import graphs\n"
              "import starcomp.canon\n"
              "from starcomp.engine import make_context\n"
              "from starcomp import kts\n"
              "def late():\n"
              "    from .catalog import named_graph\n")
    (tmp_path / "probe.py").write_text(source)
    assert package_imports(tmp_path / "probe.py") == {
        "algebra", "graphs", "canon", "engine", "kts", "catalog"}


def program_files(*folders):
    return [path for folder in folders for path in sorted((ROOT / folder).rglob("*.py"))]


def public_definitions():
    """(qualified name, node) for every public top-level name of the package,
    and for every public method or property of its public classes; node is
    None for a name bound by assignment.  Underscore names are exempt."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    continue
                yield f"{path.stem}.{node.name}", node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not name.id.startswith("_"):
                            yield f"{path.stem}.{name.id}", None


def references(tree) -> Counter:
    """The names that code reads: loaded names and attributes, and the
    names a from-import binds."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_public_name_has_a_caller():
    read = Counter()
    for path in program_files("src", "scripts", "perfbench"):
        read += references(ast.parse(path.read_text()))
    unread = []
    for qualname, node in public_definitions():
        name = qualname.rsplit(".", 1)[1]
        own = references(node)[name] if node is not None else 0
        if read[name] <= own:
            unread.append(qualname)
    assert unread == []


def test_no_program_file_imports_the_tests():
    tests = {"tests", "oracles"}
    for path in program_files("src", "scripts"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            assert not tests & {name.split(".")[0] for name in imported}, path
