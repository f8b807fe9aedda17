"""The package's imports run one way: algebra -> linalg -> graphs -> canon ->
engine -> kts -> catalog -> cli.

Each module may import only the modules before it in that chain, and
`errors`, which imports none of them.  The imports are read from the source
with `ast`, including those inside functions, so nothing is executed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starcomp"
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
