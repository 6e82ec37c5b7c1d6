"""The package's layers, read from the source with ast: the library modules
import no front end (text formats, sampling, the verify suites, the CLI),
and importing the package loads none of verify, sampling or cli, so a
process that only calls the library never pays for them."""

import ast
from pathlib import Path

import pytest

import orbitcodes

PACKAGE = Path(orbitcodes.__file__).resolve().parent
LIBRARY = ("numtheory", "field", "polykernel", "poly", "matrix", "rows", "rcf", "groups", "codes")
FRONT_ENDS = {"textio", "sampling", "verify", "cli"}


def package_imports(name: str) -> set[str]:
    """The orbitcodes modules that module `name` imports anywhere in its
    source, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["orbitcodes" if node.level else "", node.module]))
            paths = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(path.split(".")[1] for path in paths if path.startswith("orbitcodes."))
    return found


def test_package_imports_finds_known_imports():
    assert {"codes", "textio", "verify"} <= package_imports("cli")
    assert {"codes", "textio"} <= package_imports("__init__")


@pytest.mark.parametrize("name", LIBRARY)
def test_library_modules_import_no_front_end(name):
    assert package_imports(name) & FRONT_ENDS == set()


def test_package_import_loads_no_front_end():
    assert package_imports("__init__") & {"verify", "sampling", "cli"} == set()
