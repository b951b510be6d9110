"""No sweepfd module imports, or reads as an attribute, a private name of a sibling module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sweepfd"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def sibling_private_uses(source):
    """(line, name) of each private name of a sibling module that the source
    imports or reads as an attribute of that module."""
    tree = ast.parse(source)
    modules = {}   # local name -> sibling module it is bound to
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sweepfd.") and alias.asname:
                    modules[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            package = node.level == 1 and node.module is None or node.module == "sweepfd"
            sibling = node.level == 1 or (node.module or "").startswith("sweepfd.")
            for alias in node.names:
                if sibling and is_private(alias.name):
                    uses.append((node.lineno, alias.name))
                elif package:
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            value = ast.unparse(node.value)
            if value in modules or value.startswith("sweepfd."):
                uses.append((node.lineno, f"{value}.{node.attr}"))
    return sorted(uses)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_no_private_name_of_a_sibling(module):
    assert sibling_private_uses((PACKAGE / module).read_text()) == []


def test_the_check_sees_each_form_of_reaching_in():
    source = ("from . import composition, grid as g\n"
              "from .composition import Scheme, _Layout\n"
              "from sweepfd.spectral import _factors\n"
              "import sweepfd.sweep as sw\n"
              "composition._PRESETS, g._private, sw._kernel, self._own, composition.__name__\n")
    assert sibling_private_uses(source) == [
        (2, "_Layout"), (3, "_factors"),
        (5, "composition._PRESETS"), (5, "g._private"), (5, "sw._kernel")]
