"""The package's import graph: each module imports only the package modules below it."""
import ast
import pathlib

import pytest

import seqtag

PACKAGE = pathlib.Path(seqtag.__file__).parent

# Module -> the package modules it may import, and must: no more, no fewer.
LAYERS = {
    "corpus": set(),
    "network": set(),
    "encoder": {"corpus"},
    "synth": {"corpus"},
    "tagger": {"corpus", "encoder", "network"},
    "evaluation": {"corpus", "tagger"},
    "cli": {"corpus", "encoder", "evaluation", "network", "synth", "tagger"},
}


def package_imports(module: str) -> set[str]:
    """The package modules a module imports by ``from .x import`` or ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_the_package_modules_below_it(module):
    assert package_imports(module) == LAYERS[module]
