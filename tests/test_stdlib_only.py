import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "iirsim"


def absolute_imports(path):
    """Top-level module of every absolute import in the file at `path`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    foreign = {m for m in absolute_imports(path)
               if m not in sys.stdlib_module_names and m != "iirsim"}
    assert foreign == set()


def test_the_package_is_found():
    names = {p.name for p in PACKAGE.glob("*.py")}
    assert {"__init__.py", "engine.py", "pipeline.py"} <= names


def test_every_public_name_resolves():
    import iirsim
    assert [n for n in iirsim.__all__ if not hasattr(iirsim, n)] == []
