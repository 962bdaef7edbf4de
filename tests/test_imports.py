"""Every name a ``src/riskrules`` module imports is used by that module,
so a deletion cannot leave an import behind. ``__init__.py`` is left
out: it imports names to export them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "riskrules"
#: (module, name) imported for another module's use: the benchmark's
#: traced run patches ``evaluation.classify_mixed``.
KEPT = {("evaluation", "classify_mixed")}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def unused_imports(source: str, module: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in _imported(tree) - used if (module, name) not in KEPT)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.stem) == []


def test_the_kept_import_is_still_there():
    tree = ast.parse((SRC / "evaluation.py").read_text(encoding="utf-8"))
    assert "classify_mixed" in _imported(tree)


def test_finds_what_is_left_behind():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\nimport re as regex\n"
              "from typing import Iterable, Mapping\n"
              "from riskrules.engine import classify_mixed\n"
              "def f(x: Mapping) -> None:\n    return os.path.join(json.dumps(x))\n")
    assert unused_imports(source, "other") == ["Iterable", "classify_mixed", "regex"]
    assert unused_imports(source, "evaluation") == ["Iterable", "regex"]
