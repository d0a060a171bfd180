"""Every package and test module parses under the oldest Python that pyproject.toml admits."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)
MODULES = sorted((ROOT / "src" / "covertower").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def test_floor_is_the_requires_python_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert tuple(map(int, floor.groups())) == FLOOR


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_newer_syntax_is_refused_at_the_floor():
    # except* is 3.11 syntax: the check must reject it, not just parse with
    # the running interpreter's grammar.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
