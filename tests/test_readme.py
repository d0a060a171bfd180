"""The README's Library example runs, and every value its comments state holds."""
from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"

# Each expression line of the example, as written, and the value its comment states.
STATED = {
    "verify_regular_cover(cover).failures": (),
    "lemma_cut(cover).value": Fraction(2, 1),
    "exact_cheeger(cover.graph).value": Fraction(2, 1),
    "full_spectrum(cover.graph).lambda1": 3.9999999999999973,
    "laplacian_spectrum(figure8, cotree)[0][0]": [0, 4, 4, 8],
    "basis.shape": (2, 4),
    "[row.vertices for row in report.levels]": [1, 4, 128],
}


def library_example() -> str:
    """The python block under the README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_states_its_values():
    code = library_example()
    namespace: dict = {}
    values = {}
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    assert values.keys() == STATED.keys()
    for source, value in values.items():
        if isinstance(value, np.ndarray):
            value = value.tolist()
        assert value == STATED[source], source
    assert namespace["cotree"] == (0, 1)
