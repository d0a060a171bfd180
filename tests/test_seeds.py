"""Builtin seeds: each array-built graph equals the graph its edge list gives."""
from __future__ import annotations

import pytest

from covertower.seeds import builtin_seed

from conftest import bouquet, cycle, figure8, theta


@pytest.mark.parametrize("n", range(1, 65))
def test_cycle_equals_its_edge_list(n):
    assert builtin_seed(f"cycle:{n}") == cycle(n)


@pytest.mark.parametrize("r", range(33))
def test_bouquet_equals_its_edge_list(r):
    assert builtin_seed(f"bouquet:{r}") == bouquet(r)


def test_theta_and_figure8_equal_their_edge_lists():
    assert builtin_seed("theta") == theta()
    assert builtin_seed("figure8") == figure8() == builtin_seed("bouquet:2")

