"""The assignment solver loader: scipy's _lsap extension on its own, or scipy.optimize's public function."""

from importlib.machinery import ModuleSpec
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as public_solver

from uatrack import assignment
from uatrack.assignment import FORBIDDEN_COST, hungarian_assign


@pytest.fixture
def fresh_solver():
    """The loader's cache emptied before and after the test, so each side loads the solver anew."""
    assignment._solver.cache_clear()
    yield
    assignment._solver.cache_clear()


def matrices():
    """Seeded float, tied-integer and gated matrices, square, wide and tall."""
    rng = np.random.default_rng(31)
    for shape in [(1, 1), (5, 5), (12, 12), (3, 8), (8, 3), (1, 9), (9, 1), (40, 25)]:
        yield rng.uniform(-2.0, 5.0, shape)
        yield rng.integers(0, 3, shape).astype(float)  # many ties
        allowed = rng.random(shape) < 0.3
        yield np.where(allowed, rng.uniform(0.0, 1.0, shape), FORBIDDEN_COST)  # as hungarian_assign builds it


def test_loaded_solver_matches_scipys_public_function(fresh_solver):
    for cost in matrices():
        rows, cols = assignment.linear_sum_assignment(cost)
        want_rows, want_cols = public_solver(cost)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols), cost
    assert assignment._solver.cache_info().misses == 1


@pytest.mark.parametrize("spec", [None, ModuleSpec("_lsap", None)], ids=["no-file", "not-an-extension"])
def test_lookup_miss_falls_back_to_the_public_function(fresh_solver, monkeypatch, spec):
    rng = np.random.default_rng(7)
    cases = [(rng.uniform(0.0, 1.0, (6, 9)), rng.random((6, 9)) < 0.4) for _ in range(20)]
    want = [hungarian_assign(cost, allowed) for cost, allowed in cases]
    assignment._solver.cache_clear()
    monkeypatch.setattr(assignment, "PathFinder", SimpleNamespace(find_spec=lambda name, path: spec))
    assert assignment._solver() is public_solver
    assert [hungarian_assign(cost, allowed) for cost, allowed in cases] == want
