"""Gated minimum-cost one-to-one assignment used by association and matching.

The solver is scipy's linear_sum_assignment, the shortest augmenting
path method of Crouse (2016), "On implementing 2D rectangular
assignment algorithms", IEEE TAES.  It lives in one small C extension,
scipy.optimize._lsap, which scipy.optimize re-exports.  Importing
scipy.optimize would also load scipy.linalg, scipy.sparse and the rest
of the package, about half a second and 40 MB, so the first contested
matrix loads that extension on its own; only where scipy ships no such
extension file does it import scipy.optimize's public function.
"""

from __future__ import annotations

import functools
import os
import sys
from collections.abc import Callable
from importlib.machinery import ExtensionFileLoader, PathFinder
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np

# Cost that stands in for a forbidden pairing inside the solver.  Far above
# any allowed cost, so the solver pairs as many allowed cells as it can
# before it minimizes their total cost.
FORBIDDEN_COST = 1e9


@functools.cache
def _solver() -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """linear_sum_assignment of scipy's _lsap extension, loaded from its file under its own name.

    Only `import scipy` runs, not scipy.optimize's __init__.  CPython
    records a single-phase extension in sys.modules as it creates it;
    where the module was not there before, that entry is taken out
    again, so a later `import scipy.optimize` loads and binds its own.
    Where scipy ships no _lsap extension file, the solver is the public
    scipy.optimize function.
    """
    import scipy

    found = PathFinder.find_spec("_lsap", [os.path.join(p, "optimize") for p in scipy.__path__])
    if found is None or not isinstance(found.loader, ExtensionFileLoader):
        from scipy.optimize import linear_sum_assignment as solve

        return solve
    spec = spec_from_file_location("scipy.optimize._lsap", found.origin)
    held = spec.name in sys.modules
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    if not held:
        sys.modules.pop(spec.name, None)
    return module.linear_sum_assignment


def linear_sum_assignment(cost_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's linear_sum_assignment, loaded on the first call (see _solver).

    Only a contested matrix reaches the solver, so commands that never
    meet one never load scipy.  The first call loads the solver's own
    extension, in about 20 ms, and never scipy.optimize; it is the
    function scipy.optimize exports, so every result is scipy's.
    """
    return _solver()(cost_matrix)


def lone_edges(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Whether each edge (rows[k], cols[k]) is lone: its row and its column hold no other edge.

    Every matching with the most pairs holds every lone edge, so a lone
    edge is matched directly.
    """
    return (np.bincount(rows, minlength=n_rows)[rows] == 1) & (np.bincount(cols, minlength=n_cols)[cols] == 1)


def hungarian_assign(cost: np.ndarray, allowed: np.ndarray) -> list[tuple[int, int]]:
    """Optimal matching over the allowed cells of a cost matrix.

    Maximizes the number of allowed pairs, then minimizes their total
    cost, as long as allowed costs are finite and far below
    FORBIDDEN_COST in magnitude.  allowed is a boolean mask of the
    cost's shape; forbidden cells may hold anything.  Returns (row, col)
    pairs, rows ascending, all of them allowed.

    When every allowed cell is lone (see lone_edges), the unique
    optimum is every allowed cell, and it is returned without calling
    the solver.

    Where several matchings tie on count and total cost, which one is
    returned depends on the whole matrix: a call on a submatrix that
    holds every allowed cell of some rows and columns may pick a
    different one of equal count and cost.
    """
    cost = np.asarray(cost, dtype=float)
    allowed = np.asarray(allowed, dtype=bool)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2D matrix")
    if allowed.shape != cost.shape:
        raise ValueError("allowed must have the shape of cost")
    if not allowed.any():
        return []
    if not np.isfinite(cost[allowed]).all():
        raise ValueError("allowed costs must be finite")
    rows, cols = np.nonzero(allowed)
    if lone_edges(rows, cols, *allowed.shape).all():  # no row or column is contested
        return list(zip(rows.tolist(), cols.tolist()))
    rows, cols = linear_sum_assignment(np.where(allowed, cost, FORBIDDEN_COST))
    keep = allowed[rows, cols]
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))
