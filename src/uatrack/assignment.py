"""Gated minimum-cost one-to-one assignment used by association and matching."""

from __future__ import annotations

import numpy as np

# Cost that stands in for a forbidden pairing inside the solver.  Far above
# any allowed cost, so the solver pairs as many allowed cells as it can
# before it minimizes their total cost.
FORBIDDEN_COST = 1e9


def linear_sum_assignment(cost_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.optimize.linear_sum_assignment, imported on the first call.

    Importing scipy.optimize takes most of a command's start-up, and only
    a contested matrix reaches the solver, so commands that never meet
    one never load it.
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost_matrix)


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
