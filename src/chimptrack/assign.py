"""Bipartite assignment: optimal matching, gated optimal matching, greedy matching.

All matchers operate on dense float cost matrices. Rectangular inputs yield
min(rows, cols) pairs; there is no padding. Ties between equally cheap optima
resolve deterministically to the lexicographically smallest pair list ordered
by (row, col).

Gated matchings (the tracker's association stages, CLEAR's per-frame step,
HOTA's per-alpha step and the pose pairing of the report) share one
documented construction, gated_match: benefit values in [0, 1], pairs below
the validity gate get cost B = min(rows, cols) + 2 while valid pairs cost
1 - benefit, the assignment problem is solved with the deterministic
lexicographic tie-break of hungarian, and invalid pairs are discarded
afterwards. This maximizes the number of valid pairs first and the summed
benefit second; the tie-break makes the result, and therefore every
downstream number, unique.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment


class Assignment(NamedTuple):
    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def _as_cost(cost) -> np.ndarray:
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if cost.size and not np.isfinite(cost).all():
        raise ValueError("cost matrix entries must be finite")
    return cost


def hungarian(cost) -> Assignment:
    """Minimum-total-cost maximum matching of a dense cost matrix.

    Returns min(rows, cols) pairs. Among equal-cost optima the result is the
    lexicographically smallest pair list: rows are committed in ascending
    order to the smallest column whose completion still attains the optimal
    total (tolerance 1e-9 relative to the optimum, to absorb summation-order
    drift when re-solving subproblems).

    Because the tolerance is relative, a huge sentinel cost for forbidden
    pairs would inflate it until clearly worse completions pass as ties; pass
    forbidden pairs through gated_match instead, whose invalid-pair cost is
    bounded by min(rows, cols) + 2.
    """
    cost = _as_cost(cost)
    n_rows, n_cols = cost.shape
    target = min(n_rows, n_cols)
    if target == 0:
        return Assignment((), 0.0)
    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(best))

    pairs: list[tuple[int, int]] = []
    avail = list(range(n_cols))
    fixed = 0.0
    for r in range(n_rows):
        if len(pairs) == target:
            break
        need = target - len(pairs) - 1
        chosen = None
        for c in avail:
            rest_rows = n_rows - r - 1
            if need:
                if rest_rows < need:
                    continue
                sub = cost[r + 1 :, [cc for cc in avail if cc != c]]
                rr, cc = linear_sum_assignment(sub)
                completion = float(sub[rr, cc].sum())
            else:
                completion = 0.0
            if fixed + cost[r, c] + completion <= best + tol:
                chosen = c
                break
        if chosen is None:
            # leaving this row unmatched is the only optimal continuation
            continue
        pairs.append((r, chosen))
        avail.remove(chosen)
        fixed += cost[r, chosen]

    idx = np.array(pairs, dtype=int).reshape(-1, 2)
    total = float(cost[idx[:, 0], idx[:, 1]].sum())
    return Assignment(tuple(pairs), total)


def gated_match(benefit: np.ndarray, valid: np.ndarray) -> list[tuple[int, int]]:
    """Maximize valid pair count, then summed benefit, then lex order.

    Implemented by solving the assignment problem on cost = 1 - benefit for
    valid pairs and B = min(rows, cols) + 2 for invalid ones, then dropping
    invalid pairs from the solution.
    """
    if benefit.size == 0:
        return []
    big = min(benefit.shape) + 2.0
    cost = np.where(valid, 1.0 - benefit, big)
    return [(r, c) for r, c in hungarian(cost).pairs if valid[r, c]]


def greedy_match(cost, gate: float) -> Assignment:
    """Greedy matching: repeatedly take the globally smallest entry <= gate.

    Each accepted pair removes its row and column. Ties resolve to the lowest
    row, then lowest column. Stops when no remaining entry passes the gate.
    """
    cost = _as_cost(cost)
    if not np.isfinite(gate):
        raise ValueError("gate must be finite")
    work = cost.copy()
    n_rows, n_cols = work.shape
    pairs: list[tuple[int, int]] = []
    total = 0.0
    for _ in range(min(n_rows, n_cols)):
        flat = np.argmin(work)  # first occurrence in C order: lowest row, then col
        r, c = divmod(int(flat), n_cols)
        if not work[r, c] <= gate:
            break
        pairs.append((r, c))
        total += float(cost[r, c])
        work[r, :] = np.inf
        work[:, c] = np.inf
    return Assignment(tuple(pairs), total)
