"""Bipartite assignment: an optimal assignment solver, and the lexicographic
and gated matchings built on it.

linear_sum_assignment routes each row in turn along a shortest augmenting
path (Jonker & Volgenant 1987; Crouse 2016) and keeps row and column duals
that certify the optimum: every reduced cost cost - u - v is >= 0, and it is
0 on the matched pairs.

hungarian solves once and then resolves ties between equally cheap optima to
the lexicographically smallest pair list ordered by (row, col). Rectangular
inputs yield min(rows, cols) pairs. The duals screen the tie candidates: a
pair whose reduced cost exceeds the tolerance cannot lie in any optimum, so
only tied pairs are checked, each with one shortest-path search.

Gated matchings (the tracker's association stages, CLEAR's per-frame step
and the pose pairing of the report) share one rule, gated_match: among
matchings of valid pairs, the most pairs, then the largest summed benefit,
then the lexicographically smallest pair list, where a matched row sorts
before an unmatched one. Invalid pairs play no part, so a frame's unique
result does not depend on rows or columns it cannot use. HOTA's per-frame
matching and IDF1's identity bijection are max-sum matchings with no gate and
call hungarian directly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Assignment(NamedTuple):
    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def _as_matrix(cost) -> np.ndarray:
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    return cost


def _shortest_path(cost, u, v, row4col, start, cols, limit):
    """Dijkstra over reduced costs from row start to the nearest free column.

    The path alternates a column of cols with the row matched to it and ends
    at a column whose row4col is -1. Returns (length, sink, path, dist, rows,
    cols settled), or None when no free column lies within limit.
    """
    dist = [math.inf] * len(row4col)
    path = [-1] * len(row4col)
    remaining = list(cols)
    rows, settled = [], []
    i, low = start, 0.0
    while True:
        rows.append(i)
        base, row = low - u[i], cost[i]
        lowest, at = math.inf, -1
        for k, j in enumerate(remaining):
            d = base + row[j] - v[j]
            if d < dist[j]:
                dist[j], path[j] = d, i
            else:
                d = dist[j]
            if d < lowest or (d == lowest and row4col[j] < 0):
                lowest, at = d, k
        if lowest > limit:
            return None
        low, j = lowest, remaining[at]
        remaining[at] = remaining[-1]
        remaining.pop()
        settled.append(j)
        if row4col[j] < 0:
            return low, j, path, dist, rows, settled
        i = row4col[j]


def _augment(u, v, col4row, row4col, found) -> None:
    """Flip the path found by _shortest_path and keep the duals tight on it."""
    low, j, path, dist, rows, settled = found
    u[rows[0]] += low
    for i in rows[1:]:
        u[i] += low - dist[col4row[i]]
    for k in settled:
        v[k] -= low - dist[k]
    while True:
        i = path[j]
        row4col[j] = i
        col4row[i], j = j, col4row[i]
        if i == rows[0]:
            return


def linear_sum_assignment(cost) -> tuple[list[int], list[float], list[float]]:
    """Minimum-total-cost assignment of every row of a matrix with rows <= cols.

    Returns the column of each row and the duals u (per row) and v (per
    column): cost[i][j] - u[i] - v[j] is >= 0 for every pair and 0 for the
    matched ones, v is 0 on unmatched columns, and sum(u) + sum(v) is the
    optimal total.
    """
    cost = _as_matrix(cost)
    if cost.size and not np.isfinite(cost).all():
        raise ValueError("cost matrix entries must be finite")
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError(f"need rows <= cols, got shape {cost.shape}")
    table = cost.tolist()
    u, v = [0.0] * n_rows, [0.0] * n_cols
    col4row, row4col = [-1] * n_rows, [-1] * n_cols
    for r in range(n_rows):
        _augment(u, v, col4row, row4col, _shortest_path(table, u, v, row4col, r, range(n_cols), math.inf))
    return col4row, u, v


def hungarian(cost) -> Assignment:
    """Minimum-total-cost maximum matching of a dense cost matrix.

    Returns min(rows, cols) pairs. Among equal-cost optima the result is the
    lexicographically smallest pair list: rows are committed in ascending
    order to the smallest column whose completion still attains the optimal
    total, within 1e-9 relative to the optimum.

    The matrix is padded to square with zero-cost rows or columns placed
    last, so a row left unmatched sorts after every real column, and solved
    once. A row keeps its column in the current optimum unless a smaller free
    column has reduced cost <= 2 tol. Only such a candidate is checked: one
    shortest-path search from the row it displaces finds the cheapest
    completion, and the candidate is taken if the committed costs plus that
    completion stay within the tolerance of the optimum.

    Because the tolerance is relative, a huge sentinel cost for forbidden
    pairs would inflate it until clearly worse completions pass as ties; pass
    forbidden pairs through gated_match instead.
    """
    cost = _as_matrix(cost)  # linear_sum_assignment rejects non-finite entries
    n_rows, n_cols = cost.shape
    if min(n_rows, n_cols) == 0:
        return Assignment((), 0.0)
    n = max(n_rows, n_cols)
    square = cost
    if n_rows != n_cols:
        square = np.zeros((n, n))
        square[:n_rows, :n_cols] = cost
    col4row, u, v = linear_sum_assignment(square)
    table = square.tolist()
    best = sum(table[r][col4row[r]] for r in range(n_rows))
    tol = 1e-9 * max(1.0, abs(best))

    row4col = [0] * n
    for r, c in enumerate(col4row):
        row4col[c] = r
    free = [True] * n
    pairs: list[tuple[int, int]] = []
    fixed = 0.0
    for r in range(n_rows):
        j = col4row[r]
        for c in range(min(j, n_cols)):
            if not free[c]:
                continue
            slack = table[r][c] - u[r] - v[c]
            if slack > 2 * tol:
                continue
            # force (r, c): the row holding c must reach j, which r frees
            row4col[j] = -1
            cols = [k for k in range(n) if free[k] and k != c]
            found = _shortest_path(table, u, v, row4col, row4col[c], cols, 2 * tol - slack)
            row4col[j] = r
            if found is None:
                continue
            trial = u[:], v[:], col4row[:], row4col[:]
            _augment(*trial, found)
            completion = sum(table[i][trial[2][i]] for i in range(r + 1, n_rows))
            if fixed + table[r][c] + completion <= best + tol:
                u, v, col4row, row4col = trial
                col4row[r], row4col[c], j = c, r, c
                break
        free[j] = False
        if j < n_cols:
            pairs.append((r, j))
            fixed += table[r][j]

    return Assignment(tuple(pairs), float(np.add.reduce([table[r][c] for r, c in pairs])))


def gated_match(benefit: np.ndarray, valid: np.ndarray) -> list[tuple[int, int]]:
    """Among matchings of valid pairs: the most pairs, then the largest summed
    benefit, then the lexicographically smallest pair list (a matched row sorts
    before an unmatched one). Pairs come out in row order.

    The rule never looks at an invalid pair, so each connected component of
    the valid pairs is solved alone: a lone pair is taken as it is, any other
    component goes to hungarian on cost 1 - benefit. A component with invalid
    pairs gives each row a dummy column after the real ones at cost
    B = min(rows, cols) + 2, and its invalid pairs cost 3B, which no optimum
    uses. A frame whose pairs are all valid is one solve.
    """
    if valid.size and valid.all():
        return list(hungarian(1.0 - benefit).pairs)
    n_rows = valid.shape[0]
    root = list(range(n_rows + valid.shape[1]))  # union-find over rows, then columns

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    edges = np.argwhere(valid).tolist()
    for r, c in edges:
        root[find(n_rows + c)] = find(r)
    components: dict[int, list[tuple[int, int]]] = {}
    for r, c in edges:
        components.setdefault(find(r), []).append((r, c))
    pairs = []
    for component in components.values():
        rows, cols = (sorted(set(side)) for side in zip(*component))
        if len(component) == 1:
            pairs.append((rows[0], cols[0]))
            continue
        cost = 1.0 - benefit[np.ix_(rows, cols)]
        if len(component) < len(rows) * len(cols):
            big = min(len(rows), len(cols)) + 2.0
            cost = np.where(valid[np.ix_(rows, cols)], cost, 3.0 * big)
            cost = np.hstack([cost, np.full((len(rows), len(rows)), big)])
        pairs += [(rows[r], cols[c]) for r, c in hungarian(cost).pairs if c < len(cols)]
    return sorted(pairs)
