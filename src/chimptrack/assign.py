"""Bipartite assignment: optimal matching and gated optimal matching.

All matchers operate on dense float cost matrices. Rectangular inputs yield
min(rows, cols) pairs; there is no padding. Ties between equally cheap optima
resolve deterministically to the lexicographically smallest pair list ordered
by (row, col).

Gated matchings (the tracker's association stages, CLEAR's per-frame step,
HOTA's per-alpha step and the pose pairing of the report) share one rule,
gated_match: among matchings of valid pairs, the most pairs, then the largest
summed benefit, then the lexicographically smallest pair list, where a
matched row sorts before an unmatched one. Invalid pairs play no part, so a
frame's unique result does not depend on rows or columns it cannot use.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment


class Assignment(NamedTuple):
    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def hungarian(cost) -> Assignment:
    """Minimum-total-cost maximum matching of a dense cost matrix.

    Returns min(rows, cols) pairs. Among equal-cost optima the result is the
    lexicographically smallest pair list: rows are committed in ascending
    order to the smallest column whose completion still attains the optimal
    total (tolerance 1e-9 relative to the optimum, to absorb summation-order
    drift when re-solving subproblems).

    Because the tolerance is relative, a huge sentinel cost for forbidden
    pairs would inflate it until clearly worse completions pass as ties; pass
    forbidden pairs through gated_match instead.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if cost.size and not np.isfinite(cost).all():
        raise ValueError("cost matrix entries must be finite")
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
