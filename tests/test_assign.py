import numpy as np
import pytest

from chimptrack import assign
from chimptrack.assign import Assignment, gated_match, hungarian, linear_sum_assignment
from chimptrack.oracles import _brute_gated, brute_assignment
from chimptrack.rng import Xoshiro256


def random_matrix(rng, max_dim=6):
    rows = 1 + rng.randint(max_dim)
    cols = 1 + rng.randint(max_dim)
    return np.array([[rng.uniform(0, 10) for _ in range(cols)] for _ in range(rows)])


def test_hungarian_matches_enumeration_on_random_matrices():
    rng = Xoshiro256(101)
    for _ in range(150):
        cost = random_matrix(rng)
        got = hungarian(cost)
        want = brute_assignment(cost)
        assert got.pairs == want.pairs
        assert got.total_cost == pytest.approx(want.total_cost, abs=1e-9)


def test_hungarian_matches_enumeration_with_heavy_ties():
    # Integer costs in a tiny range force many equal-cost optima, stressing
    # the lexicographic tie-break rather than the optimum itself.
    rng = Xoshiro256(202)
    for _ in range(150):
        rows = 1 + rng.randint(5)
        cols = 1 + rng.randint(5)
        cost = np.array([[float(rng.randint(3)) for _ in range(cols)] for _ in range(rows)])
        assert hungarian(cost).pairs == brute_assignment(cost).pairs


def test_hungarian_uniform_costs_pick_diagonal():
    assert hungarian(np.ones((3, 3))).pairs == ((0, 0), (1, 1), (2, 2))
    assert hungarian(np.zeros((2, 4))).pairs == ((0, 0), (1, 1))


def test_hungarian_known_instance():
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    got = hungarian(cost)
    assert got.total_cost == pytest.approx(5.0)
    assert got.pairs == ((0, 1), (1, 0), (2, 2))


def test_hungarian_takes_the_global_optimum_not_the_cheapest_entry():
    # taking the cheapest entry (0, 0) first would force (1, 1) at 100
    cost = np.array([[1.0, 2.0], [1.5, 100.0]])
    got = hungarian(cost)
    assert got.pairs == ((0, 1), (1, 0))
    assert got.total_cost == pytest.approx(3.5)


def test_hungarian_rectangular_counts():
    tall = hungarian(np.arange(12, dtype=float).reshape(4, 3))
    assert len(tall.pairs) == 3
    wide = hungarian(np.arange(12, dtype=float).reshape(3, 4))
    assert len(wide.pairs) == 3


def test_hungarian_empty_and_invalid_inputs():
    assert hungarian(np.zeros((0, 3))) == Assignment((), 0.0)
    assert hungarian(np.zeros((3, 0))) == Assignment((), 0.0)
    with pytest.raises(ValueError):
        hungarian(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        hungarian(np.array([[np.inf, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        hungarian(np.array([[np.nan]]))


def random_solver_instances(seed, count=300, max_dim=40):
    """Rectangular matrices with rows <= cols, alternately continuous and
    integer costs in {0, 1, 2} (many tied optima)."""
    rng = Xoshiro256(seed)
    for i in range(count):
        rows, cols = sorted((1 + rng.randint(max_dim), 1 + rng.randint(max_dim)))
        draw = (lambda: float(rng.randint(3))) if i % 2 else (lambda: rng.uniform(-5.0, 10.0))
        yield np.array([[draw() for _ in range(cols)] for _ in range(rows)])


def test_linear_sum_assignment_total_matches_scipy():
    scipy_lsa = pytest.importorskip("scipy.optimize").linear_sum_assignment
    for cost in random_solver_instances(808):
        col4row, _, _ = linear_sum_assignment(cost)
        assert sorted(col4row) == sorted(set(col4row))
        got = float(cost[np.arange(len(col4row)), col4row].sum())
        want = float(cost[scipy_lsa(cost)].sum())
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), cost.shape


def test_linear_sum_assignment_duals_are_feasible_and_tight():
    for cost in random_solver_instances(909):
        col4row, u, v = linear_sum_assignment(cost)
        reduced = cost - np.array(u)[:, None] - np.array(v)[None, :]
        assert reduced.min() >= -1e-9
        assert np.abs(reduced[np.arange(len(col4row)), col4row]).max() <= 1e-9
        total = float(cost[np.arange(len(col4row)), col4row].sum())
        assert sum(u) + sum(v) == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_linear_sum_assignment_rejects_tall_and_non_finite_inputs():
    with pytest.raises(ValueError):
        linear_sum_assignment(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        linear_sum_assignment(np.array([[0.0, np.inf]]))


def test_hungarian_solves_an_untied_matrix_once(monkeypatch):
    solves = []

    def counting(cost):
        solves.append(1)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(assign, "linear_sum_assignment", counting)
    rng = Xoshiro256(1010)
    cost = np.array([[rng.uniform(0.0, 1.0) for _ in range(10)] for _ in range(10)])
    got = hungarian(cost)
    assert len(solves) == 1
    col4row, _, _ = linear_sum_assignment(cost)
    assert got.pairs == tuple(enumerate(col4row))  # the optimum is unique


def test_gated_match_maximizes_benefit():
    benefit = np.array([[0.9, 0.8], [0.85, 0.1]])
    valid = np.ones((2, 2), dtype=bool)
    assert gated_match(benefit, valid) == [(0, 1), (1, 0)]


def test_gated_match_prefers_pair_count_over_benefit():
    # only column 0 is valid: one pair max, and it should be the best one
    benefit = np.array([[0.9, 0.8], [0.85, 0.1]])
    valid = np.array([[True, False], [True, False]])
    assert gated_match(benefit, valid) == [(0, 0)]


def test_gated_match_empty():
    assert gated_match(np.zeros((0, 3)), np.zeros((0, 3), dtype=bool)) == []


def random_gated_instance(rng, density, ties):
    rows = 1 + rng.randint(6)
    cols = 1 + rng.randint(6)
    draw = (lambda: rng.randint(5) / 4.0) if ties else (lambda: rng.uniform(0.0, 1.0))
    benefit = np.array([[draw() for _ in range(cols)] for _ in range(rows)])
    valid = np.array([[rng.random() < density for _ in range(cols)] for _ in range(rows)])
    return benefit, valid


def test_gated_match_agrees_with_definition():
    rng = Xoshiro256(606)
    for density in (0.2, 0.4, 0.6, 0.8, 1.0):
        for i in range(80):
            benefit, valid = random_gated_instance(rng, density, ties=i % 2 == 0)
            assert gated_match(benefit, valid) == _brute_gated(benefit, valid), (benefit, valid)


def test_gated_match_ignores_pairs_it_cannot_use():
    benefit = np.array([[0.0, 0.7], [0.0, 0.7]])
    valid = np.array([[False, True], [False, True]])
    assert gated_match(benefit, valid) == [(0, 1)]

    rng = Xoshiro256(707)
    for i in range(200):
        benefit, valid = random_gated_instance(rng, 0.6, ties=i % 2 == 0)
        want = gated_match(benefit, valid)
        at = rng.randint(valid.shape[0] + 1)
        rows = gated_match(np.insert(benefit, at, 0.5, axis=0), np.insert(valid, at, False, axis=0))
        assert [(r - (r > at), c) for r, c in rows] == want
        at = rng.randint(valid.shape[1] + 1)
        cols = gated_match(np.insert(benefit, at, 0.5, axis=1), np.insert(valid, at, False, axis=1))
        assert [(r, c - (c > at)) for r, c in cols] == want


def test_brute_gated_refuses_large_instances():
    with pytest.raises(ValueError):
        _brute_gated(np.zeros((12, 12)), np.ones((12, 12), dtype=bool))
