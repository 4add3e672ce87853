import numpy as np
import pytest

from chimptrack.assign import Assignment, gated_match, greedy_match, hungarian
from chimptrack.oracles import brute_assignment
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


def test_greedy_takes_global_minimum_first():
    cost = np.array([[5.0, 2.0], [1.0, 4.0]])
    got = greedy_match(cost, gate=10.0)
    assert got.pairs == ((1, 0), (0, 1))
    assert got.total_cost == pytest.approx(3.0)


def test_greedy_gate_blocks_expensive_pairs():
    cost = np.array([[5.0, 2.0], [1.0, 4.0]])
    got = greedy_match(cost, gate=2.0)
    assert got.pairs == ((1, 0), (0, 1))  # 2.0 passes an inclusive gate
    got = greedy_match(cost, gate=1.5)
    assert got.pairs == ((1, 0),)
    assert greedy_match(cost, gate=0.5).pairs == ()


def test_greedy_can_be_suboptimal_where_hungarian_is_not():
    cost = np.array([[1.0, 2.0], [1.5, 100.0]])
    assert greedy_match(cost, gate=1000.0).total_cost == pytest.approx(101.0)
    assert hungarian(cost).total_cost == pytest.approx(3.5)


def test_greedy_tie_breaks_on_lowest_row_then_column():
    cost = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert greedy_match(cost, gate=2.0).pairs == ((0, 0), (1, 1))


def test_greedy_rejects_non_finite_gate():
    with pytest.raises(ValueError):
        greedy_match(np.ones((2, 2)), gate=np.inf)
