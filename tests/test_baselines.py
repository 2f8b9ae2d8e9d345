import itertools

import numpy as np
import pytest

from hpppt import (Instance, OracleCapError, blind_hpp_solve,
                   expected_cost_q, greedy_solve, nearest_neighbor,
                   oracle_solve, solve, two_opt_path)
from support import brute_force_best, random_instance


def test_oracle_matches_exhaustive_search():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        inst = random_instance(rng, n, euclidean=False)
        res = oracle_solve(inst)
        order, cost = brute_force_best(inst)
        assert res.status == "ok"
        assert res.cost == pytest.approx(cost, abs=1e-12)
        assert res.path == order


def test_oracle_breaks_ties_lexicographically():
    # symmetric layout where both orders of the far pair cost the same
    inst = Instance([[0, 1, 1], [1, 0, 2], [1, 2, 0]], [0.3, 0.5, 0.5], 0)
    res = oracle_solve(inst)
    assert expected_cost_q(inst, (0, 1, 2)) == pytest.approx(
        expected_cost_q(inst, (0, 2, 1)))
    assert res.path == (0, 1, 2)


def test_oracle_cap_enforced():
    rng = np.random.default_rng(67)
    inst = random_instance(rng, 13)
    with pytest.raises(OracleCapError):
        oracle_solve(inst)
    # explicit cap override still works
    small = random_instance(rng, 5)
    assert oracle_solve(small, cap=5).status == "ok"


def test_oracle_chunking_consistent():
    # 9! = 362880 permutations spans two scoring chunks
    rng = np.random.default_rng(71)
    inst = random_instance(rng, 9)
    res = oracle_solve(inst)
    exact = solve(inst)
    assert res.cost == pytest.approx(exact.cost, abs=1e-9)


def test_greedy_orders_by_probability_then_index():
    inst = Instance(np.ones((4, 4)) - np.eye(4),
                    [0.1, 0.3, 0.8, 0.3], 0)
    res = greedy_solve(inst)
    assert res.path == (0, 2, 1, 3)
    assert res.cost == pytest.approx(expected_cost_q(inst, res.path))


def test_nearest_neighbor_tie_smaller_index():
    inst = Instance([[0, 2, 2, 5], [2, 0, 3, 5], [2, 3, 0, 5], [5, 5, 5, 0]],
                    [0.0, 0.0, 0.0, 0.0], 0)
    assert nearest_neighbor(inst) == (0, 1, 2, 3)


def test_two_opt_improves_crossing_path():
    # square visited in a crossing order; 2-opt should uncross it
    pts = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
    cost = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(2))
    crossed = (0, 2, 1, 3)
    fixed = two_opt_path(crossed, cost)

    def plen(order):
        return sum(cost[a, b] for a, b in zip(order, order[1:]))

    assert plen(fixed) < plen(crossed)
    assert fixed[0] == 0
    assert sorted(fixed) == [0, 1, 2, 3]


def test_two_opt_never_worsens():
    rng = np.random.default_rng(73)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        inst = random_instance(rng, n)
        start = nearest_neighbor(inst)
        out = two_opt_path(start, inst.cost)

        def plen(order):
            return sum(inst.cost[a, b] for a, b in zip(order, order[1:]))

        assert plen(out) <= plen(start) + 1e-12
        assert out[0] == inst.start


def test_blind_scores_by_expected_cost():
    rng = np.random.default_rng(79)
    inst = random_instance(rng, 8)
    res = blind_hpp_solve(inst)
    assert res.status == "ok"
    assert res.cost == pytest.approx(expected_cost_q(inst, res.path))
    assert res.stats.expansions == 0


def test_blind_accepts_precomputed_tour():
    rng = np.random.default_rng(83)
    inst = random_instance(rng, 6)
    tour = [inst.start] + [v for v in range(6) if v != inst.start]
    res = blind_hpp_solve(inst, tour=tour)
    assert res.path == tuple(tour)
    assert res.cost == pytest.approx(expected_cost_q(inst, tour))


def test_exact_never_beaten_by_baselines():
    rng = np.random.default_rng(89)
    for _ in range(10):
        inst = random_instance(rng, 8)
        best = solve(inst).cost
        assert best <= greedy_solve(inst).cost + 1e-9
        assert best <= blind_hpp_solve(inst).cost + 1e-9


def _reference_nearest_neighbor(inst):
    """Nearest neighbor read through numpy indexing, ties to the smaller
    index."""
    order = [inst.start]
    left = [v for v in range(inst.n) if v != inst.start]
    while left:
        cur = order[-1]
        best = min(left, key=lambda u: (inst.cost[cur, u], u))
        left.remove(best)
        order.append(best)
    return tuple(order)


def _reference_two_opt(order, cost):
    """First-improvement 2-opt read through numpy indexing: the first
    (i, j) in row-major order whose reversal shortens the path by more
    than 1e-12, repeated until none does."""
    order = list(order)
    n = len(order)
    while True:
        for i, j in itertools.combinations(range(1, n), 2):
            a = order[i - 1]
            if j + 1 < n:
                before = cost[a, order[i]] + cost[order[j], order[j + 1]]
                after = cost[a, order[j]] + cost[order[i], order[j + 1]]
            else:
                before = cost[a, order[i]]
                after = cost[a, order[j]]
            if after < before - 1e-12:
                order[i:j + 1] = order[i:j + 1][::-1]
                break
        else:
            return tuple(order)


def test_nearest_neighbor_and_two_opt_match_numpy_reference():
    rng = np.random.default_rng(97)
    cases = [random_instance(rng, int(rng.integers(3, 25)))
             for _ in range(12)]
    cases += [random_instance(rng, 15, euclidean=False)]
    # equal costs everywhere: every choice is a tie, and no reversal
    # shortens the path by more than 1e-12
    cases += [Instance(np.ones((9, 9)) - np.eye(9), np.zeros(9), 4)]
    # costs from {1, 2}: many equal sums on both sides of a move
    m = rng.integers(1, 3, (12, 12)).astype(float)
    m = np.maximum(m, m.T)
    np.fill_diagonal(m, 0.0)
    cases += [Instance(m, np.zeros(12), 2)]
    # moves that gain 5e-13, under the 1e-12 threshold, and 2e-12, over it
    near = np.ones((8, 8)) - np.eye(8)
    for (a, b), gain in (((0, 2), 5e-13), ((1, 4), 2e-12), ((3, 7), 5e-13)):
        near[a, b] = near[b, a] = 1.0 - gain
    cases += [Instance(near, np.zeros(8), 0)]
    for inst in cases:
        nn = nearest_neighbor(inst)
        assert nn == _reference_nearest_neighbor(inst)
        by_index = (inst.start,) + tuple(v for v in range(inst.n)
                                         if v != inst.start)
        for order in (nn, by_index):
            assert (two_opt_path(order, inst.cost)
                    == _reference_two_opt(order, inst.cost))
