import itertools
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import hpppt
from hpppt import (ORACLE_CAP, Instance, OracleCapError, blind_hpp_solve,
                   expected_cost_q, greedy_solve, oracle_solve,
                   require_metric, solve)
from hpppt.baselines import _nearest_order, _two_opt
from hpppt.bench import make_instance
from support import brute_force_best, completion_table, random_instance


def test_oracle_matches_exhaustive_search():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        base = random_instance(rng, n, euclidean=False)
        # the table holds only visited sets that contain the start
        inst = Instance(base.cost, base.prob, int(rng.integers(n)))
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
    # unit costs and equal probabilities: every order from the middle
    # start costs the same, so the path is the start then the rest in
    # index order. A recovery run backward from the end, or one taking
    # the last minimum, returns another order.
    flat = Instance(np.ones((6, 6)) - np.eye(6), np.full(6, 0.25), 3)
    assert oracle_solve(flat).path == (3, 0, 1, 2, 4, 5)


def test_oracle_cap_enforced():
    rng = np.random.default_rng(67)
    inst = random_instance(rng, 13)
    with pytest.raises(OracleCapError):
        oracle_solve(inst)


def test_oracle_at_cap():
    """n = ORACLE_CAP, where brute force cannot reach: the cost against
    the support DP and the path against exact search."""
    inst = make_instance(ORACLE_CAP, 0, 11)
    res = oracle_solve(inst)
    rest = ((1 << inst.n) - 1) ^ (1 << inst.start)
    finish = completion_table(inst)(inst.start, rest)
    assert res.cost == pytest.approx(
        (1.0 - inst.prob[inst.start]) * finish, rel=1e-12)
    assert res.path == solve(inst).path


def test_greedy_orders_by_probability_then_index():
    inst = Instance(np.ones((4, 4)) - np.eye(4),
                    [0.1, 0.3, 0.8, 0.3], 0)
    res = greedy_solve(inst)
    assert res.path == (0, 2, 1, 3)
    assert res.cost == pytest.approx(expected_cost_q(inst, res.path))


def test_nearest_neighbor_tie_smaller_index():
    inst = Instance([[0, 2, 2, 5], [2, 0, 3, 5], [2, 3, 0, 5], [5, 5, 5, 0]],
                    [0.0, 0.0, 0.0, 0.0], 0)
    assert _nearest_order(inst.cost.tolist(), 0) == (0, 1, 2, 3)


def test_two_opt_improves_crossing_path():
    # square visited in a crossing order; 2-opt should uncross it
    pts = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
    cost = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(2))
    crossed = (0, 2, 1, 3)
    fixed = _two_opt(crossed, cost.tolist())

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
        start = _nearest_order(inst.cost.tolist(), inst.start)
        out = _two_opt(start, inst.cost.tolist())

        def plen(order):
            return sum(inst.cost[a, b] for a, b in zip(order, order[1:]))

        assert plen(out) <= plen(start) + 1e-12
        assert out[0] == inst.start


def _rescored_two_opt(order, cost):
    """2-opt by the rule of _two_opt, scoring each reversal on the
    whole path: the first (i, j) in row-major order whose two end edges
    and whole path both shorten by more than 1e-12, repeated until none
    does."""
    def plen(order):
        return sum(cost[a][b] for a, b in zip(order, order[1:]))

    order = list(order)
    n = len(order)
    while True:
        for i, j in itertools.combinations(range(1, n), 2):
            a = order[i - 1]
            before = cost[a][order[i]]
            after = cost[a][order[j]]
            if j + 1 < n:
                before += cost[order[j]][order[j + 1]]
                after += cost[order[i]][order[j + 1]]
            new = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
            if (after < before - 1e-12
                    and plen(new) < plen(order) - 1e-12):
                order = new
                break
        else:
            return tuple(order)


def test_two_opt_ends_on_asymmetric_costs():
    """Reversing a segment also reverses its own edges. Counting only the
    two end edges accepts moves that lengthen this metric but asymmetric
    path, and the order then cycles. Integer costs keep every sum exact,
    so the orders must equal the whole-path reference. The solves run in
    a child process, so that a cycle fails the test instead of hanging
    it."""
    rng = np.random.default_rng(43)
    for _ in range(10):
        cost = rng.choice((1.0, 2.0), size=(13, 13))
    np.fill_diagonal(cost, 0.0)
    inst = Instance(cost, np.full(13, 0.1), 0)
    require_metric(inst)
    assert not (cost == cost.T).all()
    cases = []
    for _ in range(30):
        n = int(rng.integers(4, 14))
        m = rng.integers(1, 4, (n, n)).astype(float)
        np.fill_diagonal(m, 0.0)
        order = [0] + [int(v) for v in rng.permutation(np.arange(1, n))]
        cases.append((order, m.tolist()))
    code = textwrap.dedent("""
        import json, sys
        from hpppt import Instance, blind_hpp_solve
        from hpppt.baselines import _two_opt
        cost, prob, cases = json.load(sys.stdin)
        out = [blind_hpp_solve(Instance(cost, prob, 0)).path]
        out += [_two_opt(order, m) for order, m in cases]
        print(json.dumps(out))
    """)
    src = os.path.dirname(os.path.dirname(hpppt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60,
        input=json.dumps([cost.tolist(), inst.prob.tolist(), cases]))
    assert proc.returncode == 0, proc.stderr
    out = [tuple(order) for order in json.loads(proc.stdout)]
    assert out[0] == _rescored_two_opt(_nearest_order(cost.tolist(), 0),
                                       cost)
    for (order, m), got in zip(cases, out[1:]):
        assert got == _rescored_two_opt(order, m)


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
        cost = inst.cost.tolist()
        nn = _nearest_order(cost, inst.start)
        assert nn == _reference_nearest_neighbor(inst)
        by_index = (inst.start,) + tuple(v for v in range(inst.n)
                                         if v != inst.start)
        for order in (nn, by_index):
            assert (_two_opt(order, cost)
                    == _reference_two_opt(order, inst.cost))
