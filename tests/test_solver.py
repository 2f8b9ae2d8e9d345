import hashlib

import numpy as np
import pytest

from hpppt import (Instance, InvalidConfigError, SearchState, SolverConfig,
                   build_heuristic_table, dominates, expected_cost_q,
                   heuristic_value, oracle_solve, solve)
from hpppt.bench import make_instance
from support import brute_force_best, completion_table, random_instance

TRI = Instance([[0, 1, 4], [1, 0, 2], [4, 2, 0]], [0.2, 0.5, 0.3], 0, "tri")


def test_heuristic_table_hand_values():
    gamma = build_heuristic_table(TRI).gamma
    assert gamma[:, 0] == pytest.approx([0.0, 0.0, 0.0])
    # one hop: (1-p(v)) * nearest edge
    assert gamma[0, 1] == pytest.approx(0.8)   # 0.8 * 1
    assert gamma[1, 1] == pytest.approx(0.5)   # 0.5 * 1
    assert gamma[2, 1] == pytest.approx(1.4)   # 0.7 * 2
    # two hops from 0: 0.8 * (1 + gamma[1,1])
    assert gamma[0, 2] == pytest.approx(1.2)


def _reference_gamma(inst):
    """Reference recursion: a fresh cost + gamma sum with an inf diagonal
    for every k."""
    n = inst.n
    gamma = np.zeros((n, n))
    if n > 1:
        omp = 1.0 - inst.prob
        for k in range(1, n):
            m = inst.cost + gamma[:, k - 1][None, :]
            np.fill_diagonal(m, np.inf)
            gamma[:, k] = omp * m.min(axis=1)
    return gamma


def test_heuristic_table_equals_reference_formula():
    rng = np.random.default_rng(61)
    n_random = int(rng.integers(3, 30))
    cases = [Instance([[0.0]], [0.3], 0),
             Instance([[0.0, 2.5], [2.5, 0.0]], [0.1, 0.7], 1),
             random_instance(rng, n_random, p_max=0.5),
             random_instance(rng, 9, euclidean=False),
             random_instance(rng, 40, p_max=0.5)]
    # asymmetric costs: the recursion reads cost(v, u), not cost(u, v)
    asym = rng.uniform(1.0, 50.0, (9, 9))
    np.fill_diagonal(asym, 0.0)
    cases.append(Instance(asym, rng.uniform(0.0, 0.9, 9), 3))
    for inst in cases:
        got = build_heuristic_table(inst).gamma
        want = _reference_gamma(inst)
        assert got.shape == want.shape
        assert (got == want).all()
        assert not got.flags.writeable


def test_heuristic_value_at_root():
    table = build_heuristic_table(TRI)
    root = SearchState(v=0, g=0.0, q=0.8, visited=1, size=1)
    assert heuristic_value(table, TRI, root) == pytest.approx(1.2)
    goal = SearchState(v=2, g=1.6, q=0.28, visited=7, size=3)
    assert heuristic_value(table, TRI, goal) == 0.0


def test_solve_worked_example():
    res = solve(TRI)
    assert res.status == "ok"
    assert res.path == (0, 1, 2)
    assert res.cost == pytest.approx(1.6, abs=1e-12)


def test_single_vertex():
    res = solve(Instance([[0.0]], [0.3], 0))
    assert res.status == "ok"
    assert res.path == (0,)
    assert res.cost == 0.0
    assert res.stats.expansions == 1
    assert res.stats.generations == 1


def test_matches_brute_force_on_small_instances():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        inst = random_instance(rng, n, euclidean=True)
        res = solve(inst, SolverConfig(time_limit=None))
        _, want = brute_force_best(inst)
        assert res.status == "ok"
        assert res.cost == pytest.approx(want, abs=1e-9)
        assert res.cost == pytest.approx(expected_cost_q(inst, res.path),
                                         abs=1e-12)


def test_start_vertex_respected():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 100, (6, 2))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(2))
    inst = Instance(d, rng.uniform(0, 0.8, 6), 4)
    res = solve(inst)
    assert res.path[0] == 4
    assert sorted(res.path) == list(range(6))


def test_focal_respects_bound():
    rng = np.random.default_rng(19)
    for eps in (0.01, 0.1, 0.5):
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(4, 9)))
            opt = solve(inst, SolverConfig(time_limit=None))
            sub = solve(inst, SolverConfig(epsilon=eps, time_limit=None))
            assert sub.status == "ok"
            assert sub.cost <= (1.0 + eps) * opt.cost + 1e-9


def test_heuristic_off_same_cost_more_expansions():
    rng = np.random.default_rng(23)
    for _ in range(10):
        inst = random_instance(rng, 8)
        a = solve(inst, SolverConfig(time_limit=None))
        b = solve(inst, SolverConfig(use_heuristic=False, time_limit=None))
        assert abs(a.cost - b.cost) <= 1e-9
        assert a.stats.expansions <= b.stats.expansions


def test_pruning_off_same_cost():
    rng = np.random.default_rng(29)
    for _ in range(10):
        inst = random_instance(rng, 7)
        a = solve(inst, SolverConfig(time_limit=None))
        b = solve(inst, SolverConfig(use_pruning=False, time_limit=None))
        assert abs(a.cost - b.cost) <= 1e-9
        assert b.stats.prunes == 0


def test_stats_invariants():
    rng = np.random.default_rng(31)
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(2, 9)))
        res = solve(inst)
        s = res.stats
        assert s.generations >= s.expansions >= 1
        assert s.prunes == s.pruned_extracted + s.pruned_generated
        assert s.prunes <= s.generations
        assert s.peak_open >= 1
        assert s.wall_time >= 0.0


def test_extraction_order_is_f_monotone():
    rng = np.random.default_rng(37)
    inst = random_instance(rng, 8)
    table = build_heuristic_table(inst)
    seen = []
    solve(inst, SolverConfig(time_limit=None),
          on_expand=lambda s: seen.append(s.g + heuristic_value(table, inst, s)))
    assert len(seen) >= 2
    for a, b in zip(seen, seen[1:]):
        assert b >= a - 1e-9


def test_generated_states_follow_transition_rules():
    inst = TRI
    states = []
    solve(inst, on_generate=states.append)
    for s in states:
        assert s.visited & (1 << s.v)
        assert bin(s.visited).count("1") == s.size
        assert s.q <= 1.0 + 1e-12
    root = states[0]
    assert root.v == 0 and root.g == 0.0 and root.q == pytest.approx(0.8)
    assert root.visited == 1


def test_dominates_requires_same_vertex():
    s1 = SearchState(v=0, g=1.0, q=0.5, visited=3, size=2)
    s2 = SearchState(v=1, g=2.0, q=0.5, visited=3, size=2)
    with pytest.raises(ValueError):
        dominates(s1, s2)


def test_dominates_superset_and_cheaper():
    a = SearchState(v=2, g=1.0, q=0.2, visited=0b111, size=3)
    b = SearchState(v=2, g=1.5, q=0.4, visited=0b101, size=2)
    assert dominates(a, b)
    assert not dominates(b, a)
    # equal within tolerance counts as dominating
    c = SearchState(v=2, g=1.0 + 5e-10, q=0.2, visited=0b111, size=3)
    assert dominates(c, a)


def test_tie_break_fifo_same_cost():
    rng = np.random.default_rng(41)
    for _ in range(5):
        inst = random_instance(rng, 7)
        a = solve(inst, SolverConfig(tie_break="deep"))
        b = solve(inst, SolverConfig(tie_break="fifo"))
        assert abs(a.cost - b.cost) <= 1e-9


def test_timeout_reports_status():
    rng = np.random.default_rng(43)
    inst = random_instance(rng, 18, p_max=0.05)
    res = solve(inst, SolverConfig(use_heuristic=False, use_pruning=False,
                                   time_limit=1e-9))
    assert res.status == "timeout"
    assert res.path is None and res.cost is None


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        solve(TRI, SolverConfig(epsilon=-0.1))
    with pytest.raises(InvalidConfigError):
        solve(TRI, SolverConfig(tie_break="lifo"))
    with pytest.raises(InvalidConfigError):
        solve(TRI, SolverConfig(time_limit=0.0))
    # NaN epsilon used to run an exact search, NaN time_limit never expired
    with pytest.raises(InvalidConfigError):
        solve(TRI, SolverConfig(epsilon=float("nan")))
    with pytest.raises(InvalidConfigError):
        solve(TRI, SolverConfig(time_limit=float("nan")))


def test_heuristic_admissible_against_exact_completion():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        inst = random_instance(rng, n)
        table = build_heuristic_table(inst)
        finish = completion_table(inst)
        full = (1 << n) - 1
        states = []
        solve(inst, SolverConfig(time_limit=None), on_generate=states.append)
        for s in states:
            h = heuristic_value(table, inst, s)
            hstar = s.q * finish(s.v, full & ~s.visited)
            assert h <= hstar + 1e-9 * max(1.0, hstar)


def test_focal_zero_eps_matches_exact():
    rng = np.random.default_rng(53)
    for _ in range(5):
        inst = random_instance(rng, 7)
        a = solve(inst, SolverConfig(epsilon=0.0))
        b = solve(inst, SolverConfig(epsilon=1e-12))
        assert abs(a.cost - b.cost) <= 1e-9


def test_oracle_agreement_medium():
    rng = np.random.default_rng(59)
    for _ in range(5):
        inst = random_instance(rng, 9)
        a = solve(inst, SolverConfig(time_limit=None))
        b = oracle_solve(inst)
        assert a.cost == pytest.approx(b.cost, abs=1e-9)


# sha256 over every search below of (status, path, repr(cost), expansions,
# generations, pruned_extracted, pruned_generated, peak_open), recorded with
# the unbucketed linear frontier scan and the open-heap focal rebuild.
SEARCH_GRID_DIGEST = (
    "1053d47abce94c44e1a8219e8312c8283eb227436bdbcca28f0b35b9998793b3")


def _search_grid():
    cells = [(make_instance(n, index, 3, p_max), n <= 10)
             for n in (10, 12, 13) for p_max in (0.1, 0.9)
             for index in (0, 1)]
    # at n = 35 and p_max = 0.9 the survival weight falls so far that late
    # hops add about 1e-9 to g, so the 1e-9 dominance slack decides prunes
    cells += [(make_instance(35, index, 3, 0.9), False) for index in (0, 1)]
    for inst, with_noh in cells:
        for eps in (0.0, 0.02, 0.2):
            for tie_break in ("deep", "fifo"):
                for use_h in (True, False) if with_noh else (True,):
                    yield inst, SolverConfig(epsilon=eps, tie_break=tie_break,
                                             use_heuristic=use_h,
                                             time_limit=None)


def test_searches_match_recorded_digest():
    """Dominance index and focal upkeep must not change any search: the
    same path, cost bits and counters on every cell of the grid."""
    digest = hashlib.sha256()
    count = 0
    for inst, cfg in _search_grid():
        res = solve(inst, cfg)
        s = res.stats
        digest.update(repr((res.status, res.path, repr(res.cost),
                            s.expansions, s.generations, s.pruned_extracted,
                            s.pruned_generated, s.peak_open)).encode())
        count += 1
    assert count == 108
    assert digest.hexdigest() == SEARCH_GRID_DIGEST
