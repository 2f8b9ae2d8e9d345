import hashlib

import numpy as np
import pytest

from hpppt import (Instance, InvalidConfigError, SearchState, SolverConfig,
                   build_heuristic_table, expected_cost_q, is_metric,
                   oracle_solve, solve)
from hpppt import solver as solver_mod
from hpppt.baselines import _nearest_order
from hpppt.bench import make_instance
from hpppt.solver import (TREE_FLOOR, _dive, _has_superset, _local_search,
                          _path_bound, _path_cost, _tree_tails)
from support import brute_force_best, completion_table, random_instance

TRI = Instance([[0, 1, 4], [1, 0, 2], [4, 2, 0]], [0.2, 0.5, 0.3], 0, "tri")


def _heuristic_value(gamma, inst, s):
    """gamma's lower bound on the expected cost to finish from s."""
    k = inst.n - s.size
    if k <= 0:
        return 0.0
    return float(s.q / (1.0 - inst.prob[s.v]) * gamma[s.v, k])


def test_heuristic_table_hand_values():
    gamma = build_heuristic_table(TRI)
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
        got = build_heuristic_table(inst)
        want = _reference_gamma(inst)
        assert got.shape == want.shape
        assert (got == want).all()
        assert not got.flags.writeable


def test_heuristic_value_at_root():
    table = build_heuristic_table(TRI)
    root = SearchState(v=0, g=0.0, q=0.8, visited=1, size=1)
    assert _heuristic_value(table, TRI, root) == pytest.approx(1.2)
    goal = SearchState(v=2, g=1.6, q=0.28, visited=7, size=3)
    assert _heuristic_value(table, TRI, goal) == 0.0


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


def test_stats_invariants():
    rng = np.random.default_rng(31)
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(2, 9)))
        res = solve(inst)
        s = res.stats
        assert s.generations >= s.expansions >= 1
        assert s.prunes == (s.pruned_extracted + s.pruned_generated
                            + s.pruned_bound)
        assert s.prunes <= s.generations
        assert res.cost <= s.upper_bound
        assert s.peak_open >= 1
        assert s.wall_time >= 0.0


def test_extraction_order_is_f_monotone():
    rng = np.random.default_rng(37)
    inst = random_instance(rng, 8)
    gamma = build_heuristic_table(inst)
    seen = []
    solve(inst, SolverConfig(time_limit=None),
          on_expand=lambda s: seen.append(
              s.g + _heuristic_value(gamma, inst, s)))
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


def test_focal_with_cut_within_bound_of_brute_force():
    """The incumbent cut keeps focal costs within (1 + eps) of the
    exhaustive optimum, on low-p inputs too."""
    rng = np.random.default_rng(97)
    cut = 0
    for p_max in (0.1, 0.9):
        for _ in range(6):
            inst = random_instance(rng, int(rng.integers(4, 9)), p_max=p_max)
            _, want = brute_force_best(inst)
            for eps in (0.02, 0.2, 0.5):
                res = solve(inst, SolverConfig(epsilon=eps, time_limit=None))
                assert res.status == "ok"
                assert res.cost <= (1.0 + eps) * want + 1e-9
                cut += res.stats.pruned_bound
    assert cut > 0


def test_dive_without_heuristic_is_nearest_neighbor():
    """With gamma all zero the incumbent walk is nearest neighbor, ties to
    the smaller index, and its cost is the path's expected cost, which
    solve reports as upper_bound."""
    rng = np.random.default_rng(103)
    cases = [random_instance(rng, int(rng.integers(1, 12)))
             for _ in range(10)]
    cases.append(Instance(np.ones((7, 7)) - np.eye(7), np.full(7, 0.1), 3))
    for inst in cases:
        n = inst.n
        path, upper = solver_mod._dive(inst.cost.tolist(), [[0.0] * n] * n,
                                       (1.0 - inst.prob).tolist(), inst.start)
        assert path == _nearest_order(inst.cost.tolist(), inst.start)
        assert upper == pytest.approx(expected_cost_q(inst, path),
                                      rel=1e-12, abs=1e-12)
        res = solve(inst, SolverConfig(use_heuristic=False, time_limit=None))
        assert res.stats.upper_bound == upper
        assert res.cost <= upper


def test_timeout_reports_status():
    rng = np.random.default_rng(43)
    inst = random_instance(rng, 18, p_max=0.05)
    for first_move in (False, True):
        res = solve(inst, SolverConfig(use_heuristic=False, time_limit=1e-9),
                    first_move=first_move)
        assert res.status == "timeout"
        assert res.path is None and res.cost is None


def _inflated(rng, inst):
    """inst with about 30% of its symmetric entries made 3x dearer, which
    breaks the triangle inequality."""
    n = inst.n
    up = np.triu(rng.random((n, n)) < 0.3, 1)
    cost = np.where(up | up.T, 3.0 * inst.cost, inst.cost)
    return Instance(cost, inst.prob, inst.start, inst.name + "-inflated")


def test_first_move_equals_full_search_prefix():
    """A first-move solve returns the full path's first move, no cost and
    no more expansions, in exact and focal mode, on metric and non-metric
    costs."""
    rng = np.random.default_rng(2718)
    solves = stopped_early = 0
    for n in range(2, 13):
        for p_max in (0.1, 0.5, 0.9) * 3:
            metric = random_instance(rng, n, p_max=p_max)
            for inst in (metric, _inflated(rng, metric)):
                for eps in (0.0, 0.02, 0.2):
                    cfg = SolverConfig(epsilon=eps, time_limit=None)
                    full = solve(inst, cfg)
                    first = solve(inst, cfg, first_move=True)
                    assert first.status == full.status == "ok"
                    assert first.path == full.path[:2]
                    assert first.cost is None
                    assert first.stats.expansions <= full.stats.expansions
                    solves += 1
                    stopped_early += (first.stats.expansions
                                      < full.stats.expansions)
    assert solves == 11 * 9 * 2 * 3
    assert stopped_early > 0


def test_search_does_not_depend_on_the_incumbent(monkeypatch):
    """The incumbent only drops children that are never extracted: with the
    dive's path, its local-search improvement or a poor real path as the
    incumbent, every search expands the same states in the same order and
    returns the same path and cost bits, in exact and focal mode, on metric
    and non-metric costs. A first-move search stops once the states it
    still holds lie in one branch, which a tighter cut, holding fewer, may
    settle sooner, so it expands a prefix of that order and returns the
    same move."""
    real = solver_mod._dive
    rng = np.random.default_rng(131)
    for n in range(8, 17):
        metric = random_instance(rng, n, p_max=0.5)
        for inst in (metric, _inflated(rng, metric)):
            cost = inst.cost.tolist()
            omp = (1.0 - inst.prob).tolist()
            # a real path, not a good one: the start, then ascending index
            poor = (0,) + tuple(range(1, n))
            incumbents = [
                real,
                lambda *args: _local_search(*real(*args), cost, omp),
                lambda *args: (poor, _path_cost(poor, cost, omp))]
            for eps in (0.0, 0.05):
                cfg = SolverConfig(epsilon=eps, time_limit=None)
                full = []
                uppers = []
                for dive in incumbents:
                    monkeypatch.setattr(solver_mod, "_dive", dive)
                    seen = []
                    res = solve(inst, cfg, on_expand=seen.append)
                    assert res.status == "ok"
                    full.append((seen, res.path, repr(res.cost)))
                    uppers.append(res.stats.upper_bound)
                    seen = []
                    first = solve(inst, cfg, on_expand=seen.append,
                                  first_move=True)
                    assert first.path == res.path[:2]
                    assert seen == full[0][0][:len(seen)]
                assert full[0] == full[1] == full[2]
                assert uppers[1] <= uppers[0]
                assert uppers[2] == _path_cost(poor, cost, omp)


def test_tightened_incumbent_is_a_real_path(monkeypatch):
    """A search that runs long enough tightens its incumbent by local search
    once, at its first time check after TIGHTEN_AFTER expansions. Here the
    trigger is moved to 0: every search still expands the same states and
    returns the same result, and upper_bound is, bit for bit, the cost
    summed as the search sums g of the Hamiltonian path from the start
    that the local search returned."""
    real = solver_mod._local_search
    found = []

    def recording(*args):
        found.append(real(*args))
        return found[-1]

    rng = np.random.default_rng(137)
    cases = [make_instance(n, index, 7, 0.1)
             for n, index in ((15, 2), (16, 2), (17, 1), (17, 2), (18, 0))]
    cases += [_inflated(rng, random_instance(rng, 13, p_max=0.1))]
    tightened = 0
    for inst in cases:
        for eps in (0.0, 0.05):
            cfg = SolverConfig(epsilon=eps, time_limit=None)
            before = []
            want = solve(inst, cfg, on_expand=before.append)
            with monkeypatch.context() as m:
                m.setattr(solver_mod, "TIGHTEN_AFTER", 0)
                m.setattr(solver_mod, "_local_search", recording)
                found.clear()
                after = []
                res = solve(inst, cfg, on_expand=after.append)
            assert after == before
            assert (res.path, repr(res.cost)) == (want.path, repr(want.cost))
            # the check runs at every 256th extraction, pruned ones included
            s = res.stats
            assert len(found) == (s.expansions + s.pruned_extracted >= 256)
            if not found:
                continue
            (path, g), = found
            assert path[0] == inst.start
            assert sorted(path) == list(range(inst.n))
            assert res.stats.upper_bound == g == _path_cost(
                path, inst.cost.tolist(), (1.0 - inst.prob).tolist())
            assert g <= want.stats.upper_bound
            assert res.cost <= (1.0 + eps) * g
            tightened += g < want.stats.upper_bound
    assert tightened > 0


def test_local_search_takes_the_best_move(monkeypatch):
    """One pass of _local_search scores every block swap (one block 1-3
    vertices long, either block reversed or not) as a plain loop over the
    moved paths does, and takes the best, also when it scores the moves in
    many chunks; more passes never raise the cost, which is summed as the
    search sums g."""
    rng = np.random.default_rng(139)
    improved = 0
    for _ in range(120):
        n = int(rng.integers(2, 12))
        inst = random_instance(rng, n, p_max=0.5,
                               euclidean=bool(rng.integers(2)))
        cost = inst.cost.tolist()
        omp = (1.0 - inst.prob).tolist()
        path = (0,) + tuple(int(v) + 1 for v in rng.permutation(n - 1))
        g = _path_cost(path, cost, omp)
        best = g
        for lo in range(1, n):
            for mid in range(lo + 1, n):
                for hi in range(mid + 1, n + 1):
                    if min(mid - lo, hi - mid) > 3:
                        continue
                    a, b = path[lo:mid], path[mid:hi]
                    for aa in (a, a[::-1]):
                        for bb in (b, b[::-1]):
                            moved = path[:lo] + bb + aa + path[hi:]
                            best = min(best, _path_cost(moved, cost, omp))
        with monkeypatch.context() as m:
            m.setattr(solver_mod, "LOCAL_SEARCH_PASSES", 1)
            _, one = _local_search(path, g, cost, omp)
            m.setattr(solver_mod, "LOCAL_SEARCH_CHUNK", 7)
            _, chunked = _local_search(path, g, cost, omp)
        assert one == pytest.approx(best, rel=1e-12)
        assert chunked == pytest.approx(best, rel=1e-12)
        out, more = _local_search(path, g, cost, omp)
        assert out[0] == 0 and sorted(out) == list(range(n))
        assert more == _path_cost(out, cost, omp) <= one
        improved += more < g
    assert improved > 60


def test_ok_is_sound_on_non_metric_costs():
    """Costs that break the triangle inequality switch superset dominance
    off, so every ok result is within (1 + eps) of the exhaustive optimum,
    and every first move is the full search's, in exact and focal mode."""
    rng = np.random.default_rng(2026)
    non_metric = 0
    for _ in range(20):
        for n in range(5, 11):
            for p_max in (0.1, 0.5, 0.9):
                inst = random_instance(rng, n, p_max, euclidean=False)
                non_metric += not is_metric(inst)
                want = ((1.0 - inst.prob[0])
                        * completion_table(inst)(0, (1 << n) - 2))
                for eps in (0.0, 0.2):
                    cfg = SolverConfig(epsilon=eps, time_limit=None)
                    full = solve(inst, cfg)
                    assert full.status == "ok"
                    assert full.cost <= (1.0 + eps) * want + 1e-9
                    first = solve(inst, cfg, first_move=True)
                    assert first.status == "ok"
                    assert first.path == full.path[:2]
    assert non_metric > 300


def test_restricted_non_metric_instance_solves_to_optimum():
    """A sub-instance carries its parent's metric verdict, so restricting
    non-metric costs keeps superset dominance off and the result exact."""
    rng = np.random.default_rng(2027)
    for _ in range(60):
        parent = random_instance(rng, 12, 0.1, euclidean=False)
        m = int(rng.integers(5, 11))
        verts = rng.permutation(12)[:m]
        sub = parent.restrict(verts, rng.uniform(0.0, 0.5, m))
        assert not is_metric(sub)
        want = (1.0 - sub.prob[0]) * completion_table(sub)(0, (1 << m) - 2)
        res = solve(sub, SolverConfig(time_limit=None))
        assert res.status == "ok"
        assert res.cost == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        solve(TRI, SolverConfig(epsilon=-0.1))
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
            h = _heuristic_value(table, inst, s)
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


def _optimum(inst):
    """Exact optimum from the support DP, independent of the solver."""
    full = (1 << inst.n) - 1
    finish = completion_table(inst)
    return (1.0 - inst.prob[inst.start]) * finish(
        inst.start, full & ~(1 << inst.start))


def _members(mask):
    return [u for u in range(mask.bit_length()) if mask >> u & 1]


def _kruskal_edges(csym, members):
    """The edge costs of a minimum spanning tree on members, ascending,
    by Kruskal with a plain union-find."""
    parent = {u: u for u in members}

    def root(u):
        while parent[u] != u:
            u = parent[u]
        return u

    edges = []
    for c, x, w in sorted((csym[x][w], x, w) for x in members
                          for w in members if x < w):
        rx, rw = root(x), root(w)
        if rx != rw:
            parent[rx] = rw
            edges.append(c)
    return edges


def _weights(omp, rest):
    """The running products of the smallest 1 - p of rest: 1, o_0,
    o_0 o_1, ..."""
    return np.cumprod([1.0] + sorted(omp[w] for w in rest))


def _asymmetric(inst, rng):
    """inst with every arc scaled by its own U(1, 2) factor."""
    cost = inst.cost * rng.uniform(1.0, 2.0, inst.cost.shape)
    return Instance(cost, inst.prob, inst.start, inst.name + "-asym")


def test_tree_tails_match_direct_formula():
    """The prefix-sum evaluation equals sorting the edges of a minimum
    spanning tree on rem ascending and pairing them with the running
    products of the smallest 1 - p of rem - {u}, for every child u."""
    rng = np.random.default_rng(71)
    for kind in ("euclidean", "symmetric", "asymmetric"):
        for _ in range(20):
            n = int(rng.integers(3, 12))
            inst = random_instance(rng, n, p_max=0.9,
                                   euclidean=kind == "euclidean")
            if kind == "asymmetric":
                inst = _asymmetric(inst, rng)
            csym = np.minimum(inst.cost, inst.cost.T).tolist()
            omp = (1.0 - inst.prob).tolist()
            rem = int(rng.integers(0, 1 << n))
            members = _members(rem)
            if len(members) < 2:
                continue
            tails = _tree_tails(rem, csym, omp)
            assert sorted(tails) == members
            edges = _kruskal_edges(csym, members)
            assert len(edges) == len(members) - 1
            for u in members:
                weights = _weights(omp, [w for w in members if w != u])
                want = float(np.dot(edges, weights[:len(edges)]))
                assert tails[u] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_tree_tails_admissible_against_exact_completion():
    """No tail exceeds the exact cost of visiting rem - {u} from u, for
    every remaining set and every u, on Euclidean, non-metric symmetric and
    asymmetric costs. Every subset of the vertices is a remaining set, the
    root's full set among them, so every start is covered."""
    rng = np.random.default_rng(131)
    pairs = 0
    for kind in ("euclidean", "symmetric", "asymmetric"):
        for n in range(2, 10):
            p_max = float(rng.choice([0.1, 0.5, 0.9]))
            inst = random_instance(rng, n, p_max=p_max,
                                   euclidean=kind == "euclidean")
            if kind == "asymmetric":
                inst = _asymmetric(inst, rng)
            csym = np.minimum(inst.cost, inst.cost.T).tolist()
            omp = (1.0 - inst.prob).tolist()
            finish = completion_table(inst)
            for rem in range(1, 1 << n):
                if rem & (rem - 1) == 0:
                    continue
                for u, tail in _tree_tails(rem, csym, omp).items():
                    hstar = finish(u, rem & ~(1 << u))
                    assert tail <= hstar + 1e-12 * max(1.0, hstar)
                    pairs += 1
    assert pairs > 4000


def test_path_bound_never_below_tree_root():
    """The root rule's screen: the sorted hop costs of a Hamiltonian path
    from the start, the dive's or a random one, times the tree bound's root
    weights are never below the tree root value, on Euclidean, non-metric
    symmetric and asymmetric costs."""
    rng = np.random.default_rng(139)
    above = 0
    for kind in ("euclidean", "symmetric", "asymmetric"):
        for _ in range(40):
            n = int(rng.integers(2, 16))
            inst = random_instance(rng, n, p_max=float(rng.choice(
                [0.1, 0.5, 0.9])), euclidean=kind == "euclidean")
            if kind == "asymmetric":
                inst = _asymmetric(inst, rng)
            cost = inst.cost.tolist()
            omp = (1.0 - inst.prob).tolist()
            hrows = build_heuristic_table(inst).T.tolist()
            dive, _ = _dive(cost, hrows, omp, inst.start)
            rest = [int(u) for u in rng.permutation(n) if u != inst.start]
            root = _tree_root(inst)
            for path in (dive, (inst.start, *rest)):
                bound = _path_bound(path, cost, omp)
                assert bound >= root - 1e-12 * max(1.0, root)
                above += bound > root * (1.0 + 1e-9)
    assert above > 0


def test_has_superset_matches_plain_scan():
    """The superset query equals testing every entry of every bucket above
    size, on random frontiers with empty buckets, tied g values and limits
    equal to a stored g."""
    rng = np.random.default_rng(107)
    n = 8
    found = {False: 0, True: 0}
    at_limit = 0
    for _ in range(300):
        gb = []
        mb = []
        for k in range(int(rng.integers(0, n + 1))):
            count = int(rng.integers(0, 4)) if k else 0
            # g on a coarse grid, so that equal values are common
            gb.append(sorted(float(g) for g in rng.integers(0, 6, count) / 2))
            mb.append([sum(1 << int(v) for v in rng.choice(n, k, False))
                       for _ in range(count)])
        stored = [g for fg in gb for g in fg]
        for _ in range(10):
            size = int(rng.integers(1, n))
            mask = sum(1 << int(v) for v in rng.choice(n, size, False))
            if stored and rng.random() < 0.5:
                glim = stored[int(rng.integers(len(stored)))]
            else:
                glim = float(rng.uniform(-0.5, 3.0))
            hits = [g for k in range(size + 1, len(gb))
                    for g, m in zip(gb[k], mb[k])
                    if m & mask == mask and g <= glim]
            want = bool(hits)
            assert _has_superset(gb, mb, size, mask, glim) == want
            found[want] += 1
            at_limit += hits == [glim] * len(hits) and want
    assert min(found.values()) > 100
    assert at_limit > 10


def test_superset_dominance_runs_once_per_extraction(monkeypatch):
    """_has_superset runs only on extracted states, at most once each, not
    on generated children: on low-p inputs most children are never
    extracted, so a scan per child would far outnumber the extractions."""
    real = solver_mod._has_superset
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(solver_mod, "_has_superset", counting)
    rng = np.random.default_rng(113)
    cases = [make_instance(n, index, 7, 0.1)
             for n in (13, 14, 15) for index in range(4)]
    cases += [random_instance(rng, int(rng.integers(8, 12)), p_max=p_max)
              for p_max in (0.1, 0.5, 0.9)]
    scanned = 0
    for inst in cases:
        for eps in (0.0, 0.05):
            calls[0] = 0
            res = solve(inst, SolverConfig(epsilon=eps, time_limit=None))
            assert res.status == "ok"
            s = res.stats
            assert calls[0] <= s.expansions + s.pruned_extracted
            scanned += calls[0]
    assert scanned > 0


def test_pruned_superset_counts_superset_prunes(monkeypatch):
    """pruned_superset counts the extracted states that superset dominance
    dropped: the scans that found a superset, none on non-metric costs,
    and never more than pruned_extracted, which adds the duplicates."""
    real = solver_mod._has_superset
    found = [0]

    def counting(*args):
        hit = real(*args)
        found[0] += hit
        return hit

    monkeypatch.setattr(solver_mod, "_has_superset", counting)
    rng = np.random.default_rng(127)
    pruned = {True: 0, False: 0}
    for n in range(8, 14):
        for p_max in (0.1, 0.5):
            metric = random_instance(rng, n, p_max=p_max)
            for inst in (metric, _inflated(rng, metric)):
                for eps in (0.0, 0.05):
                    found[0] = 0
                    s = solve(inst, SolverConfig(epsilon=eps,
                                                 time_limit=None)).stats
                    assert s.pruned_superset == found[0]
                    assert s.pruned_superset <= s.pruned_extracted
                    if not is_metric(inst):
                        assert s.pruned_superset == 0
                    pruned[is_metric(inst)] += s.pruned_superset
    assert pruned[True] > 0


def _tree_root(inst):
    """The tree bound at the start state."""
    csym = np.minimum(inst.cost, inst.cost.T).tolist()
    omp = (1.0 - inst.prob).tolist()
    tails = _tree_tails((1 << inst.n) - 1, csym, omp)
    return omp[inst.start] * tails[inst.start]


def test_root_bound_reports_root_key():
    """The root key is gamma's root value, or the tree root value where the
    root rule picks the tree: from TREE_FLOOR vertices on, when the tree
    root value beats gamma's."""
    fires = make_instance(12, 1, 3, 0.1)
    small = make_instance(TREE_FLOOR - 1, 1, 3, 0.1)
    for inst in (fires, make_instance(12, 0, 3, 0.9), small):
        gamma_root = build_heuristic_table(inst)[inst.start, inst.n - 1]
        res = solve(inst, SolverConfig(time_limit=None))
        tree_root = _tree_root(inst)
        assert (res.stats.trees > 0) == (inst.n >= TREE_FLOOR
                                         and tree_root > gamma_root)
        if res.stats.trees:
            assert res.stats.root_bound == tree_root > gamma_root
        else:
            assert res.stats.root_bound == gamma_root
        assert res.stats.root_bound <= res.cost
        off = solve(inst, SolverConfig(use_heuristic=False, time_limit=None))
        assert off.stats.root_bound == 0.0
        assert off.stats.trees == 0
    assert solve(fires, SolverConfig(time_limit=None)).stats.trees > 0
    # below the floor the tree root value beats gamma's, but gamma stays
    # alone
    assert _tree_root(small) > build_heuristic_table(small)[
        small.start, small.n - 1]


def test_root_rule_reads_the_tree_root_value():
    """Instances whose tree root value beats gamma's though a weaker
    stand-in for it did not: the tree is used, cuts a 559-expansion exact
    search to at most 100, and keys the root even when the search times
    out. A first-move solve returns the full search's first move."""
    res = solve(make_instance(12, 0, 3, 0.1), SolverConfig(time_limit=None))
    assert res.status == "ok"
    assert res.stats.trees > 0
    assert res.stats.expansions <= 100
    hard = make_instance(30, 0, 7, 0.1)
    res = solve(hard, SolverConfig(time_limit=0.2))
    assert res.stats.root_bound == _tree_root(hard)
    assert res.stats.root_bound == pytest.approx(564.52, abs=0.005)
    for n, index, seed in ((12, 0, 3), (12, 4, 3), (13, 5, 3), (12, 2, 5),
                           (13, 1, 5), (14, 5, 7)):
        inst = make_instance(n, index, seed, 0.1)
        for eps in (0.0, 0.05):
            cfg = SolverConfig(epsilon=eps, time_limit=None)
            full = solve(inst, cfg)
            first = solve(inst, cfg, first_move=True)
            assert full.status == first.status == "ok"
            assert full.stats.trees > 0
            assert first.path == full.path[:2]


def test_exact_and_focal_costs_on_make_instance_grid():
    """Metric inputs only: superset dominance needs the triangle
    inequality. Brute force is affordable up to n = 8; the support DP
    covers every size, TREE_FLOOR among them."""
    used = 0
    cells = 0
    for n in range(6, TREE_FLOOR + 1):
        for p_max in (0.02, 0.1, 0.5, 0.9):
            for index in (0, 1):
                inst = make_instance(n, index, 5, p_max)
                cells += 1
                opt = _optimum(inst)
                if n <= 8:
                    assert brute_force_best(inst)[1] == pytest.approx(
                        opt, rel=1e-12)
                res = solve(inst, SolverConfig(time_limit=None))
                assert res.status == "ok"
                assert abs(res.cost - opt) <= 1e-9 * max(1.0, opt)
                used += res.stats.trees > 0
                for eps in (0.02, 0.2):
                    res = solve(inst, SolverConfig(epsilon=eps,
                                                   time_limit=None))
                    assert res.status == "ok"
                    assert res.cost <= (1.0 + eps) * opt + 1e-9 * opt
    # the grid exercises both sides of the root rule
    assert 0 < used < cells


def test_reported_h_admissible_with_tree_bound():
    """A04 on low-p and non-metric inputs, where the tree term is in use:
    the h reported for every generated state, pathmax included, is at most
    the true completion, and on some states it beats gamma."""
    rng = np.random.default_rng(83)
    cases = [make_instance(n, index, 3, 0.1)
             for n, index in ((TREE_FLOOR, 1), (TREE_FLOOR + 1, 0))]
    cases += [random_instance(rng, TREE_FLOOR, p_max=p_max, euclidean=False)
              for p_max in (0.02, 0.1)]
    cases += [_asymmetric(random_instance(rng, TREE_FLOOR, p_max=0.1), rng)]
    above_gamma = 0
    used = 0
    for inst in cases:
        table = build_heuristic_table(inst)
        finish = completion_table(inst)
        full = (1 << inst.n) - 1
        for eps in (0.0, 0.2):
            generated = []
            expanded = []
            res = solve(inst, SolverConfig(epsilon=eps, time_limit=None),
                        on_generate=generated.append,
                        on_expand=expanded.append)
            used += res.stats.trees > 0
            keys = {}
            for s in generated:
                hstar = s.q * finish(s.v, full & ~s.visited)
                assert s.h <= hstar + 1e-12 * max(1.0, hstar)
                above_gamma += s.h > _heuristic_value(table, inst, s) + 1e-9
                keys[(s.v, s.visited, s.g)] = s.h
            # on_expand reports the h of the key the state was queued with
            for s in expanded:
                assert s.h == keys[(s.v, s.visited, s.g)]
    assert used == 2 * len(cases)
    assert above_gamma > 0


def test_tree_keys_never_fall_below_parent():
    """max(gamma, tree) is consistent and pathmax absorbs rounding, so no
    child is queued below its parent's key and exact search expands in key
    order. on_expand runs just before the children it generates."""
    rng = np.random.default_rng(89)
    cases = [make_instance(n, index, 3, 0.1)
             for n, index in ((12, 1), (13, 0), (13, 1), (14, 0))]
    cases += [random_instance(rng, TREE_FLOOR, p_max=0.1, euclidean=False)
              for _ in range(10)]
    used = 0
    for inst in cases:
        for eps in (0.0, 0.2):
            events = []
            res = solve(inst, SolverConfig(epsilon=eps, time_limit=None),
                        on_expand=lambda s: events.append((True, s.f)),
                        on_generate=lambda s: events.append((False, s.f)))
            used += res.stats.trees > 0
            parent = None
            expanded = []
            for is_expand, f in events[1:]:
                if is_expand:
                    parent = f
                    expanded.append(f)
                else:
                    assert f >= parent - 1e-12 * max(1.0, parent)
            if eps == 0.0:
                for a, b in zip(expanded, expanded[1:]):
                    assert b >= a - 1e-12 * max(1.0, a)
    assert used >= 20


def test_tree_bound_cuts_hard_regime_expansions():
    """Exact search at p_max 0.1 and n = 20, where gamma reaches about half
    the optimum at the root, needed 9,164 expansions before the tree
    bound; the tree bound brings it under 1,500."""
    res = solve(make_instance(20, 0, 7, 0.1), SolverConfig(time_limit=None))
    assert res.status == "ok"
    assert res.stats.expansions <= 1500


def test_hard_regime_queue_stays_small():
    """Exact search at n = 28, p_max 0.1 queued at most 155,642 states at
    once while the incumbent cut read the gamma key alone. Cutting on the
    tree key too, with the incumbent tightened by local search after
    TIGHTEN_AFTER expansions, keeps it under 60,000, with the same
    expansions and cost bits."""
    res = solve(make_instance(28, 0, 7, 0.1), SolverConfig(time_limit=None))
    assert res.status == "ok"
    assert repr(res.cost) == "887.120734855618"
    assert res.stats.expansions == 14232
    assert res.stats.peak_open < 60000


# sha256 over every search below of (status, path, repr(cost), expansions,
# generations, pruned_extracted, pruned_generated, peak_open), in grid
# order, split by whether the search used the tree bound
# (SearchStats.trees > 0). Until the root rule read the tree root value
# itself, the split was by its pairing screen: the searches that failed
# it, and so kept gamma alone, were
# recorded with the unbucketed linear frontier scan and the open-heap focal
# rebuild, and again before the pairing bound existed. The searches with the
# pairing bound were recorded with it; each of their exact costs equals the
# gamma-only search's within 1e-9, and each focal cost is within (1 + eps)
# of it. Both were recorded again with the incumbent cut, which lowers only
# pruned_generated and peak_open: SEARCH_IDENTITY_DIGEST below, which leaves
# those two out, was recorded without the cut and holds with it. The
# gamma-only one was recorded again when the frontier stopped dropping
# dominated states: only the counters of the four eps = 0 searches at
# n = 35 moved, where the slack decides prunes, and SEARCH_RESULT_DIGEST
# pins every path and cost. All four grid digests were recorded again when
# the second queue order went: each equals the digest of the same searches
# under the one order that remains, taken before it went. Both were
# recorded again when superset dominance moved to extraction only: every
# path and cost bit stayed (SEARCH_RESULT_DIGEST holds), pruned_extracted
# moved in 26 cells and pruned_generated and peak_open in 31, as dominated
# children now wait in the queue and are dropped when popped. Expansions
# and generations moved in two focal gamma-only cells, as a queued
# dominated state can set the focal floor or prune a later child as a
# duplicate before it is popped: rand-n010-k00-s3 at eps 0.02 without the
# heuristic (735 -> 719 expansions) and rand-n012-k00-s3 at eps 0.2
# (516 -> 576). The searches that pass the screen were recorded again when
# the tree bound replaced the pairing bound, behind the size floor. Every
# exact cost bit and path stayed. The 18 searches are the instances
# rand-n010-k00-s3 and -k01-s3 at p_max 0.1 (below the floor, now gamma
# alone), rand-n012-k01-s3 at p_max 0.1 and 0.9, and rand-n013-k00-s3 and
# -k01-s3 at p_max 0.1 (tree bound), each at eps 0, 0.02 and 0.2.
# Counters moved in 17 of them and expansions in 16: at n = 10 up
# (118 -> 420 at k00 eps 0), at n = 12 and 13 down (803 -> 98 at n = 13
# k01 eps 0). Five focal paths moved, each within (1 + eps) of the completion_table optimum, which
# SEARCH_RESULT_DIGEST below therefore records: n = 10 k00 at eps 0.02
# and 0.2 and k01 at eps 0.2 went to the optimum (from 1.0063 and 1.0471
# of it); n = 13 k00 and k01 at eps 0.2 went from the optimum to 1.0173
# and 1.0057 of it. Both were recorded again when the root rule came to
# compare the tree root value itself with gamma's, and the split came to
# read SearchStats.trees. The six n = 10 searches at p_max 0.1 with the
# heuristic, below the floor and unchanged, moved to the gamma group.
# rand-n012-k00-s3 at p_max 0.1, whose pairing value (376.4) lost to
# gamma's (503.4) but whose tree root value (575.9) beats it, moved to the
# tree group. Its three searches are the only ones that changed:
# expansions 559 -> 56, 549 -> 45 and 576 -> 47 at eps 0, 0.02 and 0.2,
# and at eps 0.2 the path moved to the optimum (861.1956 -> 856.1840).
# TREE_GRID_DIGEST was recorded again when the incumbent cut came to test
# the tree key too. The cut children are never extracted, so only
# pruned_generated and peak_open moved, in 12 of the 15 tree searches
# (peak_open 250 -> 107 at rand-n012-k00-s3 p_max 0.1 eps 0, for one);
# every other field, and every gamma-only search, stayed as it was.
GAMMA_GRID_DIGEST = (
    "a85a08ebffe9484021277f9daf880924065c173afe49c03d4a23be6dad1bfcd7")
TREE_GRID_DIGEST = (
    "8a02d4e802dac0814d600a8d194cc58959437246c1228fdc71f7bb5d09ccd4d4")


def _search_grid():
    cells = [(make_instance(n, index, 3, p_max), n <= 10)
             for n in (10, 12, 13) for p_max in (0.1, 0.9)
             for index in (0, 1)]
    # at n = 35 and p_max = 0.9 the survival weight falls so far that late
    # hops add about 1e-9 to g, so the 1e-9 dominance slack decides prunes
    cells += [(make_instance(35, index, 3, 0.9), False) for index in (0, 1)]
    for inst, with_noh in cells:
        for eps in (0.0, 0.02, 0.2):
            for use_h in (True, False) if with_noh else (True,):
                yield inst, SolverConfig(epsilon=eps, use_heuristic=use_h,
                                         time_limit=None)


@pytest.fixture(scope="module")
def grid_results():
    """Every search of _search_grid(), solved once for the digest tests."""
    return [(inst, cfg, solve(inst, cfg)) for inst, cfg in _search_grid()]


def test_searches_match_recorded_digest(grid_results):
    """Dominance index and focal upkeep must not change any search: the
    same path, cost bits and counters on every cell of the grid."""
    digests = {False: hashlib.sha256(), True: hashlib.sha256()}
    counts = {False: 0, True: 0}
    for inst, cfg, res in grid_results:
        s = res.stats
        tree = s.trees > 0
        digests[tree].update(repr((
            res.status, res.path, repr(res.cost), s.expansions,
            s.generations, s.pruned_extracted, s.pruned_generated,
            s.peak_open)).encode())
        counts[tree] += 1
    assert counts == {False: 39, True: 15}
    assert digests[False].hexdigest() == GAMMA_GRID_DIGEST
    assert digests[True].hexdigest() == TREE_GRID_DIGEST


# sha256 over every search of _search_grid() of (status, path, repr(cost),
# expansions, generations, pruned_extracted), in grid order: which states a
# search extracts, in which order, and what it returns. A change that only
# drops states the search never extracts leaves this hash as it is, while
# the counts of generated prunes and of the peak queue may move. Recorded
# again with the append-only frontier, for the same four searches as
# GAMMA_GRID_DIGEST, and with one queue order, as the grid digests above.
# Recorded again when superset dominance moved to extraction only, for the
# pruned_extracted counts and the two focal cells named above, when the
# tree bound replaced the pairing bound, for the 18 searches named above,
# and when the root rule came to read the tree root value, for the three
# rand-n012-k00-s3 searches named above.
SEARCH_IDENTITY_DIGEST = (
    "a1aec27c586f8cf904b519f7ce929fabc590b42fb61f3c91f800bb5b0c4cca42")


def test_searches_keep_recorded_identity(grid_results):
    digest = hashlib.sha256()
    for _, _, res in grid_results:
        s = res.stats
        digest.update(repr((
            res.status, res.path, repr(res.cost), s.expansions,
            s.generations, s.pruned_extracted)).encode())
    assert digest.hexdigest() == SEARCH_IDENTITY_DIGEST


# sha256 over every search of _search_grid() of (status, path, repr(cost)),
# in grid order: what each search returns, whatever it expanded or pruned
# on the way. A change to the frontier that moves only counters leaves this
# hash as it is. Recorded again with one queue order, as the digests above,
# for the five focal paths that the tree bound moved, and for the focal path
# of rand-n012-k00-s3 at p_max 0.1 and eps 0.2 that the root rule's reading
# of the tree root value moved to the optimum (both named above).
SEARCH_RESULT_DIGEST = (
    "aaf6419f18676f34cc719b6f4b38e58596f7af1a7c22eb47ef86b4e7d0c1db83")


def test_searches_keep_recorded_results(grid_results):
    digest = hashlib.sha256()
    for _, _, res in grid_results:
        digest.update(repr((res.status, res.path, repr(res.cost))).encode())
    assert digest.hexdigest() == SEARCH_RESULT_DIGEST
