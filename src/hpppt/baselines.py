"""Reference solvers: Held-Karp oracle, probability-greedy, and a
probability-blind shortest-path heuristic (nearest neighbor plus 2-opt)."""

import time

from .instance import Instance, check_path, expected_cost_q
from .solver import SearchStats, SolveResult

ORACLE_CAP = 12


class OracleCapError(ValueError):
    pass


def _result(path, cost, t0):
    stats = SearchStats(wall_time=time.perf_counter() - t0)
    return SolveResult("ok", path, cost, stats)


def oracle_solve(inst: Instance) -> SolveResult:
    """Held-Karp DP over (visited set, last vertex): exact, as a partial
    path's survival weight depends only on its visited set. Cost ties go
    to the lexicographically smallest path. Refuses n > ORACLE_CAP."""
    n = inst.n
    if n > ORACLE_CAP:
        raise OracleCapError(f"oracle tabulates every visited set; n={n} "
                             f"exceeds cap {ORACLE_CAP}")
    t0 = time.perf_counter()
    start = inst.start
    cost = inst.cost.tolist()
    omp = (1.0 - inst.prob).tolist()
    full = (1 << n) - 1
    # togo[mask][v]: cheapest cost to finish from v with mask visited, at
    # unit survival weight; a superset's mask is larger, so it comes first
    togo = [None] * full + [[0.0] * n]

    def step(mask, v, u):
        return cost[v][u] + omp[u] * togo[mask | 1 << u][u]

    for mask in range(full - 1, 0, -1):
        if mask >> start & 1:
            left = [u for u in range(n) if not mask >> u & 1]
            togo[mask] = [min(step(mask, v, u) for u in left)
                          if mask >> v & 1 else None for v in range(n)]
    path = [start]
    mask = 1 << start
    while mask != full:
        _, u = min((step(mask, path[-1], u), u) for u in range(n)
                   if not mask >> u & 1)
        path.append(u)
        mask |= 1 << u
    return _result(tuple(path), expected_cost_q(inst, path), t0)


def greedy_solve(inst: Instance, *, score: bool = True) -> SolveResult:
    """Visit the unvisited vertex with the highest termination probability
    next, ties to the smaller index. Ignores edge costs entirely.
    score=False leaves the cost None, for callers that read only the
    path."""
    t0 = time.perf_counter()
    prob = inst.prob.tolist()
    order = [inst.start]
    remaining = [v for v in range(inst.n) if v != inst.start]
    remaining.sort(key=lambda u: (-prob[u], u))
    order.extend(remaining)
    path = tuple(order)
    return _result(path, expected_cost_q(inst, path) if score else None, t0)


def _nearest_order(cost, start) -> tuple:
    """Plain nearest-neighbor order on edge costs, given as list rows, from
    the start vertex, ties to the smaller index."""
    n = len(cost)
    visited = [False] * n
    visited[start] = True
    order = [start]
    cur = start
    for _ in range(n - 1):
        best = -1
        best_d = float("inf")
        row = cost[cur]
        for u in range(n):
            if not visited[u] and row[u] < best_d:
                best_d = row[u]
                best = u
        visited[best] = True
        order.append(best)
        cur = best
    return tuple(order)


def _two_opt(order, cost) -> tuple:
    """First-improvement 2-opt for an open path with a fixed first vertex
    and a free end, on cost rows given as lists. Reversing order[i..j] is
    accepted only when it shortens the plain path length by more than
    1e-12, so the loop terminates. On asymmetric costs the reversal also
    turns the segment's own edges around; their deltas, each exactly 0.0
    on a symmetric matrix, are added once the two end edges alone gain
    enough."""
    order = list(order)
    n = len(order)
    # a pair whose four positions all lie before the last reversed segment
    # did not improve in the pass that made the reversal and is unchanged
    # since, so each pass starts j at the segment's start minus one
    jmin = 0
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            ca = cost[order[i - 1]]
            oi = order[i]
            ci = ca[oi]
            coi = cost[oi]
            for j in range(max(i + 1, jmin), n):
                oj = order[j]
                # reversing a suffix removes the right edge entirely
                if j + 1 < n:
                    before = ci + cost[oj][order[j + 1]]
                    after = ca[oj] + coi[order[j + 1]]
                else:
                    before = ci
                    after = ca[oj]
                if after < before - 1e-12:
                    for k in range(i, j):
                        a, b = order[k], order[k + 1]
                        after += cost[b][a] - cost[a][b]
                    if not after < before - 1e-12:
                        continue
                    order[i:j + 1] = reversed(order[i:j + 1])
                    jmin = i - 1
                    improved = True
                    break
            if improved:
                break
    return tuple(order)


def blind_hpp_solve(inst: Instance, tour=None, *,
                    score: bool = True) -> SolveResult:
    """Shortest-path heuristic that ignores probabilities when routing:
    nearest neighbor improved by 2-opt, scored afterwards by expected cost.
    A precomputed visiting order can be supplied instead via tour.
    score=False leaves the cost None, for callers that read only the
    path."""
    t0 = time.perf_counter()
    if tour is not None:
        path = check_path(inst, tour, full=True)
    else:
        # one list copy of the costs serves both passes
        cost = inst.cost.tolist()
        path = _two_opt(_nearest_order(cost, inst.start), cost)
    return _result(path, expected_cost_q(inst, path) if score else None, t0)
