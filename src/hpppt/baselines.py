"""Reference solvers: exhaustive oracle, probability-greedy, and a
probability-blind shortest-path heuristic (nearest neighbor plus 2-opt)."""

import itertools
import time

import numpy as np

from .instance import Instance, check_path, expected_cost_q
from .solver import SearchStats, SolveResult

ORACLE_CAP = 12
_CHUNK = 200_000


class OracleCapError(ValueError):
    pass


def _result(path, cost, t0):
    stats = SearchStats(wall_time=time.perf_counter() - t0)
    return SolveResult("ok", path, cost, stats)


def oracle_solve(inst: Instance, cap: int = ORACLE_CAP) -> SolveResult:
    """Enumerate every ordering of the non-start vertices and return the
    cheapest. Ties break to the lexicographically smallest ordering.
    Factorial time; refuses instances above cap vertices."""
    n = inst.n
    if n > cap:
        raise OracleCapError(
            f"oracle enumerates (n-1)! orderings; n={n} exceeds cap {cap}")
    t0 = time.perf_counter()
    start = inst.start
    if n == 1:
        return _result((start,), 0.0, t0)
    rest = [v for v in range(n) if v != start]
    cost = inst.cost
    omp = 1.0 - inst.prob
    best_cost = np.inf
    best_perm = None
    it = itertools.permutations(rest)
    while True:
        chunk = list(itertools.islice(it, _CHUNK))
        if not chunk:
            break
        arr = np.array(chunk, dtype=np.intp)
        m, w = arr.shape
        qs = np.empty((m, w))
        qs[:, 0] = omp[start]
        edges = np.empty((m, w))
        edges[:, 0] = cost[start, arr[:, 0]]
        for j in range(1, w):
            qs[:, j] = qs[:, j - 1] * omp[arr[:, j - 1]]
            edges[:, j] = cost[arr[:, j - 1], arr[:, j]]
        totals = (qs * edges).sum(axis=1)
        i = int(np.argmin(totals))
        if totals[i] < best_cost:
            best_cost = float(totals[i])
            best_perm = chunk[i]
    path = (start,) + best_perm
    return _result(path, expected_cost_q(inst, path), t0)


def greedy_solve(inst: Instance) -> SolveResult:
    """Visit the unvisited vertex with the highest termination probability
    next, ties to the smaller index. Ignores edge costs entirely."""
    t0 = time.perf_counter()
    prob = inst.prob.tolist()
    order = [inst.start]
    remaining = [v for v in range(inst.n) if v != inst.start]
    remaining.sort(key=lambda u: (-prob[u], u))
    order.extend(remaining)
    path = tuple(order)
    return _result(path, expected_cost_q(inst, path), t0)


def nearest_neighbor(inst: Instance) -> tuple:
    """Plain nearest-neighbor order on edge costs from the start vertex,
    ties to the smaller index."""
    n = inst.n
    cost = inst.cost.tolist()
    visited = [False] * n
    visited[inst.start] = True
    order = [inst.start]
    cur = inst.start
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


def two_opt_path(order, cost) -> tuple:
    """First-improvement 2-opt for an open path with a fixed first vertex
    and a free end. Reversing order[i..j] is accepted only when it shortens
    the plain path length by more than 1e-12, so the loop terminates."""
    cost = np.asarray(cost).tolist()
    order = list(order)
    n = len(order)
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            ca = cost[order[i - 1]]
            oi = order[i]
            ci = ca[oi]
            coi = cost[oi]
            for j in range(i + 1, n):
                oj = order[j]
                # reversing a suffix removes the right edge entirely
                if j + 1 < n:
                    before = ci + cost[oj][order[j + 1]]
                    after = ca[oj] + coi[order[j + 1]]
                else:
                    before = ci
                    after = ca[oj]
                if after < before - 1e-12:
                    order[i:j + 1] = reversed(order[i:j + 1])
                    improved = True
                    break
            if improved:
                break
    return tuple(order)


def blind_hpp_solve(inst: Instance, tour=None) -> SolveResult:
    """Shortest-path heuristic that ignores probabilities when routing:
    nearest neighbor improved by 2-opt, scored afterwards by expected cost.
    A precomputed visiting order can be supplied instead via tour."""
    t0 = time.perf_counter()
    if tour is not None:
        path = check_path(inst, tour, full=True)
    else:
        path = two_opt_path(nearest_neighbor(inst), inst.cost)
    return _result(path, expected_cost_q(inst, path), t0)
