"""Shared test oracles, deliberately independent of the library internals."""

import itertools

import numpy as np

from hpppt import Instance, check_path


def random_instance(rng, n, p_max=0.9, euclidean=True):
    """Small random instance. Euclidean by default; otherwise an arbitrary
    positive symmetric matrix (not necessarily metric)."""
    if euclidean:
        pts = rng.uniform(0.0, 100.0, (n, 2))
        delta = pts[:, None, :] - pts[None, :, :]
        cost = np.sqrt((delta ** 2).sum(axis=2))
        coords = pts
    else:
        m = rng.uniform(1.0, 50.0, (n, n))
        cost = (m + m.T) / 2.0
        np.fill_diagonal(cost, 0.0)
        coords = None
    prob = rng.uniform(0.0, p_max, n)
    return Instance(cost, prob, 0, f"test-n{n}", coords)


def expected_cost_by_cases(inst, order):
    """Term-by-term expected cost written as plainly as possible: for each
    possible stopping vertex, (probability the walk stops exactly there)
    times (distance walked to reach it)."""
    n = len(order)
    if n == 1:
        return 0.0
    total = 0.0
    for k in range(1, n):
        survive = 1.0
        for j in range(k):
            survive *= 1.0 - inst.prob[order[j]]
        stop = inst.prob[order[k]] if k < n - 1 else 1.0
        dist = sum(inst.cost[order[j], order[j + 1]] for j in range(k))
        total += survive * stop * dist
    return total


def expected_cost_direct(inst: Instance, order) -> float:
    """Expected cost of a solution path, summed termination case by case.

    Term k covers the event that the walk ends at the (k+1)-th vertex and
    charges the distance travelled up to it; the final term carries no
    termination factor because the walk ends at the last vertex regardless.
    """
    order = check_path(inst, order, full=True)
    n = inst.n
    if n == 1:
        return 0.0
    cost = inst.cost
    prob = inst.prob
    total = 0.0
    q_pref = 1.0
    length = 0.0
    for k in range(1, n):
        q_pref *= 1.0 - prob[order[k - 1]]
        length += cost[order[k - 1], order[k]]
        factor = prob[order[k]] if k < n - 1 else 1.0
        total += q_pref * factor * length
    return float(total)


def brute_force_best(inst):
    """Exhaustive minimum over all visiting orders, scored with the
    case-by-case form. Returns (order, cost)."""
    rest = [v for v in range(inst.n) if v != inst.start]
    best = None
    best_cost = float("inf")
    for perm in itertools.permutations(rest):
        order = (inst.start,) + perm
        c = expected_cost_by_cases(inst, order)
        if c < best_cost:
            best_cost = c
            best = order
    return best, best_cost


def completion_table(inst):
    """Exact cost-to-finish: table[(v, mask)] is the cheapest expected cost
    of visiting every vertex in mask starting from v, with unit survival
    weight. h*(state) = q(state) * table[(v, remaining-mask)]."""
    cost = inst.cost
    omp = 1.0 - inst.prob
    memo = {}

    def rec(v, mask):
        if mask == 0:
            return 0.0
        key = (v, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = float("inf")
        m = mask
        while m:
            lsb = m & -m
            m ^= lsb
            u = lsb.bit_length() - 1
            c = cost[v, u] + omp[u] * rec(u, mask ^ lsb)
            if c < best:
                best = c
        memo[key] = best
        return best

    return rec
