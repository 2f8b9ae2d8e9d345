"""Output checks written apart from hpppt: Held-Karp optimum, expected-cost
re-scoring, constructed comparison orders, Bayes replay and walk validity.

Every check returns a list of problems; an empty list means the output
passed. Nothing here imports hpppt.
"""

import numpy as np

REL_TOL = 1e-9
HELD_KARP_MAX_N = 18


def expected_cost(cost, prob, order):
    """Expected travelled distance of a full visiting order, case by case:
    the walk ends at the k-th vertex with probability prob[order[k]] times
    the chance it survived every earlier vertex; the last vertex ends it
    for certain."""
    n = len(order)
    total = 0.0
    alive = 1.0
    length = 0.0
    for k in range(1, n):
        alive *= 1.0 - prob[order[k - 1]]
        length += cost[order[k - 1], order[k]]
        stop = prob[order[k]] if k < n - 1 else 1.0
        total += alive * stop * length
    return float(total)


def batch_costs(cost, prob, orders):
    """Expected cost of many orders at once (rows of an int array), in the
    survival-weight form sum_i q_i * c(o_i, o_{i+1})."""
    orders = np.asarray(orders)
    omp = (1.0 - prob)[orders[:, :-1]]
    q = np.cumprod(omp, axis=1)
    edges = cost[orders[:, :-1], orders[:, 1:]]
    return (q * edges).sum(axis=1)


def held_karp(cost, prob, start):
    """Minimum expected cost over all orders from start, by dynamic
    programming over (visited set, last vertex) (Held & Karp 1962). The
    survival weight depends only on the visited set, so the recursion is
    exact for this objective."""
    n = len(prob)
    if n == 1:
        return 0.0
    rest = [v for v in range(n) if v != start]
    m = n - 1
    omp = 1.0 - np.asarray(prob)[rest]
    # survive[S]: chance to survive start and every vertex in S
    survive = np.array([1.0 - prob[start]])
    for b in range(m):
        survive = np.concatenate([survive, survive * omp[b]])
    sub = cost[np.ix_(rest, rest)]
    full = 1 << m
    dp = np.full((full, m), np.inf)
    for b in range(m):
        dp[1 << b, b] = survive[0] * cost[start, rest[b]]
    masks = np.arange(full)
    popcount = np.zeros(full, dtype=np.int64)
    for b in range(m):
        popcount += (masks >> b) & 1
    for k in range(2, m + 1):
        layer = masks[popcount == k]
        for v in range(m):
            sel = layer[(layer >> v) & 1 == 1]
            prev = sel ^ (1 << v)
            step = dp[prev] + survive[prev][:, None] * sub[:, v][None, :]
            dp[sel, v] = step.min(axis=1)
    return float(dp[full - 1].min())


def nearest_neighbour_order(cost, start):
    n = len(cost)
    order = [start]
    left = set(range(n)) - {start}
    while left:
        cur = order[-1]
        nxt = min(left, key=lambda u: (cost[cur, u], u))
        order.append(nxt)
        left.remove(nxt)
    return order


def probability_order(prob, start):
    rest = sorted((v for v in range(len(prob)) if v != start),
                  key=lambda u: (-prob[u], u))
    return [start] + rest


def neighbour_orders(order):
    """Every order one pairwise swap or one relocation away from order,
    keeping the first vertex in place."""
    order = list(order)
    n = len(order)
    out = []
    for i in range(1, n):
        for j in range(i + 1, n):
            o = order[:]
            o[i], o[j] = o[j], o[i]
            out.append(o)
    for i in range(1, n):
        rest = order[:i] + order[i + 1:]
        for j in range(1, n):
            if j != i:
                out.append(rest[:j] + [order[i]] + rest[j:])
    return out


def check_solve(cost, prob, start, eps, status, path, reported, opt=None):
    """Check one solve result. opt is the Held-Karp optimum, given for
    n <= HELD_KARP_MAX_N. Exact results (eps = 0) must match it; without
    it, no order one swap or one relocation away may be cheaper. Focal
    results must stay within (1 + eps) of the optimum or, without it, of
    the cheaper constructed order."""
    n = len(prob)
    if status != "ok":
        return [f"status {status}"]
    if path is None or len(path) != n or sorted(path) != list(range(n)):
        return [f"path {path} is not a permutation of {n} vertices"]
    if path[0] != start:
        return [f"path starts at {path[0]}, not {start}"]
    problems = []
    rescored = expected_cost(cost, prob, path)
    if abs(rescored - reported) > REL_TOL * max(1.0, abs(rescored)):
        problems.append(f"reported cost {reported!r} != re-scored "
                        f"{rescored!r}")
    slack = 1.0 + REL_TOL
    if opt is not None:
        if eps == 0.0 and abs(rescored - opt) > REL_TOL * max(1.0, opt):
            problems.append(f"cost {rescored!r} != Held-Karp optimum {opt!r}")
        if rescored > (1.0 + eps) * opt * slack:
            problems.append(f"cost {rescored!r} above (1 + {eps}) x "
                            f"optimum {opt!r}")
        return problems
    built = min(expected_cost(cost, prob, order) for order in
                (nearest_neighbour_order(cost, start),
                 probability_order(prob, start)))
    if rescored > (1.0 + eps) * built * slack:
        problems.append(f"cost {rescored!r} above (1 + {eps}) x constructed "
                        f"order cost {built!r}")
    if eps == 0.0:
        best = float(batch_costs(cost, prob, neighbour_orders(path)).min())
        if best < rescored * (1.0 - REL_TOL):
            problems.append(f"a neighbouring order costs {best!r} < "
                            f"{rescored!r}")
    return problems


def bayes(b, reading, alpha1, alpha2):
    """Posterior that the target is at a vertex after one binary reading."""
    like_p = alpha1 if reading else 1.0 - alpha1
    like_a = alpha2 if reading else 1.0 - alpha2
    return like_p * b / (like_p * b + like_a * (1.0 - b))


def check_mission(cost, prior, start, sensor, status, classification,
                  duration, steps):
    """steps: (vertex, reading, beliefs) per logged step. The mission must
    complete with every vertex classified; each logged belief vector must
    follow from the previous one by Bayes' rule at the visited vertex alone;
    duration must equal the summed cost of the moves between steps."""
    problems = []
    if status != "complete":
        problems.append(f"status {status}")
    if any(c not in ("present", "absent") for c in classification):
        problems.append("a vertex was left unclassified")
    if not steps or steps[0][0] != start:
        return problems + ["first step is not at the start vertex"]
    belief = list(prior)
    travelled = 0.0
    prev = start
    for k, (v, reading, logged) in enumerate(steps):
        travelled += cost[prev, v] if v != prev else 0.0
        prev = v
        belief[v] = bayes(belief[v], reading, *sensor)
        for u, (want, got) in enumerate(zip(belief, logged)):
            if abs(want - got) > 1e-12:
                problems.append(f"step {k + 1}: belief of {u} is {got!r}, "
                                f"Bayes replay gives {want!r}")
                return problems
        belief = list(logged)
    if abs(travelled - duration) > REL_TOL * max(1.0, travelled):
        problems.append(f"duration {duration!r} != travelled {travelled!r}")
    return problems


def check_walk(occupied, robot, target, resolution, success_dist, status,
               duration, cells):
    """The exploration must end found, move between 4-adjacent free cells
    one cell per step, take duration = steps x resolution, and stop within
    success_dist of the target."""
    problems = []
    if status != "found":
        problems.append(f"status {status}")
    h, w = occupied.shape
    prev = tuple(robot)
    for k, cell in enumerate(cells):
        r, c = cell
        if not (0 <= r < h and 0 <= c < w) or occupied[r, c]:
            return problems + [f"step {k + 1} enters blocked cell {cell}"]
        if abs(r - prev[0]) + abs(c - prev[1]) != 1:
            return problems + [f"step {k + 1} jumps from {prev} to {cell}"]
        prev = (r, c)
    want = len(cells) * resolution
    if abs(duration - want) > REL_TOL * max(1.0, want):
        problems.append(f"duration {duration!r} != {len(cells)} steps x "
                        f"{resolution}")
    gap = resolution * float(np.hypot(prev[0] - target[0],
                                      prev[1] - target[1]))
    if gap >= success_dist:
        problems.append(f"final cell {prev} is {gap:.3f} from the target")
    return problems
