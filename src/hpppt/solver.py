"""Best-first search for minimum expected-cost Hamiltonian paths.

States are (vertex, visited-set) pairs carrying the accumulated expected
cost g and the survival weight q, the product of (1 - prob) over visited
vertices. Expanding along an edge adds q * cost to g, so g is exactly the
expected cost of the partial path.

Admissible lower bound: a table gamma[v][k] gives the cheapest discounted
way to make k more hops from v when revisits are allowed, computed by a
quadratic dynamic program. h(s) scales the table entry by the survival
weight before v's own termination factor.

Pruning: a state is dominated when another state at the same vertex has
visited a superset of its vertices at no greater g (1e-9 slack). An exact
duplicate table (best g per (vertex, visited-set)) catches equal-set
repeats cheaply, including ones still waiting in the queue. Each vertex
also keeps a frontier of non-dominated expanded states, bucketed by the
size of their visited set and sorted by g within a bucket. A superset of
a k-vertex set has more than k vertices or is the same set, and the
duplicate table has already settled the same set under the same slack, so
a superset query scans only the buckets above k, each up to g + slack. A
newly expanded state drops the subsets it dominates from buckets 1..k
(bucket k holds equal sets that a cheaper duplicate displaced). Both scans
stop at the largest size yet expanded at that vertex, so a shallow
frontier costs next to nothing.

Setting epsilon > 0 switches extraction to a focal rule: among queue
states within (1 + epsilon) of the best f, prefer the one with fewest
unvisited vertices. The returned cost is then at most (1 + epsilon) times
optimal. A state generated within the bound joins the focal heap at once;
one above it waits in a pending heap ordered by f. Whenever the best f
strictly increases, the bound rises and the pending states now within it
move to the focal heap. With a consistent bound that floor never
decreases, so focal membership is never invalidated. Focal never runs dry
while the open heap holds a live state: every pending state lies above
the bound, every other open state within the bound sits in the focal
heap, and the open-heap top, at f = fmin, is within the bound.

Children are scored on Python floats read from lists made once per solve:
g2 = g + q * c(v, u), and f2 = g + q * (c(v, u) + gamma[u, krem]) only for
children that survive the duplicate and superset checks. These are the
same IEEE double operations in the same order as whole-row numpy
arithmetic, and Python fuses no multiply-add, so every bit, and hence every
search, is the same as with numpy rows.
"""

import heapq
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance

DOMINANCE_TOL = 1e-9
DEFAULT_TIME_LIMIT = 60.0


class InvalidConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 0.0
    use_heuristic: bool = True
    use_pruning: bool = True
    time_limit: float | None = DEFAULT_TIME_LIMIT
    tie_break: str = "deep"  # "deep": prefer larger visited sets; "fifo"


@dataclass
class SearchStats:
    expansions: int = 0
    generations: int = 0
    pruned_extracted: int = 0
    pruned_generated: int = 0
    peak_open: int = 0
    wall_time: float = 0.0

    @property
    def prunes(self) -> int:
        return self.pruned_extracted + self.pruned_generated


@dataclass
class SolveResult:
    status: str  # "ok", "timeout" or "failure"
    path: tuple | None
    cost: float | None
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass(frozen=True)
class SearchState:
    """Public view of a search state; visited is a bit mask over vertices."""
    v: int
    g: float
    q: float
    visited: int
    size: int
    h: float = 0.0
    parent: "SearchState | None" = None

    @property
    def f(self) -> float:
        return self.g + self.h


def dominates(s1: SearchState, s2: SearchState) -> bool:
    """True when s1 renders s2 redundant: same vertex, superset of visited
    vertices, and no larger g (within 1e-9). Implies q(s1) <= q(s2), which
    is asserted rather than recomputed."""
    if s1.v != s2.v:
        raise ValueError("dominance is defined per vertex")
    result = (s1.g <= s2.g + DOMINANCE_TOL
              and (s1.visited & s2.visited) == s2.visited)
    assert not result or s1.q <= s2.q + 1e-12
    return result


@dataclass(frozen=True)
class HeuristicTable:
    gamma: np.ndarray  # gamma[v, k]: discounted k-hop relaxation from v


def build_heuristic_table(inst: Instance) -> HeuristicTable:
    """gamma[v, 0] = 0; gamma[v, k] = (1-p(v)) * min over u != v of
    (cost(v, u) + gamma[u, k-1]). Revisits are allowed, which keeps the
    recursion quadratic and the bound admissible."""
    n = inst.n
    # built k-major, rows[k, v] = gamma[v, k], so that each step writes one
    # contiguous row; buf[u, v] = cost(v, u) + gamma[u, k-1]
    rows = np.zeros((n, n))
    if n > 1:
        omp = 1.0 - inst.prob
        c_in = inst.cost.T.copy()
        np.fill_diagonal(c_in, np.inf)
        buf = np.empty((n, n))
        for k in range(1, n):
            np.add(c_in, rows[k - 1][:, None], out=buf)
            np.minimum.reduce(buf, axis=0, out=rows[k])
            rows[k] *= omp
    rows.setflags(write=False)
    return HeuristicTable(rows.T)


def heuristic_value(table: HeuristicTable, inst: Instance,
                    s: SearchState) -> float:
    """Lower bound on the expected cost to finish from s."""
    k = inst.n - s.size
    if k <= 0:
        return 0.0
    return float(s.q / (1.0 - inst.prob[s.v]) * table.gamma[s.v, k])


def solve(inst: Instance, cfg: SolverConfig | None = None, *,
          on_generate=None, on_expand=None) -> SolveResult:
    """Search for the minimum expected-cost solution path from inst.start.

    epsilon = 0 returns an optimal path; epsilon > 0 returns one within
    (1 + epsilon) of optimal, usually much faster on large instances.
    on_generate/on_expand, when given, receive a SearchState for every
    generated/expanded state (instrumentation hooks, they slow the search).

    Optimality of the pruning rules relies on costs satisfying the
    triangle inequality; see instance.require_metric.
    """
    if cfg is None:
        cfg = SolverConfig()
    # each rule is written so that NaN fails it
    if not cfg.epsilon >= 0.0:
        raise InvalidConfigError(f"epsilon must be >= 0, got {cfg.epsilon}")
    if cfg.tie_break not in ("deep", "fifo"):
        raise InvalidConfigError(f"unknown tie_break {cfg.tie_break!r}")
    if cfg.time_limit is not None and not cfg.time_limit > 0:
        raise InvalidConfigError("time_limit must be positive")

    t0 = time.perf_counter()
    limit = cfg.time_limit if cfg.time_limit is not None else float("inf")
    n = inst.n
    start = inst.start
    cost = inst.cost.tolist()
    omp_list = (1.0 - inst.prob).tolist()
    use_pruning = cfg.use_pruning
    eps = cfg.epsilon
    use_focal = eps > 0.0
    deep = cfg.tie_break == "deep"
    if cfg.use_heuristic:
        # hrows[k][v] = gamma[v, k]
        hrows = build_heuristic_table(inst).gamma.T.tolist()
    else:
        # c + 0.0 == c, so f = g + q * (c + 0.0) is g to the bit
        hrows = [[0.0] * n] * n

    full = (1 << n) - 1
    expansions = 0
    generations = 1
    pruned_extracted = 0
    pruned_generated = 0

    # state store, indexed by state id: (v, q, mask, size, parent id); g
    # travels in the heap entries
    states = [(start, omp_list[start], 1 << start, 1, -1)]
    # focal mode only: states already extracted, whose open-heap entries are
    # stale; in exact mode every state enters the open heap once
    closed = set()

    f0 = hrows[n - 1][start] if n > 1 else 0.0
    if on_generate:
        on_generate(SearchState(start, 0.0, states[0][1], 1 << start, 1, f0))

    # open entries are (f, krem, g, sid) when deep, (f, sid, g, sid) when
    # fifo: g and sid sit at the same places as in the focal entries
    open_heap = [(f0, n - 1, 0.0, 0) if deep else (f0, 0, 0.0, 0)]
    # focal holds (krem, f, g, sid) for states within the bound; pending
    # holds (f, sid, g) for the states generated above it
    focal_heap = [(n - 1, f0, 0.0, 0)] if use_focal else []
    pending = []
    # best g seen per (vertex, visited-set), with the owning state id
    bestg = {(start, 1 << start): (0.0, 0)}
    # bucket_g[v][k] / bucket_m[v][k]: g and mask of the expanded
    # non-dominated states at v whose visited set has k vertices, sorted by
    # g; each list of buckets grows to the largest k expanded at v, with
    # None for a k not yet seen there
    bucket_g = [[] for _ in range(n)]
    bucket_m = [[] for _ in range(n)]
    live_open = 1
    peak_open = 1
    last_fmin = -float("inf")
    bound = f0
    TOL = DOMINANCE_TOL
    iters = 0
    status, path, best = "failure", None, None
    heappush = heapq.heappush
    heappop = heapq.heappop

    while open_heap:
        iters += 1
        if (iters & 255) == 0 and time.perf_counter() - t0 > limit:
            status = "timeout"
            break

        if use_focal:
            while open_heap and open_heap[0][3] in closed:
                heappop(open_heap)
            if not open_heap:
                break
            fmin = open_heap[0][0]
            if fmin > last_fmin:
                last_fmin = fmin
                bound = (1.0 + eps) * fmin
                # no pending state is closed: states leave the queue only
                # from within the bound, which pending states are not
                while pending and pending[0][0] <= bound:
                    f2, sid2, g2 = heappop(pending)
                    heappush(focal_heap, (n - states[sid2][3], f2, g2, sid2))
            # the open-heap top is within the bound, so a live entry waits
            # in focal (see the module docstring)
            while True:
                _, _, g, sid = heappop(focal_heap)
                if sid not in closed:
                    break
            closed.add(sid)
        else:
            _, _, g, sid = heappop(open_heap)

        live_open -= 1
        v, q, mask, size, _ = states[sid]

        if use_pruning:
            bg = bestg.get((v, mask))
            if bg is not None and bg[1] != sid:
                pruned_extracted += 1
                continue
            gb = bucket_g[v]
            mb = bucket_m[v]
            nb = len(gb)
            if nb > size + 1:
                glim = g + TOL
                pruned = False
                for k in range(size + 1, nb):
                    fg = gb[k]
                    if fg and fg[0] <= glim:
                        for m in mb[k][:bisect_right(fg, glim)]:
                            if m & mask == mask:
                                pruned = True
                                break
                        if pruned:
                            break
                if pruned:
                    pruned_extracted += 1
                    continue
            # drop expanded states this one dominates, then join the frontier
            glo = g - TOL
            for k in range(1, min(size + 1, nb)):
                fg = gb[k]
                if fg and fg[-1] >= glo:
                    lo = bisect_left(fg, glo)
                    fm = mb[k]
                    w = lo
                    for i in range(lo, len(fg)):
                        if mask & fm[i] == fm[i]:
                            continue
                        fg[w] = fg[i]
                        fm[w] = fm[i]
                        w += 1
                    del fg[w:]
                    del fm[w:]
            if nb <= size:
                gb.extend([None] * (size + 1 - nb))
                mb.extend([None] * (size + 1 - nb))
            fg = gb[size]
            if fg is None:
                gb[size] = [g]
                mb[size] = [mask]
            else:
                pos = bisect_left(fg, g)
                fg.insert(pos, g)
                mb[size].insert(pos, mask)

        expansions += 1

        if on_expand:
            hh = q / omp_list[v] * hrows[n - size][v] if size < n else 0.0
            on_expand(SearchState(v, g, q, mask, size, hh))

        if mask == full:
            order = []
            cur = sid
            while cur >= 0:
                order.append(states[cur][0])
                cur = states[cur][4]
            order.reverse()
            status, path, best = "ok", tuple(order), g
            break

        # children: g2 = g + q * c and f2 = g + q * (c + h), the same IEEE
        # operations in the same order as whole-row numpy arithmetic
        size2 = size + 1
        krem = n - size2
        crow = cost[v]
        hrow = hrows[krem]
        generations += n - size
        rem = full & ~mask
        while rem:
            lsb = rem & -rem
            rem ^= lsb
            u = lsb.bit_length() - 1
            c = crow[u]
            g2 = g + q * c
            m2 = mask | lsb
            if use_pruning:
                key = (u, m2)
                hit = bestg.get(key)
                if hit is not None and g2 >= hit[0] - TOL:
                    pruned_generated += 1
                    continue
                gb = bucket_g[u]
                if len(gb) > size2 + 1:
                    mb = bucket_m[u]
                    glim = g2 + TOL
                    pruned = False
                    for k in range(size2 + 1, len(gb)):
                        fg = gb[k]
                        if fg and fg[0] <= glim:
                            for m in mb[k][:bisect_right(fg, glim)]:
                                if m & m2 == m2:
                                    pruned = True
                                    break
                            if pruned:
                                break
                    if pruned:
                        pruned_generated += 1
                        continue
                sid2 = len(states)
                bestg[key] = (g2, sid2)
            else:
                sid2 = len(states)
            q2 = q * omp_list[u]
            states.append((u, q2, m2, size2, sid))
            f2 = g + q * (c + hrow[u])
            if on_generate:
                on_generate(SearchState(u, g2, q2, m2, size2, f2 - g2))
            heappush(open_heap,
                     (f2, krem, g2, sid2) if deep else (f2, sid2, g2, sid2))
            live_open += 1
            if use_focal:
                if f2 <= bound:
                    heappush(focal_heap, (krem, f2, g2, sid2))
                else:
                    heappush(pending, (f2, sid2, g2))
        if live_open > peak_open:
            peak_open = live_open

    # status stays "failure" only if the queue drains, which a complete
    # graph never allows; kept for robustness
    stats = SearchStats(expansions, generations, pruned_extracted,
                        pruned_generated, peak_open,
                        time.perf_counter() - t0)
    return SolveResult(status, path, best, stats)
