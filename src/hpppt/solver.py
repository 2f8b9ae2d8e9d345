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
decreases, so focal membership is never invalidated.
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
    gamma = np.zeros((n, n))
    if n > 1:
        omp = 1.0 - inst.prob
        c_inf = inst.cost.copy()
        np.fill_diagonal(c_inf, np.inf)
        buf = np.empty((n, n))
        for k in range(1, n):
            np.add(c_inf, gamma[:, k - 1], out=buf)
            gamma[:, k] = omp * buf.min(axis=1)
    gamma.setflags(write=False)
    return HeuristicTable(gamma)


def heuristic_value(table: HeuristicTable, inst: Instance,
                    s: SearchState) -> float:
    """Lower bound on the expected cost to finish from s."""
    k = inst.n - s.size
    if k <= 0:
        return 0.0
    return float(s.q / (1.0 - inst.prob[s.v]) * table.gamma[s.v, k])


def _mkstate(v, g, q, mask, size, h):
    return SearchState(v=v, g=g, q=q, visited=mask, size=size, h=h)


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
    if cfg.epsilon < 0.0:
        raise InvalidConfigError(f"epsilon must be >= 0, got {cfg.epsilon}")
    if cfg.tie_break not in ("deep", "fifo"):
        raise InvalidConfigError(f"unknown tie_break {cfg.tie_break!r}")
    if cfg.time_limit is not None and cfg.time_limit <= 0:
        raise InvalidConfigError("time_limit must be positive")

    t0 = time.perf_counter()
    limit = cfg.time_limit if cfg.time_limit is not None else float("inf")
    n = inst.n
    start = inst.start
    cost = inst.cost
    omp_list = (1.0 - inst.prob).tolist()
    use_h = cfg.use_heuristic
    use_pruning = cfg.use_pruning
    eps = cfg.epsilon
    use_focal = eps > 0.0
    deep = cfg.tie_break == "deep"
    gamma = build_heuristic_table(inst).gamma if use_h else None

    full = (1 << n) - 1
    stats = SearchStats()

    # state store, indexed by state id
    Sv = [start]
    Sg = [0.0]
    Sq = [omp_list[start]]
    Smask = [1 << start]
    Ssize = [1]
    Spar = [-1]
    closed = [False]

    h0 = float(gamma[start, n - 1]) if use_h and n > 1 else 0.0
    f0 = h0
    stats.generations = 1
    if on_generate:
        on_generate(_mkstate(start, 0.0, Sq[0], Smask[0], 1, h0))

    open_heap = [(f0, n - 1, 0.0, 0) if deep else (f0, 0, 0.0, 0)]
    # focal holds (krem, f, g, sid) for states within the bound; pending
    # holds (f, sid) for the states generated above it
    focal_heap = [(n - 1, f0, 0.0, 0)] if use_focal else []
    pending = []
    # best g seen per (vertex, visited-set), with the owning state id
    bestg = {(start, Smask[0]): (0.0, 0)}
    # bucket_g[v][k] / bucket_m[v][k]: g and mask of the expanded
    # non-dominated states at v whose visited set has k vertices, sorted by
    # g; each list of buckets grows to the largest k expanded at v, with
    # None for a k not yet seen there
    bucket_g = [[] for _ in range(n)]
    bucket_m = [[] for _ in range(n)]
    live_open = 1
    stats.peak_open = 1
    last_fmin = -float("inf")
    bound = f0
    TOL = DOMINANCE_TOL
    iters = 0

    def _result(status, path=None, cost_val=None):
        stats.wall_time = time.perf_counter() - t0
        return SolveResult(status, path, cost_val, stats)

    while open_heap:
        iters += 1
        if (iters & 255) == 0 and time.perf_counter() - t0 > limit:
            return _result("timeout")

        if use_focal:
            while open_heap and closed[open_heap[0][3]]:
                heapq.heappop(open_heap)
            if not open_heap:
                break
            fmin = open_heap[0][0]
            if fmin > last_fmin:
                last_fmin = fmin
                bound = (1.0 + eps) * fmin
                # no pending state is closed: states leave the queue only
                # from within the bound, which pending states are not
                while pending and pending[0][0] <= bound:
                    f2, sid2 = heapq.heappop(pending)
                    heapq.heappush(
                        focal_heap, (n - Ssize[sid2], f2, Sg[sid2], sid2))
            sid = -1
            while focal_heap:
                cand = heapq.heappop(focal_heap)[3]
                if not closed[cand]:
                    sid = cand
                    break
            if sid < 0:
                # focal drained to stale entries; fall back to the best f
                sid = heapq.heappop(open_heap)[3]
        else:
            sid = -1
            while open_heap:
                cand = heapq.heappop(open_heap)[3]
                if not closed[cand]:
                    sid = cand
                    break
            if sid < 0:
                break

        closed[sid] = True
        live_open -= 1
        v = Sv[sid]
        g = Sg[sid]
        mask = Smask[sid]
        size = Ssize[sid]

        if use_pruning:
            bg = bestg.get((v, mask))
            if bg is not None and bg[1] != sid:
                stats.pruned_extracted += 1
                continue
            gb = bucket_g[v]
            mb = bucket_m[v]
            glim = g + TOL
            pruned = False
            for k in range(size + 1, len(gb)):
                fg = gb[k]
                if fg and fg[0] <= glim:
                    for m in mb[k][:bisect_right(fg, glim)]:
                        if m & mask == mask:
                            pruned = True
                            break
                    if pruned:
                        break
            if pruned:
                stats.pruned_extracted += 1
                continue
            # drop expanded states this one dominates, then join the frontier
            glo = g - TOL
            nb = len(gb)
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

        stats.expansions += 1
        q = Sq[sid]

        if on_expand:
            hh = (q / omp_list[v] * gamma[v, n - size]
                  if use_h and size < n else 0.0)
            on_expand(_mkstate(v, g, q, mask, size, hh))

        if mask == full:
            order = []
            cur = sid
            while cur >= 0:
                order.append(Sv[cur])
                cur = Spar[cur]
            order.reverse()
            return _result("ok", tuple(order), g)

        krem = n - size - 1
        crow = cost[v]
        g_row = (g + q * crow).tolist()
        if use_h:
            f_row = (g + q * (crow + gamma[:, krem])).tolist()
        else:
            f_row = g_row
        rem = full & ~mask
        while rem:
            lsb = rem & -rem
            rem ^= lsb
            u = lsb.bit_length() - 1
            stats.generations += 1
            g2 = g_row[u]
            m2 = mask | lsb
            if use_pruning:
                key = (u, m2)
                hit = bestg.get(key)
                if hit is not None and g2 >= hit[0] - TOL:
                    stats.pruned_generated += 1
                    continue
                gb = bucket_g[u]
                mb = bucket_m[u]
                glim = g2 + TOL
                pruned = False
                for k in range(size + 2, len(gb)):
                    fg = gb[k]
                    if fg and fg[0] <= glim:
                        for m in mb[k][:bisect_right(fg, glim)]:
                            if m & m2 == m2:
                                pruned = True
                                break
                        if pruned:
                            break
                if pruned:
                    stats.pruned_generated += 1
                    continue
                sid2 = len(Sv)
                bestg[key] = (g2, sid2)
            else:
                sid2 = len(Sv)
            Sv.append(u)
            Sg.append(g2)
            Sq.append(q * omp_list[u])
            Smask.append(m2)
            Ssize.append(size + 1)
            Spar.append(sid)
            closed.append(False)
            f2 = f_row[u]
            if on_generate:
                on_generate(_mkstate(u, g2, Sq[sid2], m2, size + 1, f2 - g2))
            heapq.heappush(open_heap,
                           (f2, krem, g2, sid2) if deep else (f2, sid2, g2, sid2))
            live_open += 1
            if live_open > stats.peak_open:
                stats.peak_open = live_open
            if use_focal:
                if f2 <= bound:
                    heapq.heappush(focal_heap, (krem, f2, g2, sid2))
                else:
                    heapq.heappush(pending, (f2, sid2))

    # a complete graph always has a solution path; kept for robustness
    return _result("failure")
