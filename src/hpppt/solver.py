"""Best-first search for minimum expected-cost Hamiltonian paths.

States are (vertex, visited-set) pairs carrying the accumulated expected
cost g and the survival weight q, the product of (1 - prob) over visited
vertices. Expanding along an edge adds q * cost to g, so g is exactly the
expected cost of the partial path.

Admissible lower bounds. A table gamma[v][k] gives the cheapest
discounted way to make k more hops from v when revisits are allowed,
computed by a quadratic dynamic program; h(s) scales the table entry by
the survival weight before v's own termination factor. The table ignores
which vertices remain, so at low termination probabilities it reaches
only about 0.4 of the optimum at the root.

The tree bound looks at the remaining set R instead. A child u of an
expanded state must still visit R - {u} from u, and the hops of that path
form a spanning tree of R, each hop costing at least csym = min(c, c^T)
of its ends. By the greedy property of the graphic matroid, the j-th
cheapest edge of any spanning tree of R costs at least K_j, the j-th
cheapest edge of a minimum spanning tree of R (Gale 1968; Fischetti,
Laporte & Martello 1993 bound the delivery man problem with these
cumulative sums). The j-th hop (j = 0, 1, ...) is weighted by q(u) times
the product of 1 - p over the j vertices entered before it, which is at
least q(u) times P_j(R - {u}), the product of the j smallest 1 - p in
R - {u}. These weights fall with j, so by the rearrangement inequality no
order of hops costs less than the hops sorted ascending, each times the
weight of the same rank, and that sum is at least the sum of K_j
P_j(R - {u}). The bound needs no triangle inequality. Every child of a
state spans the same R, and states at different vertices with the same R
share it, so each R costs one Kruskal (1956) and two prefix sums, after
which each child's bound takes O(1), u's rank among the factors shifting
the later weights to P_{j+1}(R) / (1 - p(u)) (_tree_tails). Kruskal scans
the pairs, sorted by csym once per solve, for |R| - 1 edges inside R; they
come out sorted, and every minimum spanning tree has the same (Gale).

The root rule picks the bounds per solve, from the instance alone. A
solve uses the tree bound iff n >= TREE_FLOOR and the tree's root value
beats gamma's; the root key is then the tree root value, and a child's f
is the larger of its gamma and tree bounds. Otherwise the search is
exactly the gamma-only one. The incumbent's path (below) spans all
vertices, so by Gale its sorted hop costs bound the sorted edges of a
minimum spanning tree term by term, and csym <= cost: the same weights
times the sorted hops (_path_bound) are never below the tree root value.
So only a solve whose path bound beats gamma's root value computes the
tree root value, once, which decides the rule and keys the root; most
solves settle the rule without a tree. The floor is measured. Full
solves gain from the tree from about eight vertices on, about 3x at 12,
but first-move replans, which stop after a few expansions, do not repay
a tree per remaining set, and lose less the higher the floor.

The tree bound is consistent. At a state at v with remaining set S, a
child u adds c(v, u) at the state's weight and spans S - {u} + {u} = S.
The edge (v, u) and a minimum tree of S form a spanning tree of
S + {v}, so term by term the sorted edges of the state's tree are at
most the sorted multiset of c(v, u) and the child's K_j (Gale). Pairing
that multiset with the state's weights P_j(S) in the order that gives
c(v, u) weight P_0 = 1 and K_j weight P_{j+1}(S) costs no less, by the
rearrangement inequality, and P_{j+1}(S) <= (1 - p(u)) P_j(S - {u}),
as {u} plus the j smallest factors of S - {u} are j + 1 factors of S.
So the hop cost plus the child's bound is at least the state's bound.
The max of two consistent bounds is consistent too. In floating point
the prefix sums can still leave a child's f a few ulps below its
parent's, so a solve that uses the tree term also applies pathmax (Mérő
1984): a child's f is raised to its parent's f. That keeps the bound
admissible, since the parent's f is a lower bound on every completion
through it, and it makes the least f in the queue exactly
non-decreasing, which exact extraction order and the focal floor below
rely on.

Pruning: a state is dominated when another state at the same vertex has
visited a superset of its vertices at no greater g (1e-9 slack). An exact
duplicate table (best g per (vertex, visited-set)) catches equal-set
repeats cheaply, including ones still waiting in the queue. Superset
dominance is checked once per state, when it is extracted, against a
frontier of the expanded states at its vertex. The frontier only grows, so
a child dominated when it is generated is still dominated then, as A* may
test closure at expansion (Hart, Nilsson & Raphael 1968); until then it
waits in the queue. Each frontier is bucketed by the size of the visited
set and sorted by g within a bucket. A superset of a k-vertex set has more
than k vertices or is the same set, which the duplicate table settles
under the same slack, so a query (_has_superset) scans only the buckets
above k, each up to g + slack, and stops at the largest size yet expanded
at that vertex. Entries stay even once dominated, as each was expanded.
Superset dominance needs the triangle inequality, which lets a superset
skip the vertices it already visited, so a solve runs it only when
is_metric holds; the duplicate table compares equal sets and needs none.

Exact search extracts the least f, ties to the state with fewest
unvisited vertices, then the least g, then the first generated. Setting
epsilon > 0 switches extraction to a focal rule: among queue states
within (1 + epsilon) of the best f, prefer the one with fewest
unvisited vertices. The returned cost is then at most (1 + epsilon) times
optimal. A state generated within the bound joins the focal heap, and the
open heap, ordered by f, at once; one above it waits in a pending heap
ordered by f, and joins both when it moves. Whenever the best f strictly
increases, the bound rises and the pending states now within it move.
With gamma alone, which is consistent, or with pathmax, that floor never
decreases, so focal membership is never invalidated. So the open heap
holds the f of each focal-admitted state, all within the bound, and
pending the others, all above it: the best f, fmin, is the least f of an
admitted state not yet extracted, or, when none is left, the pending top.
The open heap holds bare f values, and a table counts the f values of the
extracted states: while the top's count is positive, the floor takes one
off it and pops the top. Equal f values are interchangeable, so the top
is then that least f. Focal never runs dry: in the first case a state
of that f waits in the focal heap, and in the second the bound rises to
(1 + epsilon) times the pending top, which moves that state into focal.

The incumbent cut. Before the search, _dive walks from the start, always
to the unvisited vertex u with the least c(v, u) + gamma[u, krem], ties to
the smaller index, and returns that path and its expected cost U, an upper
bound on the optimum C*. A child whose gamma key
g + q * (c + gamma[u, krem]) or, where the search uses the tree bound,
whose tree key g2 + q2 * tail exceeds

    cut = (1 + epsilon) * (U + 2 n * slack) * (1 + 1e-9)

(slack the 1e-9 of dominance) is dropped before the duplicate table sees
it and counted in pruned_bound. The search then extracts the same states
in the same order, so the path, the cost bits, expansions, generations
and pruned_extracted stay the same; only pruned_generated and peak_open
fall. At its first time check after TIGHTEN_AFTER expansions, a search
improves the dive's path by local search (_local_search) and lowers U,
and so the cut, to the new path's cost. The trigger counts expansions,
not seconds, so reruns stay identical; it waits because on the many
short solves the local search costs more than the states it spares.
The argument below holds for any U at least C*, so a cut that tightens
mid-search changes no extraction either: a state queued under the old cut
with a key above the new one is never extracted. That is why U must be
the cost of a real path from the start, summed as the search sums g
(g += q * c, then q *= 1 - p): a figure got any other way, a rounded one
say, could lie below the cost that the search finds for the optimum, and
the cut would then drop the optimum's states and drain the queue. The
argument, in exact arithmetic:
- Until the goal is extracted, the queue holds a live state whose f is at
  most C* + (2n - 1) slack: the state of an optimal path or, where that
  was pruned, the state that pruned it, whose best completion is at most
  one slack dearer (a superset may skip the vertices it already visited,
  as superset dominance runs only under the triangle inequality). Along
  the way the duplicate table adds a net slack at most once per set size,
  as a displacing state is cheaper by more than a slack, and superset
  dominance at most once per larger size it jumps to. A duplicate link
  keeps the set and a superset link enlarges it, so the count holds in
  any order of links, as for a child pruned as a duplicate of a queued
  state that superset dominance drops later. So every extracted f, exact
  or focal, is at most (1 + epsilon) * (C* + (2n - 1) slack).
- A child's key is at least its gamma key and, where the tree bound is in
  use, its tree key, as the key is their max raised by pathmax. So a cut
  child is never extracted, and it never joins a frontier. Its one other
  effect would be its duplicate-table entry: the states at its (vertex,
  visited-set) pair that it would displace or reject. At one pair q,
  gamma and the tree tail are fixed, so each gamma or tree key there is g
  plus the same constant, and every such state has g at least the cut
  child's less a slack: the same key of it lies above the cut less a
  slack, above every extracted f. A state that the two searches queue
  differently for that reason is therefore never extracted either. Nor
  does it set the focal floor, as the live state of the first point lies
  below it, and removing states leaves the order of the others in every
  heap as it was.
The margin spends one of its 2n slacks there. A run of later children at
one pair whose g each fall less than a slack below the last could carry
the difference further; the factor 1 + 1e-9, which also absorbs rounding
(far below 1e-9 relative), leaves U * 1e-9 more for that. By the first
point the queue holds a live state until the goal is extracted, so no
search drains its queue: every search ends at the goal, the first-move
stop or the time limit.

The first-move stop. A robot that replans after every reading carries
out only the first move of each plan, so solve(..., first_move=True)
returns just (start, u) and stops once u is settled. Each queued state
belongs to a branch: the root child it descends from. A state is live
from when it is queued until it is extracted, that is popped from the
open heap in exact mode or the focal heap in focal mode, also when it is then
pruned: a dominated child keeps its branch live until then. After each
expansion, if the live states all lie in one branch, solve returns that
branch's move. Up to that point the search is the full one, state for
state. Take the goal state that the full search goes on to extract, and
the states on its path from the root. Each of them was generated, and each
but the goal was expanded. The first of them not yet extracted has been
queued, since its parent was expanded when it was extracted. So it is live
now, and it lies in the goal's branch: the full search returns the same
move. The argument rests only on which states the search extracts and in
what order, not on the triangle inequality or on the bounds. If the goal
is extracted while two branches are live, the result is its path's first
move. A first-move search is a prefix of the full one, so a time limit
it hits the full search would hit too, and a timeout returns no path in
both modes. The bookkeeping runs once per extraction and once per
expansion, outside the child loop, so a full search pays two flag tests
per expansion.

Children are scored on Python floats from lists made once per solve: the
gamma key g + q * (c(v, u) + gamma[u, krem]) first, for the cut, then
g2 = g + q * c(v, u), q2 and, with the tree bound, the tree key
g2 + q2 * tail, for the cut and as the key where larger; the children the
duplicate table (keyed mask * n + v) keeps are raised by pathmax. Python
fuses no multiply-add, so every bit and search is as with numpy rows.
"""

import heapq
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, is_metric

DOMINANCE_TOL = 1e-9
DEFAULT_TIME_LIMIT = 60.0
# the fewest vertices on which the root rule may pick the tree bound, set by
# measurement (module docstring)
TREE_FLOOR = 12
# the expansions after which a search tightens its incumbent by local search,
# and the most passes that search makes (module docstring)
TIGHTEN_AFTER = 4096
LOCAL_SEARCH_PASSES = 200
# the block pairs, four moves each, that the local search scores in one
# numpy step, which bounds its memory on large instances
LOCAL_SEARCH_CHUNK = 1 << 15


class InvalidConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 0.0
    use_heuristic: bool = True
    time_limit: float | None = DEFAULT_TIME_LIMIT

    def __post_init__(self):
        # each rule is written so that NaN fails it
        if not self.epsilon >= 0.0:
            raise InvalidConfigError(
                f"epsilon must be >= 0, got {self.epsilon}")
        if self.time_limit is not None and not self.time_limit > 0:
            raise InvalidConfigError("time_limit must be positive")


@dataclass
class SearchStats:
    expansions: int = 0
    generations: int = 0
    pruned_extracted: int = 0  # popped duplicates and dominated states
    pruned_generated: int = 0  # children the duplicate table rejected
    peak_open: int = 0
    wall_time: float = 0.0
    root_bound: float | None = None  # f of the start state; None: no search
    pruned_bound: int = 0  # children whose key lay above the incumbent cut
    upper_bound: float | None = None  # the incumbent's cost; None: no search
    trees: int = 0  # spanning trees behind the bounds; 0: gamma alone
    pruned_superset: int = 0  # extracted states dropped by superset dominance

    @property
    def prunes(self) -> int:
        return (self.pruned_extracted + self.pruned_generated
                + self.pruned_bound)


@dataclass
class SolveResult:
    status: str  # "ok" or "timeout"
    path: tuple | None
    cost: float | None  # None unless ok; None from an unscored baseline
    # and from a first-move solve, which returns only the path's first move
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

    @property
    def f(self) -> float:
        return self.g + self.h


def build_heuristic_table(inst: Instance) -> np.ndarray:
    """The read-only table gamma[v, k], a discounted k-hop relaxation from
    v: gamma[v, 0] = 0; gamma[v, k] = (1-p(v)) * min over u != v of
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
    return rows.T


def _tree_lists(inst, omp):
    """The pairs (csym, pair mask, x, w) by csym = min(cost(x, w),
    cost(w, x)) and the vertices by 1 - p, ties to the smaller index."""
    csym = np.minimum(inst.cost, inst.cost.T).tolist()
    pairs = sorted((row[w], 1 << x | 1 << w, x, w)
                   for x, row in enumerate(csym) for w in range(x + 1, inst.n))
    return pairs, sorted(range(inst.n), key=omp.__getitem__)


def _tree_tails(rem, pairs, by_omp, omp):
    """Map every u in the bit set rem (at least two vertices) to the tree
    bound on the cost of visiting rem - {u} from u at unit survival weight
    (module docstring). pairs and by_omp are _tree_lists'."""
    by_o = [u for u in by_omp if rem >> u & 1]
    # Kruskal, on a union-find with path halving
    parent = list(range(len(by_omp)))
    edges = []
    need = len(by_o) - 1
    for c, m, x, w in pairs:
        if rem & m == m:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[w] != w:
                parent[w] = w = parent[parent[w]]
            if x != w:
                parent[x] = w
                edges.append(c)
                if len(edges) == need:
                    break
    # k the r - 1 tree edges ascending, o the factors 1 - p of rem
    # ascending, p[j] the product of the j smallest o; a[m] is the sum of
    # k[j] p[j] over j < m, and b[m] that of k[j] p[j + 1] over j >= m
    a = [0.0]
    prods = []
    acc = 0.0
    p = 1.0
    for k, u in zip(edges, by_o):
        acc += k * p
        a.append(acc)
        p *= omp[u]
        prods.append(p)
    b = [0.0] * len(by_o)
    acc = 0.0
    for j in range(len(edges) - 1, -1, -1):
        acc += edges[j] * prods[j]
        b[j] = acc
    # leaving out u, of rank s in o, keeps p[j] up to j = s and turns the
    # later ones into p[j + 1] / o[s]
    tails = {u: a[s + 1] + b[s + 1] / omp[u]
             for s, u in enumerate(by_o[:-1])}
    tails[by_o[-1]] = a[-1]
    return tails


def _has_superset(gb, mb, size, mask, glim):
    """True when one vertex's frontier, bucket lists gb (g) and mb (masks),
    holds a superset of mask with more than size vertices at g <= glim.
    Buckets are indexed by set size and sorted by g; None or [] is empty."""
    for k in range(size + 1, len(gb)):
        fg = gb[k]
        if fg and fg[0] <= glim:
            for m in mb[k][:bisect_right(fg, glim)]:
                if m & mask == mask:
                    return True
    return False


def _path_cost(path, cost, omp):
    """The expected cost of path, summed as the search sums g."""
    g = 0.0
    q = omp[path[0]]
    for v, u in zip(path, path[1:]):
        g += q * cost[v][u]
        q *= omp[u]
    return g


def _dive(cost, hrows, omp, start):
    """The incumbent: from start, always move to the unvisited vertex u
    with the least cost(v, u) + gamma[u, krem], ties to the smaller index.
    Returns the path and its expected cost, summed as the search sums g."""
    left = [u for u in range(len(cost)) if u != start]
    path = [start]
    v = start
    for krem in range(len(left) - 1, -1, -1):
        crow = cost[v]
        hrow = hrows[krem]
        v = left[0]
        best = crow[v] + hrow[v]
        for u in left:
            key = crow[u] + hrow[u]
            if key < best:
                v = u
                best = key
        left.remove(v)
        path.append(v)
    return tuple(path), _path_cost(path, cost, omp)


def _swap_scores(x, c, P, F, R, s, t, e):
    """scores[ra, rb, k]: the expected cost of path x after move k of
    _local_search, with block A = [s, t] reversed iff ra and block
    B = [t + 1, e] iff rb. x ends in the dummy vertex; P[k] is the survival
    weight after x[k], F[k] the cost up to x[k], and R[k] the cost of the
    hops up to x[k] walked backwards, each over the weight of the hop into
    the vertex it leaves."""
    m = len(x) - 2
    # weights can underflow to 0 on long paths; such moves score inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the new path is x[:s], B, A, x[e + 1:]: B is entered at weight w0
        # and A at w1, and past A the weights are as before. Each block is
        # (first vertex, last vertex, cost inside it), forward and reversed.
        w0 = P[s - 1]
        w1 = w0 * P[e] / P[t]
        a_ways = ((x[s], x[t], P[e] / P[t] * (F[t] - F[s])),
                  (x[t], x[s], w1 * P[t] * (R[t] - R[s])))
        b_ways = ((x[t + 1], x[e], w0 / P[t] * (F[e] - F[t + 1])),
                  (x[e], x[t + 1], w0 * P[e] * (R[e] - R[t + 1])))
        rest = F[s - 1] + (F[m + 1] - F[e + 1])
        scores = np.empty((2, 2, len(s)))
        for ra, (a_in, a_out, in_a) in enumerate(a_ways):
            for rb, (b_in, b_out, in_b) in enumerate(b_ways):
                scores[ra, rb] = (rest + w0 * c[x[s - 1], b_in] + in_b
                                  + w1 * c[b_out, a_in] + in_a
                                  + P[e] * c[a_out, x[e + 1]])
    scores[~np.isfinite(scores)] = np.inf
    return scores


def _local_search(path, g, cost, omp):
    """Improve path, a Hamiltonian path from path[0] of expected cost g.
    A move swaps two adjacent blocks A and B of the path, either of them
    reversed or not, one of them 1-3 vertices long: or-opt with segments
    of 1-3 (Or 1976) in both orientations, and, with A a single vertex and
    B reversed, 2-opt (Croes 1958). Each pass scores every move from prefix
    sums of the hop weights, LOCAL_SEARCH_CHUNK block pairs at a time, and
    takes the best; it is kept only if the path's cost summed as the
    search sums g (_path_cost) is strictly lower. Returns the path and that
    cost after at most LOCAL_SEARCH_PASSES passes."""
    n = len(path)
    if n < 3:
        return path, g
    # a dummy vertex n ends every path, reached at no cost, factor 1, so
    # that B may end at the path's end without a case of its own
    c = np.zeros((n + 1, n + 1))
    c[:n, :n] = cost
    o = np.append(omp, 1.0)
    # A = [s, t] and B = [t + 1, e], with 1 <= s <= t < e <= n - 1
    blocks = []
    for size in (1, 2, 3):
        s, e = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
        keep = s + size <= e
        blocks.append((s[keep], s[keep] + size - 1, e[keep]))
        keep = s + 3 <= e - size
        blocks.append((s[keep], e[keep] - size, e[keep]))
    s, t, e = map(np.concatenate, zip(*blocks))
    for _ in range(LOCAL_SEARCH_PASSES):
        x = np.append(path, n)
        P = np.cumprod(o[x])
        W = np.append(1.0, P[:-1])
        F = np.cumsum(W * np.append(0.0, c[x[:-1], x[1:]]))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            R = np.cumsum(np.append(0.0, c[x[1:], x[:-1]]) / W)
        best, move = F[n - 1], None
        for lo in range(0, len(s), LOCAL_SEARCH_CHUNK):
            part = slice(lo, lo + LOCAL_SEARCH_CHUNK)
            scores = _swap_scores(x, c, P, F, R, s[part], t[part], e[part])
            ra, rb, k = np.unravel_index(np.argmin(scores), scores.shape)
            if scores[ra, rb, k] < best:
                best, move = scores[ra, rb, k], (ra, rb, lo + k)
        if move is None:
            break
        ra, rb, k = move
        lo, mid, hi = int(s[k]), int(t[k]) + 1, int(e[k]) + 1
        a = path[lo:mid][::-1] if ra else path[lo:mid]
        b = path[mid:hi][::-1] if rb else path[mid:hi]
        new = path[:lo] + b + a + path[hi:]
        g2 = _path_cost(new, cost, omp)
        if not g2 < g:
            break
        path, g = new, g2
    return path, g


def _cut(upper, eps, n):
    """The incumbent cut on child keys for an incumbent of cost upper
    (module docstring)."""
    return (1.0 + eps) * (upper + 2 * n * DOMINANCE_TOL) * (1.0 + 1e-9)


def _path_bound(path, cost, omp):
    """The weights of the tree bound at the root times the sorted hop costs
    of path, a Hamiltonian path from the start: never below the tree root
    value (module docstring, root rule)."""
    hops = sorted(cost[v][u] for v, u in zip(path, path[1:]))
    factors = sorted(omp[u] for u in path[1:])
    total = 0.0
    weight = 1.0
    for c, o in zip(hops, factors):
        total += c * weight
        weight *= o
    return omp[path[0]] * total


def _path_to(keys, parents, n, sid):
    """Vertices from the start to state sid, following parent ids; a
    state's vertex is its duplicate key mask * n + v modulo n."""
    order = []
    while sid >= 0:
        order.append(keys[sid] % n)
        sid = parents[sid]
    return tuple(reversed(order))


def solve(inst: Instance, cfg: SolverConfig | None = None, *,
          on_generate=None, on_expand=None,
          first_move: bool = False) -> SolveResult:
    """Search for the minimum expected-cost solution path from inst.start.

    epsilon = 0 returns an optimal path; epsilon > 0 returns one within
    (1 + epsilon) of optimal, usually much faster on large instances.
    on_generate/on_expand, when given, receive a SearchState for every
    queued/expanded state, with the h of the key it was queued with
    (instrumentation hooks, they slow the search). Children that the
    incumbent cut or the duplicate table drops count in generations but
    never reach on_generate.

    first_move=True returns only (start, next vertex) of the path the full
    search would return, with cost None, and stops as soon as that move is
    settled (module docstring, first-move stop).

    Superset dominance runs only on costs that satisfy the triangle
    inequality (instance.is_metric); the other rules need no such property.
    """
    if cfg is None:
        cfg = SolverConfig()

    t0 = time.perf_counter()
    limit = cfg.time_limit if cfg.time_limit is not None else float("inf")
    n = inst.n
    start = inst.start
    cost = inst.cost.tolist()
    omp_list = (1.0 - inst.prob).tolist()
    use_superset = is_metric(inst)
    eps = cfg.epsilon
    use_focal = eps > 0.0
    f0 = 0.0
    if cfg.use_heuristic:
        # hrows[k][v] = gamma[v, k]
        hrows = build_heuristic_table(inst).T.tolist()
        f0 = hrows[n - 1][start]
    else:
        # c + 0.0 == c, so f = g + q * (c + 0.0) is g to the bit
        hrows = [[0.0] * n] * n
    full = (1 << n) - 1
    dive, upper = _dive(cost, hrows, omp_list, start)
    # the root rule (module docstring): the path bound screens the tree
    use_tree = False
    if (cfg.use_heuristic and n >= TREE_FLOOR
            and _path_bound(dive, cost, omp_list) > f0):
        pairs, by_omp = _tree_lists(inst, omp_list)
        tree_root = omp_list[start] * _tree_tails(full, pairs, by_omp,
                                                  omp_list)[start]
        if tree_root > f0:
            use_tree = True
            f0 = tree_root
            # tails per remaining set (module docstring)
            tails_of = {}
    # no child above the cut can change the search (module docstring)
    cut = _cut(upper, eps, n)
    tighten_at = TIGHTEN_AFTER

    expansions = 0
    generations = 1
    pruned_extracted = 0
    pruned_superset = 0
    pruned_generated = 0
    pruned_bound = 0

    # the state store, one entry per queued state in per-field lists
    # indexed by state id: the duplicate key mask * n + v, g (the float of
    # its heap entries), q and the parent's id; a state's size is n less
    # the krem of its heap entry
    keys = [(1 << start) * n + start]
    gs = [0.0]
    qs = array("d", [omp_list[start]])
    parents = [-1]

    if on_generate:
        on_generate(SearchState(start, 0.0, qs[0], 1 << start, 1, f0))

    if use_focal:
        # open holds the bare f of each state admitted to focal, and done
        # counts the f values of the extracted ones, whose entries are
        # stale (module docstring); focal holds (krem, f, g, sid) for the
        # states within the bound, and pending (f, sid) for those above it
        open_heap = [f0]
        done = {}
        focal_heap = [(n - 1, f0, 0.0, 0)]
        pending = []
    else:
        # open entries are (f, krem, g, sid): ties go to the deeper state
        open_heap = [(f0, n - 1, 0.0, 0)]
    # the id of the state that holds the best g seen per (vertex,
    # visited-set), keyed mask * n + v
    bestg = {keys[0]: 0}
    # bucket_g[v][k] / bucket_m[v][k]: g and mask of the expanded states at
    # v whose visited set has k vertices, sorted by g; each list of buckets
    # grows to the largest k expanded at v, with None for a k not yet seen
    # there, as empty lists would cost the garbage collector time
    bucket_g = [[] for _ in range(n)]
    bucket_m = [[] for _ in range(n)]
    live_open = 1
    peak_open = 1
    last_fmin = -float("inf")
    bound = f0
    TOL = DOMINANCE_TOL
    iters = 0
    best = None
    heappush = heapq.heappush
    heappop = heapq.heappop
    if first_move:
        # branch[sid]: the vertex of the root child that state sid descends
        # from (start for the root); live[u]: the queued states of u's
        # branch that are not yet extracted
        branch = [start]
        live = [0] * n
        live[start] = 1

    # the queue never drains before the goal is extracted (module docstring)
    while True:
        iters += 1
        if (iters & 255) == 0:
            if time.perf_counter() - t0 > limit:
                status, path = "timeout", None
                break
            if expansions >= tighten_at:
                # a long search tightens its incumbent (module docstring)
                tighten_at = float("inf")
                dive, upper = _local_search(dive, upper, cost, omp_list)
                cut = _cut(upper, eps, n)

        if use_focal:
            # equal f values are interchangeable, so an extracted state's
            # count may retire any entry of its f
            while open_heap and done.get(open_heap[0]):
                done[heappop(open_heap)] -= 1
            # open-heap states lie within the bound and pending ones above it
            fmin = open_heap[0] if open_heap else pending[0][0]
            if fmin > last_fmin:
                last_fmin = fmin
                bound = (1.0 + eps) * fmin
                # no pending state is extracted: states leave the queue
                # only from within the bound, which pending states are not
                while pending and pending[0][0] <= bound:
                    f2, sid2 = heappop(pending)
                    krem2 = n - (keys[sid2] // n).bit_count()
                    heappush(focal_heap, (krem2, f2, gs[sid2], sid2))
                    heappush(open_heap, f2)
            # the least f is within the bound, so a live entry waits in
            # focal (see the module docstring); a state enters focal once
            # and leaves it only when extracted, so no entry is stale
            krem, f, g, sid = heappop(focal_heap)
            done[f] = done.get(f, 0) + 1
        else:
            f, krem, g, sid = heappop(open_heap)

        live_open -= 1
        if first_move:
            live[branch[sid]] -= 1
        key = keys[sid]
        if bestg[key] != sid:
            pruned_extracted += 1
            continue
        mask, v = divmod(key, n)
        size = n - krem
        q = qs[sid]
        if use_superset:
            gb = bucket_g[v]
            mb = bucket_m[v]
            nb = len(gb)
            if nb > size + 1 and _has_superset(gb, mb, size, mask, g + TOL):
                pruned_extracted += 1
                pruned_superset += 1
                continue
            if nb <= size:
                gb.extend([None] * (size + 1 - nb))
                mb.extend([None] * (size + 1 - nb))
            fg = gb[size]
            if fg is None:
                gb[size] = [g]
                mb[size] = [mask]
            else:
                pos = bisect_right(fg, g)
                fg.insert(pos, g)
                mb[size].insert(pos, mask)

        expansions += 1

        if on_expand:
            on_expand(SearchState(v, g, q, mask, size, f - g))

        if mask == full:
            status, path, best = "ok", _path_to(keys, parents, n, sid), g
            break

        # children: f2 = g + q * (c + h) and g2 = g + q * c, the same IEEE
        # operations in the same order as whole-row numpy arithmetic
        size2 = size + 1
        krem = n - size2
        crow = cost[v]
        hrow = hrows[krem]
        generations += n - size
        rem = full & ~mask
        tree = use_tree and krem > 0
        if tree:
            tails = tails_of.get(rem)
            if tails is None:
                tails = _tree_tails(rem, pairs, by_omp, omp_list)
                tails_of[rem] = tails
        while rem:
            lsb = rem & -rem
            rem ^= lsb
            u = lsb.bit_length() - 1
            c = crow[u]
            f2 = g + q * (c + hrow[u])
            if f2 > cut:
                pruned_bound += 1
                continue
            g2 = g + q * c
            q2 = q * omp_list[u]
            if tree:
                # the tree key is cut as the gamma key is, and the larger
                # of the two is the key
                ft = g2 + q2 * tails[u]
                if ft > cut:
                    pruned_bound += 1
                    continue
                if ft > f2:
                    f2 = ft
            m2 = mask | lsb
            key = m2 * n + u
            hit = bestg.get(key)
            if hit is not None and g2 >= gs[hit] - TOL:
                pruned_generated += 1
                continue
            sid2 = len(keys)
            bestg[key] = sid2
            keys.append(key)
            gs.append(g2)
            qs.append(q2)
            parents.append(sid)
            # pathmax: never below the parent's f
            if use_tree and f2 < f:
                f2 = f
            if on_generate:
                on_generate(SearchState(u, g2, q2, m2, size2, f2 - g2))
            live_open += 1
            if not use_focal:
                heappush(open_heap, (f2, krem, g2, sid2))
            elif f2 <= bound:
                heappush(open_heap, f2)
                heappush(focal_heap, (krem, f2, g2, sid2))
            else:
                heappush(pending, (f2, sid2))
        if live_open > peak_open:
            peak_open = live_open
        if first_move:
            # children join their parent's branch; the root's each open one
            if sid:
                br = branch[sid]
                new = len(keys) - len(branch)
                live[br] += new
                branch.extend([br] * new)
            else:
                branch.extend(key % n for key in keys[1:])
                for u in branch[1:]:
                    live[u] = 1
            if live.count(0) == n - 1:
                # every later extraction descends from the one live branch
                status, path = "ok", (start, live.index(max(live)))
                break

    if first_move and status == "ok":
        path, best = path[:2], None
    stats = SearchStats(expansions, generations, pruned_extracted,
                        pruned_generated, peak_open,
                        time.perf_counter() - t0, f0, pruned_bound, upper,
                        1 + len(tails_of) if use_tree else 0,
                        pruned_superset)
    return SolveResult(status, path, best, stats)
