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
state spans the same R, so each remaining set costs one Prim on lists,
a sort of R and two prefix sums, after which each child's bound takes
O(1), u's rank among the factors shifting the later weights to
P_{j+1}(R) / (1 - p(u)) (_tree_tails); states at different vertices with
the same remaining set share the result.

The root rule picks the bounds per solve, from the instance alone. A
solve uses the tree bound iff n >= TREE_FLOOR and the tree's root value
beats gamma's; the root key is then the tree root value, and a child's f
is the larger of its gamma and tree bounds. Otherwise the search is
exactly the gamma-only one. Most solves settle the rule without a Prim.
The incumbent's path (below) is a Hamiltonian path from the start, so a
spanning tree of all vertices: by Gale its sorted hop costs bound the
sorted edges of a minimum spanning tree term by term, and csym <= cost.
So the same weights times the sorted hops (_path_bound) are never below
the tree root value, and where they do not beat gamma's root value,
neither does the tree. Only a solve whose path bound beats gamma's
computes the tree root value, once, and it both decides the rule and
keys the root. The floor is measured. Full solves gain from the tree
from about eight vertices on, but first-move replans, which stop after a
few expansions, do not repay a tree per remaining set; of the floors
tried (8, 10, 12 and 14), 12 made a round of lifelong replans fastest.

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
optimal. A state generated within the bound joins the focal heap at once;
one above it waits in a pending heap ordered by f. Whenever the best f
strictly increases, the bound rises and the pending states now within it
move to the focal heap. With gamma alone, which is consistent, or with
pathmax, that floor never decreases, so focal membership is never
invalidated. Focal never runs dry while the open heap holds a live state:
every pending state lies above the bound, every other open state within
the bound sits in the focal heap, and the open-heap top, at f = fmin, is
within the bound.

The incumbent cut. Before the search, _dive walks from the start, always
to the unvisited vertex u with the least c(v, u) + gamma[u, krem], ties to
the smaller index, and returns that path and its expected cost U, an upper
bound on the optimum C*. With pruning on, a child whose gamma key
g + q * (c + gamma[u, krem]) exceeds

    cut = (1 + epsilon) * (U + 2 n * slack) * (1 + 1e-9)

(slack the 1e-9 of dominance) is dropped before any other work on it and
counted in pruned_bound. The search then extracts the same states in the
same order, so the path, the cost bits, expansions, generations and
pruned_extracted stay the same; only pruned_generated and peak_open fall.
The argument, in exact arithmetic:
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
- A child's key is at least its gamma key, as the tree term and pathmax
  only raise it. So a cut child is never extracted, and it never
  joins a frontier. Its one other effect would be its duplicate-table
  entry: the states at its (vertex, visited-set) pair that it would
  displace or reject. At one pair q, gamma and the tree tail are fixed,
  so each key there is g plus the same constant, and every such state has
  g at least the cut child's less a slack: its key lies above the cut less
  a slack, above every extracted f. A state that the two searches queue
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
open heap in exact mode or closed in focal mode, also when it is then
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

Children are scored on Python floats read from lists made once per solve:
f2 = g + q * (c(v, u) + gamma[u, krem]) first, for the cut, then
g2 = g + q * c(v, u) for children within it, with f2 raised to the
tree bound and by pathmax where the root rule applies to children that
survive the duplicate check. These are the same IEEE double
operations in the same order as whole-row numpy arithmetic, and Python
fuses no multiply-add, so every bit, and hence every search, is the same
as with numpy rows.
"""

import heapq
import time
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, is_metric

DOMINANCE_TOL = 1e-9
DEFAULT_TIME_LIMIT = 60.0
# the fewest vertices on which the root rule may pick the tree bound, set by
# measurement (module docstring)
TREE_FLOOR = 12


class InvalidConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 0.0
    use_heuristic: bool = True
    use_pruning: bool = True
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


def _tree_tails(rem, csym, omp):
    """Map every u in the bit set rem (at least two vertices) to the tree
    bound on the cost of visiting rem - {u} from u at unit survival weight
    (module docstring). csym[x][w] is min(cost(x, w), cost(w, x))."""
    members = []
    r = rem
    while r:
        lsb = r & -r
        r ^= lsb
        members.append(lsb.bit_length() - 1)
    # Prim on lists: dist[i] is the cheapest edge from the tree to left[i]
    row = csym[members[0]]
    left = members[1:]
    dist = [row[w] for w in left]
    edges = []
    while left:
        d = min(dist)
        i = dist.index(d)
        edges.append(d)
        row = csym[left.pop(i)]
        del dist[i]
        ends = map(row.__getitem__, left)
        dist = [x if x <= y else y for x, y in zip(dist, ends)]
    edges.sort()
    # k the r - 1 tree edges ascending, o the factors 1 - p of rem
    # ascending, p[j] the product of the j smallest o; a[m] is the sum of
    # k[j] p[j] over j < m, and b[m] that of k[j] p[j + 1] over j >= m
    by_o = sorted(members, key=omp.__getitem__)
    a = [0.0]
    prods = []
    acc = 0.0
    p = 1.0
    for k, u in zip(edges, by_o):
        acc += k * p
        a.append(acc)
        p *= omp[u]
        prods.append(p)
    b = [0.0] * len(members)
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


def _dive(cost, hrows, omp, start):
    """The incumbent: from start, always move to the unvisited vertex u
    with the least cost(v, u) + gamma[u, krem], ties to the smaller index.
    Returns the path and its expected cost, summed as the search sums g."""
    left = [u for u in range(len(cost)) if u != start]
    path = [start]
    v = start
    g = 0.0
    q = omp[start]
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
        g += q * crow[v]
        q *= omp[v]
    return tuple(path), g


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


def _path_to(states, sid):
    """Vertices from the start to state sid, following parent ids."""
    order = []
    while sid >= 0:
        order.append(states[sid][0])
        sid = states[sid][4]
    return tuple(reversed(order))


def solve(inst: Instance, cfg: SolverConfig | None = None, *,
          on_generate=None, on_expand=None,
          first_move: bool = False) -> SolveResult:
    """Search for the minimum expected-cost solution path from inst.start.

    epsilon = 0 returns an optimal path; epsilon > 0 returns one within
    (1 + epsilon) of optimal, usually much faster on large instances.
    on_generate/on_expand, when given, receive a SearchState for every
    generated/expanded state, with the h of the key it was queued with
    (instrumentation hooks, they slow the search).

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
    use_pruning = cfg.use_pruning
    use_superset = use_pruning and is_metric(inst)
    eps = cfg.epsilon
    use_focal = eps > 0.0
    f0 = 0.0
    if cfg.use_heuristic:
        # hrows[k][v] = gamma[v, k]
        hrows = build_heuristic_table(inst).gamma.T.tolist()
        f0 = hrows[n - 1][start]
    else:
        # c + 0.0 == c, so f = g + q * (c + 0.0) is g to the bit
        hrows = [[0.0] * n] * n
    full = (1 << n) - 1
    dive, upper = _dive(cost, hrows, omp_list, start)
    # the root rule (module docstring): the path bound screens the Prim
    use_tree = False
    if (cfg.use_heuristic and n >= TREE_FLOOR
            and _path_bound(dive, cost, omp_list) > f0):
        csym = np.minimum(inst.cost, inst.cost.T).tolist()
        tree_root = omp_list[start] * _tree_tails(full, csym,
                                                  omp_list)[start]
        if tree_root > f0:
            use_tree = True
            f0 = tree_root
            # the bounds depend on the remaining set only, which states at
            # different vertices share
            tails_of = {}
    # no child above the cut can change the search (module docstring)
    cut = ((1.0 + eps) * (upper + 2 * n * DOMINANCE_TOL) * (1.0 + 1e-9)
           if use_pruning else float("inf"))

    expansions = 0
    generations = 1
    pruned_extracted = 0
    pruned_generated = 0
    pruned_bound = 0

    # state store, indexed by state id: (v, q, mask, size, parent id); g
    # travels in the heap entries
    states = [(start, omp_list[start], 1 << start, 1, -1)]
    # focal mode only: states already extracted, whose open-heap entries are
    # stale; in exact mode every state enters the open heap once
    closed = set()

    if on_generate:
        on_generate(SearchState(start, 0.0, states[0][1], 1 << start, 1, f0))

    # open entries are (f, krem, g, sid): ties go to the deeper state
    open_heap = [(f0, n - 1, 0.0, 0)]
    # focal holds (krem, f, g, sid) for states within the bound; pending
    # holds (f, sid, g) for the states generated above it
    focal_heap = [(n - 1, f0, 0.0, 0)] if use_focal else []
    pending = []
    # best g seen per (vertex, visited-set), with the owning state id
    bestg = {(start, 1 << start): (0.0, 0)}
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
        if (iters & 255) == 0 and time.perf_counter() - t0 > limit:
            status, path = "timeout", None
            break

        if use_focal:
            while open_heap[0][3] in closed:
                heappop(open_heap)
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
            # in focal (see the module docstring); a state enters focal once
            # and is closed only when popped from it, so no entry is stale
            _, f, g, sid = heappop(focal_heap)
            closed.add(sid)
        else:
            f, _, g, sid = heappop(open_heap)

        live_open -= 1
        if first_move:
            live[branch[sid]] -= 1
        v, q, mask, size, _ = states[sid]

        if use_pruning:
            bg = bestg.get((v, mask))
            if bg is not None and bg[1] != sid:
                pruned_extracted += 1
                continue
        if use_superset:
            gb = bucket_g[v]
            mb = bucket_m[v]
            nb = len(gb)
            if nb > size + 1 and _has_superset(gb, mb, size, mask, g + TOL):
                pruned_extracted += 1
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
            status, path, best = "ok", _path_to(states, sid), g
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
                tails = _tree_tails(rem, csym, omp_list)
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
            m2 = mask | lsb
            if use_pruning:
                key = (u, m2)
                hit = bestg.get(key)
                if hit is not None and g2 >= hit[0] - TOL:
                    pruned_generated += 1
                    continue
                sid2 = len(states)
                bestg[key] = (g2, sid2)
            else:
                sid2 = len(states)
            q2 = q * omp_list[u]
            states.append((u, q2, m2, size2, sid))
            if use_tree:
                # the larger bound, and pathmax: never below the parent's f
                if tree:
                    ft = g2 + q2 * tails[u]
                    if ft > f2:
                        f2 = ft
                if f2 < f:
                    f2 = f
            if on_generate:
                on_generate(SearchState(u, g2, q2, m2, size2, f2 - g2))
            heappush(open_heap, (f2, krem, g2, sid2))
            live_open += 1
            if use_focal:
                if f2 <= bound:
                    heappush(focal_heap, (krem, f2, g2, sid2))
                else:
                    heappush(pending, (f2, sid2, g2))
        if live_open > peak_open:
            peak_open = live_open
        if first_move:
            # children join their parent's branch; the root's each open one
            if sid:
                br = branch[sid]
                new = len(states) - len(branch)
                live[br] += new
                branch.extend([br] * new)
            else:
                branch.extend(st[0] for st in states[1:])
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
                        1 + len(tails_of) if use_tree else 0)
    return SolveResult(status, path, best, stats)
