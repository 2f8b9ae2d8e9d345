"""Complete-graph instances with per-vertex termination probabilities.

An instance couples a dense positive cost matrix with a probability vector:
prob[v] is the chance that visiting v ends the walk. The expected cost of a
visiting order weights each traversed edge by the probability that the walk
is still alive when the edge is taken.
"""

import numbers

import numpy as np

METRIC_REL_TOL = 1e-9
# the largest probability a planner hands to Instance, which rejects 1
PROB_CLAMP = 1.0 - 1e-9


class InvalidInstanceError(ValueError):
    pass


class InvalidPathError(ValueError):
    pass


class MetricViolationError(ValueError):
    pass


def _integral(value) -> bool:
    """A Python or numpy integer; a float such as 2.5, or even 2.0, is not,
    and neither is a bool, though bool subclasses int."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class Instance:
    """Immutable problem instance over a complete directed graph.

    cost: (n, n) float64 matrix, zero diagonal, positive off-diagonal.
    prob: length-n vector of termination probabilities in [0, 1).
    start: index of the fixed first vertex.
    coords: optional (n, 2) finite planar coordinates (metadata, kept when
        the cost matrix was derived from them).
    seed: optional generator seed recorded for provenance.
    """

    __slots__ = ("cost", "prob", "start", "name", "coords", "seed", "_metric")

    def __init__(self, cost, prob, start=0, name="", coords=None, seed=None):
        cost = np.array(cost, dtype=np.float64)
        prob = np.array(prob, dtype=np.float64)
        if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
            raise InvalidInstanceError("cost must be a square matrix")
        n = cost.shape[0]
        if n < 1:
            raise InvalidInstanceError("need at least one vertex")
        if prob.shape != (n,):
            raise InvalidInstanceError(
                f"prob length {prob.shape} does not match {n} vertices")
        if not np.isfinite(cost).all():
            raise InvalidInstanceError("cost entries must be finite")
        if np.diagonal(cost).any():
            raise InvalidInstanceError("cost diagonal must be zero")
        # the n zeros of the diagonal are the only entries allowed <= 0
        if np.count_nonzero(cost <= 0.0) != n:
            raise InvalidInstanceError("off-diagonal costs must be positive")
        # strict: probability 1 would make later vertices unreachable in
        # expectation and divides by zero in the heuristic; written so that
        # NaN fails
        if not ((prob >= 0.0).all() and (prob < 1.0).all()):
            raise InvalidInstanceError("probabilities must lie in [0, 1)")
        if not _integral(start):
            raise InvalidInstanceError(
                f"start must be an integer, got {start!r}")
        if not (0 <= start < n):
            raise InvalidInstanceError(f"start {start} out of range")
        if not (seed is None or _integral(seed)):
            raise InvalidInstanceError(
                f"seed must be an integer or None, got {seed!r}")
        if coords is not None:
            coords = np.array(coords, dtype=np.float64)
            if coords.shape != (n, 2):
                raise InvalidInstanceError("coords must be (n, 2)")
            if not np.isfinite(coords).all():
                raise InvalidInstanceError("coords must be finite")
            coords.setflags(write=False)
        cost.setflags(write=False)
        prob.setflags(write=False)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "prob", prob)
        object.__setattr__(self, "start", int(start))
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "seed", None if seed is None else int(seed))
        object.__setattr__(self, "_metric", None)

    def __setattr__(self, key, value):
        raise AttributeError("Instance is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: a copy is validated and
        # its metric verdict computed again, and its arrays are read-only
        return (Instance, (self.cost, self.prob, self.start, self.name,
                           self.coords, self.seed))

    def restrict(self, verts, prob, name="") -> "Instance":
        """Principal sub-instance on the distinct vertices verts, with
        verts[0] as its start 0 and prob as its probabilities.

        A principal submatrix of a validated cost matrix is finite, has a
        zero diagonal and a positive off-diagonal, so only verts and prob
        are checked. The result carries no coords and no seed. It takes
        this instance's metric verdict: a principal submatrix violates the
        triangle inequality by no more than its parent, and a False verdict
        only switches superset dominance off, which is always sound."""
        idx = np.asarray(verts)
        if idx.ndim != 1 or idx.size == 0:
            raise InvalidInstanceError("verts must be a non-empty sequence")
        if idx.dtype.kind not in "iu":
            raise InvalidInstanceError(
                f"verts must be vertex indices, got dtype {idx.dtype}")
        vl = idx.tolist()
        m = len(vl)
        if len(set(vl)) != m:
            raise InvalidInstanceError("repeated vertex in verts")
        if min(vl) < 0 or max(vl) >= self.n:
            raise InvalidInstanceError(
                f"verts out of range for {self.n} vertices")
        prob = np.array(prob, dtype=np.float64)
        if prob.shape != (m,):
            raise InvalidInstanceError(
                f"prob length {prob.shape} does not match {m} vertices")
        # written so that NaN fails, as in __init__
        if not all(0.0 <= p < 1.0 for p in prob.tolist()):
            raise InvalidInstanceError("probabilities must lie in [0, 1)")
        # two takes copy the rows, then the columns: the same bits as one
        # cost[idx[:, None], idx] at half its time on replan-sized graphs
        cost = self.cost.take(idx, 0).take(idx, 1)
        cost.setflags(write=False)
        prob.setflags(write=False)
        sub = object.__new__(Instance)
        object.__setattr__(sub, "cost", cost)
        object.__setattr__(sub, "prob", prob)
        object.__setattr__(sub, "start", 0)
        object.__setattr__(sub, "name", str(name))
        object.__setattr__(sub, "coords", None)
        object.__setattr__(sub, "seed", None)
        object.__setattr__(sub, "_metric", is_metric(self))
        return sub

    @property
    def n(self) -> int:
        return self.cost.shape[0]

    def __repr__(self):
        return f"Instance(n={self.n}, start={self.start}, name={self.name!r})"


def check_path(inst: Instance, order, full: bool) -> tuple:
    """Validate a visiting order; returns it as a tuple of ints.

    full=True requires a solution path (every vertex exactly once).
    Partial paths may be empty; nonempty ones must begin at inst.start.
    """
    order = tuple(int(v) for v in order)
    n = inst.n
    for v in order:
        if not (0 <= v < n):
            raise InvalidPathError(f"vertex {v} out of range")
    if len(set(order)) != len(order):
        raise InvalidPathError("repeated vertex in path")
    if order and order[0] != inst.start:
        raise InvalidPathError(
            f"path starts at {order[0]}, instance start is {inst.start}")
    if full and len(order) != n:
        raise InvalidPathError(
            f"solution path must visit all {n} vertices, got {len(order)}")
    return order


def expected_cost_q(inst: Instance, order) -> float:
    """Expected cost via survival weights: sum over edges of q_i * c_i.

    q_i is the running product of (1 - prob) over the vertices visited
    before the edge is taken. Accepts partial paths (prefixes); empty and
    singleton paths cost zero.
    """
    order = check_path(inst, order, full=False)
    cost = inst.cost
    prob = inst.prob
    g = 0.0
    q = 1.0
    for i in range(len(order) - 1):
        q *= 1.0 - prob[order[i]]
        g += q * cost[order[i], order[i + 1]]
    return float(g)


def euclidean_costs(coords) -> np.ndarray:
    """Pairwise Euclidean distances between (n, 2) planar coordinates.

    One axis at a time, in place, with no (n, n, 2) temporaries: the same
    bytes as np.sqrt(((coords[:, None] - coords) ** 2).sum(axis=2)), since
    a square is one multiplication and a two-term sum one addition either
    way."""
    coords = np.asarray(coords, dtype=np.float64)
    x = coords[:, 0]
    y = coords[:, 1]
    dx = x[:, None] - x
    dx *= dx
    dy = y[:, None] - y
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def has_euclidean_costs(inst: Instance) -> bool:
    """Whether inst's costs are bit for bit euclidean_costs(inst.coords)."""
    return inst.coords is not None and np.array_equal(
        euclidean_costs(inst.coords), inst.cost)


def _relay_costs(cost) -> np.ndarray:
    """Cheapest relay-path cost between every pair (Floyd-Warshall)."""
    d = np.array(cost)
    for k in range(len(d)):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def metric_closure(inst: Instance) -> Instance:
    """Replace each cost with the cheapest relay path (Floyd-Warshall).

    Idempotent; the result always satisfies the triangle inequality.
    Coordinates are dropped when the closure changed any entry, since they
    would no longer describe the costs. The result carries the verdict
    is_metric True without a second Floyd-Warshall: relaying again lowers
    no entry of a closure by more than the rounding of one more sum, about
    2 * n * 2**-53 times the largest cost, far below METRIC_REL_TOL.
    """
    d = _relay_costs(inst.cost)
    coords = inst.coords if np.array_equal(d, inst.cost) else None
    closed = Instance(d, inst.prob, inst.start, inst.name, coords, inst.seed)
    object.__setattr__(closed, "_metric", True)
    return closed


def max_metric_violation(inst: Instance) -> float:
    """Largest amount by which any cost exceeds its relay shortcut."""
    return float(np.max(inst.cost - _relay_costs(inst.cost)))


def _judge_metric(inst: Instance) -> float:
    """Compute and keep inst's metric verdict; return the violation it
    rests on, 0.0 when the costs are exactly Euclidean."""
    gap = 0.0 if has_euclidean_costs(inst) else max_metric_violation(inst)
    scale = max(1.0, float(np.max(inst.cost)))
    object.__setattr__(inst, "_metric", gap <= METRIC_REL_TOL * scale)
    return gap


def is_metric(inst: Instance) -> bool:
    """Whether no cost exceeds its relay shortcut by more than
    METRIC_REL_TOL times the largest cost (at least 1). Computed at most
    once per instance and kept on it.

    Costs that are bit for bit euclidean_costs(inst.coords) get True with
    no Floyd-Warshall, and the shortcut always agrees with one. With
    u = 2**-53, each computed distance is the true distance times
    (1 + theta), |theta| <= 3u: one rounding for each difference, square,
    the sum and the square root. Every relay that Floyd-Warshall forms is
    a float sum of at most n such costs, so by the plane's triangle
    inequality it is at least (1 - (n + 2)u) times the true distance
    between its ends. So cost - relay <= (n + 6)u * max cost, far below
    METRIC_REL_TOL * max(1, max cost) for any n below 10**6. Overflow
    gives inf costs, which Instance rejects, and underflow adds only
    absolute errors far below the floor of 1e-9. Every other instance
    (matrices, rounded TSPLIB distances, grid path lengths, coords whose
    costs differ) pays one Floyd-Warshall."""
    if inst._metric is None:
        _judge_metric(inst)
    return inst._metric


def require_metric(inst: Instance) -> None:
    """Raise MetricViolationError unless is_metric(inst). A fresh instance
    pays one Floyd-Warshall for both the verdict and the message."""
    gap = _judge_metric(inst) if inst._metric is None else None
    if inst._metric:
        return
    if gap is None:
        gap = max_metric_violation(inst)
    raise MetricViolationError(
        f"triangle inequality violated by up to {gap:.6g}; "
        "apply metric_closure to repair")
