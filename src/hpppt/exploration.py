"""Frontier-based exploration with probability-weighted goal selection.

Each frontier cell gets a probability from three factors: local unknown
density (phi_u), ray-cast visible-unknown angle (phi_g), and a Gaussian
object prior (phi_o). Frontiers are condensed into cluster goals by
weighted mean shift; the goals plus the robot become a small complete
graph (grid shortest-path costs) handed to a visiting-order planner.
The robot walks one cell at a time toward the first planned goal,
revealing the map as it goes, and replans when the goal is reached or
disappears or the frontier set shifts substantially.
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import blind_hpp_solve, greedy_solve
from .grid import (FREE, OCCUPIED, UNKNOWN, OccupancyGrid, WorldModel,
                   extract_frontiers, grid_distances, reveal,
                   shortest_path_cells, tree_path)
from .instance import Instance
from .lifelong import PLANNERS
from .solver import DEFAULT_TIME_LIMIT, SolverConfig, solve

PROB_CLAMP = 1.0 - 1e-9
# a phi_g array pass holds at most the samples of RAY_CHUNK cells' rays
# marched over the whole range, whatever the block its live rays are in
RAY_CHUNK = 8


@dataclass(frozen=True)
class PriorField:
    """Gaussian mixture prior over metric (x, y) positions, plus the factor
    weights (w_u, w_g, w_o). Each Gaussian is (mean (2,), cov (2, 2));
    densities are peak-normalized, so phi_o is 1 at a mean. Weights must
    not sum above 1 so the combined score stays a probability."""
    gaussians: tuple = ()
    weights: tuple = (0.3, 0.2, 0.5)

    def __post_init__(self):
        gs = []
        for mean, cov in self.gaussians:
            mean = np.asarray(mean, dtype=np.float64).reshape(2)
            cov = np.asarray(cov, dtype=np.float64).reshape(2, 2)
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError(
                    f"covariance {cov.tolist()} is not positive definite"
                ) from None
            mean.setflags(write=False)
            cov.setflags(write=False)
            gs.append((mean, cov))
        object.__setattr__(self, "gaussians", tuple(gs))
        w = tuple(float(x) for x in self.weights)
        if len(w) != 3 or any(x < 0 for x in w):
            raise ValueError("weights must be three nonnegative numbers")
        if sum(w) > 1.0 + 1e-12:
            raise ValueError(f"factor weights sum to {sum(w)}, above 1")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_config(cls, cfg: dict) -> "PriorField":
        gs = tuple((g["mean"], g["cov"]) for g in cfg.get("gaussians", []))
        return cls(gs, tuple(cfg.get("weights", (0.3, 0.2, 0.5))))


@dataclass(frozen=True)
class ClusterConfig:
    """Mean-shift settings, distances in grid cells."""
    bandwidth: float = 8.0
    converge_tol: float = 0.1
    merge_dist: float = 4.0
    max_iter: int = 50

    def __post_init__(self):
        _require(self, "bandwidth", self.bandwidth > 0, "must be positive")
        _require(self, "converge_tol", self.converge_tol > 0,
                 "must be positive")
        _require(self, "merge_dist", self.merge_dist >= 0,
                 "must be nonnegative")
        _require(self, "max_iter", self.max_iter >= 1, "must be at least 1")


@dataclass(frozen=True)
class ExploreConfig:
    window: int = 5            # phi_u half-width, cells
    phi_g_fov: float = math.pi / 2
    rays: int = 180
    ray_step: float = 0.5      # cells
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    success_dist: float = 5.0  # meters
    vertex_cap: int = 40       # above this, plan with the focal variant
    focal_eps: float = 0.01
    max_steps: int = 20_000
    replan_delta: float = 0.2
    plan_time_limit: float | None = DEFAULT_TIME_LIMIT

    def __post_init__(self):
        _require(self, "window", self.window >= 0, "must be nonnegative")
        _require(self, "phi_g_fov", 0 < self.phi_g_fov <= 2.0 * math.pi,
                 "must lie in (0, 2*pi]")
        _require(self, "rays", self.rays >= 1, "must be at least 1")
        _require(self, "ray_step", self.ray_step > 0, "must be positive")
        _require(self, "success_dist", self.success_dist > 0,
                 "must be positive")
        _require(self, "vertex_cap", self.vertex_cap >= 1,
                 "must be at least 1")
        _require(self, "focal_eps", self.focal_eps >= 0,
                 "must be nonnegative")
        _require(self, "max_steps", self.max_steps >= 0, "must be nonnegative")
        _require(self, "replan_delta", self.replan_delta >= 0,
                 "must be nonnegative")
        _require(self, "plan_time_limit",
                 self.plan_time_limit is None or self.plan_time_limit > 0,
                 "must be positive or None")


def _require(cfg, name: str, ok: bool, rule: str) -> None:
    """Reject a config field; written so that NaN fails every rule."""
    if not ok:
        raise ValueError(f"{type(cfg).__name__}.{name} {rule}, "
                         f"got {getattr(cfg, name)!r}")


def _cell_array(cells) -> np.ndarray:
    return np.asarray(cells, dtype=np.intp).reshape(-1, 2)


def _phi_unknown_cells(labels: np.ndarray, cells: np.ndarray,
                       window: int) -> np.ndarray:
    """phi_u of each (row, col) in cells, from one prefix-sum table of the
    Unknown cells."""
    h, w = labels.shape
    table = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(labels == UNKNOWN, axis=0), axis=1,
              out=table[1:, 1:])
    r, c = cells[:, 0], cells[:, 1]
    r0, r1 = np.maximum(r - window, 0), np.minimum(r + window + 1, h)
    c0, c1 = np.maximum(c - window, 0), np.minimum(c + window + 1, w)
    count = table[r1, c1] - table[r0, c1] - table[r1, c0] + table[r0, c0]
    return count / ((r1 - r0) * (c1 - c0))


def phi_unknown(grid: OccupancyGrid, cell, window: int = 5) -> float:
    """Unknown fraction of the (2w+1)^2 square around cell, clipped at the
    borders; the denominator counts only in-bounds cells."""
    return float(_phi_unknown_cells(grid.labels, _cell_array(cell),
                                    window)[0])


def _phi_geometric_cells(labels: np.ndarray, cells: np.ndarray,
                         bearings: np.ndarray, fov: float, rays: int,
                         ray_step: float,
                         max_range_cells: float) -> np.ndarray:
    """phi_g of each cell with its own bearing.

    The rays of all cells are marched together, in blocks of samples that
    double in length (2, 4, 8, ...). After each block, a ray with a
    stopping sample (Unknown or Occupied) in it is settled by the first
    one and dropped; the others go on to the next block. A pass marches
    as many live rays as fit RAY_CHUNK * rays * nsteps samples, the size
    of a march of RAY_CHUNK cells' rays over the whole range."""
    if not len(cells):
        return np.empty(0)
    h, w = labels.shape
    nsteps = max(1, int(math.ceil(max_range_cells / ray_step)))
    dist = (np.arange(1, nsteps + 1) * ray_step).clip(max=max_range_cells)
    if rays == 1:
        fan = np.zeros(1)
    else:
        fan = np.linspace(-fov / 2.0, fov / 2.0, rays)
    # an Unknown border wide enough for every sample: a sample off the
    # grid then reads as Unknown, and nothing needs an in-bounds test
    off_grid = max(0, -int(cells.min()), int(cells[:, 0].max()) - h + 1,
                   int(cells[:, 1].max()) - w + 1)
    pad = int(math.ceil(max_range_cells)) + 2 + off_grid
    padded = np.pad(labels, pad, constant_values=UNKNOWN).ravel()
    unknown = padded == UNKNOWN
    stops = unknown | (padded == OCCUPIED)
    stride = w + 2 * pad
    origin = cells + 0.5
    # the live rays: ray k leaves cells[ray_cell[k]] along (sin[k], cos[k])
    ray_cell = np.repeat(np.arange(len(cells)), len(fan))
    ang = (bearings[:, None] + fan).ravel()
    sin = np.sin(ang)
    cos = np.cos(ang, out=ang)
    hits = np.zeros(len(cells), dtype=np.intp)
    budget = RAY_CHUNK * len(fan) * nsteps
    start, size = 0, 2
    while len(ray_cell) and start < nsteps:
        d = dist[start:start + size, None]
        per_pass = budget // len(d)
        going = np.empty(len(ray_cell), dtype=bool)
        for lo in range(0, len(ray_cell), per_pass):
            part = slice(lo, lo + per_pass)
            c = ray_cell[part]
            # (samples, rays) arrays, so that each operation runs along
            # the long ray axis even for a block of two samples; built in
            # place as floor(origin + sin * dist), then the flat index of
            # (row + pad, col + pad), which is exact in float64
            rr = sin[part] * d
            rr += origin[c, 0]
            cc = cos[part] * d
            cc += origin[c, 1]
            np.floor(rr, out=rr)
            np.floor(cc, out=cc)
            rr *= stride
            rr += cc
            rr += pad * stride + pad
            at = rr.astype(np.intp)
            # each ray's first stopping sample; a ray with none gets its
            # first sample, which neither stops it nor is Unknown
            end = at[stops.take(at).argmax(axis=0), np.arange(len(c))]
            hits += np.bincount(c[unknown[end]], minlength=len(cells))
            going[part] = ~stops[end]
        ray_cell, sin, cos = ray_cell[going], sin[going], cos[going]
        start += size
        size *= 2
    return hits / len(fan)


def phi_geometric(grid: OccupancyGrid, cell, bearing: float,
                  fov: float = math.pi / 2, rays: int = 180,
                  ray_step: float = 0.5, max_range_cells: float = 20.0) -> float:
    """Fraction of rays from the cell, fanned over fov about bearing, that
    reach an Unknown cell before an Occupied one. Leaving the grid counts
    as reaching Unknown; running out of range counts as neither."""
    return float(_phi_geometric_cells(
        grid.labels, _cell_array(cell), np.array([bearing], dtype=np.float64),
        fov, rays, ray_step, max_range_cells)[0])


def _phi_object_cells(prior: PriorField, grid: OccupancyGrid,
                      cells: np.ndarray) -> list:
    """phi_o of each cell: Mahalanobis terms for all cells at once per
    Gaussian, math.exp and the running max per cell."""
    best = [0.0] * len(cells)
    if not prior.gaussians or not len(cells):
        return best
    res = grid.resolution
    xy = np.column_stack(((cells[:, 1] + 0.5) * res,
                          (cells[:, 0] + 0.5) * res))
    for mean, cov in prior.gaussians:
        d = xy - mean
        s = np.linalg.solve(np.broadcast_to(cov, (len(d), 2, 2)),
                            d[:, :, None])[:, :, 0]
        m = (d[:, None, :] @ s[:, :, None])[:, 0, 0]
        for i, e in enumerate((-0.5 * m).tolist()):
            best[i] = max(best[i], math.exp(e))
    return best


def phi_object(prior: PriorField, grid: OccupancyGrid, cell) -> float:
    """Max over the prior's Gaussians of the peak-normalized density at the
    cell center. Empty mixture scores 0."""
    return _phi_object_cells(prior, grid, _cell_array(cell))[0]


def assign_probability(grid: OccupancyGrid, frontiers, prior: PriorField,
                       robot, cfg: ExploreConfig,
                       sensor_radius_cells: float = 20.0) -> np.ndarray:
    """Probability for each frontier cell: w_u*phi_u + w_g*phi_g + w_o*phi_o,
    clamped to [0, 1 - 1e-9]. phi_g rays leave the frontier cell along the
    robot-to-cell bearing."""
    w_u, w_g, w_o = prior.weights
    cells = _cell_array(frontiers)
    out = np.zeros(len(cells))
    if w_u:
        out += w_u * _phi_unknown_cells(grid.labels, cells, cfg.window)
    if w_g:
        bearings = np.array([math.atan2(r - robot[0], c - robot[1])
                             for r, c in cells.tolist()], dtype=np.float64)
        out += w_g * _phi_geometric_cells(grid.labels, cells, bearings,
                                          cfg.phi_g_fov, cfg.rays,
                                          cfg.ray_step, sensor_radius_cells)
    if w_o:
        out += w_o * np.array(_phi_object_cells(prior, grid, cells))
    return np.clip(out, 0.0, PROB_CLAMP)


@dataclass
class GoalCluster:
    cell: tuple
    prob: float
    members: tuple


def mean_shift(points: np.ndarray, weights: np.ndarray,
               cfg: ClusterConfig) -> np.ndarray:
    """Run the weighted mean-shift update from every point until movement
    drops below converge_tol (or max_iter). All-zero weights fall back to
    uniform so the shift still averages positions."""
    pts = np.asarray(points, dtype=np.float64)
    w_p = np.asarray(weights, dtype=np.float64)
    if not np.any(w_p > 0):
        w_p = np.ones(len(pts))
    centers = pts.copy()
    two_bw2 = 2.0 * cfg.bandwidth * cfg.bandwidth
    px, py = pts[:, 0].copy(), pts[:, 1].copy()
    w = np.empty((len(pts), len(pts)))
    dy = np.empty_like(w)
    for _ in range(cfg.max_iter):
        # w = w_p * exp(-|c - p|^2 / two_bw2), built in place on two (F, F)
        # arrays with the same operations as the broadcast form
        np.subtract(centers[:, 0, None], px, out=w)
        np.subtract(centers[:, 1, None], py, out=dy)
        w *= w
        dy *= dy
        w += dy
        w /= -two_bw2
        np.exp(w, out=w)
        w *= w_p
        newc = (w @ pts) / w.sum(axis=1, keepdims=True)
        move = np.sqrt(((newc - centers) ** 2).sum(axis=1))
        centers = newc
        if np.all(move < cfg.converge_tol):
            break
    return centers


def cluster_goals(grid: OccupancyGrid, frontiers, probs,
                  cfg: ClusterConfig) -> list:
    """Condense frontier cells into goal clusters: converge each point by
    mean shift, merge converged centers within merge_dist, take the max
    member probability, and snap each merged center to the nearest Free
    cell. Deterministic for a fixed input order."""
    if len(frontiers) == 0:
        return []
    pts = np.asarray(frontiers, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    centers = mean_shift(pts, probs, cfg)
    # Each center joins the first earlier anchor within merge_dist, or else
    # becomes an anchor. Taking the anchors in order, an anchor claims every
    # later center that no earlier anchor has claimed.
    groups = []
    claimed = np.zeros(len(centers), dtype=bool)
    for a, (x, y) in enumerate(centers):
        if claimed[a]:
            continue
        near = np.hypot(centers[:, 0] - x, centers[:, 1] - y) <= cfg.merge_dist
        near[a] = True
        near &= ~claimed
        claimed |= near
        groups.append(near.nonzero()[0])
    free = np.argwhere(grid.labels == FREE)
    out: dict[tuple, GoalCluster] = {}
    for members in groups:
        center = centers[members].mean(axis=0)
        prob = float(probs[members].max())
        d2 = ((free - center[None, :]) ** 2).sum(axis=1)
        pick = free[int(np.argmin(d2))]
        snapped = (int(pick[0]), int(pick[1]))
        cells = tuple(tuple(pts[m].astype(int)) for m in members)
        prev = out.get(snapped)
        if prev is None:
            out[snapped] = GoalCluster(snapped, prob, cells)
        else:
            # two centers snapped onto the same cell; keep the best evidence
            out[snapped] = GoalCluster(
                snapped, max(prev.prob, prob), prev.members + cells)
    return [out[k] for k in sorted(out)]


def build_search_graph(grid: OccupancyGrid, goals, robot):
    """Complete graph over the robot and the reachable goal clusters with
    grid shortest-path costs. The robot vertex has probability zero.

    One grid_distances call, from the robot and every goal, gives the
    costs and also the robot's own tree, which a replan reuses for its
    fallback goal and its path. Returns (Instance or None, vertex cells,
    dropped goal cells, tree), where tree is the robot's row of distances
    and of predecessors with the free cells and the cell index."""
    robot = tuple(robot)
    kept = [g for g in goals if g.cell != robot]
    cells = [robot] + [g.cell for g in kept]
    dist, pred, free, idx = grid_distances(grid, cells)
    # copies, so that the full matrices are freed on return
    tree = (dist[0].copy(), pred[0].copy(), free, idx)
    if not kept:
        return None, [robot], [], tree
    node = [idx[c] for c in cells]
    m = len(cells)
    pair = np.empty((m, m))
    for i in range(m):
        pair[i] = dist[i, node]
    reachable = np.isfinite(pair[0])
    reachable[0] = True
    dropped = [cells[i] for i in range(1, m) if not reachable[i]]
    keep_idx = [i for i in range(m) if reachable[i]]
    if len(keep_idx) < 2:
        return None, [robot], dropped, tree
    sub = pair[np.ix_(keep_idx, keep_idx)]
    np.fill_diagonal(sub, 0.0)
    probs = np.zeros(len(keep_idx))
    for j, i in enumerate(keep_idx):
        if i > 0:
            probs[j] = min(kept[i - 1].prob, PROB_CLAMP)
    vertex_cells = [cells[i] for i in keep_idx]
    inst = Instance(sub, probs, 0, "explore")
    return inst, vertex_cells, dropped, tree


def _plan_goal(inst: Instance, vertex_cells, planner: str,
               cfg: ExploreConfig):
    """First goal cell of the planned visiting order."""
    if planner == "greedy":
        res = greedy_solve(inst, score=False)
    elif planner == "blind":
        res = blind_hpp_solve(inst, score=False)
    else:
        eps = cfg.focal_eps if inst.n > cfg.vertex_cap else 0.0
        res = solve(inst, SolverConfig(epsilon=eps,
                                       time_limit=cfg.plan_time_limit))
    if res.status != "ok":
        return None
    return vertex_cells[res.path[1]]


@dataclass
class ExploreStep:
    step: int
    time: float
    cell: tuple
    revealed: int
    frontiers: int
    clusters: int
    replanned: bool


@dataclass
class ExploreLog:
    planner: str
    seed: int
    world: str
    status: str  # "found", "exhausted" or "truncated"
    duration: float
    steps: list

    def to_json_lines(self) -> str:
        out = []
        for s in self.steps:
            out.append(json.dumps({
                "step": s.step, "time": round(s.time, 9),
                "cell": list(s.cell), "revealed": s.revealed,
                "frontiers": s.frontiers, "clusters": s.clusters,
                "replanned": s.replanned,
            }))
        out.append(json.dumps({
            "summary": True, "planner": self.planner, "seed": self.seed,
            "world": self.world, "status": self.status,
            "duration": round(self.duration, 9), "steps": len(self.steps),
        }))
        return "\n".join(out) + "\n"


def _goal_alive(frontiers_set, goal, merge_dist) -> bool:
    gr, gc = goal
    lim = merge_dist * merge_dist
    for (r, c) in frontiers_set:
        if (r - gr) * (r - gr) + (c - gc) * (c - gc) <= lim:
            return True
    return False


def _nearest_frontier(tree, frontiers):
    """The first of the reachable frontier cells nearest the robot along
    its tree, never the robot's own cell; None when there is none."""
    dist, _, _, idx = tree
    best = None
    best_d = np.inf
    for cell in frontiers:
        j = idx[cell]
        if j >= 0 and 0.0 < dist[j] < best_d:
            best_d = float(dist[j])
            best = cell
    return best


def run_exploration(world: WorldModel, prior: PriorField, planner: str,
                    cfg: ExploreConfig | None = None, seed: int = 0,
                    name: str = "") -> ExploreLog:
    """Explore until the robot is within success_dist of the target with
    the target cell revealed, the reachable map is exhausted, or the step
    cap is hit. Deterministic for fixed inputs; seed is recorded in the
    log (trial variation comes from the world, e.g. the start cell).

    A replan builds the free-cell graph and runs Dijkstra once, in
    build_search_graph: the robot's tree from that call gives both the
    nearest-frontier fallback and the path to the goal."""
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner {planner!r}")
    if cfg is None:
        cfg = ExploreConfig()
    grid = OccupancyGrid.all_unknown(world.truth.shape, world.truth.resolution)
    robot = tuple(world.robot)
    res = grid.resolution
    radius_cells = world.sensor_radius / res
    revealed = reveal(grid, world, robot, cfg.rays, cfg.ray_step)
    t = 0.0
    steps: list = []
    status = "truncated"
    path: list = []
    goal = None
    fcount_at_plan = -1
    clusters_n = 0
    target_xy = np.array(grid.center(world.target))

    def success() -> bool:
        if grid.label(world.target) == UNKNOWN:
            return False
        d = np.hypot(*(np.array(grid.center(robot)) - target_xy))
        return d < cfg.success_dist

    # one extraction per step: the frontiers after a step's reveal are
    # logged in its record and drive the next iteration
    frontiers = extract_frontiers(grid)
    while len(steps) < cfg.max_steps:
        if success():
            status = "found"
            break
        if not frontiers:
            status = "exhausted"
            break
        fcount = len(frontiers)
        frontier_set = set(frontiers)
        need_replan = (
            not path
            or goal is None
            or robot == goal
            or not _goal_alive(frontier_set, goal, cfg.cluster.merge_dist)
            or (fcount_at_plan > 0
                and abs(fcount - fcount_at_plan) > cfg.replan_delta * fcount_at_plan)
        )
        replanned = False
        if need_replan:
            replanned = True
            fcount_at_plan = fcount
            probs = assign_probability(grid, frontiers, prior, robot, cfg,
                                       radius_cells)
            goals = cluster_goals(grid, frontiers, probs, cfg.cluster)
            clusters_n = len(goals)
            inst, cells, _dropped, tree = build_search_graph(grid, goals,
                                                             robot)
            goal = None
            if inst is not None:
                goal = _plan_goal(inst, cells, planner, cfg)
            if goal is None:
                # no plannable cluster; head for the nearest reachable
                # frontier (never the robot's own cell)
                goal = _nearest_frontier(tree, frontiers)
            path = None if goal is None else tree_path(tree, robot, goal)
            del tree  # the robot's tree serves this replan only
            if path is None or len(path) < 2:
                # every remaining frontier is unreachable from here
                status = "exhausted"
                break
            path = path[1:]
        robot = path.pop(0)
        t += res
        revealed += reveal(grid, world, robot, cfg.rays, cfg.ray_step)
        frontiers = extract_frontiers(grid)
        steps.append(ExploreStep(len(steps) + 1, t, robot, revealed,
                                 len(frontiers), clusters_n, replanned))
    else:
        status = "truncated"
    if status == "truncated" and success():
        status = "found"
    return ExploreLog(planner, seed, name or "world", status, t, steps)


def forest_world(size: int = 100, n_trees: int = 90, seed: int = 0,
                 resolution: float = 1.0, sensor_radius: float = 10.0,
                 target=None, robot=None) -> WorldModel:
    """Random forest benchmark world: solid border walls, square tree
    blobs, target and robot on free cells with a guaranteed free path
    between them. Deterministic per seed."""
    for attempt in range(64):
        rng = np.random.default_rng((seed, attempt))
        labels = np.full((size, size), FREE, dtype=np.uint8)
        labels[0, :] = labels[-1, :] = OCCUPIED
        labels[:, 0] = labels[:, -1] = OCCUPIED
        for _ in range(n_trees):
            r = int(rng.integers(2, size - 3))
            c = int(rng.integers(2, size - 3))
            s = int(rng.integers(1, 3))
            labels[r:r + s, c:c + s] = OCCUPIED
        tgt = tuple(target) if target else (size - size // 5, size - size // 5)
        rob = tuple(robot) if robot else (size // 5, size // 5)
        labels[tgt] = FREE
        labels[rob] = FREE
        world = WorldModel(OccupancyGrid(labels, resolution), tgt, rob,
                           sensor_radius=sensor_radius)
        if shortest_path_cells(world.truth, rob, tgt):
            return world
    raise RuntimeError("could not generate a connected forest world")


def with_start(world: WorldModel, robot) -> WorldModel:
    """The same world with another start cell, which must be free."""
    return replace(world, robot=tuple(robot))


def sample_start(world: WorldModel, seed: int, radius: float = 8.0) -> tuple:
    """Seeded free cell near the world's nominal start, for trial jitter."""
    rng = np.random.default_rng((seed, 9251))
    free = np.argwhere(world.truth.labels == FREE)
    d = np.sqrt(((free - np.array(world.robot)[None, :]) ** 2).sum(axis=1))
    near = free[d <= radius]
    if len(near) == 0:
        return tuple(world.robot)
    pick = near[int(rng.integers(len(near)))]
    cell = (int(pick[0]), int(pick[1]))
    if shortest_path_cells(world.truth, cell, world.target) is None:
        return tuple(world.robot)
    return cell
