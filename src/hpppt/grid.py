"""Occupancy grids, ray-cast reveal, frontiers, and grid shortest paths.

Cells are (row, col) pairs; metric positions put x along columns and y
along rows, each cell addressed by its center. Labels transition only
from Unknown to Free or Occupied (monotone reveal). Reads outside the
grid return Unknown.
"""

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

UNKNOWN, FREE, OCCUPIED = 0, 1, 2
_CHARS = {".": FREE, "#": OCCUPIED, "T": FREE, "R": FREE}
SENSOR_RADIUS = 10.0  # meters, unless a world sets its own
# rays fanned from a cell, and the spacing of the samples along each, in
# cells: for the sensor's reveal and for exploration's phi_g score
RAYS = 180
RAY_STEP = 0.5


class WorldFormatError(ValueError):
    pass


class OccupancyGrid:
    def __init__(self, labels, resolution: float = 1.0):
        labels = np.asarray(labels, dtype=np.uint8)
        if labels.ndim != 2:
            raise ValueError("labels must be a 2d array")
        # written so that NaN fails it
        if not 0.0 < resolution < math.inf:
            raise ValueError(
                f"resolution must be positive and finite, got {resolution}")
        self.labels = labels
        self.resolution = float(resolution)

    @classmethod
    def all_unknown(cls, shape, resolution: float = 1.0) -> "OccupancyGrid":
        return cls(np.full(shape, UNKNOWN, dtype=np.uint8), resolution)

    @property
    def shape(self):
        return self.labels.shape

    def label(self, cell) -> int:
        r, c = cell
        h, w = self.labels.shape
        if 0 <= r < h and 0 <= c < w:
            return int(self.labels[r, c])
        return UNKNOWN

    def center(self, cell) -> tuple:
        """Metric (x, y) of a cell center."""
        r, c = cell
        return ((c + 0.5) * self.resolution, (r + 0.5) * self.resolution)


@dataclass
class WorldModel:
    """Ground truth for simulation: a fully labeled grid (Free/Occupied
    only), the hidden target cell, and the robot start pose."""
    truth: OccupancyGrid
    target: tuple
    robot: tuple
    sensor_radius: float = SENSOR_RADIUS  # meters

    def __post_init__(self):
        labels = self.truth.labels
        if np.any(labels == UNKNOWN):
            raise WorldFormatError("ground truth must be fully labeled")
        for name, cell in (("target", self.target), ("robot", self.robot)):
            if self.truth.label(cell) != FREE:
                raise WorldFormatError(f"{name} cell {cell} is not free")
        # written so that NaN fails it
        if not 0.0 < self.sensor_radius < math.inf:
            raise WorldFormatError(
                "sensor radius must be positive and finite, "
                f"got {self.sensor_radius}")


def parse_world(text: str):
    """Text map: '#' occupied, '.' free, 'T' target (free), 'R' robot
    start (free). Returns (labels, target, robot)."""
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise WorldFormatError("empty world map")
    width = len(rows[0])
    target = None
    robot = None
    labels = np.zeros((len(rows), width), dtype=np.uint8)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise WorldFormatError(f"row {r + 1} has length {len(row)}, "
                                   f"expected {width}")
        for c, ch in enumerate(row):
            if ch not in _CHARS:
                raise WorldFormatError(f"unknown map character {ch!r} "
                                       f"at row {r + 1}")
            labels[r, c] = _CHARS[ch]
            if ch == "T":
                target = (r, c)
            elif ch == "R":
                robot = (r, c)
    if target is None or robot is None:
        raise WorldFormatError("map must mark one T and one R cell")
    return labels, target, robot


def world_to_text(world: WorldModel) -> str:
    out = []
    for r in range(world.truth.shape[0]):
        row = []
        for c in range(world.truth.shape[1]):
            if (r, c) == world.target:
                row.append("T")
            elif (r, c) == world.robot:
                row.append("R")
            else:
                row.append("#" if world.truth.labels[r, c] == OCCUPIED else ".")
        out.append("".join(row))
    return "\n".join(out) + "\n"


def load_world(map_path, config_path=None):
    """Load a world map plus its sidecar JSON config. The sidecar (default
    <map>.json) holds resolution, sensor radius, the Gaussian prior list
    and factor weights. The sensor sees a full circle, so a sidecar
    heading, or a fov other than 2*pi, is rejected. Returns (WorldModel,
    sidecar dict)."""
    with open(map_path) as fh:
        labels, target, robot = parse_world(fh.read())
    if config_path is None:
        config_path = str(map_path) + ".json"
    cfg = {}
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        pass
    except json.JSONDecodeError as exc:
        raise WorldFormatError(f"bad sidecar config: {exc}") from None
    if not isinstance(cfg, dict):
        raise WorldFormatError(
            f"sidecar config must be a JSON object, got {cfg!r}")
    fov = _sidecar_number(cfg, "fov", 2.0 * math.pi)
    # 2*pi written to four or more significant digits counts as a full circle
    if "heading" in cfg or not math.isclose(fov, 2.0 * math.pi,
                                            rel_tol=1e-4):
        raise WorldFormatError(
            "sidecar heading and fov are not supported: the sensor sees a "
            "full circle (fov 2*pi)")
    world = WorldModel(
        truth=OccupancyGrid(labels, _sidecar_number(cfg, "resolution", 1.0)),
        target=target,
        robot=robot,
        sensor_radius=_sidecar_number(cfg, "sensor_radius", SENSOR_RADIUS),
    )
    return world, cfg


def _json_number(value) -> bool:
    """Whether a value loaded from JSON is a number that converts to a
    float: JSON true and false load as bool, which Python counts as an
    int, and an integer literal can lie beyond the double range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _sidecar_number(cfg: dict, key: str, default: float) -> float:
    value = cfg.get(key, default)
    if not _json_number(value):
        raise WorldFormatError(
            f"sidecar {key} must be a number, got {value!r}")
    return float(value)


def save_world(world: WorldModel, map_path, sidecar: dict | None = None):
    with open(map_path, "w") as fh:
        fh.write(world_to_text(world))
    cfg = dict(sidecar or {})
    cfg.setdefault("resolution", world.truth.resolution)
    cfg.setdefault("sensor_radius", world.sensor_radius)
    with open(str(map_path) + ".json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def extract_frontiers(grid: OccupancyGrid) -> list:
    """Free cells 4-adjacent to at least one Unknown cell, in row-major
    order. Out-of-bounds neighbors count as Unknown."""
    lab = grid.labels
    padded = np.pad(lab, 1, constant_values=UNKNOWN)
    unk = padded == UNKNOWN
    near_unknown = (unk[:-2, 1:-1] | unk[2:, 1:-1]
                    | unk[1:-1, :-2] | unk[1:-1, 2:])
    mask = (lab == FREE) & near_unknown
    return list(map(tuple, np.argwhere(mask).tolist()))


@functools.lru_cache(maxsize=None)
def _ray_offsets(radius_cells: float):
    """Sample offsets for rays fanned over a full circle: (RAYS, samples, 2)
    float offsets from the origin cell center, in cell units."""
    nsteps = max(1, int(math.ceil(radius_cells / RAY_STEP)))
    dist = (np.arange(1, nsteps + 1) * RAY_STEP).clip(max=radius_cells)
    ang = np.arange(RAYS) * (2.0 * math.pi / RAYS)
    dx = np.cos(ang)[:, None] * dist[None, :]
    dy = np.sin(ang)[:, None] * dist[None, :]
    return np.stack([dy, dx], axis=2)  # (rays, samples, (dr, dc))


def reveal(grid: OccupancyGrid, world: WorldModel, robot) -> int:
    """Copy ground-truth labels into the grid along rays from the robot,
    full circle, out to the sensor radius. Occupied cells occlude: the
    wall itself is revealed, nothing beyond it. Returns how many cells
    became known."""
    res = grid.resolution
    radius_cells = world.sensor_radius / res
    offsets = _ray_offsets(radius_cells)
    h, w = grid.labels.shape
    rr = np.floor(robot[0] + 0.5 + offsets[:, :, 0]).astype(np.intp)
    cc = np.floor(robot[1] + 0.5 + offsets[:, :, 1]).astype(np.intp)
    inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
    rr_c = rr.clip(0, h - 1)
    cc_c = cc.clip(0, w - 1)
    truth = world.truth.labels[rr_c, cc_c]
    occupied = (truth == OCCUPIED) | ~inside
    # index of the first blocking sample per ray; samples after it stay hidden
    nsamp = offsets.shape[1]
    first_block = np.where(occupied.any(axis=1),
                           occupied.argmax(axis=1), nsamp)
    visible = np.arange(nsamp)[None, :] <= first_block[:, None]
    visible &= inside
    before = int(np.count_nonzero(grid.labels != UNKNOWN))
    sel_r = rr[visible]
    sel_c = cc[visible]
    grid.labels[sel_r, sel_c] = world.truth.labels[sel_r, sel_c]
    grid.labels[robot] = world.truth.labels[robot]
    after = int(np.count_nonzero(grid.labels != UNKNOWN))
    return after - before


def grid_distances(grid: OccupancyGrid, sources: list):
    """Shortest-path distances (meters) from each source cell to every
    Free cell, walking 4-connected over Free cells only. Returns
    (dist matrix (len(sources), n_free), predecessors, cells, idx), where
    the predecessors are the first source's row, shape (n_free,), cells
    are the Free cells in row-major order and idx maps a cell to its rank
    there, or -1. Raises ValueError without sources.

    The graph is built in CSR form directly: each Free cell's edges, of
    weight resolution, go to its Free neighbours up, left, right and
    down, which is ascending rank order, and every edge is stored in both
    directions. The first row and its predecessors come from Dijkstra,
    whose tie-breaks pick the paths that tree_path walks. Dijkstra sums a
    path's edges one at a time from 0.0, so a cell k hops away is at the
    k-th partial sum of the resolution whatever the path: the other rows
    map breadth-first hop counts through a cumulative-sum table, the same
    floats bit for bit."""
    # scipy loads on the first grid search only: nothing else in the
    # package uses it, and importing it costs about 0.4 s and 25 MB.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, dijkstra
    if not sources:
        raise ValueError("grid_distances needs at least one source")
    free = grid.labels == FREE
    cells = np.argwhere(free)
    n = len(cells)
    # ranks framed by -1, so that no neighbour read leaves the array
    framed = np.full((free.shape[0] + 2, free.shape[1] + 2), -1,
                     dtype=np.intp)
    idx = framed[1:-1, 1:-1]
    idx[free] = np.arange(n)
    src = []
    for cell in sources:
        s = idx[cell]
        if s < 0:
            raise ValueError(f"source {cell} is not a known free cell")
        src.append(s)
    slots = np.stack([framed[:-2, 1:-1][free], framed[1:-1, :-2][free],
                      framed[1:-1, 2:][free], framed[2:, 1:-1][free]],
                     axis=1)
    filled = slots >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(filled.sum(axis=1), out=indptr[1:])
    indices = slots[filled].astype(np.int32)
    m = csr_matrix((np.full(len(indices), grid.resolution), indices, indptr),
                   shape=(n, n))
    dist = np.empty((len(src), n))
    dist[0], pred = dijkstra(m, directed=True, indices=src[0],
                             return_predecessors=True)
    # add.accumulate adds in sequence, as Dijkstra does along a path
    table = np.empty(n + 1)
    table[0] = 0.0
    np.cumsum(np.full(n, grid.resolution), out=table[1:])
    for row, s in zip(dist[1:], src[1:]):
        order, parent = breadth_first_order(m, s, directed=True,
                                            return_predecessors=True)
        # in BFS order the parents' positions never decrease: when the
        # levels so far fill positions [0, e), the next level ends at 1 +
        # the number of cells whose parent lies before e, below[e - 1]
        below = np.bincount(parent[order[1:]], minlength=n)[order].cumsum()
        bounds = [0, 1]
        while bounds[-1] < len(order):
            bounds.append(1 + int(below[bounds[-1] - 1]))
        hops = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        row.fill(np.inf)
        row[order] = table[hops]
    return dist, pred, cells, idx


def tree_path(tree, src, dst) -> list | None:
    """Cell sequence from src to dst along tree, the row of a
    grid_distances result whose source is src: (distances, predecessors,
    cells, idx). None when dst is not reachable. Endpoints included."""
    dist, pred, cells, idx = tree
    j = idx[dst]
    if j < 0 or not np.isfinite(dist[j]):
        return None
    path = []
    cur = int(j)
    while cur >= 0:
        path.append((int(cells[cur][0]), int(cells[cur][1])))
        cur = int(pred[cur])
    path.reverse()
    if path[0] != tuple(src):
        return None
    return path


def shortest_path_cells(grid: OccupancyGrid, src, dst) -> list | None:
    """Cell sequence from src to dst over known Free cells, or None when
    disconnected. Endpoints included."""
    dist, pred, cells, idx = grid_distances(grid, [src])
    return tree_path((dist[0], pred, cells, idx), src, dst)
