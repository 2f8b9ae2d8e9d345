"""Occupancy grids, ray-cast reveal, frontiers, and grid shortest paths.

Cells are (row, col) pairs; metric positions put x along columns and y
along rows, each cell addressed by its center. Labels transition only
from Unknown to Free or Occupied (monotone reveal). Reads outside the
grid return Unknown.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

UNKNOWN, FREE, OCCUPIED = 0, 1, 2
_CHARS = {".": FREE, "#": OCCUPIED, "T": FREE, "R": FREE}


class WorldFormatError(ValueError):
    pass


class OccupancyGrid:
    def __init__(self, labels, resolution: float = 1.0):
        labels = np.asarray(labels, dtype=np.uint8)
        if labels.ndim != 2:
            raise ValueError("labels must be a 2d array")
        if resolution <= 0:
            raise ValueError("resolution must be positive")
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

    def copy(self) -> "OccupancyGrid":
        return OccupancyGrid(self.labels.copy(), self.resolution)


@dataclass
class WorldModel:
    """Ground truth for simulation: a fully labeled grid (Free/Occupied
    only), the hidden target cell, and the robot start pose."""
    truth: OccupancyGrid
    target: tuple
    robot: tuple
    sensor_radius: float = 10.0  # meters

    def __post_init__(self):
        labels = self.truth.labels
        if np.any(labels == UNKNOWN):
            raise WorldFormatError("ground truth must be fully labeled")
        for name, cell in (("target", self.target), ("robot", self.robot)):
            if self.truth.label(cell) != FREE:
                raise WorldFormatError(f"{name} cell {cell} is not free")
        if self.sensor_radius <= 0:
            raise WorldFormatError("sensor radius must be positive")


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
    fov = cfg.get("fov", 2.0 * math.pi)
    if not isinstance(fov, (int, float)):
        raise WorldFormatError(f"sidecar fov must be a number, got {fov!r}")
    # 2*pi written to four or more significant digits counts as a full circle
    if "heading" in cfg or not math.isclose(fov, 2.0 * math.pi,
                                            rel_tol=1e-4):
        raise WorldFormatError(
            "sidecar heading and fov are not supported: the sensor sees a "
            "full circle (fov 2*pi)")
    res = float(cfg.get("resolution", 1.0))
    world = WorldModel(
        truth=OccupancyGrid(labels, res),
        target=target,
        robot=robot,
        sensor_radius=float(cfg.get("sensor_radius", 10.0)),
    )
    return world, cfg


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


_ray_cache: dict = {}


def _ray_offsets(radius_cells: float, rays: int, step: float):
    """Sample offsets for rays fanned over a full circle: (rays, samples, 2)
    float offsets from the origin cell center, in cell units."""
    key = (round(radius_cells, 6), rays, round(step, 6))
    hit = _ray_cache.get(key)
    if hit is not None:
        return hit
    nsteps = max(1, int(math.ceil(radius_cells / step)))
    dist = (np.arange(1, nsteps + 1) * step).clip(max=radius_cells)
    ang = np.arange(rays) * (2.0 * math.pi / rays)
    dx = np.cos(ang)[:, None] * dist[None, :]
    dy = np.sin(ang)[:, None] * dist[None, :]
    out = np.stack([dy, dx], axis=2)  # (rays, samples, (dr, dc))
    _ray_cache[key] = out
    return out


def reveal(grid: OccupancyGrid, world: WorldModel, robot, rays: int = 180,
           ray_step: float = 0.5) -> int:
    """Copy ground-truth labels into the grid along rays from the robot,
    full circle, out to the sensor radius. Occupied cells occlude: the
    wall itself is revealed, nothing beyond it. Returns how many cells
    became known."""
    res = grid.resolution
    radius_cells = world.sensor_radius / res
    offsets = _ray_offsets(radius_cells, rays, ray_step)
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


def _free_graph(grid: OccupancyGrid):
    """CSR adjacency over Free cells, 4-connected, edge weight = resolution."""
    free = grid.labels == FREE
    h, w = free.shape
    idx = np.full((h, w), -1, dtype=np.intp)
    cells = np.argwhere(free)
    idx[free] = np.arange(len(cells))
    rows = []
    cols = []
    for dr, dc in ((0, 1), (1, 0)):
        a = free[:h - dr if dr else h, :w - dc if dc else w]
        b = free[dr:, dc:]
        both = a & b
        src = idx[:h - dr if dr else h, :w - dc if dc else w][both]
        dst = idx[dr:, dc:][both]
        rows.extend((src, dst))
        cols.extend((dst, src))
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
    else:
        rows = np.zeros(0, dtype=np.intp)
        cols = np.zeros(0, dtype=np.intp)
    data = np.full(len(rows), grid.resolution)
    m = csr_matrix((data, (rows, cols)), shape=(len(cells), len(cells)))
    return m, cells, idx


def grid_distances(grid: OccupancyGrid, sources: list):
    """Shortest-path distances (meters) from each source cell to every
    Free cell, walking 4-connected over Free cells only. Returns
    (dist matrix (len(sources), n_free), predecessors, cells, idx)."""
    m, cells, idx = _free_graph(grid)
    src = []
    for cell in sources:
        s = idx[cell]
        if s < 0:
            raise ValueError(f"source {cell} is not a known free cell")
        src.append(s)
    dist, pred = dijkstra(m, directed=False, indices=src,
                          return_predecessors=True)
    dist = np.atleast_2d(dist)
    pred = np.atleast_2d(pred)
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
    return tree_path((dist[0], pred[0], cells, idx), src, dst)
