import json
import math

import numpy as np
import pytest

from hpppt.grid import (FREE, OCCUPIED, UNKNOWN, OccupancyGrid, WorldFormatError,
                        WorldModel, extract_frontiers, grid_distances,
                        load_world, parse_world, reveal, save_world,
                        shortest_path_cells, tree_path, world_to_text)

ROOM = """\
#####
#R..#
#.#.#
#..T#
#####
"""


def _world(text, **kw):
    labels, target, robot = parse_world(text)
    return WorldModel(truth=OccupancyGrid(labels), target=target,
                      robot=robot, **kw)


def test_parse_world_round_trip():
    labels, target, robot = parse_world(ROOM)
    assert labels.shape == (5, 5)
    assert target == (3, 3)
    assert robot == (1, 1)
    assert labels[0, 0] == OCCUPIED
    assert labels[2, 2] == OCCUPIED
    assert labels[1, 2] == FREE
    world = WorldModel(truth=OccupancyGrid(labels), target=target, robot=robot)
    assert world_to_text(world) == ROOM


def test_parse_world_errors():
    with pytest.raises(WorldFormatError, match="empty"):
        parse_world("")
    with pytest.raises(WorldFormatError, match="length"):
        parse_world("RT#\n##\n")
    with pytest.raises(WorldFormatError, match="character"):
        parse_world("RTx\n")
    with pytest.raises(WorldFormatError, match="one T and one R"):
        parse_world("R..\n")


def test_world_validation(tmp_path):
    labels, target, robot = parse_world(ROOM)
    with pytest.raises(WorldFormatError, match="not free"):
        WorldModel(truth=OccupancyGrid(labels), target=(0, 0), robot=robot)
    holed = labels.copy()
    holed[1, 2] = UNKNOWN
    with pytest.raises(WorldFormatError, match="fully labeled"):
        WorldModel(truth=OccupancyGrid(holed), target=target, robot=robot)
    # NaN and inf would stop an exploration part-way, in the reveal's cell
    # arithmetic; a sidecar can carry them, as json reads NaN and Infinity
    world = WorldModel(truth=OccupancyGrid(labels), target=target,
                       robot=robot)
    map_path = tmp_path / "room.txt"
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="resolution must be positive"):
            OccupancyGrid(labels, bad)
        with pytest.raises(WorldFormatError, match="sensor radius must be"):
            _world(ROOM, sensor_radius=bad)
        for key in ("resolution", "sensor_radius"):
            save_world(world, map_path, {key: bad})
            with pytest.raises(ValueError, match="must be positive"):
                load_world(map_path)


def test_grid_label_and_center():
    g = OccupancyGrid([[FREE, OCCUPIED]], resolution=2.0)
    assert g.label((0, 0)) == FREE
    assert g.label((0, 1)) == OCCUPIED
    assert g.label((-1, 0)) == UNKNOWN
    assert g.label((0, 5)) == UNKNOWN
    assert g.center((0, 1)) == (3.0, 1.0)
    assert OccupancyGrid.all_unknown((3, 4)).labels.sum() == 0


def test_frontiers_are_free_cells_touching_unknown():
    g = OccupancyGrid(np.full((3, 3), FREE, dtype=np.uint8))
    # borders touch out-of-bounds cells, which count as unknown
    fr = extract_frontiers(g)
    assert (1, 1) not in fr
    assert len(fr) == 8

    lab = np.full((3, 3), FREE, dtype=np.uint8)
    lab[1, 1] = UNKNOWN
    inner = extract_frontiers(OccupancyGrid(lab))
    for cell in ((0, 1), (1, 0), (1, 2), (2, 1)):
        assert cell in inner
    assert (1, 1) not in inner
    assert all(isinstance(r, int) and isinstance(c, int) for r, c in inner)


def test_frontiers_ignore_occupied():
    lab = np.full((2, 2), OCCUPIED, dtype=np.uint8)
    assert extract_frontiers(OccupancyGrid(lab)) == []


def test_reveal_stops_at_walls():
    world = _world("R....#..T\n")
    g = OccupancyGrid.all_unknown(world.truth.shape)
    gained = reveal(g, world, world.robot)
    assert gained > 0
    assert g.labels[0, 0] == FREE      # own cell
    assert g.labels[0, 4] == FREE
    assert g.labels[0, 5] == OCCUPIED  # the wall itself is seen
    assert g.labels[0, 6] == UNKNOWN   # nothing beyond it
    assert g.labels[0, 8] == UNKNOWN


def test_reveal_limited_by_radius():
    world = _world("R" + "." * 18 + "T\n", sensor_radius=5.0)
    g = OccupancyGrid.all_unknown(world.truth.shape)
    reveal(g, world, world.robot)
    assert g.labels[0, 5] == FREE
    assert g.labels[0, 6] == UNKNOWN


def test_reveal_is_monotone_and_counts():
    world = _world(ROOM)
    g = OccupancyGrid.all_unknown(world.truth.shape)
    first = reveal(g, world, world.robot)
    assert first == int(np.count_nonzero(g.labels != UNKNOWN))
    again = reveal(g, world, world.robot)
    assert again == 0


def test_grid_distances_match_manhattan_in_open_room():
    g = OccupancyGrid(np.full((5, 5), FREE, dtype=np.uint8), resolution=0.5)
    dist, _, cells, idx = grid_distances(g, [(0, 0)])
    for r in range(5):
        for c in range(5):
            assert dist[0, idx[r, c]] == pytest.approx((r + c) * 0.5)
    assert len(cells) == 25


def test_grid_distances_rejects_non_free_source():
    g = OccupancyGrid(np.full((2, 2), FREE, dtype=np.uint8))
    g.labels[0, 0] = UNKNOWN
    with pytest.raises(ValueError, match="not a known free cell"):
        grid_distances(g, [(0, 0)])
    with pytest.raises(ValueError, match="at least one source"):
        grid_distances(g, [])
    walls = OccupancyGrid(np.full((3, 4), OCCUPIED, dtype=np.uint8))
    with pytest.raises(ValueError, match="not a known free cell"):
        grid_distances(walls, [(1, 1)])


def _reference_graph(labels, resolution):
    """The free-cell graph with plain loops: free cells ranked in
    row-major order, each right and down neighbour joined both ways."""
    from scipy.sparse import csr_matrix
    h, w = labels.shape
    rank = {}
    for r in range(h):
        for c in range(w):
            if labels[r, c] == FREE:
                rank[r, c] = len(rank)
    rows, cols = [], []
    for (r, c), i in rank.items():
        for nb in ((r, c + 1), (r + 1, c)):
            if nb in rank:
                rows += [i, rank[nb]]
                cols += [rank[nb], i]
    return csr_matrix((np.full(len(rows), resolution), (rows, cols)),
                      shape=(len(rank), len(rank)))


def test_grid_distances_equal_an_undirected_search():
    # the free-cell graph holds both directions of every edge, so a
    # directed search must give the undirected one's arrays bit for bit
    from scipy.sparse.csgraph import dijkstra
    rng = np.random.default_rng(12)
    labels = rng.choice(np.array([FREE, OCCUPIED, UNKNOWN], dtype=np.uint8),
                        size=(30, 40), p=(0.65, 0.25, 0.1))
    g = OccupancyGrid(labels, resolution=0.5)
    free = [tuple(c) for c in np.argwhere(labels == FREE).tolist()]
    sources = free[::37]
    dist, pred, _, idx = grid_distances(g, sources)
    ref_dist, ref_pred = dijkstra(_reference_graph(labels, 0.5),
                                  directed=False,
                                  indices=[idx[c] for c in sources],
                                  return_predecessors=True)
    assert np.array_equal(dist, ref_dist)
    # predecessors are kept for the first source only
    assert np.array_equal(pred, ref_pred[0])
    assert np.isinf(dist).any() and np.isfinite(dist).sum() > len(sources)


@pytest.mark.parametrize("resolution", [1.0, 0.5, 0.3])
def test_grid_distance_rows_equal_dijkstra_bit_for_bit(resolution):
    # rows after the first come from breadth-first hop counts; each must be
    # the bytes of a Dijkstra row, unreachable cells included
    from scipy.sparse.csgraph import dijkstra
    rng = np.random.default_rng(29)
    labels = rng.choice(np.array([FREE, OCCUPIED, UNKNOWN], dtype=np.uint8),
                        size=(40, 50), p=(0.62, 0.28, 0.1))
    labels[0, :3] = (FREE, OCCUPIED, FREE)
    labels[1, :3] = OCCUPIED  # (0, 0) is a one-cell component
    g = OccupancyGrid(labels, resolution=resolution)
    free = [tuple(c) for c in np.argwhere(labels == FREE).tolist()]
    sources = [free[len(free) // 2], (0, 0)] + free[::53] + [(0, 0)]
    dist, pred, _, idx = grid_distances(g, sources)
    graph = _reference_graph(labels, resolution)
    src = [idx[c] for c in sources]
    ref_dist, ref_pred = dijkstra(graph, directed=False, indices=src,
                                  return_predecessors=True)
    assert dist.tobytes() == ref_dist.tobytes()
    assert pred.tobytes() == ref_pred[0].tobytes()
    assert np.isinf(dist).any() and np.isfinite(dist).sum() > len(sources)
    assert np.isfinite(dist[1]).sum() == 1 and dist[-1].tobytes() == (
        dist[1].tobytes())
    if resolution == 0.3:
        # the table sums in sequence, which plain multiplication does not
        hops = dijkstra(graph, directed=False, indices=src, unweighted=True)
        reached = np.isfinite(hops)
        assert np.any(dist[reached] != hops[reached] * resolution)


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1)])
def test_grid_distances_along_a_corridor(shape):
    # one row or one column: a neighbour read must not wrap onto another
    # row's cells, and each cell has at most two neighbours
    from scipy.sparse.csgraph import dijkstra
    labels = np.full(shape, FREE, dtype=np.uint8)
    g = OccupancyGrid(labels, resolution=0.5)
    n = labels.size
    cells_in_order = [(r, c) for r in range(shape[0])
                      for c in range(shape[1])]
    sources = [cells_in_order[0], cells_in_order[-1], cells_in_order[n // 2]]
    dist, pred, cells, idx = grid_distances(g, sources)
    ref_dist, ref_pred = dijkstra(_reference_graph(labels, 0.5),
                                  directed=False, indices=[0, n - 1, n // 2],
                                  return_predecessors=True)
    assert dist.tobytes() == ref_dist.tobytes()
    assert pred.tobytes() == ref_pred[0].tobytes() and pred.shape == (n,)
    # sums of 0.5 are exact
    assert dist[0].tolist() == [0.5 * k for k in range(n)]
    assert [tuple(c) for c in cells.tolist()] == cells_in_order


def test_shortest_path_cells_corridor():
    labels, _, _ = parse_world("R...T\n")
    g = OccupancyGrid(labels)
    path = shortest_path_cells(g, (0, 0), (0, 4))
    assert path == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
    assert all(isinstance(r, int) for r, _ in path)


def test_shortest_path_cells_detour_and_blocked():
    labels, _, _ = parse_world("R.#.T\n..#..\n.....\n")
    g = OccupancyGrid(labels)
    path = shortest_path_cells(g, (0, 0), (0, 4))
    assert path is not None
    assert path[0] == (0, 0) and path[-1] == (0, 4)
    assert len(path) == 9  # down around the wall and back up
    walled = labels.copy()
    walled[:, 2] = OCCUPIED
    assert shortest_path_cells(OccupancyGrid(walled), (0, 0), (0, 4)) is None


def test_tree_path_of_a_multi_source_row_equals_shortest_path():
    # a replan walks the robot's row of a Dijkstra run from the robot and
    # its goals; every path must equal the robot's own single-source one
    rng = np.random.default_rng(4)
    labels = rng.choice(np.array([FREE, OCCUPIED, UNKNOWN], dtype=np.uint8),
                        size=(15, 17), p=(0.7, 0.2, 0.1))
    g = OccupancyGrid(labels)
    free = [tuple(c) for c in np.argwhere(labels == FREE).tolist()]
    robot = free[len(free) // 2]
    dist, pred, cells, idx = grid_distances(g, [robot] + free[::7])
    tree = (dist[0], pred, cells, idx)
    targets = [(r, c) for r in range(15) for c in range(17)]
    paths = [tree_path(tree, robot, cell) for cell in targets]
    assert paths == [shortest_path_cells(g, robot, cell) for cell in targets]
    assert sum(p is None for p in paths) > len(targets) - len(free)
    assert tree_path(tree, free[0], robot) is None  # not free[0]'s tree


def test_save_and_load_world(tmp_path):
    world = _world(ROOM, sensor_radius=3.0)
    path = tmp_path / "room.map"
    save_world(world, path, sidecar={"resolution": 1.0,
                                     "prior": {"weights": [0, 0, 0]}})
    back, cfg = load_world(path)
    assert back.target == world.target
    assert back.robot == world.robot
    assert back.sensor_radius == 3.0
    assert np.array_equal(back.truth.labels, world.truth.labels)
    assert cfg["prior"] == {"weights": [0, 0, 0]}
    raw = json.loads((tmp_path / "room.map.json").read_text())
    assert raw["sensor_radius"] == 3.0


def test_load_world_without_sidecar(tmp_path):
    path = tmp_path / "bare.map"
    path.write_text("RT\n")
    world, cfg = load_world(path)
    assert world.sensor_radius == 10.0
    assert cfg == {}
    # only the default <map>.json may be absent, not a sidecar named
    with pytest.raises(FileNotFoundError):
        load_world(path, tmp_path / "no-such.json")


def test_load_world_sensor_is_full_circle(tmp_path):
    path = tmp_path / "w.map"
    path.write_text("RT\n")
    side = tmp_path / "w.map.json"
    for full in (2.0 * math.pi, 6.28318530718, 6.2832, 6.283):
        side.write_text(json.dumps({"fov": full}))
        world, _ = load_world(path)
    assert not hasattr(world, "fov") and not hasattr(world, "heading")
    for bad in ({"fov": math.pi / 2}, {"fov": 6.28}, {"heading": 0.0},
                {"heading": 1.0, "fov": 2.0 * math.pi}):
        side.write_text(json.dumps(bad))
        with pytest.raises(WorldFormatError, match="full circle"):
            load_world(path)
    side.write_text(json.dumps({"fov": "6.28"}))
    with pytest.raises(WorldFormatError, match="must be a number"):
        load_world(path)


def test_load_world_bad_sidecar(tmp_path):
    path = tmp_path / "bad.map"
    path.write_text("RT\n")
    (tmp_path / "bad.map.json").write_text("{nope")
    with pytest.raises(WorldFormatError, match="sidecar"):
        load_world(path)
    for text, match in (("[1]", "must be a JSON object"),
                        ('{"resolution": true}',
                         "resolution must be a number"),
                        ('{"fov": null}', "fov must be a number"),
                        # beyond the double range, so float() would raise
                        ('{"sensor_radius": 1' + "0" * 400 + "}",
                         "sensor_radius must be a number")):
        (tmp_path / "bad.map.json").write_text(text)
        with pytest.raises(WorldFormatError, match=match):
            load_world(path)
