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


def test_world_validation():
    labels, target, robot = parse_world(ROOM)
    with pytest.raises(WorldFormatError, match="not free"):
        WorldModel(truth=OccupancyGrid(labels), target=(0, 0), robot=robot)
    holed = labels.copy()
    holed[1, 2] = UNKNOWN
    with pytest.raises(WorldFormatError, match="fully labeled"):
        WorldModel(truth=OccupancyGrid(holed), target=target, robot=robot)


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
    tree = (dist[0], pred[0], cells, idx)
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
