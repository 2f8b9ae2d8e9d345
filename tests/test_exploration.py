import math

import numpy as np
import pytest

from hpppt.exploration import (ClusterConfig, ExploreConfig, GoalCluster,
                               PriorField, assign_probability,
                               build_search_graph, cluster_goals,
                               forest_world, mean_shift, phi_geometric,
                               phi_object, phi_unknown, run_exploration,
                               sample_start, with_start)
from hpppt.grid import (FREE, OCCUPIED, UNKNOWN, OccupancyGrid, WorldModel,
                        extract_frontiers, parse_world, shortest_path_cells)

PRIOR = PriorField()


def _world(text, **kw):
    labels, target, robot = parse_world(text)
    return WorldModel(truth=OccupancyGrid(labels), target=target,
                      robot=robot, **kw)


def test_prior_field_validation():
    with pytest.raises(ValueError, match="sum"):
        PriorField(weights=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="nonnegative"):
        PriorField(weights=(-0.1, 0.5, 0.5))
    with pytest.raises(ValueError, match="three"):
        PriorField(weights=(0.5, 0.5))
    with pytest.raises(ValueError, match="positive definite"):
        PriorField(gaussians=(((0, 0), ((1, 2), (2, 1))),))


def test_prior_field_from_config():
    cfg = {"gaussians": [{"mean": [3, 4], "cov": [[2, 0], [0, 2]]}],
           "weights": [0.1, 0.2, 0.7]}
    p = PriorField.from_config(cfg)
    assert p.weights == (0.1, 0.2, 0.7)
    assert p.gaussians[0][0].tolist() == [3.0, 4.0]
    assert PriorField.from_config({}).weights == (0.3, 0.2, 0.5)


def test_phi_unknown_counts_in_window():
    lab = np.full((3, 3), UNKNOWN, dtype=np.uint8)
    lab[1, 1] = FREE
    g = OccupancyGrid(lab)
    assert phi_unknown(g, (1, 1), window=1) == pytest.approx(8.0 / 9.0)
    # at a corner the window clips to 2x2 cells
    assert phi_unknown(g, (0, 0), window=1) == pytest.approx(3.0 / 4.0)
    assert phi_unknown(OccupancyGrid(np.full((3, 3), FREE, dtype=np.uint8)),
                       (1, 1), window=1) == 0.0


def test_phi_geometric_open_versus_walled():
    lab = np.full((3, 3), UNKNOWN, dtype=np.uint8)
    lab[1, 1] = FREE
    open_g = OccupancyGrid(lab)
    assert phi_geometric(open_g, (1, 1), bearing=0.0) == pytest.approx(1.0)

    ring = np.full((5, 5), FREE, dtype=np.uint8)
    ring[1:4, 1:4] = OCCUPIED
    ring[2, 2] = FREE
    walled = OccupancyGrid(ring)
    assert phi_geometric(walled, (2, 2), bearing=1.0) == 0.0

    # fully known free space within range: no ray finds unknown
    room = OccupancyGrid(np.full((41, 41), FREE, dtype=np.uint8))
    assert phi_geometric(room, (20, 20), bearing=0.0,
                         max_range_cells=10.0) == 0.0


def test_phi_object_peaks_at_gaussian_mean():
    g = OccupancyGrid(np.full((6, 6), FREE, dtype=np.uint8))
    mean = g.center((2, 3))
    prior = PriorField(gaussians=((mean, ((1, 0), (0, 1))),))
    assert phi_object(prior, g, (2, 3)) == pytest.approx(1.0)
    # one cell east: squared Mahalanobis distance 1
    assert phi_object(prior, g, (2, 4)) == pytest.approx(math.exp(-0.5))
    assert phi_object(PRIOR, g, (2, 3)) == 0.0  # empty mixture


def test_assign_probability_clamps_and_weights():
    lab = np.full((21, 21), UNKNOWN, dtype=np.uint8)
    lab[10, 10] = FREE
    g = OccupancyGrid(lab)
    cell = (10, 10)
    prior = PriorField(gaussians=((g.center(cell), ((1, 0), (0, 1))),),
                       weights=(0.3, 0.2, 0.5))
    p = assign_probability(g, [cell], prior, (10, 9), ExploreConfig())
    assert p.shape == (1,)
    assert 0.9 < p[0] <= 1.0 - 1e-9

    zero = PriorField(weights=(0.0, 0.0, 0.0))
    pz = assign_probability(g, [cell], zero, (10, 9), ExploreConfig())
    assert pz[0] == 0.0


def test_mean_shift_finds_two_groups():
    pts = np.array([[0, 0], [1, 0], [0, 1], [20, 20], [21, 20], [20, 21]],
                   dtype=float)
    cfg = ClusterConfig(bandwidth=3.0)
    centers = mean_shift(pts, np.ones(6), cfg)
    lo = centers[:3].mean(axis=0)
    hi = centers[3:].mean(axis=0)
    assert np.hypot(*(lo - [1 / 3, 1 / 3])) < 1.0
    assert np.hypot(*(hi - [20 + 1 / 3, 20 + 1 / 3])) < 1.0
    # every point converges near its own group
    assert (np.hypot(*(centers[:3] - lo).T) < 1.0).all()


def test_mean_shift_zero_weights_fall_back_to_uniform():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    centers = mean_shift(pts, np.zeros(2), ClusterConfig(bandwidth=10.0))
    assert centers[0] == pytest.approx([1.0, 0.0], abs=0.2)


def test_cluster_goals_merges_and_keeps_max_prob():
    g = OccupancyGrid(np.full((30, 30), FREE, dtype=np.uint8))
    frontiers = [(0, 0), (1, 0), (0, 1), (20, 20), (21, 20), (20, 21)]
    probs = [0.1, 0.6, 0.2, 0.3, 0.9, 0.3]
    out = cluster_goals(g, frontiers, probs, ClusterConfig(bandwidth=3.0))
    assert len(out) == 2
    a, b = out
    assert a.prob == pytest.approx(0.6)
    assert b.prob == pytest.approx(0.9)
    assert max(abs(a.cell[0] - 0), abs(a.cell[1] - 0)) <= 2
    assert max(abs(b.cell[0] - 20), abs(b.cell[1] - 20)) <= 2
    assert len(a.members) == 3 and len(b.members) == 3
    assert cluster_goals(g, [], [], ClusterConfig()) == []


def test_cluster_goals_snaps_to_free_cell():
    lab = np.full((5, 5), OCCUPIED, dtype=np.uint8)
    lab[0, 0] = FREE
    lab[4, 4] = FREE
    g = OccupancyGrid(lab)
    out = cluster_goals(g, [(4, 3)], [0.5], ClusterConfig())
    assert out[0].cell == (4, 4)


def test_build_search_graph_drops_unreachable():
    labels, _, _ = parse_world("R.#.T\n")
    g = OccupancyGrid(labels)
    goals = [GoalCluster((0, 1), 0.4, ((0, 1),)),
             GoalCluster((0, 4), 0.6, ((0, 4),))]
    inst, cells, dropped = build_search_graph(g, goals, (0, 0))
    assert dropped == [(0, 4)]
    assert cells == [(0, 0), (0, 1)]
    assert inst.n == 2
    assert inst.prob[0] == 0.0
    assert inst.prob[1] == pytest.approx(0.4)
    assert inst.cost[0, 1] == pytest.approx(1.0)
    assert inst.start == 0


def test_build_search_graph_degenerate_cases():
    g = OccupancyGrid(np.full((3, 3), FREE, dtype=np.uint8))
    inst, cells, dropped = build_search_graph(g, [], (1, 1))
    assert inst is None and cells == [(1, 1)] and dropped == []
    only_self = [GoalCluster((1, 1), 0.7, ((1, 1),))]
    inst, cells, _ = build_search_graph(g, only_self, (1, 1))
    assert inst is None


CORRIDOR = "############\n#R........T#\n############\n"
SEALED = "############\n#R...#....T#\n############\n"


def test_exploration_finds_target_in_corridor():
    world = _world(CORRIDOR, sensor_radius=3.0)
    for planner in ("rpt", "greedy", "blind"):
        log = run_exploration(world, PRIOR, planner,
                              ExploreConfig(max_steps=200))
        assert log.status == "found"
        assert log.duration == pytest.approx(len(log.steps) * 1.0)
        assert log.steps[-1].revealed > 0


def test_exploration_exhausts_sealed_chamber():
    world = _world(SEALED, sensor_radius=3.0)
    log = run_exploration(world, PRIOR, "rpt", ExploreConfig(max_steps=200))
    assert log.status == "exhausted"


def test_exploration_truncates_at_step_cap():
    world = _world(CORRIDOR, sensor_radius=3.0)
    log = run_exploration(world, PRIOR, "rpt", ExploreConfig(max_steps=2))
    assert log.status == "truncated"
    assert len(log.steps) == 2


def test_exploration_deterministic():
    world = _world(CORRIDOR, sensor_radius=3.0)
    a = run_exploration(world, PRIOR, "rpt", ExploreConfig(max_steps=200))
    b = run_exploration(world, PRIOR, "rpt", ExploreConfig(max_steps=200))
    assert a.to_json_lines() == b.to_json_lines()


def test_forest_world_properties():
    w = forest_world(size=60, n_trees=40, seed=3)
    assert w.truth.shape == (60, 60)
    assert (w.truth.labels[0] == OCCUPIED).all()
    assert (w.truth.labels[:, -1] == OCCUPIED).all()
    assert w.truth.label(w.target) == FREE
    assert w.truth.label(w.robot) == FREE
    assert shortest_path_cells(w.truth, w.robot, w.target) is not None
    again = forest_world(size=60, n_trees=40, seed=3)
    assert np.array_equal(w.truth.labels, again.truth.labels)
    other = forest_world(size=60, n_trees=40, seed=4)
    assert not np.array_equal(w.truth.labels, other.truth.labels)


def test_start_jitter_helpers():
    w = forest_world(size=60, n_trees=40, seed=5)
    s = sample_start(w, seed=7)
    assert w.truth.label(s) == FREE
    assert math.hypot(s[0] - w.robot[0], s[1] - w.robot[1]) <= 8.0
    assert sample_start(w, seed=7) == s
    moved = with_start(w, s)
    assert moved.robot == tuple(s)
    assert moved.target == w.target
    with pytest.raises(ValueError, match="not free"):
        with_start(w, (0, 0))


def test_unknown_planner_rejected_up_front():
    # a robot that starts next to the target would otherwise report found
    world = _world("#R.T#\n")
    with pytest.raises(ValueError, match="unknown planner"):
        run_exploration(world, PRIOR, "astar")


def test_exploration_frontier_counts_logged():
    world = _world(CORRIDOR, sensor_radius=3.0)
    log = run_exploration(world, PRIOR, "rpt", ExploreConfig(max_steps=200))
    assert log.steps[0].replanned
    for s in log.steps:
        assert s.frontiers >= 0
        assert s.clusters >= 0
