import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

import hpppt.exploration
import hpppt.lifelong
from hpppt.exploration import (PHI_G_FOV, PRIOR_WEIGHTS, ExploreConfig,
                               GoalCluster, PriorField, _cell_array,
                               _phi_geometric_cells,
                               _phi_object_cells, _phi_unknown_cells,
                               _plan_goal, assign_probability,
                               build_search_graph, cluster_goals,
                               forest_world, mean_shift, run_exploration,
                               sample_start, with_start)
from hpppt.grid import (FREE, OCCUPIED, RAY_STEP, RAYS, SENSOR_RADIUS,
                        UNKNOWN, OccupancyGrid, WorldModel, extract_frontiers,
                        parse_world, reveal, shortest_path_cells, tree_path)
from hpppt.instance import PROB_CLAMP, Instance
from hpppt.solver import SolveResult

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
    nan, inf = float("nan"), float("inf")
    for weights in ((nan, 0.2, 0.5), (0.3, inf, 0.5), (0.3, 0.2, -inf)):
        with pytest.raises(ValueError, match="three finite nonnegative"):
            PriorField(weights=weights)
    eye = ((1.0, 0.0), (0.0, 1.0))
    for mean in ((nan, 0.0), (0.0, inf)):
        with pytest.raises(ValueError, match="mean .* is not finite"):
            PriorField(gaussians=((mean, eye),))
    for cov in (((nan, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, inf)),
                ((nan, nan), (nan, nan))):
        with pytest.raises(ValueError, match="covariance .* is not finite"):
            PriorField(gaussians=(((0.0, 0.0), cov),))
    # json.load reads NaN, so a sidecar can carry one
    with pytest.raises(ValueError, match="three finite nonnegative"):
        PriorField.from_config(json.loads('{"weights": [NaN, 0.2, 0.5]}'))
    with pytest.raises(ValueError, match="mean .* is not finite"):
        PriorField.from_config(json.loads(
            '{"gaussians": [{"mean": [NaN, 1], "cov": [[1, 0], [0, 1]]}]}'))


def test_prior_field_from_config():
    cfg = {"gaussians": [{"mean": [3, 4], "cov": [[2, 0], [0, 2]]}],
           "weights": [0.1, 0.2, 0.7]}
    p = PriorField.from_config(cfg)
    assert p.weights == (0.1, 0.2, 0.7)
    assert p.gaussians[0][0].tolist() == [3.0, 4.0]
    assert PriorField.from_config({}).weights == (0.3, 0.2, 0.5)


# one cell's factors, through the array forms that exploration scores with
def _phi_u(grid, cell, window):
    return _phi_unknown_cells(grid.labels, _cell_array(cell), window)[0]


def _phi_g(grid, cell, bearing, fov, rays, ray_step, max_range_cells):
    return _phi_geometric_cells(grid.labels, _cell_array(cell),
                                np.array([bearing]), fov, rays, ray_step,
                                max_range_cells)[0]


def _phi_o(prior, grid, cell):
    return _phi_object_cells(prior, grid, _cell_array(cell))[0]


def test_phi_unknown_counts_in_window():
    lab = np.full((3, 3), UNKNOWN, dtype=np.uint8)
    lab[1, 1] = FREE
    g = OccupancyGrid(lab)
    assert _phi_u(g, (1, 1), 1) == pytest.approx(8.0 / 9.0)
    # at a corner the window clips to 2x2 cells
    assert _phi_u(g, (0, 0), 1) == pytest.approx(3.0 / 4.0)
    assert _phi_u(OccupancyGrid(np.full((3, 3), FREE, dtype=np.uint8)),
                  (1, 1), 1) == 0.0


def test_phi_geometric_open_versus_walled():
    lab = np.full((3, 3), UNKNOWN, dtype=np.uint8)
    lab[1, 1] = FREE
    open_g = OccupancyGrid(lab)
    assert _phi_g(open_g, (1, 1), 0.0, PHI_G_FOV, RAYS, RAY_STEP,
                  20.0) == pytest.approx(1.0)

    ring = np.full((5, 5), FREE, dtype=np.uint8)
    ring[1:4, 1:4] = OCCUPIED
    ring[2, 2] = FREE
    walled = OccupancyGrid(ring)
    assert _phi_g(walled, (2, 2), 1.0, PHI_G_FOV, RAYS, RAY_STEP,
                  20.0) == 0.0

    # fully known free space within range: no ray finds unknown
    room = OccupancyGrid(np.full((41, 41), FREE, dtype=np.uint8))
    assert _phi_g(room, (20, 20), 0.0, PHI_G_FOV, RAYS, RAY_STEP,
                  10.0) == 0.0


def test_phi_object_peaks_at_gaussian_mean():
    g = OccupancyGrid(np.full((6, 6), FREE, dtype=np.uint8))
    mean = g.center((2, 3))
    prior = PriorField(gaussians=((mean, ((1, 0), (0, 1))),))
    assert _phi_o(prior, g, (2, 3)) == pytest.approx(1.0)
    # one cell east: squared Mahalanobis distance 1
    assert _phi_o(prior, g, (2, 4)) == pytest.approx(math.exp(-0.5))
    assert _phi_o(PRIOR, g, (2, 3)) == 0.0  # empty mixture


def test_assign_probability_clamps_and_weights():
    lab = np.full((21, 21), UNKNOWN, dtype=np.uint8)
    lab[10, 10] = FREE
    g = OccupancyGrid(lab)
    cell = (10, 10)
    prior = PriorField(gaussians=((g.center(cell), ((1, 0), (0, 1))),),
                       weights=(0.3, 0.2, 0.5))
    p = assign_probability(g, [cell], prior, (10, 9), 20.0)
    assert p.shape == (1,)
    assert 0.9 < p[0] <= 1.0 - 1e-9

    zero = PriorField(weights=(0.0, 0.0, 0.0))
    pz = assign_probability(g, [cell], zero, (10, 9), 20.0)
    assert pz[0] == 0.0


def test_mean_shift_finds_two_groups():
    pts = np.array([[0, 0], [1, 0], [0, 1], [20, 20], [21, 20], [20, 21]],
                   dtype=float)
    centers = mean_shift(pts, np.ones(6))
    lo = centers[:3].mean(axis=0)
    hi = centers[3:].mean(axis=0)
    assert np.hypot(*(lo - [1 / 3, 1 / 3])) < 1.0
    assert np.hypot(*(hi - [20 + 1 / 3, 20 + 1 / 3])) < 1.0
    # every point converges near its own group
    assert (np.hypot(*(centers[:3] - lo).T) < 1.0).all()


def test_mean_shift_zero_weights_fall_back_to_uniform():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    centers = mean_shift(pts, np.zeros(2))
    assert centers[0] == pytest.approx([1.0, 0.0], abs=0.2)


def test_cluster_goals_merges_and_keeps_max_prob():
    g = OccupancyGrid(np.full((30, 30), FREE, dtype=np.uint8))
    frontiers = [(0, 0), (1, 0), (0, 1), (20, 20), (21, 20), (20, 21)]
    probs = [0.1, 0.6, 0.2, 0.3, 0.9, 0.3]
    out = cluster_goals(g, frontiers, probs)
    assert len(out) == 2
    a, b = out
    assert a.prob == pytest.approx(0.6)
    assert b.prob == pytest.approx(0.9)
    assert max(abs(a.cell[0] - 0), abs(a.cell[1] - 0)) <= 2
    assert max(abs(b.cell[0] - 20), abs(b.cell[1] - 20)) <= 2
    assert cluster_goals(g, [], []) == []


def test_cluster_goals_snaps_to_free_cell():
    lab = np.full((5, 5), OCCUPIED, dtype=np.uint8)
    lab[0, 0] = FREE
    lab[4, 4] = FREE
    g = OccupancyGrid(lab)
    out = cluster_goals(g, [(4, 3)], [0.5])
    assert out[0].cell == (4, 4)


def test_build_search_graph_drops_unreachable():
    labels, _, _ = parse_world("R.#.T\n")
    g = OccupancyGrid(labels)
    goals = [GoalCluster((0, 1), 0.4), GoalCluster((0, 4), 0.6)]
    inst, cells, dropped, tree = build_search_graph(g, goals, (0, 0))
    assert dropped == [(0, 4)]
    # the robot's tree from the same search serves the replan's path
    assert tree_path(tree, (0, 0), (0, 1)) == [(0, 0), (0, 1)]
    assert tree_path(tree, (0, 0), (0, 4)) is None
    assert cells == [(0, 0), (0, 1)]
    assert inst.n == 2
    assert inst.prob[0] == 0.0
    assert inst.prob[1] == pytest.approx(0.4)
    assert inst.cost[0, 1] == pytest.approx(1.0)
    assert inst.start == 0


def test_build_search_graph_degenerate_cases():
    g = OccupancyGrid(np.full((3, 3), FREE, dtype=np.uint8))
    inst, cells, dropped, _ = build_search_graph(g, [], (1, 1))
    assert inst is None and cells == [(1, 1)] and dropped == []
    only_self = [GoalCluster((1, 1), 0.7)]
    inst, cells, _, _ = build_search_graph(g, only_self, (1, 1))
    assert inst is None
    # every goal walled off from the robot
    labels, _, _ = parse_world("R#..T\n")
    walled = [GoalCluster((0, 2), 0.3), GoalCluster((0, 4), 0.8)]
    inst, cells, dropped, tree = build_search_graph(OccupancyGrid(labels),
                                                    walled, (0, 0))
    assert inst is None and cells == [(0, 0)]
    assert dropped == [(0, 2), (0, 4)]
    assert tree_path(tree, (0, 0), (0, 2)) is None


CORRIDOR = "############\n#R........T#\n############\n"
SEALED = "############\n#R...#....T#\n############\n"
# a sealed corridor where the robot's two frontier clusters can merge onto
# its own cell; such a replan has no plannable goal and heads for the
# nearest frontier instead
SEALED_MIDDLE = ("#########\n#...R...#\n#########\n#.T.....#\n"
                 "#########\n")


def test_exploration_finds_target_in_corridor():
    world = _world(CORRIDOR, sensor_radius=3.0)
    for planner in ("rpt", "greedy", "blind"):
        log = run_exploration(world, PRIOR, planner,
                              ExploreConfig(max_steps=200))
        assert log.status == "found"
        assert log.duration == pytest.approx(len(log.steps) * 1.0)
        assert log.steps[-1].revealed > 0


def test_rpt_replans_ask_only_for_the_first_move(monkeypatch):
    real_solve = hpppt.exploration.solve
    keywords = []

    def recording(inst, cfg, **kw):
        keywords.append(kw)
        return real_solve(inst, cfg, **kw)

    monkeypatch.setattr(hpppt.exploration, "solve", recording)
    world = _world(CORRIDOR, sensor_radius=3.0)
    log = run_exploration(world, PRIOR, "rpt", ExploreConfig(max_steps=200))
    assert log.status == "found"
    assert keywords and keywords == [{"first_move": True}] * len(keywords)


@pytest.mark.parametrize("cfg, eps, limit", [
    # a vertex cap of 1 sends every replan to the focal variant
    (ExploreConfig(max_steps=40, plan_time_limit=7.0), 0.25, 7.0),
    (ExploreConfig(max_steps=40), 0.0, 60.0),
])
def test_rpt_replans_use_the_planner_settings(monkeypatch, cfg, eps, limit):
    if eps:
        monkeypatch.setattr(hpppt.exploration, "VERTEX_CAP", 1)
        monkeypatch.setattr(hpppt.exploration, "FOCAL_EPS", eps)
    real_solve = hpppt.exploration.solve
    calls = []

    def recording(inst, solver_cfg, **kw):
        calls.append((solver_cfg.epsilon, solver_cfg.time_limit, kw))
        return real_solve(inst, solver_cfg, **kw)

    monkeypatch.setattr(hpppt.exploration, "solve", recording)
    world = forest_world(size=40, n_trees=20, seed=1)
    run_exploration(world, PRIOR, "rpt", cfg)
    assert calls and calls == [(eps, limit, {"first_move": True})] * len(
        calls)


def test_timed_out_plan_walks_to_the_nearest_frontier(monkeypatch):
    events = []
    nearest = hpppt.exploration._nearest_frontier

    def timing_out(inst, solver_cfg, **kw):
        events.append("solve")
        return SolveResult("timeout", None, None)

    def spy(tree, frontiers):
        events.append("nearest")
        return nearest(tree, frontiers)

    monkeypatch.setattr(hpppt.exploration, "solve", timing_out)
    labels, _, _ = parse_world("R..T\n")
    inst, cells, _, _ = build_search_graph(
        OccupancyGrid(labels), [GoalCluster((0, 3), 0.5)], (0, 0))
    assert _plan_goal(inst, cells, "rpt", ExploreConfig()) is None
    monkeypatch.setattr(hpppt.exploration, "_nearest_frontier", spy)
    events.clear()
    log = run_exploration(_world(CORRIDOR, sensor_radius=3.0), PRIOR, "rpt",
                          ExploreConfig(max_steps=200))
    assert log.status == "found"
    assert "solve" in events
    assert events.count("nearest") == sum(s.replanned for s in log.steps)
    # each timed-out plan falls back to the nearest frontier
    assert all(events[i + 1] == "nearest"
               for i, e in enumerate(events) if e == "solve")


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


@pytest.mark.parametrize("cls, name, value", [
    (ExploreConfig, "success_dist", 0.0),
    (ExploreConfig, "max_steps", -1),
    (ExploreConfig, "max_steps", 2.5),
    (ExploreConfig, "max_steps", float("nan")),
    (ExploreConfig, "max_steps", True),
    (ExploreConfig, "plan_time_limit", 0.0),
])
def test_config_rejects_values_that_cannot_take_effect(cls, name, value):
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} "):
        cls(**{name: value})


def test_config_accepts_boundary_values():
    ExploreConfig(max_steps=0, plan_time_limit=None)
    # numpy integers count as integers
    ExploreConfig(max_steps=np.int64(0))


def test_explore_config_holds_only_the_settings_callers_set():
    names = [f.name for f in dataclasses.fields(ExploreConfig)]
    assert sorted(names) == ["max_steps", "plan_time_limit", "success_dist"]
    with pytest.raises(TypeError):
        ExploreConfig(vertex_cap=1)


def test_exploration_defaults_read_one_name_each():
    assert SENSOR_RADIUS == 10.0
    assert _world(CORRIDOR).sensor_radius == SENSOR_RADIUS
    assert forest_world(size=20, n_trees=0).sensor_radius == SENSOR_RADIUS
    assert PRIOR_WEIGHTS == (0.3, 0.2, 0.5)
    assert PriorField().weights == PRIOR_WEIGHTS
    assert PriorField.from_config({}).weights == PRIOR_WEIGHTS
    # missions and exploration share one clamp, which Instance accepts
    assert PROB_CLAMP == 1.0 - 1e-9
    assert hpppt.lifelong.PROB_CLAMP is hpppt.exploration.PROB_CLAMP
    assert hpppt.exploration.PROB_CLAMP is PROB_CLAMP
    Instance([[0.0, 1.0], [1.0, 0.0]], [0.0, PROB_CLAMP])


# The references below are the broadcast and per-cell forms that
# mean_shift and assign_probability compute in fewer array passes; the
# results must agree bit for bit, not approximately.

def _reference_mean_shift(pts, weights):
    """At the module's BANDWIDTH, MAX_ITER and CONVERGE_TOL, as they stand
    when called."""
    m = hpppt.exploration
    if not np.any(weights > 0):
        weights = np.ones(len(pts))
    centers = pts.copy()
    # mean_shift multiplies by the reciprocal; at the default BANDWIDTH
    # 2 * BANDWIDTH ** 2 is 128, whose reciprocal is exact, so this is
    # also the same doubles as dividing by it
    inverse = -1.0 / (2.0 * m.BANDWIDTH * m.BANDWIDTH)
    for _ in range(m.MAX_ITER):
        d2 = ((centers[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        w = weights[None, :] * np.exp(d2 * inverse)
        newc = (w @ pts) / w.sum(axis=1, keepdims=True)
        move = np.sqrt(((newc - centers) ** 2).sum(axis=1))
        centers = newc
        if np.all(move < m.CONVERGE_TOL):
            break
    return centers


def _ref_phi_unknown(grid, cell, window):
    h, w = grid.labels.shape
    r, c = cell
    block = grid.labels[max(0, r - window):min(h, r + window + 1),
                        max(0, c - window):min(w, c + window + 1)]
    return float(np.count_nonzero(block == UNKNOWN) / block.size)


def _ref_phi_geometric(grid, cell, bearing, fov, rays, ray_step, radius):
    h, w = grid.labels.shape
    nsteps = max(1, int(math.ceil(radius / ray_step)))
    dist = (np.arange(1, nsteps + 1) * ray_step).clip(max=radius)
    if rays == 1:
        ang = np.array([bearing])
    else:
        ang = bearing + np.linspace(-fov / 2.0, fov / 2.0, rays)
    rr = np.floor(cell[0] + 0.5 + np.sin(ang)[:, None] * dist[None, :])
    cc = np.floor(cell[1] + 0.5 + np.cos(ang)[:, None] * dist[None, :])
    rr = rr.astype(np.intp)
    cc = cc.astype(np.intp)
    inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
    lab = grid.labels[rr.clip(0, h - 1), cc.clip(0, w - 1)]
    unknown = (lab == UNKNOWN) | ~inside
    occupied = (lab == OCCUPIED) & inside
    n = len(dist)
    fu = np.where(unknown.any(axis=1), unknown.argmax(axis=1), n)
    fo = np.where(occupied.any(axis=1), occupied.argmax(axis=1), n)
    hits = (fu < n) & (fu < fo)
    return float(np.count_nonzero(hits) / len(hits))


def _ref_phi_object(prior, grid, cell):
    x = np.array(grid.center(cell))
    best = 0.0
    for mean, cov in prior.gaussians:
        d = x - mean
        m = float(d @ np.linalg.solve(cov, d))
        best = max(best, math.exp(-0.5 * m))
    return best


def _reference_probability(grid, cells, prior, robot, radius):
    """The scores at the exploration module's WINDOW, PHI_G_FOV, RAYS and
    RAY_STEP, as they stand when called."""
    m = hpppt.exploration
    w_u, w_g, w_o = prior.weights
    out = []
    for cell in cells:
        bearing = math.atan2(cell[0] - robot[0], cell[1] - robot[1])
        p = 0.0
        if w_u:
            p += w_u * _ref_phi_unknown(grid, cell, m.WINDOW)
        if w_g:
            p += w_g * _ref_phi_geometric(grid, cell, bearing, m.PHI_G_FOV,
                                          m.RAYS, m.RAY_STEP, radius)
        if w_o:
            p += w_o * _ref_phi_object(prior, grid, cell)
        out.append(p)
    return np.clip(np.array(out), 0.0, 1.0 - 1e-9)


def _a11_prior(world, kind):
    r, c = world.target
    if kind == "misleading":
        c = world.truth.shape[1] - 1 - c
    return PriorField(
        gaussians=((world.truth.center((r, c)), ((1600.0, 0.0),
                                                 (0.0, 1600.0))),),
        weights=(0.2, 0.1, 0.7))


def _partly_revealed_forest():
    """The A11 forest after the robot has revealed every sixth cell of the
    first 60 of its shortest path to the target."""
    world = forest_world(seed=0)
    grid = OccupancyGrid.all_unknown(world.truth.shape)
    path = shortest_path_cells(world.truth, world.robot, world.target)
    for cell in path[:60:6]:
        reveal(grid, world, cell)
    return world, grid, path[54]


TWO_GAUSSIANS = PriorField(
    gaussians=(((30.0, 70.0), ((30.0, 5.3), (5.3, 20.0))),
               ((62.5, 11.0), ((400.0, -100.0), (-100.0, 90.0)))),
    weights=(0.3, 0.3, 0.4))


# each cfg sets module constants for the run; {} keeps the values in use
@pytest.mark.parametrize("prior", ["empty", "a11", "two"])
@pytest.mark.parametrize("cfg", [
    {},
    {"RAYS": 1},
    {"WINDOW": 0, "RAYS": 7, "RAY_STEP": 0.3, "PHI_G_FOV": 2.0 * math.pi},
])
def test_assign_probability_equals_per_cell_reference(monkeypatch, prior,
                                                      cfg):
    for name, value in cfg.items():
        monkeypatch.setattr(hpppt.exploration, name, value)
    world, grid, robot = _partly_revealed_forest()
    prior = {"empty": PriorField(), "a11": _a11_prior(world, "accurate"),
             "two": TWO_GAUSSIANS}[prior]
    border = [(0, 0), (0, 57), (99, 99), (50, 0), (98, 1), (1, 98)]
    cells = extract_frontiers(grid) + border
    assert len(cells) > 100
    got = assign_probability(grid, cells, prior, robot, 10.0)
    want = _reference_probability(grid, cells, prior, robot, 10.0)
    assert got.tolist() == want.tolist()


def test_per_cell_factors_equal_reference():
    world, grid, robot = _partly_revealed_forest()
    cells = extract_frontiers(grid)[::9] + [(0, 0), (99, 99), (50, 0)]
    prior = TWO_GAUSSIANS
    for cell in cells:
        for window in (0, 1, 5):
            assert _phi_u(grid, cell, window) == _ref_phi_unknown(
                grid, cell, window)
        for bearing, fov, rays in ((0.0, 1.0, 1), (1.3, math.pi / 2, 180),
                                   (-2.9, 2.0 * math.pi, 33)):
            assert _phi_g(grid, cell, bearing, fov, rays, 0.5,
                          10.0) == _ref_phi_geometric(
                grid, cell, bearing, fov, rays, 0.5, 10.0)
        assert _phi_o(prior, grid, cell) == _ref_phi_object(
            prior, grid, cell)
        assert _phi_o(PRIOR, grid, cell) == 0.0


# 2 * bandwidth ** 2 is 18, 128 (the default) and 0.5 (powers of two) and
# 4.000000000000001
@pytest.mark.parametrize("bandwidth", [3.0, 8.0, 0.5, math.sqrt(2.0)])
@pytest.mark.parametrize("weights", ["probs", "zeros"])
def test_mean_shift_equals_broadcast_reference(monkeypatch, bandwidth,
                                               weights):
    world, grid, robot = _partly_revealed_forest()
    cells = extract_frontiers(grid)
    pts = np.asarray(cells, dtype=np.float64)
    if weights == "probs":
        w = assign_probability(grid, cells, _a11_prior(world, "accurate"),
                               robot, 10.0)
    else:
        w = np.zeros(len(pts))
    monkeypatch.setattr(hpppt.exploration, "BANDWIDTH", bandwidth)
    got = mean_shift(pts, w)
    assert got.tolist() == _reference_mean_shift(pts, w).tolist()
    # smaller and larger inputs, and runs that stop early, with the
    # constants that each run sets
    rng = np.random.default_rng(11)
    big = rng.integers(0, 100, size=(320, 2)).astype(np.float64)
    big_w = rng.uniform(0.0, 1.0, len(big)) * (weights == "probs")
    twice = np.repeat(pts[:6], 2, axis=0)
    for p, pw, consts in (
            (pts[:1], w[:1], {}),
            (pts[:2], w[:2], {}),
            (twice, np.repeat(w[:6], 2), {}),
            (np.full((5, 2), 7.0), w[:5], {}),
            (pts, w, {"MAX_ITER": 1}),
            (pts, w, {"CONVERGE_TOL": 1e3}),
            (pts, w, {"CONVERGE_TOL": 0.5}),
            (big, big_w, {})):
        with monkeypatch.context() as mp:
            for name, value in consts.items():
                mp.setattr(hpppt.exploration, name, value)
            got = mean_shift(p, pw)
            assert got.tolist() == _reference_mean_shift(p, pw).tolist()


def _reference_cluster_goals(grid, frontiers, probs):
    pts = np.asarray(frontiers, dtype=np.float64)
    centers = mean_shift(pts, probs)
    groups, anchors = [], []
    for i in range(len(centers)):
        for gi, anchor in enumerate(anchors):
            if np.hypot(*(centers[i] - anchor)) <= (
                    hpppt.exploration.MERGE_DIST):
                groups[gi].append(i)
                break
        else:
            groups.append([i])
            anchors.append(centers[i])
    free = np.argwhere(grid.labels == FREE)
    out = {}
    for members in groups:
        center = centers[members].mean(axis=0)
        pick = free[int(np.argmin(((free - center[None, :]) ** 2).sum(1)))]
        cell = (int(pick[0]), int(pick[1]))
        prev = out.get(cell, GoalCluster(cell, 0.0))
        out[cell] = GoalCluster(
            cell, max(prev.prob, float(probs[members].max())))
    return [out[k] for k in sorted(out)]


@pytest.mark.parametrize("merge_dist", [0.0, 1.5, 4.0, 12.0])
def test_cluster_goals_equals_pairwise_anchor_reference(monkeypatch,
                                                        merge_dist):
    monkeypatch.setattr(hpppt.exploration, "MERGE_DIST", merge_dist)
    world, grid, robot = _partly_revealed_forest()
    cells = extract_frontiers(grid)
    probs = assign_probability(grid, cells, _a11_prior(world, "accurate"),
                               robot, 10.0)
    assert cluster_goals(grid, cells, probs) == (
        _reference_cluster_goals(grid, cells, probs))


# sha256 of to_json_lines() for 150 rpt steps on the A11 forest, recorded
# before mean shift and frontier scoring were rewritten as array passes
A11_LOG_SHA256 = {
    "accurate":
        "2aaa99d1ecfa85d5205f82916f950cddae840048b475890f40830159e19497c7",
    "misleading":
        "f3212a6d7405405bf7ab094629030e243a3d9df02268a13a2d4614613ee8f269",
}


@pytest.mark.parametrize("kind", ["accurate", "misleading"])
def test_exploration_log_matches_recorded_digest(kind):
    world = forest_world(seed=0)
    log = run_exploration(world, _a11_prior(world, kind), "rpt",
                          ExploreConfig(max_steps=150))
    digest = hashlib.sha256(log.to_json_lines().encode()).hexdigest()
    assert digest == A11_LOG_SHA256[kind]


# sha256 of to_json_lines() for runs to their end, recorded before each
# replan shared one Dijkstra tree and before phi_g rays stopped at their
# first stopping sample
FULL_LOG_SHA256 = {
    "accurate":
        "53303b6483ebe163e4dc089b832e38e8c3eb23e04a713f93ddfce5054f8bcfb7",
    "misleading":
        "0d5964a360ee1bef110b7b620684a23275b91ffbb4a54569a29c694b4ad8c25a",
    "sealed":
        "ca0d9e7464f244c67154f7d47c992cff6e2094f3d3fc2cac09b74c153bbaff41",
    "sealed-middle":
        "ebee43fc51625ee6eeeeaff8f59c9a96f43539d9facea474a1165d6465239de4",
}


@pytest.mark.parametrize("kind, steps", [("accurate", 213),
                                         ("misleading", 370)])
def test_full_a11_run_matches_recorded_digest(kind, steps):
    world = forest_world(seed=0)
    log = run_exploration(world, _a11_prior(world, kind), "rpt")
    assert (log.status, len(log.steps)) == ("found", steps)
    digest = hashlib.sha256(log.to_json_lines().encode()).hexdigest()
    assert digest == FULL_LOG_SHA256[kind]


@pytest.mark.parametrize("kind, text, radius, fallbacks", [
    ("sealed", SEALED, 3.0, 0),
    ("sealed-middle", SEALED_MIDDLE, 1.0, 5),
])
def test_sealed_run_matches_recorded_digest(monkeypatch, kind, text, radius,
                                            fallbacks):
    build = hpppt.exploration.build_search_graph
    no_graph = []

    def counted(*args):
        out = build(*args)
        no_graph.append(out[0] is None)
        return out

    monkeypatch.setattr(hpppt.exploration, "build_search_graph", counted)
    log = run_exploration(_world(text, sensor_radius=radius), PRIOR, "rpt",
                          ExploreConfig(max_steps=200))
    assert log.status == "exhausted"
    assert sum(no_graph) == fallbacks
    digest = hashlib.sha256(log.to_json_lines().encode()).hexdigest()
    assert digest == FULL_LOG_SHA256[kind]


def _random_labels(kind, seed, shape=(48, 48)):
    if kind == "free":
        return np.full(shape, FREE, dtype=np.uint8)
    p_free = {"dense": 0.5, "sparse": 0.97}[kind]
    p_other = (1.0 - p_free) / 2.0
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([FREE, UNKNOWN, OCCUPIED], dtype=np.uint8),
                      size=shape, p=(p_free, p_other, p_other))


# "dense" stops most rays within a few samples, "sparse" lets many run
# long, and on the all-Free grid a ray stops only by leaving the grid
@pytest.mark.parametrize("kind", ["dense", "sparse", "free"])
@pytest.mark.parametrize("fov, rays, ray_step, radius", [
    (math.pi / 2, 180, 0.5, 10.0),
    (2.0 * math.pi, 33, 0.3, 10.0),
    (1.0, 1, 0.5, 20.0),
    (2.0 * math.pi, 64, 0.7, 15.0),
    # a radius below ray_step: one block of a single sample
    (2.0 * math.pi, 33, 0.5, 0.4),
    # three samples: a block of two, then a block of one
    (math.pi / 2, 180, 0.5, 1.5),
])
def test_phi_geometric_cells_equal_per_cell_reference(kind, fov, rays,
                                                      ray_step, radius):
    grid = OccupancyGrid(_random_labels(kind, seed=rays))
    rng = np.random.default_rng(7)
    inside = rng.integers(0, 48, size=(37, 2))
    off_grid = np.array([(-3, 5), (50, 52), (5, -1), (-1, -1), (47, 48),
                         (24, 24)])
    cells = np.concatenate([inside, off_grid]).astype(np.intp)
    bearings = rng.uniform(-math.pi, math.pi, size=len(cells))
    got = _phi_geometric_cells(grid.labels, cells, bearings, fov, rays,
                               ray_step, radius)
    want = [_ref_phi_geometric(grid, tuple(cell), bearing, fov, rays,
                               ray_step, radius)
            for cell, bearing in zip(cells.tolist(), bearings.tolist())]
    assert got.tolist() == want
    if kind == "free" and radius < 24:
        # from the middle cell no ray reaches the border, so none stops
        assert got[-1] == 0.0
