"""The benchmark's --trace 1 patches module-level names from outside
(perfbench/spans.py). These tests keep every name it patches in place and
reached through its binding, so that each layer still records a span."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import hpppt.exploration
import hpppt.lifelong
from hpppt import (GroundTruth, Instance, MissionConfig, SensorModel,
                   generate_random)
from hpppt.exploration import ExploreConfig, PriorField, forest_world
from hpppt.grid import OccupancyGrid, WorldModel, parse_world

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _modules(spans):
    return {name: importlib.import_module(name)
            for name, _, _ in spans.TARGETS}


def test_every_traced_binding_resolves_to_a_callable():
    spans = _load_spans()
    modules = _modules(spans)
    for mod_name, attr, _ in spans.TARGETS:
        assert callable(getattr(modules[mod_name], attr, None)), (
            f"{mod_name}.{attr}")


def test_missions_record_solver_and_baseline_spans():
    spans = _load_spans()
    tracer = spans.Tracer(_modules(spans))
    base = generate_random(6, seed=3)
    inst = Instance(base.cost, np.full(6, 0.5), 0, base.name, base.coords)
    truth = GroundTruth.from_targets(6, [2])
    tracer.install()
    try:
        for planner in ("rpt", "greedy", "blind"):
            log = hpppt.lifelong.run_mission(
                inst, truth, SensorModel(0.8, 0.4),
                MissionConfig(planner=planner, max_steps=40))
            assert log.steps
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    for name in ("solver.solve", "solver.build_heuristic_table",
                 "lifelong.plan_next", "baselines.greedy", "baselines.blind"):
        assert totals.get(name, (0,))[0] > 0, name
    assert tracer.counts["solver.expansions"] > 0
    # uninstall restores the package's own functions
    assert hpppt.lifelong.solve is hpppt.solver.solve


def test_exploration_records_every_layer_and_one_tree_per_replan(
        monkeypatch):
    spans = _load_spans()
    tracer = spans.Tracer(_modules(spans))
    # the cells scored and the goals returned, seen from inside the package
    # without the tracer's reading of the arguments
    scored, returned = [], []
    assign = hpppt.exploration.assign_probability
    cluster = hpppt.exploration.cluster_goals

    def scoring(*args, **kwargs):
        out = assign(*args, **kwargs)
        scored.append(len(out))
        return out

    def clustering(*args, **kwargs):
        out = cluster(*args, **kwargs)
        returned.append(len(out))
        return out

    monkeypatch.setattr(hpppt.exploration, "assign_probability", scoring)
    monkeypatch.setattr(hpppt.exploration, "cluster_goals", clustering)
    forest = forest_world(size=40, n_trees=20, seed=1)
    # a sealed corridor, where a replan whose clusters merge onto the
    # robot's own cell takes the nearest-frontier fallback
    labels, target, robot = parse_world(
        "#########\n#...R...#\n#########\n#.T.....#\n#########\n")
    sealed = WorldModel(OccupancyGrid(labels), target, robot,
                        sensor_radius=1.0)
    tracer.install()
    try:
        for world, steps in ((forest, 40), (sealed, 200)):
            log = hpppt.exploration.run_exploration(
                world, PriorField(), "rpt", ExploreConfig(max_steps=steps))
            assert log.steps
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    for name in ("exploration.assign_probability", "exploration.mean_shift",
                 "exploration.cluster_goals",
                 "exploration.build_search_graph", "grid.grid_distances",
                 "grid.reveal", "grid.extract_frontiers"):
        assert totals.get(name, (0,))[0] > 0, name
    replans = totals["exploration.assign_probability"][0]
    assert totals["grid.grid_distances"][0] == replans
    assert len(scored) == replans
    assert tracer.counts["exploration.frontier_cells"] == sum(scored) > 0
    assert tracer.counts["exploration.goals"] == sum(returned) > 0
    assert hpppt.exploration.grid_distances is hpppt.grid.grid_distances
