"""scipy serves only the grid shortest paths. Every other entry point,
solve, bench and lifelong missions included, imports and runs without
loading it; a grid search loads it on first use. A bench grid with one
job runs without loading the process pool. hpppt.__all__ names each public
name once, and `from hpppt import *` binds exactly those names. A
setting that nothing in the package set is gone, so passing it raises
TypeError."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import hpppt
from hpppt.exploration import forest_world, sample_start

CODE = textwrap.dedent("""
    import json, sys
    import hpppt, hpppt.cli, hpppt.solver, hpppt.lifelong, hpppt.formats
    import hpppt.bench, hpppt.exploration, hpppt.grid
    import numpy as np
    from hpppt import (GroundTruth, Instance, MissionConfig, SensorModel,
                       generate_random, save_instance)
    from hpppt.cli import main
    from hpppt.grid import FREE, OCCUPIED, OccupancyGrid, shortest_path_cells

    base = generate_random(6, seed=3)
    save_instance(base, sys.argv[1])
    assert main(["solve", sys.argv[1]]) == 0
    assert main(["bench", sys.argv[1], "--solvers", "rpt,greedy",
                 "--jobs", "1", "--out", sys.argv[1] + ".csv"]) == 0
    inst = Instance(base.cost, np.full(6, 0.5), 0, base.name, base.coords)
    log = hpppt.run_mission(inst, GroundTruth.from_targets(6, [2]),
                            SensorModel(0.9, 0.1),
                            MissionConfig(planner="rpt", seed=1))
    before = sorted(m for m in ("scipy", "concurrent.futures.process")
                    if m in sys.modules)
    lab = np.full((3, 3), FREE, dtype=np.uint8)
    lab[1, :2] = OCCUPIED
    path = shortest_path_cells(OccupancyGrid(lab), (2, 0), (0, 0))
    print(json.dumps({"before": before, "steps": len(log.steps),
                      "path": path, "after": "scipy" in sys.modules}))
""")


def test_only_grid_searches_load_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(hpppt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CODE, str(tmp_path / "small.hpt")], env=env,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["before"] == []
    assert out["steps"] > 0
    assert out["path"] == [[2, 0], [2, 1], [2, 2], [1, 2], [0, 2], [0, 1],
                           [0, 0]]
    assert out["after"] is True


def test_all_lists_each_public_name_once():
    names = hpppt.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(hpppt, name), name
    namespace = {}
    exec("from hpppt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)


def test_settings_that_nothing_set_raise_type_error():
    calls = [
        lambda: hpppt.SolverConfig(use_pruning=False),
        lambda: hpppt.generate_random(5, extent=10.0),
        lambda: hpppt.generate_random(5, min_sep=1.0),
        lambda: hpppt.generate_random(5, max_tries=10),
        lambda: forest_world(resolution=0.5),
        lambda: forest_world(sensor_radius=3.0),
        lambda: forest_world(target=(5, 5)),
        lambda: forest_world(robot=(5, 5)),
        lambda: sample_start(None, 0, radius=3.0),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
