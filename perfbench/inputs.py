"""Seeded inputs for the four benchmark workloads, made without hpppt.

Each workload starts from a fixed base set drawn from BASE_SEED, and the
run seed perturbs it: it jitters coordinates by 0.1% of the field, and
for the solve workloads it also scales probabilities by up to 2%;
solve-lowp also relabels the vertices. Independent draws
per seed would be a different benchmark each run: at p_max = 0.1 the same
size takes anywhere from 0.02 s to 8 s, and a dozen such solves cannot
average that out. The forest world of `explore-forest` does not depend on
the seed at all (see README.md).

Run as a script to write one workload's inputs:

    python3 perfbench/inputs.py --workload solve-lowp --seed 1 --out DIR
"""

import argparse
import json
import math
import os
import shutil
from collections import deque

import numpy as np

BASE_SEED = 20260117
JITTER = 0.001          # coordinate jitter, share of the field extent
PROB_SCALE = 0.02       # probabilities scaled by U(1 - s, 1 + s)
WORKLOADS = ("solve-lowp", "solve-wide", "lifelong-replan", "explore-forest")

# (n, p_max, field extent, solver epsilon); each row is one instance and one
# solve. solve-lowp alternates exact and focal solves within each size.
SOLVE_LOWP = [(n, 0.1, 500.0, (0.0, 0.05)[k % 2])
              for n, count in ((13, 20), (14, 20), (15, 6))
              for k in range(count)]
SOLVE_WIDE = ([(n, 0.9, 500.0, 0.0) for n in range(28, 41)] * 9
              + [(200, 0.9, 5000.0, 0.01)] * 3)
SOLVE_TIME_LIMIT = 60.0

LIFELONG_SIZES = (20, 22, 24)
LIFELONG_BELIEF = 0.5
LIFELONG_TARGETS = 3
LIFELONG_SENSOR = (0.8, 0.4)
LIFELONG_PLANNERS = ("rpt", "greedy", "blind")
LIFELONG_MISSIONS = 12  # per graph and planner

FOREST = {"size": 100, "trees": 90, "world_seed": 0, "sigma": 40.0,
          "weights": [0.2, 0.1, 0.7], "resolution": 1.0,
          "sensor_radius": 10.0}
SUCCESS_DIST = 5.0


def euclidean(coords):
    """Cost matrix exactly as the .hpt reader derives it from COORDS."""
    delta = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((delta ** 2).sum(axis=2))


def _perturbed(index, n, p_max, extent, seed, tag, relabel=True):
    """Base instance number index of size n, perturbed by seed."""
    base = np.random.default_rng((BASE_SEED, tag, n, index))
    coords = base.uniform(0.0, extent, (n, 2))
    prob = base.uniform(0.0, p_max, n)
    rng = np.random.default_rng((seed, tag, n, index))
    coords = coords + rng.normal(0.0, JITTER * extent, coords.shape)
    prob = prob * rng.uniform(1.0 - PROB_SCALE, 1.0 + PROB_SCALE, n)
    perm = rng.permutation(n) if relabel else np.arange(n)
    start = int(np.flatnonzero(perm == 0)[0])
    return coords[perm], prob[perm], start


def _write_hpt(path, name, coords, prob, start, seed):
    lines = [f"NAME {name}", f"N {len(prob)}", f"START {start}",
             f"SEED {seed}", "PROB " + " ".join(repr(float(p)) for p in prob),
             "COORDS"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in coords]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _solve_inputs(rows, tag, seed, out, relabel=True):
    files, ops = [], []
    for i, (n, p_max, extent, eps) in enumerate(rows):
        k = sum(1 for row in rows[:i] if row[0] == n)
        coords, prob, start = _perturbed(k, n, p_max, extent, seed, tag,
                                         relabel)
        name = f"{WORKLOADS[tag]}-{i:02d}-n{n}"
        _write_hpt(os.path.join(out, name + ".hpt"), name, coords, prob,
                   start, seed)
        files.append({"path": name + ".hpt", "coords": coords.tolist(),
                      "prob": prob.tolist(), "start": start})
        ops.append({"kind": "solve", "file": i, "eps": eps,
                    "time_limit": SOLVE_TIME_LIMIT})
    return files, ops


def _lifelong_inputs(seed, out):
    tag = WORKLOADS.index("lifelong-replan")
    files, ops = [], []
    # missions are chaotic: one relabelling, one other sensor draw or a
    # 0.1% jitter of the vertices sends a mission down another path, and
    # with jittered vertices op_p50_s spread 19% over five seeds. So the
    # graphs, targets and sensor draws come from the base draw, and the seed
    # only rotates and shifts each graph, which keeps every distance.
    rng = np.random.default_rng((BASE_SEED, tag))
    for i, n in enumerate(LIFELONG_SIZES):
        base = np.random.default_rng((BASE_SEED, tag, n, i))
        coords = base.uniform(0.0, 500.0, (n, 2))
        move = np.random.default_rng((seed, tag, n, i))
        turn = move.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(turn), -math.sin(turn)],
                        [math.sin(turn), math.cos(turn)]])
        coords = coords @ rot.T + move.uniform(-500.0, 500.0, 2)
        start = 0
        prob = np.full(n, LIFELONG_BELIEF)
        name = f"lifelong-{i:02d}-n{n}"
        _write_hpt(os.path.join(out, name + ".hpt"), name, coords, prob,
                   start, seed)
        files.append({"path": name + ".hpt", "coords": coords.tolist(),
                      "prob": prob.tolist(), "start": start})
        targets = sorted(int(t) for t in
                         rng.choice(n, LIFELONG_TARGETS, replace=False))
        for planner in LIFELONG_PLANNERS:
            for _ in range(LIFELONG_MISSIONS):
                ops.append({"kind": "mission", "file": i, "planner": planner,
                            "targets": targets,
                            "mission_seed": int(rng.integers(2 ** 31)),
                            "sensor": list(LIFELONG_SENSOR)})
    return files, ops


def forest_labels(size, trees, world_seed):
    """Border walls and square tree blobs (1 for occupied), regenerated
    until the robot at (size/5, size/5) can reach the target at
    (4 size/5, 4 size/5). Returns (labels, robot, target)."""
    for attempt in range(64):
        rng = np.random.default_rng((world_seed, attempt))
        occ = np.zeros((size, size), dtype=np.uint8)
        occ[0, :] = occ[-1, :] = 1
        occ[:, 0] = occ[:, -1] = 1
        for _ in range(trees):
            r = int(rng.integers(2, size - 3))
            c = int(rng.integers(2, size - 3))
            s = int(rng.integers(1, 3))
            occ[r:r + s, c:c + s] = 1
        target = (size - size // 5, size - size // 5)
        robot = (size // 5, size // 5)
        occ[target] = occ[robot] = 0
        if _connected(occ, robot, target):
            return occ, robot, target
    raise RuntimeError("no connected forest world in 64 attempts")


def _connected(occ, src, dst):
    seen = {src}
    todo = deque([src])
    h, w = occ.shape
    while todo:
        r, c = todo.popleft()
        if (r, c) == dst:
            return True
        for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if (0 <= nr < h and 0 <= nc < w and not occ[nr, nc]
                    and (nr, nc) not in seen):
                seen.add((nr, nc))
                todo.append((nr, nc))
    return False


def _explore_inputs(out):
    f = FOREST
    occ, robot, target = forest_labels(f["size"], f["trees"], f["world_seed"])
    rows = []
    for r in range(occ.shape[0]):
        chars = ["#" if v else "." for v in occ[r]]
        if r == robot[0]:
            chars[robot[1]] = "R"
        if r == target[0]:
            chars[target[1]] = "T"
        rows.append("".join(chars))
    with open(os.path.join(out, "forest.map"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    res = f["resolution"]
    var = f["sigma"] ** 2
    ops = []
    # the misleading prior mirrors the target across the vertical midline
    for kind, col in (("accurate", target[1]),
                      ("misleading", occ.shape[1] - 1 - target[1])):
        sidecar = {
            "resolution": res, "sensor_radius": f["sensor_radius"],
            "fov": 2.0 * math.pi,
            "prior": {"gaussians": [{"mean": [(col + 0.5) * res,
                                              (target[0] + 0.5) * res],
                                     "cov": [[var, 0.0], [0.0, var]]}],
                      "weights": f["weights"]}}
        with open(os.path.join(out, f"forest-{kind}.json"), "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
        ops.append({"kind": "explore", "file": len(ops), "prior": kind,
                    "planner": "rpt", "success_dist": SUCCESS_DIST})
    files = [{"path": "forest.map", "config": f"forest-{kind}.json",
              "occupied": occ.tolist(), "robot": list(robot),
              "target": list(target), "resolution": res}
             for kind in ("accurate", "misleading")]
    return files, ops


def make_inputs(workload, seed, out):
    """Write one workload's input files into out with a manifest.json that
    lists the files and the operations of one round. An existing out is
    emptied first, but only when it is empty or holds an earlier manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if (os.path.isdir(out) and os.listdir(out)
            and not os.path.exists(os.path.join(out, "manifest.json"))):
        raise ValueError(f"{out} holds files that are not benchmark inputs")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if workload == "solve-lowp":
        files, ops = _solve_inputs(SOLVE_LOWP, 0, seed, out)
    elif workload == "solve-wide":
        # labels steer the solver's tie-breaks: at p_max = 0.9 one solve took
        # 6.9 ms under one labelling and 16.3 ms under another, and
        # op_p50_s moved with the seed on top of the machine's own drift
        files, ops = _solve_inputs(SOLVE_WIDE, 1, seed, out, relabel=False)
    elif workload == "lifelong-replan":
        files, ops = _lifelong_inputs(seed, out)
    else:
        files, ops = _explore_inputs(out)
    manifest = {"workload": workload, "seed": seed, "files": files,
                "ops": ops}
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return manifest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    m = make_inputs(args.workload, args.seed, args.out)
    print(f"{len(m['ops'])} operations per round; inputs in {args.out}")


if __name__ == "__main__":
    main()
