"""One fresh process: load a workload's inputs through hpppt, then run whole
rounds of its operations and write what it measured as JSON.

run.py starts this file; it is not meant to be run by hand. Modes:
  setup    import hpppt, load the inputs, report the set-up time, exit;
  measure  also run rounds untraced until the time budget is spent;
  trace    alternate untraced and traced rounds, report per-layer figures.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_WALL_LIMIT = 120.0  # seconds after start; later operations count failed

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import reference  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402
from speed import Sampler  # noqa: E402


def import_package():
    """Import hpppt from this checkout's src/ only."""
    if not os.path.isfile(os.path.join(SRC, "hpppt", "__init__.py")):
        sys.exit(f"no hpppt package under {SRC}")
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(name)
            for name in sorted({t[0] for t in TARGETS} | {"hpppt.formats"})}
    where = os.path.dirname(os.path.abspath(mods["hpppt.solver"].__file__))
    if where != os.path.join(SRC, "hpppt"):
        sys.exit(f"hpppt was imported from {where}, not from {SRC}")
    return mods


def load_inputs(mods, manifest, folder):
    """Load every input file through the package; returns the loaded
    objects and the seconds spent per loader."""
    loaded = []
    spent = {"formats.load_instance_s": 0.0, "grid.load_world_s": 0.0}
    fmt, grid, expl = (mods["hpppt.formats"], mods["hpppt.grid"],
                       mods["hpppt.exploration"])
    for f in manifest["files"]:
        path = os.path.join(folder, f["path"])
        t = time.perf_counter()
        if "config" in f:
            world, sidecar = grid.load_world(
                path, os.path.join(folder, f["config"]))
            obj = (world, expl.PriorField.from_config(sidecar["prior"]))
            spent["grid.load_world_s"] += time.perf_counter() - t
        else:
            obj = fmt.load_instance(path)
            spent["formats.load_instance_s"] += time.perf_counter() - t
        loaded.append(obj)
    return loaded, spent


class Workload:
    """Turns manifest operations into calls on the package and checks the
    outputs of the first round against benchmark-side references."""

    def __init__(self, mods, manifest, loaded):
        self.mods = mods
        self.manifest = manifest
        self.loaded = loaded
        self.costs = {}

    def cost(self, i):
        if i not in self.costs:
            f = self.manifest["files"][i]
            self.costs[i] = inputs.euclidean(np.array(f["coords"]))
        return self.costs[i]

    def run(self, op):
        """Run one operation; returns (failed, digest, task cost, record).
        The digest must repeat exactly in every round."""
        kind = op["kind"]
        if kind == "solve":
            solver = self.mods["hpppt.solver"]
            res = solver.solve(self.loaded[op["file"]], solver.SolverConfig(
                epsilon=op["eps"], time_limit=op["time_limit"]))
            digest = (res.status, res.path, repr(res.cost))
            rec = {"file": op["file"], "eps": op["eps"],
                   "status": res.status,
                   "path": None if res.path is None else list(res.path),
                   "cost": res.cost}
            return res.status != "ok", digest, res.cost or 0.0, rec
        if kind == "mission":
            life = self.mods["hpppt.lifelong"]
            inst = self.loaded[op["file"]]
            log = life.run_mission(
                inst, life.GroundTruth.from_targets(inst.n, op["targets"]),
                life.SensorModel(*op["sensor"]),
                life.MissionConfig(planner=op["planner"],
                                   seed=op["mission_seed"]))
            digest = (log.status, repr(log.duration), len(log.steps),
                      log.classification)
            return False, digest, log.duration, log
        expl = self.mods["hpppt.exploration"]
        world, prior = self.loaded[op["file"]]
        log = expl.run_exploration(
            world, prior, op["planner"],
            expl.ExploreConfig(success_dist=op["success_dist"]),
            name=op["prior"])
        digest = (log.status, repr(log.duration), len(log.steps),
                  log.steps[-1].cell if log.steps else None)
        return False, digest, log.duration, log

    def check(self, op, out):
        """Problems in one output; solve outputs are checked by run.py,
        which holds the Held-Karp reference outside this process."""
        f = self.manifest["files"][op["file"]]
        if op["kind"] == "mission":
            return reference.check_mission(
                self.cost(op["file"]), f["prob"], f["start"], op["sensor"],
                out.status, out.classification, out.duration,
                [(s.vertex, s.reading, s.beliefs) for s in out.steps])
        if op["kind"] == "explore":
            return reference.check_walk(
                np.array(f["occupied"]), f["robot"], f["target"],
                f["resolution"], op["success_dist"], out.status,
                out.duration, [s.cell for s in out.steps])
        return []


def run_round(work, ops, sampler, first):
    """Time every operation of one round at reference speed. Returns the
    round record; the first round also returns its outputs and check
    problems."""
    timed, digests, solved, problems = [], [], [], []
    failed = 0
    task_cost = 0.0
    sampler.samples = []
    for op in ops:
        if time.monotonic() >= sampler.deadline:
            failed += 1
            timed.append(None)
            digests.append(None)
            continue
        try:
            (bad, digest, cost, out), t = sampler.time(work.run, op)
        except Exception:
            traceback.print_exc()
            failed += 1
            timed.append(None)
            digests.append(None)
            continue
        timed.append(t)
        digests.append(digest)
        if bad:
            failed += 1
            continue
        task_cost += cost
        if first:
            if op["kind"] == "solve":
                solved.append(out)
            else:
                problems += work.check(op, out)
    op_s = [None if t is None else sampler.scaled(t) for t in timed]
    return {"op_s": op_s, "failed": failed, "digests": digests,
            "task_cost": task_cost, "solved": solved, "problems": problems}


def layer_metrics(tracer):
    """Per-layer figures of one traced round."""
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0, []))[0]

    def secs(name):
        return tot.get(name, (0, 0.0, 0.0, []))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0, []))[2]

    def pct(name, q):
        each = sorted(tot.get(name, (0, 0.0, 0.0, []))[3])
        if not each:
            return 0.0
        return each[min(len(each) - 1, int(q * len(each)))]

    c = tracer.counts
    solve_s = secs("solver.solve")
    exp = c["solver.expansions"]
    gens = c["solver.generations"]
    return {
        "solver.calls": calls("solver.solve"),
        "solver.solve_s": solve_s,
        "solver.expansions": exp,
        "solver.generations": gens,
        "solver.pruned_extracted": c["solver.pruned_extracted"],
        "solver.pruned_generated": c["solver.pruned_generated"],
        "solver.prune_ratio": ((c["solver.pruned_extracted"]
                                + c["solver.pruned_generated"]) / gens
                               if gens else 0.0),
        "solver.peak_open_max": tracer.peak_open,
        "solver.expansions_per_s": exp / solve_s if solve_s else 0.0,
        "solver.us_per_expansion": 1e6 * solve_s / exp if exp else 0.0,
        "solver.heuristic_table_s": secs("solver.build_heuristic_table"),
        "grid.reveal_s": secs("grid.reveal"),
        "grid.reveal_calls": calls("grid.reveal"),
        "grid.extract_frontiers_s": secs("grid.extract_frontiers"),
        "grid.extract_frontiers_calls": calls("grid.extract_frontiers"),
        "grid.grid_distances_s": secs("grid.grid_distances"),
        "grid.grid_distances_calls": calls("grid.grid_distances"),
        "grid.shortest_path_cells_self_s": own("grid.shortest_path_cells"),
        "exploration.replans": calls("exploration.assign_probability"),
        "exploration.frontier_cells": c["exploration.frontier_cells"],
        "exploration.goals": c["exploration.goals"],
        "exploration.assign_probability_s":
            secs("exploration.assign_probability"),
        "exploration.mean_shift_s": secs("exploration.mean_shift"),
        "exploration.cluster_goals_self_s": own("exploration.cluster_goals"),
        "exploration.build_search_graph_self_s":
            own("exploration.build_search_graph"),
        "exploration.run_self_s": own("exploration.run"),
        "lifelong.replans": calls("lifelong.plan_next"),
        "lifelong.plan_next_s": secs("lifelong.plan_next"),
        "lifelong.plan_next_self_s": own("lifelong.plan_next"),
        "lifelong.plan_next_p50_s": pct("lifelong.plan_next", 0.5),
        "lifelong.plan_next_p99_s": pct("lifelong.plan_next", 0.99),
        "lifelong.update_s": secs("lifelong.update"),
        "baselines.greedy_s": secs("baselines.greedy"),
        "baselines.blind_s": secs("baselines.blind"),
    }


def main():
    started = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before spawn")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    mods = import_package()
    with open(os.path.join(args.dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    loaded, load_s = load_inputs(mods, manifest, args.dir)
    work = Workload(mods, manifest, loaded)
    result = {"setup_s": time.monotonic() - args.spawned}
    if args.mode == "setup":
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return

    sampler = Sampler(started + RUN_WALL_LIMIT)
    tracer = Tracer(mods) if args.mode == "trace" else None
    ops = manifest["ops"]
    rounds, layers = [], []
    first = None
    t_begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        # no kernel runs inside traced operations, so spans stay unpadded
        sampler.inside = not traced
        t_round = time.perf_counter()
        try:
            rec = run_round(work, ops, sampler, first is None)
        finally:
            if traced:
                tracer.uninstall()
        rec["traced"] = traced
        rec["round_s"] = time.perf_counter() - t_round
        if traced:
            layers.append(layer_metrics(tracer))
        if first is None:
            first = rec
        rounds.append(rec)
        spent = time.perf_counter() - t_begin
        if tracer is not None and not traced:
            continue
        # one more round (an untraced and a traced one when tracing) must
        # end within the budget
        per_step = rec["round_s"] * (1 if tracer is None else 2)
        if (spent + per_step > args.seconds
                or time.monotonic() >= sampler.deadline):
            break
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)

    mismatched = sum(
        1 for r in rounds for a, b in zip(r["digests"], first["digests"])
        if a is not None and b is not None and a != b)
    result.update({
        "attempted": len(ops) * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "task_cost": first["task_cost"],
        "solved": first["solved"],
        "problems": first["problems"] + (
            [f"{mismatched} outputs differ from the first round"]
            if mismatched else []),
        "rounds": [{"traced": r["traced"], "op_s": r["op_s"]}
                   for r in rounds],
    })
    if layers:
        merged = {k: statistics.median(m[k] for m in layers)
                  for k in layers[0]}
        merged.update(load_s)
        result["layers"] = merged
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
