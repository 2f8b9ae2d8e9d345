"""Command-line front end: gen, solve, bench, lifelong, explore."""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bench as bench_mod
from .bench import BenchConfigError, parse_sizes, parse_solver
from .exploration import (ExploreConfig, PriorField, forest_world,
                          run_exploration, sample_start, with_start)
from .formats import (FormatError, UnsupportedFormatError, load_instance,
                      read_tour, save_instance)
from .generate import GenerationError, derive_seed, generate_random
from .grid import WorldFormatError, load_world
from .instance import (Instance, InvalidInstanceError, InvalidPathError,
                       MetricViolationError)
from .lifelong import (PLANNERS, GroundTruth, MissionConfig, SensorModel,
                       run_mission)
from .solver import DEFAULT_TIME_LIMIT, InvalidConfigError

TIME_LIMIT_ENV = "HPPPT_TIME_LIMIT_SECS"

CONFIG_ERRORS = (BenchConfigError, FormatError, UnsupportedFormatError,
                 GenerationError, WorldFormatError, InvalidInstanceError,
                 InvalidPathError, MetricViolationError, InvalidConfigError,
                 ValueError, OSError)


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """Parent parser holding one flag; each subcommand lists the flags it
    reads, so a flag it would ignore is rejected by argparse."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*names, **kwargs)
    return p


def resolve_time_limit(explicit) -> float:
    if explicit is None:
        env = os.environ.get(TIME_LIMIT_ENV)
        if env is None:
            return DEFAULT_TIME_LIMIT
        try:
            explicit = float(env)
        except ValueError:
            raise BenchConfigError(
                f"bad {TIME_LIMIT_ENV} value {env!r}") from None
    if not (explicit > 0 and math.isfinite(explicit)):
        raise BenchConfigError(f"time limit must be positive, got {explicit}")
    return float(explicit)


def _reject_moot(what: str, flags) -> None:
    """Exit 2 when flags given explicitly (not None) have no effect."""
    given = [name for name, value in flags if value is not None]
    if given:
        verb = "does" if len(given) == 1 else "do"
        raise BenchConfigError(f"{', '.join(given)} {verb} not apply to "
                               f"{what}")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    if args.count < 1:
        raise BenchConfigError("--count must be >= 1")
    sizes = parse_sizes(args.sizes)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    for source in bench_mod.generated_sources(sizes, args.count, args.seed,
                                              args.p_max):
        inst = bench_mod.make_instance(source["n"], source["index"],
                                       args.seed, args.p_max)
        path = os.path.join(out_dir, source["name"] + ".hpt")
        save_instance(inst, path)
        print(path)
    return 0


def cmd_solve(args) -> int:
    time_limit = resolve_time_limit(args.time_limit)
    spec = parse_solver(args.solver)
    if args.time_limit is not None and spec.kind != "rpt":
        raise BenchConfigError(f"--time-limit does not apply to {spec.kind}")
    if args.tour_file is not None and spec.kind != "blind":
        raise BenchConfigError(f"--tour-file does not apply to {spec.kind}")
    inst = load_instance(args.instance, metric_closure=args.metric_closure)
    tour = read_tour(args.tour_file, inst) if args.tour_file else None
    res = bench_mod.run_solver(inst, spec, time_limit, tour=tour)
    name = inst.name or os.path.splitext(os.path.basename(args.instance))[0]
    record = {
        "instance": name, "n": inst.n, "solver": spec.token,
        "status": res.status,
        "cost": res.cost, "path": list(res.path) if res.path else None,
        "expansions": res.stats.expansions,
        "generations": res.stats.generations,
        "pruned_extracted": res.stats.pruned_extracted,
        "pruned_generated": res.stats.pruned_generated,
        "pruned_bound": res.stats.pruned_bound,
        "peak_open": res.stats.peak_open,
        "root_bound": res.stats.root_bound,
        "upper_bound": res.stats.upper_bound,
        "wall_time": round(res.stats.wall_time, 6),
    }
    _emit(json.dumps(record) + "\n", args.out)
    return 0 if res.status in bench_mod.ACCEPTED_STATUSES else 1


def cmd_bench(args) -> int:
    time_limit = resolve_time_limit(args.time_limit)
    solvers = [t.strip() for t in args.solvers.split(",") if t.strip()]
    if not any(parse_solver(t).kind == "rpt" for t in solvers):
        _reject_moot("a grid without rpt tokens",
                     [("--time-limit", args.time_limit)])
    if args.count is not None and args.count < 1:
        raise BenchConfigError("--count must be >= 1")
    if args.instances:
        _reject_moot("instance files",
                     [("--sizes", args.sizes), ("--count", args.count),
                      ("--p-max", args.p_max), ("--seed", args.seed)])
        sources = bench_mod.file_sources(args.instances, args.metric_closure)
    elif args.sizes:
        sources = bench_mod.generated_sources(
            parse_sizes(args.sizes), 5 if args.count is None else args.count,
            0 if args.seed is None else args.seed,
            0.9 if args.p_max is None else args.p_max)
    else:
        raise BenchConfigError("need instance files or --sizes")
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    rows = bench_mod.run_grid(sources, solvers, reps=args.reps,
                              time_limit=time_limit, jobs=jobs)
    csv_text = bench_mod.rows_to_csv(rows)
    summary = bench_mod.summary_table(rows) if rows else ""
    if args.out:
        _emit(csv_text, args.out)
        if summary:
            sys.stdout.write(summary)
    else:
        sys.stdout.write(csv_text)
        if summary:
            sys.stderr.write(summary)
    return bench_mod.grid_exit_code(rows)


def _parse_planners(text: str) -> list:
    out = [t.strip() for t in text.split(",") if t.strip()]
    if not out:
        raise BenchConfigError("need at least one planner")
    for t in out:
        if t not in PLANNERS:
            raise BenchConfigError(
                f"unknown planner {t!r} (expected one of {', '.join(PLANNERS)})")
    return out


def _parse_targets(text: str, n: int, seed: int) -> list:
    if text.startswith("random:"):
        try:
            k = int(text.partition(":")[2])
        except ValueError:
            raise BenchConfigError(f"bad target spec {text!r}") from None
        if not (0 <= k <= n):
            raise BenchConfigError(f"target count {k} out of range for n={n}")
        rng = np.random.default_rng(derive_seed(seed, 202))
        return sorted(int(v) for v in rng.choice(n, size=k, replace=False))
    try:
        out = sorted({int(t) for t in text.split(",") if t.strip()})
    except ValueError:
        raise BenchConfigError(f"bad target spec {text!r}") from None
    return out


def cmd_lifelong(args) -> int:
    if not (0.0 < args.init_belief < 1.0):
        raise BenchConfigError("--init-belief must lie in (0, 1)")
    if args.trials < 1:
        raise BenchConfigError("--trials must be >= 1")
    if args.instance:
        _reject_moot("an instance file", [("--n", args.n)])
        base = load_instance(args.instance)
        name = base.name or os.path.basename(args.instance)
    else:
        base = generate_random(13 if args.n is None else args.n,
                               seed=derive_seed(args.seed, 101))
        name = base.name
    beliefs = np.full(base.n, args.init_belief)
    inst = Instance(base.cost, beliefs, base.start, name, base.coords,
                    base.seed)
    targets = _parse_targets(args.targets, inst.n, args.seed)
    truth = GroundTruth.from_targets(inst.n, targets)
    sensor = SensorModel(args.alpha1, args.alpha2)
    planners = _parse_planners(args.planners)
    # every config is checked before the CSV header goes out
    cfgs = [MissionConfig(planner=planner, seed=args.seed + trial,
                          p_high=args.p_high, p_low=args.p_low,
                          max_steps=args.max_steps)
            for planner in planners for trial in range(args.trials)]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    w = sys.stdout
    w.write("planner,seed,status,duration,steps,misclassified,"
            "classification\n")
    for cfg in cfgs:
        log = run_mission(inst, truth, sensor, cfg)
        labels = ";".join(c or "undecided" for c in log.classification)
        w.write(f"{cfg.planner},{cfg.seed},{log.status},"
                f"{log.duration:.12g},{len(log.steps)},{log.misclassified},"
                f"{labels}\n")
        if args.out:
            path = os.path.join(args.out,
                                f"mission-{cfg.planner}-s{cfg.seed}.jsonl")
            with open(path, "w") as fh:
                fh.write(log.to_json_lines())
    return 0


def _demo_world(kind: str, seed: int):
    world = forest_world(size=100, n_trees=90, seed=derive_seed(seed, 303),
                         sensor_radius=10.0)
    if kind == "accurate":
        mean = world.truth.center(world.target)
    else:
        r, c = world.target
        mean = world.truth.center((r, world.truth.shape[1] - 1 - c))
    # sigma = 40 m so the prior reaches the start; heavy object weight
    prior = PriorField(gaussians=((mean, ((1600.0, 0.0), (0.0, 1600.0))),),
                       weights=(0.2, 0.1, 0.7))
    return world, prior, f"forest-{kind}"


def cmd_explore(args) -> int:
    time_limit = resolve_time_limit(args.time_limit)
    if args.trials < 1:
        raise BenchConfigError("--trials must be >= 1")
    planners = _parse_planners(args.planners)
    if "rpt" not in planners:
        _reject_moot("planners without rpt",
                     [("--time-limit", args.time_limit)])
    worlds = []
    if args.demo:
        worlds.append(_demo_world(args.demo, args.seed))
    for path in args.worlds:
        world, sidecar = load_world(path)
        prior = PriorField.from_config(sidecar.get("prior", {}))
        name = os.path.splitext(os.path.basename(path))[0]
        worlds.append((world, prior, name))
    if not worlds:
        raise BenchConfigError("need a world map or --demo")
    cfg = ExploreConfig(max_steps=args.max_steps,
                        plan_time_limit=time_limit)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    w = sys.stdout
    w.write("world,planner,trial,seed,status,duration,steps,revealed\n")
    for world, prior, name in worlds:
        for planner in planners:
            for trial in range(args.trials):
                seed = args.seed + trial
                trial_world = world
                if trial > 0:
                    trial_world = with_start(world,
                                             sample_start(world, seed))
                log = run_exploration(trial_world, prior, planner, cfg,
                                      seed=seed, name=name)
                revealed = log.steps[-1].revealed if log.steps else 0
                w.write(f"{name},{planner},{trial},{seed},{log.status},"
                        f"{log.duration:.12g},{len(log.steps)},{revealed}\n")
                if args.out:
                    path = os.path.join(
                        args.out, f"explore-{name}-{planner}-t{trial}.jsonl")
                    with open(path, "w") as fh:
                        fh.write(log.to_json_lines())
    return 0


def build_parser() -> argparse.ArgumentParser:
    seed = _flag("--seed", type=int, default=0,
                 help="base seed for all derived randomness (default 0)")
    time_limit = _flag("--time-limit", type=float, default=None,
                       metavar="SECS",
                       help=f"rpt only: per-solve limit; falls back to "
                            f"${TIME_LIMIT_ENV} then 60")
    jobs = _flag("--jobs", type=int, default=None,
                 help="worker processes for grids (default: logical cores)")
    out = _flag("--out", default=None,
                help="output file (solve, bench) or directory "
                     "(gen, lifelong, explore)")
    p = argparse.ArgumentParser(
        prog="hpppt",
        description="Expected-cost path solver over graphs with "
                    "probabilistic terminals, plus benchmark and "
                    "simulation harnesses.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[seed, out],
                       help="write seeded random .hpt instance files")
    g.add_argument("--sizes", required=True,
                   help="vertex counts: 'a..b:step' or comma list")
    g.add_argument("--count", type=int, default=20,
                   help="instances per size (default 20)")
    g.add_argument("--p-max", type=float, default=0.9,
                   help="probability upper bound (default 0.9)")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", parents=[time_limit, out],
                       help="solve one instance, print a JSON record")
    s.add_argument("instance", help=".hpt or TSPLIB file")
    s.add_argument("--solver", default="rpt",
                   help="rpt[-noh][:EPS], greedy, blind or oracle")
    s.add_argument("--metric-closure", action="store_true",
                   help="repair triangle-inequality violations on load")
    s.add_argument("--tour-file", default=None,
                   help="blind only: precomputed visiting order")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", parents=[time_limit, jobs, out],
                       help="run a solver grid, emit CSV plus a summary")
    b.add_argument("instances", nargs="*",
                   help="instance files; omit to generate via --sizes")
    # the generation flags default to None so that one given together with
    # instance files can be rejected; cmd_bench applies the defaults
    b.add_argument("--sizes", default=None,
                   help="generate instances of these sizes")
    b.add_argument("--count", type=int, default=None,
                   help="generated instances per size (default 5)")
    b.add_argument("--p-max", type=float, default=None,
                   help="generated probability upper bound (default 0.9)")
    b.add_argument("--seed", type=int, default=None,
                   help="seed of the generated instances (default 0)")
    b.add_argument("--solvers", default="rpt",
                   help="comma list of solver tokens (default rpt)")
    b.add_argument("--reps", type=int, default=1,
                   help="repetitions per instance x solver (default 1)")
    b.add_argument("--metric-closure", action="store_true")
    b.set_defaults(func=cmd_bench)

    m = sub.add_parser("lifelong", parents=[seed, out],
                       help="run Bayesian target-search missions")
    m.add_argument("instance", nargs="?", default=None,
                   help="travel-cost instance; omit to generate --n vertices")
    m.add_argument("--n", type=int, default=None,
                   help="generated mission size (default 13); not with a "
                        "file")
    m.add_argument("--planners", default="rpt",
                   help="comma list: rpt, greedy, blind")
    m.add_argument("--trials", type=int, default=1,
                   help="missions per planner (default 1)")
    m.add_argument("--targets", default="random:2",
                   help="'i,j,...' ground-truth vertices or 'random:K'")
    m.add_argument("--alpha1", type=float, default=0.8,
                   help="P(detection | present) (default 0.8)")
    m.add_argument("--alpha2", type=float, default=0.4,
                   help="P(detection | absent) (default 0.4)")
    m.add_argument("--p-high", type=float, default=0.98)
    m.add_argument("--p-low", type=float, default=0.15)
    m.add_argument("--init-belief", type=float, default=0.5)
    m.add_argument("--max-steps", type=int, default=10_000)
    m.set_defaults(func=cmd_lifelong)

    e = sub.add_parser("explore", parents=[seed, time_limit, out],
                       help="run frontier-exploration simulations")
    e.add_argument("worlds", nargs="*",
                   help="world map files (with optional <map>.json sidecar)")
    e.add_argument("--demo", choices=("accurate", "misleading"), default=None,
                   help="built-in forest world with a prior at (accurate) "
                        "or away from (misleading) the target")
    e.add_argument("--planners", default="rpt")
    e.add_argument("--trials", type=int, default=3,
                   help="trials per world x planner (default 3)")
    e.add_argument("--max-steps", type=int, default=20_000)
    e.set_defaults(func=cmd_explore)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
