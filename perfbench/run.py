"""hpppt benchmark: one workload per call, measured in fresh processes.

  python3 perfbench/run.py --workload solve-lowp --seed 1 --seconds 25 --trace 0

Makes the workload's inputs from the seed under perfbench/_work/, times
set-up in several fresh processes, runs whole rounds of the workload's
operations in one more, checks every output against references computed
here, and prints one JSON line last: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import inputs  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402

SETUP_PROBES = 6        # set-up-only processes besides the measuring one
WORKER_TIMEOUT = 140.0  # seconds; the worker stops its own work at 120 s


def spawn(mode, folder, seconds):
    """Run worker.py in a fresh process and return what it wrote, with its
    set-up time scaled to reference speed by reference processes around
    it."""
    out = os.path.join(folder, f"result-{mode}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--dir", folder,
           "--mode", mode, "--seconds", str(seconds), "--out", out,
           "--spawned"]
    before = speed.start_s()
    spawned = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawned)], cwd=ROOT,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0 or not os.path.exists(out):
        sys.exit(f"worker ({mode}) exited with code {proc.returncode}")
    with open(out) as fh:
        res = json.load(fh)
    # the measuring process has run its rounds since its set-up ended
    after = speed.start_s() if mode == "setup" else before
    res["setup_s"] = speed.scaled_start(res["setup_s"], [before, after])
    return res


def solve_problems(manifest, solved):
    """Check every solve output against the Held-Karp optimum or the
    constructed orders; one Held-Karp table per input file."""
    problems = []
    optimum = {}
    for rec in solved:
        f = manifest["files"][rec["file"]]
        cost = inputs.euclidean(np.array(f["coords"]))
        prob = np.array(f["prob"])
        if (len(prob) <= reference.HELD_KARP_MAX_N
                and rec["file"] not in optimum):
            optimum[rec["file"]] = reference.held_karp(cost, prob,
                                                       f["start"])
        found = reference.check_solve(cost, prob, f["start"], rec["eps"],
                                      rec["status"], rec["path"], rec["cost"],
                                      optimum.get(rec["file"]))
        problems += [f"{f['path']} eps={rec['eps']}: {p}" for p in found]
    return problems


def per_op_median(rounds, traced):
    """Median reference-speed time of each operation over the rounds that
    ran it."""
    times = [r["op_s"] for r in rounds if r["traced"] == traced]
    out = []
    for ts in zip(*times):
        ran = [t for t in ts if t is not None]
        if ran:
            out.append(statistics.median(ran))
    return out


def environment(seed):
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy"),
            "seed": seed}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hpppt", "__init__.py")):
        sys.exit(f"no hpppt sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    folder = os.path.join(HERE, "_work", f"{args.workload}-s{args.seed}")
    manifest = inputs.make_inputs(args.workload, args.seed, folder)
    print("env " + json.dumps(environment(args.seed)), flush=True)

    if args.trace:
        res = spawn("trace", folder, args.seconds)
        setups = []
    else:
        setups = [spawn("setup", folder, 0)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = spawn("measure", folder, args.seconds)
        setups.append(res["setup_s"])
    problems = res["problems"] + solve_problems(manifest, res["solved"])
    for p in problems:
        print("problem: " + p, file=sys.stderr)

    plain = per_op_median(res["rounds"], traced=False)
    run_s = sum(plain)
    if args.trace:
        traced = sum(per_op_median(res["rounds"], traced=True))
        values = dict(res["layers"], **{"trace.overhead_s": traced - run_s})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "op_p50_s": statistics.median(plain) if plain else 0.0,
            "peak_rss_mb": res["peak_rss_mb"],
            "task_cost": res["task_cost"],
        }
    if set(values) != set(units):
        sys.exit(f"measured {sorted(values)}, BENCHMARK.json declares "
                 f"{sorted(units)}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
