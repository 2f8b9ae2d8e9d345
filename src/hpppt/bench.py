"""Benchmark grids: instances x solvers x repetitions, rendered as CSV.

Rows are deterministic for fixed seeds regardless of worker count or
completion order; only the wall_time column varies between reruns.
"""

import csv
import io
import os
import sys
from dataclasses import dataclass

from .baselines import (ORACLE_CAP, blind_hpp_solve, greedy_solve,
                        oracle_solve)
from .formats import load_instance
from .generate import assign_probabilities, derive_seed, generate_random
from .instance import Instance
from .solver import DEFAULT_TIME_LIMIT, SolverConfig, solve

CSV_HEADER = ("instance", "n", "solver", "eps", "heuristic", "status",
              "cost", "cost_ratio", "expansions", "prunes", "wall_time")

ACCEPTED_STATUSES = frozenset({"ok", "timeout"})


class BenchConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SolverSpec:
    """Parsed solver token. Tokens: rpt, rpt:EPS, rpt-noh, rpt-noh:EPS,
    greedy, blind, oracle."""
    token: str
    kind: str
    epsilon: float = 0.0
    use_heuristic: bool = True


def parse_solver(token: str) -> SolverSpec:
    base, sep, tail = token.partition(":")
    eps = 0.0
    if sep:
        try:
            eps = float(tail)
        except ValueError:
            raise BenchConfigError(
                f"bad epsilon in solver token {token!r}") from None
        if eps < 0 or not eps == eps:
            raise BenchConfigError(f"epsilon must be >= 0 in {token!r}")
    if base == "rpt":
        return SolverSpec(token, "rpt", eps, True)
    if base == "rpt-noh":
        return SolverSpec(token, "rpt", eps, False)
    if base in ("greedy", "blind", "oracle"):
        if sep:
            raise BenchConfigError(f"{base} takes no epsilon ({token!r})")
        return SolverSpec(token, base)
    raise BenchConfigError(
        f"unknown solver {token!r} (expected rpt[-noh][:EPS], greedy, "
        "blind or oracle)")


def parse_sizes(text: str) -> list:
    """Size list: 'a..b', 'a..b:step' (inclusive) or comma-separated ints."""
    text = text.strip()
    try:
        if ".." in text:
            span, sep, step_s = text.partition(":")
            a_s, _, b_s = span.partition("..")
            a, b = int(a_s), int(b_s)
            step = int(step_s) if sep else 1
            if step < 1:
                raise BenchConfigError(f"size step must be >= 1 in {text!r}")
            if a > b:
                raise BenchConfigError(f"empty size range {text!r}")
            out = list(range(a, b + 1, step))
        else:
            out = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise BenchConfigError(f"bad size spec {text!r}") from None
    if not out:
        raise BenchConfigError(f"size spec {text!r} names no sizes")
    if any(n < 1 for n in out):
        raise BenchConfigError("sizes must be positive")
    return out


def make_instance(n: int, index: int, base_seed: int,
                  p_max: float = 0.9) -> Instance:
    """Seeded benchmark instance: Euclidean points on the size-dependent
    extent, probabilities uniform in [0, p_max). Point and probability
    streams are derived independently from (base_seed, n, index)."""
    pt_seed = derive_seed(base_seed, n, index, 0)
    pr_seed = derive_seed(base_seed, n, index, 1)
    inst = assign_probabilities(generate_random(n, seed=pt_seed), pr_seed,
                                p_max)
    name = f"rand-n{n:03d}-k{index:02d}-s{base_seed}"
    return Instance(inst.cost, inst.prob, inst.start, name, inst.coords,
                    inst.seed)


def generated_sources(sizes, count: int, base_seed: int,
                      p_max: float = 0.9) -> list:
    """(name, Instance) pairs, each built once by make_instance."""
    if count < 0:
        raise BenchConfigError("count must be >= 0")
    if not (0.0 <= p_max < 1.0):
        raise BenchConfigError(f"p-max must lie in [0, 1), got {p_max}")
    insts = [make_instance(n, k, base_seed, p_max)
             for n in sizes for k in range(count)]
    return [(inst.name, inst) for inst in insts]


def file_sources(paths, metric_closure: bool = False) -> list:
    """(name, Instance) pairs, each file loaded once; a pair's name is its
    file name without the extension."""
    return [(os.path.splitext(os.path.basename(str(path)))[0],
             load_instance(path, metric_closure=metric_closure))
            for path in paths]


def run_solver(inst: Instance, spec: SolverSpec, time_limit: float,
               tour=None):
    """Run the solver a parsed token names. tour (a precomputed visiting
    order) applies to blind; others ignore it."""
    if spec.kind == "rpt":
        return solve(inst, SolverConfig(epsilon=spec.epsilon,
                                        use_heuristic=spec.use_heuristic,
                                        time_limit=time_limit))
    if spec.kind == "greedy":
        return greedy_solve(inst)
    if spec.kind == "blind":
        return blind_hpp_solve(inst, tour=tour)
    return oracle_solve(inst)


def _run_one(job: dict) -> dict:
    spec = parse_solver(job["solver"])
    row = {
        "key": job["key"], "instance": job["name"], "n": job["inst"].n,
        "solver": spec.token, "kind": spec.kind, "eps": spec.epsilon,
        "heuristic": spec.use_heuristic, "rep": job["rep"],
        "status": "error", "cost": None, "cost_ratio": None,
        "expansions": 0, "prunes": 0, "wall_time": 0.0,
    }
    try:
        res = run_solver(job["inst"], spec, job["time_limit"])
    except Exception as exc:
        print(f"bench: {job['name']} / {spec.token}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return row
    row["status"] = res.status
    row["cost"] = res.cost
    row["expansions"] = res.stats.expansions
    row["prunes"] = res.stats.prunes
    row["wall_time"] = res.stats.wall_time
    return row


def run_grid(sources, solver_tokens, reps: int = 1,
             time_limit: float = DEFAULT_TIME_LIMIT, jobs: int = 1) -> list:
    """Run every (name, Instance) source x solver x repetition; returns
    rows sorted by (instance, solver, repetition) with cost ratios
    attached. Ratios compare rows of the same source position."""
    if reps < 1:
        raise BenchConfigError("repetitions must be >= 1")
    if jobs < 1:
        raise BenchConfigError("jobs must be >= 1")
    specs = [parse_solver(t) for t in solver_tokens]
    if not specs:
        raise BenchConfigError("need at least one solver")
    if any(spec.kind == "oracle" for spec in specs):
        for name, inst in sources:
            if inst.n > ORACLE_CAP:
                raise BenchConfigError(
                    f"oracle is capped at {ORACLE_CAP} vertices; "
                    f"{name} has {inst.n}")
    jobs_list = [
        {"key": key, "name": name, "inst": inst, "solver": spec.token,
         "rep": rep, "time_limit": time_limit}
        for key, (name, inst) in enumerate(sources)
        for spec in specs for rep in range(reps)
    ]
    if jobs == 1 or len(jobs_list) <= 1:
        rows = [_run_one(j) for j in jobs_list]
    else:
        # imported here: the pool's multiprocessing stack costs about
        # 25 ms of start-up to every command that never builds one
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(_run_one, jobs_list))
    rows.sort(key=lambda r: (r["instance"], r["solver"], r["rep"]))
    attach_ratios(rows)
    return rows


def best_known(instance_rows) -> float | None:
    """Reference cost for ratios: the oracle result when present, else the
    best result from the optimal-solver family in the same grid."""
    oracle = [r["cost"] for r in instance_rows
              if r["kind"] == "oracle" and r["status"] == "ok"]
    if oracle:
        return min(oracle)
    exact = [r["cost"] for r in instance_rows
             if r["kind"] == "rpt" and r["status"] == "ok"]
    if exact:
        return min(exact)
    return None


def attach_ratios(rows) -> None:
    by_key: dict = {}
    for r in rows:
        by_key.setdefault(r["key"], []).append(r)
    for group in by_key.values():
        ref = best_known(group)
        for r in group:
            if ref and r["status"] == "ok" and r["cost"] is not None:
                r["cost_ratio"] = r["cost"] / ref
            else:
                r["cost_ratio"] = None


def _fmt_float(x, spec="%.12g") -> str:
    return "" if x is None else spec % x


def rows_to_csv(rows) -> str:
    sio = io.StringIO()
    w = csv.writer(sio, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in rows:
        rpt_family = r["kind"] == "rpt"
        w.writerow((
            r["instance"], r["n"], r["solver"],
            _fmt_float(r["eps"], "%g") if rpt_family else "",
            ("1" if r["heuristic"] else "0") if rpt_family else "",
            r["status"],
            _fmt_float(r["cost"]),
            _fmt_float(r["cost_ratio"], "%.9g"),
            r["expansions"], r["prunes"],
            "%.6f" % r["wall_time"],
        ))
    return sio.getvalue()


def summary_table(rows) -> str:
    """Success rates and mean stats per (size, solver). Wall time is
    deliberately absent so the table is byte-stable across reruns."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((r["n"], r["solver"]), []).append(r)
    lines = [("n", "solver", "runs", "ok", "timeout", "failed",
              "success", "mean_cost", "mean_ratio", "mean_expansions")]
    for (n, solver) in sorted(groups):
        g = groups[(n, solver)]
        ok = [r for r in g if r["status"] == "ok"]
        t_o = sum(1 for r in g if r["status"] == "timeout")
        bad = len(g) - len(ok) - t_o
        costs = [r["cost"] for r in ok if r["cost"] is not None]
        ratios = [r["cost_ratio"] for r in ok if r["cost_ratio"] is not None]
        exps = [r["expansions"] for r in ok]
        lines.append((
            str(n), solver, str(len(g)), str(len(ok)), str(t_o), str(bad),
            "%.1f%%" % (100.0 * len(ok) / len(g)),
            "%.6g" % (sum(costs) / len(costs)) if costs else "-",
            "%.4f" % (sum(ratios) / len(ratios)) if ratios else "-",
            "%.1f" % (sum(exps) / len(exps)) if exps else "-",
        ))
    widths = [max(len(row[i]) for row in lines) for i in range(len(lines[0]))]
    out = []
    for row in lines:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                   .rstrip())
    return "\n".join(out) + "\n"


def grid_exit_code(rows) -> int:
    bad = any(r["status"] not in ACCEPTED_STATUSES for r in rows)
    return 1 if bad else 0
