import numpy as np
import pytest

from hpppt import bench, save_instance
from hpppt.bench import (CSV_HEADER, BenchConfigError, best_known,
                         file_sources, generated_sources, grid_exit_code,
                         make_instance, parse_sizes, parse_solver,
                         rows_to_csv, run_grid, summary_table)


def _strip_wall(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


def test_parse_solver_tokens():
    assert parse_solver("rpt") == parse_solver("rpt")
    s = parse_solver("rpt:0.1")
    assert s.kind == "rpt" and s.epsilon == 0.1 and s.use_heuristic
    s = parse_solver("rpt-noh")
    assert s.kind == "rpt" and s.epsilon == 0.0 and not s.use_heuristic
    s = parse_solver("rpt-noh:0.5")
    assert s.epsilon == 0.5 and not s.use_heuristic
    for base in ("greedy", "blind", "oracle"):
        assert parse_solver(base).kind == base


def test_parse_solver_rejects_bad_tokens():
    for tok in ("astar", "rpt:x", "rpt:-0.1", "rpt:nan", "greedy:0.1",
                "oracle:1"):
        with pytest.raises(BenchConfigError):
            parse_solver(tok)


def test_parse_sizes_forms():
    assert parse_sizes("4..6") == [4, 5, 6]
    assert parse_sizes("4..10:2") == [4, 6, 8, 10]
    assert parse_sizes("5,9,7") == [5, 9, 7]
    assert parse_sizes("12") == [12]


def test_parse_sizes_rejects_bad_specs():
    for spec in ("6..4", "4..x", "", "0", "3..9:0", "a,b"):
        with pytest.raises(BenchConfigError):
            parse_sizes(spec)


def test_make_instance_deterministic():
    a = make_instance(7, 0, 3)
    b = make_instance(7, 0, 3)
    assert np.array_equal(a.cost, b.cost)
    assert np.array_equal(a.prob, b.prob)
    assert a.name == "rand-n007-k00-s3"
    c = make_instance(7, 1, 3)
    assert not np.array_equal(a.coords, c.coords)
    assert (a.prob < 0.9).all()


def test_generated_sources():
    srcs = generated_sources([4, 5], count=3, base_seed=1)
    assert len(srcs) == 6
    assert [name for name, _ in srcs[:3]] == [
        "rand-n004-k00-s1", "rand-n004-k01-s1", "rand-n004-k02-s1"]
    assert all(inst.name == name for name, inst in srcs)
    assert [inst.n for _, inst in srcs] == [4, 4, 4, 5, 5, 5]
    ref = make_instance(5, 2, 1)
    assert np.array_equal(srcs[5][1].cost, ref.cost)
    assert np.array_equal(srcs[5][1].prob, ref.prob)
    assert generated_sources([4], count=0, base_seed=1) == []
    with pytest.raises(BenchConfigError):
        generated_sources([4], count=1, base_seed=1, p_max=1.0)


def test_file_sources(tmp_path):
    inst = make_instance(6, 0, 2)
    path = tmp_path / "six.hpt"
    save_instance(inst, path)
    srcs = file_sources([path])
    assert len(srcs) == 1
    name, loaded = srcs[0]
    assert name == "six"
    assert loaded.n == 6
    assert np.array_equal(loaded.cost, inst.cost)
    assert np.array_equal(loaded.prob, inst.prob)


def test_file_rows_of_different_sources_have_distinct_names(tmp_path):
    """Colliding stems take the path as given, a repeated path adds its
    list position, and each source's rows stay together."""
    for sub, k in (("a", 0), ("b", 1)):
        (tmp_path / sub).mkdir()
        save_instance(make_instance(5 + k, k, 2), tmp_path / sub / "x.hpt")
    save_instance(make_instance(4, 0, 2), tmp_path / "y.hpt")
    a, b, y = (str(tmp_path / "a" / "x.hpt"), str(tmp_path / "b" / "x.hpt"),
               str(tmp_path / "y.hpt"))
    srcs = file_sources([a, b, y, a])
    assert [name for name, _ in srcs] == [a + "#1", b, "y", a + "#4"]
    rows = run_grid(srcs, ("rpt", "greedy"))
    assert [(r["instance"], r["solver"]) for r in rows] == [
        (a + "#1", "greedy"), (a + "#1", "rpt"), (a + "#4", "greedy"),
        (a + "#4", "rpt"), (b, "greedy"), (b, "rpt"),
        ("y", "greedy"), ("y", "rpt")]
    assert [r["n"] for r in rows] == [5, 5, 5, 5, 6, 6, 4, 4]


def test_each_instance_built_or_loaded_once(tmp_path, monkeypatch):
    path = tmp_path / "five.hpt"
    save_instance(make_instance(5, 0, 2), path)
    calls = {"make": 0, "load": 0}
    make, load = bench.make_instance, bench.load_instance

    def counting_make(*args, **kwargs):
        calls["make"] += 1
        return make(*args, **kwargs)

    def counting_load(*args, **kwargs):
        calls["load"] += 1
        return load(*args, **kwargs)

    monkeypatch.setattr(bench, "make_instance", counting_make)
    monkeypatch.setattr(bench, "load_instance", counting_load)
    srcs = generated_sources([5, 6], count=2, base_seed=3)
    rows = run_grid(srcs, ("rpt", "rpt:0.1", "greedy", "blind"), reps=3)
    assert len(rows) == 4 * 4 * 3
    assert calls == {"make": 4, "load": 0}
    # the same path twice: two loads, and two ratio groups
    rows = run_grid(file_sources([path, path]), ("rpt", "greedy"), reps=2)
    assert len(rows) == 2 * 2 * 2
    assert calls == {"make": 4, "load": 2}
    assert sorted({r["key"] for r in rows}) == [0, 1]


SOLVERS = ("blind", "greedy", "oracle", "rpt", "rpt:0.1")


def test_run_grid_rows_sorted_and_complete():
    srcs = generated_sources([6], count=2, base_seed=5)
    rows = run_grid(srcs, SOLVERS, reps=2)
    assert len(rows) == 2 * len(SOLVERS) * 2
    keys = [(r["instance"], r["solver"], r["rep"]) for r in rows]
    assert keys == sorted(keys)
    assert all(r["status"] == "ok" for r in rows)


def test_ratios_against_oracle():
    srcs = generated_sources([6], count=2, base_seed=5)
    rows = run_grid(srcs, SOLVERS)
    for r in rows:
        if r["solver"] == "oracle":
            assert r["cost_ratio"] == pytest.approx(1.0)
        elif r["solver"] == "rpt":
            assert r["cost_ratio"] == pytest.approx(1.0, abs=1e-9)
        else:
            assert r["cost_ratio"] >= 1.0 - 1e-9


def test_exact_solver_never_beaten_in_grid():
    srcs = generated_sources([5, 7], count=2, base_seed=8)
    rows = run_grid(srcs, SOLVERS)
    by_inst: dict = {}
    for r in rows:
        by_inst.setdefault(r["instance"], {})[r["solver"]] = r["cost"]
    for costs in by_inst.values():
        for solver, cost in costs.items():
            assert costs["rpt"] <= cost + 1e-9, solver


def test_ratio_falls_back_to_exact_family():
    srcs = generated_sources([6], count=1, base_seed=9)
    rows = run_grid(srcs, ("rpt", "greedy"))
    ref = best_known(rows)
    exact = [r for r in rows if r["solver"] == "rpt"][0]
    assert ref == exact["cost"]
    greedy = [r for r in rows if r["solver"] == "greedy"][0]
    assert greedy["cost_ratio"] == pytest.approx(greedy["cost"] / ref)


def test_csv_header_and_field_blanks():
    srcs = generated_sources([5], count=1, base_seed=3)
    rows = run_grid(srcs, ("rpt:0.1", "greedy"))
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "instance,n,solver,eps,heuristic,status,cost,"\
                       "cost_ratio,expansions,prunes,wall_time"
    assert lines[0] == ",".join(CSV_HEADER)
    greedy_line = next(l for l in lines if ",greedy," in l)
    fields = greedy_line.split(",")
    assert fields[3] == "" and fields[4] == ""
    rpt_line = next(l for l in lines if ",rpt:0.1," in l)
    fields = rpt_line.split(",")
    assert fields[3] == "0.1" and fields[4] == "1"


def test_empty_grid_emits_header_only():
    assert rows_to_csv([]) == ",".join(CSV_HEADER) + "\n"
    rows = run_grid([], ("rpt",))
    assert rows == []


def test_rerun_identical_except_wall_time():
    srcs = generated_sources([6], count=2, base_seed=4)
    a = rows_to_csv(run_grid(srcs, SOLVERS))
    b = rows_to_csv(run_grid(srcs, SOLVERS))
    assert _strip_wall(a) == _strip_wall(b)


def test_parallel_equals_serial():
    srcs = generated_sources([6], count=2, base_seed=6)
    serial = rows_to_csv(run_grid(srcs, ("rpt", "greedy"), jobs=1))
    para = rows_to_csv(run_grid(srcs, ("rpt", "greedy"), jobs=2))
    assert _strip_wall(serial) == _strip_wall(para)


def test_oracle_cap_checked_before_running():
    srcs = generated_sources([13], count=1, base_seed=1)
    with pytest.raises(BenchConfigError, match="capped"):
        run_grid(srcs, ("oracle",))


def test_run_grid_validates_args():
    srcs = generated_sources([5], count=1, base_seed=1)
    with pytest.raises(BenchConfigError):
        run_grid(srcs, ("rpt",), reps=0)
    with pytest.raises(BenchConfigError):
        run_grid(srcs, ("rpt",), jobs=0)
    with pytest.raises(BenchConfigError):
        run_grid(srcs, ())


def test_failures_become_rows_not_exceptions(monkeypatch, capfd):
    def broken(inst, spec, time_limit, tour=None):
        raise FileNotFoundError(f"no such file: {inst.name}.hpt")

    monkeypatch.setattr(bench, "run_solver", broken)
    srcs = generated_sources([5], count=1, base_seed=2)
    rows = run_grid(srcs, ("rpt", "greedy"))
    assert len(rows) == 2
    assert all(r["status"] == "error" for r in rows)
    assert all(r["cost"] is None for r in rows)
    assert grid_exit_code(rows) == 1
    out, err = capfd.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    for line, token in zip(lines, ("rpt", "greedy")):
        assert line == (f"bench: rand-n005-k00-s2 / {token}: "
                        "FileNotFoundError: no such file: rand-n005-k00-s2.hpt")


def test_exit_codes():
    srcs = generated_sources([5], count=1, base_seed=7)
    rows = run_grid(srcs, ("rpt",))
    assert grid_exit_code(rows) == 0
    rows[0]["status"] = "timeout"
    assert grid_exit_code(rows) == 0
    rows[0]["status"] = "failure"
    assert grid_exit_code(rows) == 1


def test_summary_table_stable_and_grouped():
    srcs = generated_sources([5, 6], count=2, base_seed=2)
    rows = run_grid(srcs, ("rpt", "greedy"))
    table = summary_table(rows)
    again = summary_table(run_grid(srcs, ("rpt", "greedy")))
    assert table == again
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["n", "solver"]
    assert len(lines) == 1 + 4  # two sizes x two solvers
    assert "100.0%" in lines[1]
