import json
import os

import pytest

import hpppt.bench
from hpppt.cli import main
from hpppt.generate import GenerationError

CORRIDOR = "############\n#R........T#\n############\n"


def _gen_one(tmp_path, capsys, n=6, seed=3):
    out = tmp_path / "inst"
    assert main(["gen", "--sizes", str(n), "--count", "1",
                 "--seed", str(seed), "--out", str(out)]) == 0
    capsys.readouterr()
    files = sorted(out.glob("*.hpt"))
    assert len(files) == 1
    return files[0]


def test_gen_writes_parseable_files(tmp_path, capsys):
    out = tmp_path / "g"
    rc = main(["gen", "--sizes", "4..5", "--count", "2", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    for line in printed:
        assert os.path.exists(line)
    names = sorted(p.name for p in out.glob("*.hpt"))
    assert names == ["rand-n004-k00-s0.hpt", "rand-n004-k01-s0.hpt",
                     "rand-n005-k00-s0.hpt", "rand-n005-k01-s0.hpt"]


def test_gen_rerun_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["gen", "--sizes", "6", "--count", "2", "--seed", "9",
          "--out", str(a)])
    main(["gen", "--sizes", "6", "--count", "2", "--seed", "9",
          "--out", str(b)])
    for fa in sorted(a.glob("*.hpt")):
        fb = b / fa.name
        assert fa.read_bytes() == fb.read_bytes()


def test_solve_emits_json_record(tmp_path, capsys):
    path = _gen_one(tmp_path, capsys)
    rc = main(["solve", str(path)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["solver"] == "rpt"
    assert rec["status"] == "ok"
    assert rec["n"] == 6
    assert len(rec["path"]) == 6
    assert rec["cost"] > 0
    assert rec["expansions"] >= 1
    assert rec["generations"] >= rec["expansions"]
    # the root key under the bound in use and the incumbent's cost bracket
    # the optimum
    assert 0.0 < rec["root_bound"] <= rec["cost"] <= rec["upper_bound"] + 1e-9
    assert 0 <= rec["pruned_bound"] <= rec["generations"]


def test_solve_oracle_matches_exact(tmp_path, capsys):
    path = _gen_one(tmp_path, capsys)
    main(["solve", str(path)])
    exact = json.loads(capsys.readouterr().out)
    main(["solve", str(path), "--solver", "oracle"])
    oracle = json.loads(capsys.readouterr().out)
    assert exact["cost"] == pytest.approx(oracle["cost"], abs=1e-9)
    assert exact["path"] == oracle["path"]


def test_solve_flag_variants(tmp_path, capsys):
    path = _gen_one(tmp_path, capsys, n=8)
    main(["solve", str(path)])
    plain = json.loads(capsys.readouterr().out)
    main(["solve", str(path), "--solver", "rpt-noh"])
    noh = json.loads(capsys.readouterr().out)
    assert noh["solver"] == "rpt-noh"
    assert noh["cost"] == pytest.approx(plain["cost"], abs=1e-9)
    assert noh["expansions"] >= plain["expansions"]
    main(["solve", str(path), "--solver", "rpt:0.1"])
    focal = json.loads(capsys.readouterr().out)
    assert focal["solver"] == "rpt:0.1"
    assert focal["cost"] <= 1.1 * plain["cost"] + 1e-9


def test_solve_writes_out_file(tmp_path, capsys):
    path = _gen_one(tmp_path, capsys)
    dest = tmp_path / "res.json"
    rc = main(["solve", str(path), "--out", str(dest)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    rec = json.loads(dest.read_text())
    assert rec["status"] == "ok"


def test_config_errors_exit_two(tmp_path, capsys):
    path = _gen_one(tmp_path, capsys)
    assert main(["solve", str(path), "--solver", "astar"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.hpt")]) == 2
    assert main(["bench", "--sizes", "6..4"]) == 2
    assert main(["solve", str(path), "--solver", "rpt:-0.1"]) == 2
    # solve has one queue order; the flag that chose another is gone
    assert _exit_code(["solve", str(path), "--tie-break", "deep"]) == 2
    assert "unrecognized arguments: --tie-break" in capsys.readouterr().err
    assert main(["gen", "--sizes", "5", "--p-max", "1.5",
                 "--out", str(tmp_path)]) == 2
    # runs that would do nothing: no instances, no trials or no count;
    # and mission configs, which are checked before the CSV header
    none_dir = tmp_path / "none"
    for argv, reason in ((["bench"], "need instance files or --sizes"),
                         (["lifelong", "--n", "4", "--trials", "-1"],
                          "--trials must be >= 1"),
                         (["explore", "--demo", "accurate", "--trials", "-1"],
                          "--trials must be >= 1"),
                         (["bench", "--sizes", "5", "--count", "0"],
                          "--count must be >= 1"),
                         (["gen", "--sizes", "5", "--count", "0",
                           "--out", str(none_dir)], "--count must be >= 1"),
                         (["lifelong", "--n", "4", "--max-steps", "0"],
                          "max_steps must be positive"),
                         (["lifelong", "--n", "4", "--seed", "-1"],
                          "seed must be a non-negative integer"),
                         (["explore", "--demo", "accurate", "--seed", "-2",
                           "--trials", "2", "--planners", "blind"],
                          "seed must be a non-negative integer"),
                         (["lifelong", "--n", "4", "--p-low", "0.5",
                           "--p-high", "0.5"], "need 0 < p_low < p_high")):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert reason in captured.err
        assert captured.out == ""
    assert not none_dir.exists()


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags this way
        return exc.code


@pytest.mark.parametrize("argv", [
    ["gen", "--sizes", "5", "--time-limit", "5"],
    ["gen", "--sizes", "5", "--jobs", "2"],
    ["solve", "INST", "--seed", "1"],
    ["solve", "INST", "--jobs", "2"],
    ["solve", "INST", "--eps", "0.1"],
    ["solve", "INST", "--no-heuristic"],
    ["solve", "INST", "--solver", "greedy", "--tour-file", "INST"],
    ["solve", "INST", "--solver", "rpt:0.1", "--tour-file", "INST"],
    ["solve", "INST", "--solver", "oracle", "--tour-file", "INST"],
    ["lifelong", "--n", "4", "--time-limit", "5"],
    ["lifelong", "--n", "4", "--jobs", "2"],
    ["explore", "--demo", "accurate", "--jobs", "2"],
    # --time-limit reaches rpt only
    ["solve", "INST", "--solver", "oracle", "--time-limit", "1e-9"],
    ["solve", "INST", "--solver", "greedy", "--time-limit", "5"],
    ["bench", "--sizes", "5", "--solvers", "greedy,blind,oracle",
     "--time-limit", "5"],
    ["explore", "--demo", "accurate", "--planners", "greedy,blind",
     "--time-limit", "5"],
    # generation flags next to input files
    ["bench", "INST", "--sizes", "5"],
    ["bench", "INST", "--count", "9"],
    ["bench", "INST", "--p-max", "0.5"],
    ["bench", "INST", "--seed", "99"],
    ["lifelong", "INST", "--n", "40"],
])
def test_flags_a_subcommand_would_ignore_exit_two(tmp_path, capsys, argv):
    path = _gen_one(tmp_path, capsys)
    argv = [str(path) if a == "INST" else a for a in argv]
    assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "not apply" in err or "unrecognized arguments" in err


def test_flags_that_take_effect_still_accepted(tmp_path, capsys):
    path = _gen_one(tmp_path, capsys)
    assert main(["solve", str(path), "--solver", "rpt:0.1",
                 "--time-limit", "5"]) == 0
    assert main(["bench", "--sizes", "5", "--count", "1", "--seed", "2",
                 "--p-max", "0.5", "--solvers", "greedy,rpt",
                 "--time-limit", "5", "--jobs", "1"]) == 0
    assert main(["lifelong", str(path), "--seed", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["gen", "bench"])
def test_generation_error_exits_two_before_any_output(tmp_path, capsys,
                                                      monkeypatch, command):
    real = hpppt.bench.generate_random

    def failing(n, **kwargs):
        if n == 6:
            raise GenerationError("could not place 6 points")
        return real(n, **kwargs)

    monkeypatch.setattr(hpppt.bench, "generate_random", failing)
    argv = [command, "--sizes", "5,6", "--count", "1"]
    if command == "gen":
        argv += ["--out", str(tmp_path / "inst")]
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: could not place 6 points\n"
    assert not (tmp_path / "inst").exists()


def test_bench_csv_and_summary(tmp_path, capsys):
    rc = main(["bench", "--sizes", "5", "--count", "2",
               "--solvers", "rpt,greedy,oracle", "--jobs", "1"])
    assert rc == 0
    cap = capsys.readouterr()
    lines = cap.out.splitlines()
    assert lines[0].startswith("instance,n,solver,eps,heuristic,")
    assert len(lines) == 1 + 2 * 3
    assert "solver" in cap.err and "100.0%" in cap.err


def test_bench_rerun_identical_minus_wall_time(tmp_path, capsys):
    argv = ["bench", "--sizes", "5,6", "--count", "2",
            "--solvers", "rpt,blind", "--jobs", "1", "--seed", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out

    def strip(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert strip(first) == strip(second)
    assert first.splitlines()[0] == second.splitlines()[0]


def test_bench_out_file_routes_summary_to_stdout(tmp_path, capsys):
    dest = tmp_path / "grid.csv"
    rc = main(["bench", "--sizes", "5", "--count", "1", "--jobs", "1",
               "--out", str(dest)])
    assert rc == 0
    cap = capsys.readouterr()
    assert dest.read_text().startswith("instance,")
    assert "solver" in cap.out
    assert cap.err == ""


def test_bench_parallel_jobs_stable(tmp_path, capsys):
    argv = ["bench", "--sizes", "5", "--count", "2",
            "--solvers", "rpt,greedy", "--seed", "4"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    para = capsys.readouterr().out

    def strip(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert strip(serial) == strip(para)


def test_bench_files_parallel_jobs_stable(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["gen", "--sizes", "5,6", "--count", "2", "--seed", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    # the workers receive the loaded instances through pickle
    argv = ["bench", *sorted(str(p) for p in out.glob("*.hpt")),
            "--solvers", "rpt,greedy,blind"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr()
    assert main(argv + ["--jobs", "2"]) == 0
    para = capsys.readouterr()

    def strip(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert len(serial.out.splitlines()) == 1 + 4 * 3
    assert strip(serial.out) == strip(para.out)
    assert serial.err == para.err


def test_bench_files_as_input(tmp_path, capsys):
    path = _gen_one(tmp_path, capsys)
    rc = main(["bench", str(path), "--solvers", "rpt", "--jobs", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == path.stem


def test_time_limit_flag(tmp_path, capsys, monkeypatch):
    """--time-limit is the one spelling of the limit; the environment
    variable that once set it is no longer read."""
    path = _gen_one(tmp_path, capsys)
    assert main(["solve", str(path), "--time-limit", "30"]) == 0
    capsys.readouterr()
    for bad in ("-1", "0", "inf", "nan"):
        assert main(["solve", str(path), "--time-limit", bad]) == 2
        capsys.readouterr()
    monkeypatch.setenv("HPPPT_TIME_LIMIT_SECS", "not-a-number")
    assert main(["solve", str(path)]) == 0
    capsys.readouterr()


def test_timeout_status_exits_zero(tmp_path, capsys):
    out = tmp_path / "big"
    main(["gen", "--sizes", "24", "--count", "1", "--seed", "8",
          "--out", str(out)])
    capsys.readouterr()
    path = next(out.glob("*.hpt"))
    rc = main(["solve", str(path), "--solver", "rpt-noh",
               "--time-limit", "1e-6"])
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "timeout"
    assert rec["cost"] is None
    assert rc == 0


def test_lifelong_csv_and_logs(tmp_path, capsys):
    logs = tmp_path / "logs"
    argv = ["lifelong", "--n", "6", "--planners", "rpt,greedy",
            "--trials", "2", "--seed", "1", "--out", str(logs)]
    rc = main(argv)
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("planner,seed,status,duration,steps,misclassified,"
                        "classification")
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] in ("rpt", "greedy")
        assert fields[2] in ("complete", "truncated")
        assert len(fields[6].split(";")) == 6
    files = sorted(p.name for p in logs.glob("*.jsonl"))
    assert files == ["mission-greedy-s1.jsonl", "mission-greedy-s2.jsonl",
                     "mission-rpt-s1.jsonl", "mission-rpt-s2.jsonl"]
    recs = [json.loads(ln)
            for ln in (logs / files[0]).read_text().splitlines()]
    assert recs[-1]["summary"] is True


def test_lifelong_deterministic(capsys):
    argv = ["lifelong", "--n", "6", "--trials", "2", "--seed", "3"]
    assert main(argv) == 0
    a = capsys.readouterr().out
    assert main(argv) == 0
    b = capsys.readouterr().out
    assert a == b


def test_lifelong_explicit_targets(capsys):
    rc = main(["lifelong", "--n", "5", "--targets", "1,3",
               "--alpha1", "1.0", "--alpha2", "0.0"])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[1]
    labels = line.split(",")[6].split(";")
    assert labels == ["absent", "present", "absent", "present", "absent"]
    assert line.split(",")[5] == "0"  # noiseless run misclassifies nothing


def _write_world(tmp_path):
    path = tmp_path / "corridor.map"
    path.write_text(CORRIDOR)
    sidecar = {"resolution": 1.0, "sensor_radius": 3.0,
               "prior": {"weights": [0.3, 0.2, 0.5]}}
    (tmp_path / "corridor.map.json").write_text(json.dumps(sidecar))
    return path


def test_explore_runs_world_file(tmp_path, capsys):
    path = _write_world(tmp_path)
    logs = tmp_path / "elogs"
    rc = main(["explore", str(path), "--planners", "rpt,greedy",
               "--trials", "1", "--max-steps", "100", "--out", str(logs)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "world,planner,trial,seed,status,duration,steps,revealed"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "corridor"
        assert fields[4] == "found"
    files = sorted(p.name for p in logs.glob("*.jsonl"))
    assert files == ["explore-corridor-greedy-t0.jsonl",
                     "explore-corridor-rpt-t0.jsonl"]


def test_explore_deterministic(tmp_path, capsys):
    path = _write_world(tmp_path)
    argv = ["explore", str(path), "--trials", "1", "--max-steps", "100"]
    assert main(argv) == 0
    a = capsys.readouterr().out
    assert main(argv) == 0
    b = capsys.readouterr().out
    assert a == b


def test_explore_requires_world_or_demo(capsys):
    assert main(["explore"]) == 2
    assert "error:" in capsys.readouterr().err


EYE = [[1, 0], [0, 1]]


@pytest.mark.parametrize("sidecar, key", [
    *[({name: bad}, name) for name in ("resolution", "sensor_radius", "fov")
      for bad in (None, [1.0], {}, True)],
    ({"prior": {"gaussians": [{"mean": [1, 1]}]}}, "cov"),
    ({"prior": {"gaussians": 5}}, "gaussians"),
    ({"prior": {"gaussians": {"mean": [1, 1], "cov": EYE}}}, "gaussians"),
    ({"prior": {"gaussians": [{"mean": {}, "cov": EYE}]}}, "mean"),
    ({"prior": {"gaussians": [{"mean": [1, 1], "cov": [[True, 0], [0, 1]]}]}},
     "cov"),
    ({"prior": {"weights": 5}}, "weights"),
    ({"prior": {"weights": [None, 0.2, 0.5]}}, "weights"),
    ({"prior": {"weights": ["0.3", 0.2, 0.5]}}, "weights"),
    ({"prior": [1]}, "prior"),
    ([1], "sidecar"),
])
def test_explore_rejects_a_malformed_sidecar(tmp_path, capsys, sidecar, key):
    path = _write_world(tmp_path)
    (tmp_path / "corridor.map.json").write_text(json.dumps(sidecar))
    assert main(["explore", str(path), "--max-steps", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and key in err
