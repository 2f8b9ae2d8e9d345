import hashlib
import json

import numpy as np
import pytest

from hpppt import (DegenerateUpdateError, GroundTruth, Instance,
                   MissionConfig, SensorModel, generate_random, predict,
                   run_mission, update)
from hpppt.generate import assign_probabilities
import hpppt.lifelong
from hpppt.baselines import blind_hpp_solve, greedy_solve
from hpppt.instance import PROB_CLAMP
from hpppt.lifelong import plan_next
from hpppt.solver import SolveResult, SolverConfig, solve

SENSOR = SensorModel(0.8, 0.4)


def _mission_instance(n, seed):
    inst = generate_random(n, seed=seed)
    return Instance(inst.cost, np.full(n, 0.5), 0, inst.name, inst.coords)


def test_update_matches_bayes_rule_closely():
    post_neg = update([0.5], 0, 0, SENSOR)[0]
    assert abs(post_neg - 0.25) <= 1e-15
    post_pos = update([0.5], 0, 1, SENSOR)[0]
    assert abs(post_pos - 2.0 / 3.0) <= 1e-15


def test_update_is_per_vertex_and_pure():
    before = np.array([0.5, 0.4, 0.3])
    after = update(before, 1, 1, SENSOR)
    assert after[0] == 0.5 and after[2] == 0.3
    assert after[1] > 0.4
    assert before[1] == 0.4


def test_repeated_positives_cross_high_threshold():
    b = np.array([0.5])
    for _ in range(6):
        b = update(predict(b), 0, 1, SENSOR)
    assert b[0] > 0.98
    assert b[0] == pytest.approx(64.0 / 65.0, abs=1e-12)


def test_impossible_reading_raises():
    perfect = SensorModel(1.0, 0.0)
    with pytest.raises(DegenerateUpdateError):
        update([1.0], 0, 0, perfect)


def test_sensor_validation():
    with pytest.raises(ValueError):
        SensorModel(1.2, 0.4)
    with pytest.raises(ValueError):
        SensorModel(0.8, -0.1)
    assert SensorModel(0.5, 0.5).is_uninformative
    assert not SENSOR.is_uninformative


def test_uninformative_sensor_is_identity():
    flat = SensorModel(0.5, 0.5)
    b = update([0.37], 0, 1, flat)[0]
    assert b == 0.37


def test_ground_truth_and_config_validation():
    truth = GroundTruth.from_targets(4, [1, 3])
    assert truth.present == (False, True, False, True)
    with pytest.raises(ValueError):
        GroundTruth.from_targets(4, [4])
    # 2.7 would act as target 2, True and "1" as target 1
    for bad in ([2.7], [True], ["1"], [float("inf")], [1, True], [1.0]):
        with pytest.raises(ValueError, match="target"):
            GroundTruth.from_targets(4, bad)
    assert GroundTruth.from_targets(4, np.array([3])).present[3]
    with pytest.raises(ValueError):
        MissionConfig(p_high=0.1, p_low=0.5)
    with pytest.raises(ValueError):
        MissionConfig(planner="astar")
    # 2.5 would act as 3 steps, and NaN would turn the step cap off; True
    # and False would act as 1 and 0
    for kw in ({"max_steps": 2.5}, {"max_steps": float("nan")},
               {"max_steps": 3.0}, {"max_steps": 0}, {"seed": -1},
               {"seed": 1.5}, {"seed": float("nan")}, {"max_steps": True},
               {"seed": False}, {"seed": True}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            MissionConfig(**kw)
    cfg = MissionConfig(seed=np.int64(4), max_steps=np.int32(3))
    assert (cfg.seed, cfg.max_steps) == (4, 3)


def test_noiseless_mission_classifies_in_single_visits():
    inst = _mission_instance(9, seed=14)
    truth = GroundTruth.from_targets(9, [2, 6])
    log = run_mission(inst, truth, SensorModel(1.0, 0.0), MissionConfig())
    assert log.status == "complete"
    assert len(log.steps) == 9
    assert sorted(s.vertex for s in log.steps) == list(range(9))
    assert log.misclassified == 0
    want = tuple("present" if truth.present[v] else "absent" for v in range(9))
    assert log.classification == want


def test_noiseless_duration_accumulates_travel():
    inst = Instance([[0, 7], [7, 0]], [0.5, 0.5], 0)
    truth = GroundTruth.from_targets(2, [0])
    log = run_mission(inst, truth, SensorModel(1.0, 0.0), MissionConfig())
    assert log.duration == pytest.approx(7.0)
    # first reading happens at the start vertex before any motion
    assert log.steps[0].vertex == 0 and log.steps[0].time == 0.0


def test_noisy_missions_terminate_for_every_planner():
    inst = _mission_instance(6, seed=15)
    truth = GroundTruth.from_targets(6, [1, 4])
    for planner in ("rpt", "greedy", "blind"):
        for seed in (0, 1, 2):
            log = run_mission(inst, truth, SENSOR,
                              MissionConfig(planner=planner, seed=seed))
            assert log.status == "complete"
            assert all(c in ("present", "absent") for c in log.classification)
            assert 0 <= log.misclassified <= 6


def test_mission_determinism():
    inst = _mission_instance(6, seed=16)
    truth = GroundTruth.from_targets(6, [3])
    a = run_mission(inst, truth, SENSOR, MissionConfig(seed=5))
    b = run_mission(inst, truth, SENSOR, MissionConfig(seed=5))
    assert a.to_json_lines() == b.to_json_lines()
    c = run_mission(inst, truth, SENSOR, MissionConfig(seed=6))
    assert c.to_json_lines() != a.to_json_lines()


def test_truncation_at_step_budget():
    inst = _mission_instance(5, seed=17)
    truth = GroundTruth.from_targets(5, [2])
    log = run_mission(inst, truth, SENSOR, MissionConfig(max_steps=3))
    assert log.status == "truncated"
    assert len(log.steps) == 3
    assert None in log.classification


def test_json_lines_schema():
    inst = _mission_instance(4, seed=18)
    truth = GroundTruth.from_targets(4, [1])
    log = run_mission(inst, truth, SensorModel(1.0, 0.0), MissionConfig())
    lines = log.to_json_lines().splitlines()
    records = [json.loads(ln) for ln in lines]
    body, summary = records[:-1], records[-1]
    for i, rec in enumerate(body, 1):
        assert rec["step"] == i
        assert len(rec["beliefs"]) == 4
        assert rec["reading"] in (0, 1)
    assert summary["summary"] is True
    assert summary["status"] == "complete"
    assert summary["classification"] == ["absent", "present",
                                         "absent", "absent"]
    assert summary["misclassified"] == 0


def test_plan_next_stays_when_alone():
    inst = _mission_instance(3, seed=19)
    nxt = plan_next(inst, [0.5, 0.5, 0.5], {0}, 0, "rpt")
    assert nxt == 0


def test_plan_next_skips_retired_vertices():
    inst = Instance([[0, 1, 10], [1, 0, 10], [10, 10, 0]], np.full(3, 0.5))
    # vertex 1 already classified: only 2 survives, so go towards 2
    nxt = plan_next(inst, [0.5, 0.9, 0.5], {0, 2}, 0, "rpt")
    assert nxt == 2


def test_plan_next_runs_no_planner_for_one_other_survivor(monkeypatch):
    """With one other survivor the only move is to it: every planner and
    the fallback return it (test_plan_next_matches_rebuilt_instance_reference
    covers such sets), so plan_next calls none of them."""
    def unused(*args, **kwargs):
        raise AssertionError("planner called")

    for name in ("solve", "greedy_solve", "blind_hpp_solve"):
        monkeypatch.setattr(hpppt.lifelong, name, unused)
    inst = _mission_instance(4, seed=19)
    beliefs = [0.5, 0.9, 0.5, 0.1]
    for planner in ("rpt", "greedy", "blind"):
        assert plan_next(inst, beliefs, {2}, 0, planner) == 2
        assert plan_next(inst, beliefs, {0, 3}, 0, planner) == 3
        assert plan_next(inst, beliefs, {0, 1}, 1, planner) == 0


def test_plan_next_falls_back_to_nearest_survivor(monkeypatch):
    """A replan that does not return ok moves to the cheapest survivor,
    the smaller index on ties; rpt replans run without a time limit and
    ask only for the first move."""
    configs = []
    keywords = []

    def timed_out(inst, cfg, **kw):
        configs.append(cfg)
        keywords.append(kw)
        return SolveResult("timeout", None, None)

    monkeypatch.setattr(hpppt.lifelong, "solve", timed_out)
    inst = Instance([[0, 5, 3, 3], [5, 0, 4, 4], [3, 4, 0, 2], [3, 4, 2, 0]],
                    np.full(4, 0.5))
    beliefs = [0.5, 0.9, 0.5, 0.1]
    assert plan_next(inst, beliefs, {0, 1, 2, 3}, 0, "rpt") == 2
    assert plan_next(inst, beliefs, {1, 3}, 0, "rpt") == 3
    assert plan_next(inst, beliefs, {0, 1, 2, 3}, 2, "rpt") == 3
    assert [cfg.time_limit for cfg in configs] == [None, None, None]
    assert keywords == [{"first_move": True}] * 3


def _rebuilt_plan_next(cost, beliefs, surviving, current, planner):
    """plan_next as written before replans restricted the mission
    instance: fancy index, np.clip, then a fully validated Instance."""
    others = sorted(v for v in surviving if v != current)
    if not others:
        return current
    verts = [current] + others
    idx = np.array(verts)
    sub_prob = np.clip(np.asarray(beliefs)[idx], 0.0, PROB_CLAMP)
    if current not in surviving:
        sub_prob[0] = 0.0
    sub = Instance(cost[idx[:, None], idx], sub_prob, 0, "replan")
    if planner == "rpt":
        res = solve(sub, SolverConfig(time_limit=None), first_move=True)
    elif planner == "greedy":
        res = greedy_solve(sub, score=False)
    else:
        res = blind_hpp_solve(sub, score=False)
    return verts[res.path[1]]


def test_plan_next_matches_rebuilt_instance_reference():
    rng = np.random.default_rng(41)
    for planner in ("rpt", "greedy", "blind"):
        for trial in range(300):
            n = int(rng.integers(2, 13))
            inst = _mission_instance(n, seed=int(rng.integers(1 << 30)))
            beliefs = rng.uniform(0.0, 1.0, n)
            # a belief of exactly 0, 1 or PROB_CLAMP sits on an edge of the
            # clamp
            beliefs[rng.integers(n)] = rng.choice([0.0, 1.0, PROB_CLAMP])
            surviving = {v for v in range(n) if rng.random() < 0.7}
            current = int(rng.integers(n))
            if trial % 2:
                surviving.add(current)
            else:
                surviving.discard(current)
            want = _rebuilt_plan_next(inst.cost, beliefs, surviving,
                                      current, planner)
            got = plan_next(inst, beliefs, surviving, current, planner)
            assert type(got) is int
            assert got == want, (planner, trial)


# sha256 over to_json_lines() of every mission in _digest_missions, recorded
# while the replan path still did its per-state arithmetic on numpy rows
MISSION_DIGEST = (
    "065a50bb56de0a293ed2ba8d40399d5a4c6b081c804aef9dcacf7ebb72d88191")


def _digest_missions():
    for n, graph_seed, targets in ((14, 21, [3, 9]), (20, 22, [4, 11, 17])):
        inst = _mission_instance(n, seed=graph_seed)
        truth = GroundTruth.from_targets(n, targets)
        for planner in ("rpt", "greedy", "blind"):
            for seed in (0, 1):
                yield run_mission(inst, truth, SENSOR,
                                  MissionConfig(planner=planner, seed=seed))


def test_missions_match_recorded_digest():
    """Replans must keep every move: the same steps, beliefs and times."""
    digest = hashlib.sha256()
    count = 0
    for log in _digest_missions():
        assert log.status == "complete"
        digest.update(log.to_json_lines().encode())
        count += 1
    assert count == 12
    assert digest.hexdigest() == MISSION_DIGEST


def test_blind_replans_once_per_position_and_surviving_set(monkeypatch):
    """The blind tour reads only costs, so a mission solves it once per
    (robot position, surviving set) with at least two other survivors, and
    reuses the move; every move is still the one an uncached plan_next
    returns."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return blind_hpp_solve(*args, **kwargs)

    monkeypatch.setattr(hpppt.lifelong, "blind_hpp_solve", counting)
    inst = _mission_instance(14, seed=21)
    truth = GroundTruth.from_targets(14, [3, 9])
    log = run_mission(inst, truth, SENSOR,
                      MissionConfig(planner="blind", seed=0))
    monkeypatch.undo()
    surviving = set(range(14))
    keys = set()
    for step, nxt in zip(log.steps, log.steps[1:]):
        if step.retired:
            surviving.discard(step.retired[0])
        keys.add((step.vertex, frozenset(surviving)))
        assert plan_next(inst, step.beliefs, surviving, step.vertex,
                         "blind") == nxt.vertex
    solved = sum(len(s - {v}) > 1 for v, s in keys)
    assert calls[0] == solved
    assert solved < len(log.steps) - 1
