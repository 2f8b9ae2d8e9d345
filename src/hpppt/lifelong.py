"""Lifelong target search driven by binary-sensor belief updates.

A robot repeatedly travels to a vertex, takes one binary reading, and
updates that vertex's belief by Bayes rule. The target does not move, so
the motion model is the identity. Once a belief crosses the upper or
lower threshold the vertex is classified and removed from the planning
graph; the mission keeps running (finding a target does not stop it)
until every vertex is classified or the step cap is hit.

Each step replans a full visiting order over the surviving vertices from
the robot's position, with the current beliefs standing in for the
termination probabilities. A replan restricts the mission instance to
those vertices (`Instance.restrict`), so the costs validated once per
mission are not checked again at every step. Accumulated edge cost is the
duration proxy.
Observation draws come from a counter-based stream seeded by
(seed, step index), so the planner choice never shifts the noise.
"""

import json
from dataclasses import dataclass

import numpy as np

from .baselines import blind_hpp_solve, greedy_solve
from .instance import PROB_CLAMP, Instance, _integral
from .solver import SolverConfig, solve

PLANNERS = ("rpt", "greedy", "blind")
# unbounded: a timed-out replan would silently take the fallback
REPLAN_CONFIG = SolverConfig(time_limit=None)


class DegenerateUpdateError(ArithmeticError):
    pass


@dataclass(frozen=True)
class SensorModel:
    """Binary detector: alpha1 = P(reading 1 | target present),
    alpha2 = P(reading 1 | target absent)."""
    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            a = getattr(self, name)
            if not (0.0 <= a <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {a}")

    @property
    def is_uninformative(self) -> bool:
        # readings carry no evidence; updates become the identity
        return self.alpha1 == self.alpha2


@dataclass(frozen=True)
class GroundTruth:
    present: tuple

    @classmethod
    def from_targets(cls, n: int, targets) -> "GroundTruth":
        targets = list(targets)
        for t in targets:
            if not _integral(t):
                raise ValueError(f"target must be an integer, got {t!r}")
            if not (0 <= t < n):
                raise ValueError(f"target {t} out of range")
        targets = set(targets)
        return cls(tuple(v in targets for v in range(n)))

    @property
    def n(self) -> int:
        return len(self.present)


@dataclass(frozen=True)
class MissionConfig:
    planner: str = "rpt"
    seed: int = 0
    p_high: float = 0.98
    p_low: float = 0.15
    max_steps: int = 10_000

    def __post_init__(self):
        # each rule is written so that NaN fails it
        if not (0.0 < self.p_low < self.p_high < 1.0):
            raise ValueError(
                f"need 0 < p_low < p_high < 1, got {self.p_low}, {self.p_high}")
        if self.planner not in PLANNERS:
            raise ValueError(f"unknown planner {self.planner!r}")
        if not (_integral(self.seed) and self.seed >= 0):
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if not (_integral(self.max_steps) and self.max_steps >= 1):
            raise ValueError("max_steps must be positive and integral, "
                             f"got {self.max_steps!r}")


@dataclass
class MissionStep:
    step: int
    time: float
    vertex: int
    reading: int
    beliefs: tuple
    retired: tuple | None  # (vertex, "present" | "absent") or None


@dataclass
class MissionLog:
    planner: str
    seed: int
    status: str  # "complete" or "truncated"
    duration: float
    steps: list
    classification: tuple  # per vertex: "present", "absent" or None
    misclassified: int

    def to_json_lines(self) -> str:
        out = []
        for s in self.steps:
            out.append(json.dumps({
                "step": s.step,
                "time": round(s.time, 12),
                "vertex": s.vertex,
                "reading": s.reading,
                "beliefs": [round(b, 12) for b in s.beliefs],
                "retired": list(s.retired) if s.retired else None,
            }))
        out.append(json.dumps({
            "summary": True,
            "planner": self.planner,
            "seed": self.seed,
            "status": self.status,
            "duration": round(self.duration, 12),
            "steps": len(self.steps),
            "classification": [c or "undecided" for c in self.classification],
            "misclassified": self.misclassified,
        }))
        return "\n".join(out) + "\n"


def predict(belief):
    """Motion update for a static target: the identity."""
    return belief


def update(belief, v: int, reading: int, sensor: SensorModel):
    """Posterior belief after one reading at v; other entries untouched."""
    belief = np.asarray(belief, dtype=np.float64)
    b = belief[v]
    if reading:
        like_p, like_a = sensor.alpha1, sensor.alpha2
    else:
        like_p, like_a = 1.0 - sensor.alpha1, 1.0 - sensor.alpha2
    den = like_p * b + like_a * (1.0 - b)
    if den == 0.0:
        raise DegenerateUpdateError(
            f"impossible reading {reading} at belief {b} under this sensor")
    out = belief.copy()
    out[v] = like_p * b / den
    return out


def observe(truth: GroundTruth, v: int, sensor: SensorModel, rng) -> int:
    """Draw one reading at v: 1 with probability alpha1 if the target is
    there, alpha2 otherwise."""
    p_one = sensor.alpha1 if truth.present[v] else sensor.alpha2
    return int(rng.random() < p_one)


def plan_next(inst: Instance, beliefs, surviving, current: int,
              planner: str) -> int:
    """Next vertex to visit: solve a full visiting order over the surviving
    vertices from the robot position and take its first move."""
    others = sorted(v for v in surviving if v != current)
    if not others:
        return current
    verts = np.array([current] + others)
    # beliefs are never negative, so only the upper clamp can act
    sub_prob = np.minimum(np.asarray(beliefs)[verts], PROB_CLAMP)
    if current not in surviving:
        sub_prob[0] = 0.0
    sub = inst.restrict(verts, sub_prob, "replan")
    if planner == "rpt":
        res = solve(sub, REPLAN_CONFIG, first_move=True)
    elif planner == "greedy":
        res = greedy_solve(sub, score=False)
    elif planner == "blind":
        res = blind_hpp_solve(sub, score=False)
    else:
        raise ValueError(f"unknown planner {planner!r}")
    if res.status != "ok":
        # fall back to the nearest survivor so the mission can continue
        return min(others, key=lambda u: (inst.cost[current, u], u))
    return int(verts[res.path[1]])


def run_mission(inst: Instance, truth: GroundTruth, sensor: SensorModel,
                cfg: MissionConfig) -> MissionLog:
    """Run one search mission. The instance's probability vector is the
    initial belief; instance costs are the travel times."""
    n = inst.n
    if truth.n != n:
        raise ValueError("ground truth size does not match the instance")
    beliefs = np.array(inst.prob, dtype=np.float64)
    surviving = set(range(n))
    classification: list = [None] * n
    current = inst.start
    t = 0.0
    steps: list = []
    status = "complete"

    while True:
        step_no = len(steps) + 1
        rng = np.random.default_rng((cfg.seed, step_no))
        z = observe(truth, current, sensor, rng)
        beliefs = update(predict(beliefs), current, z, sensor)
        retired = None
        if current in surviving:
            b = beliefs[current]
            if b > cfg.p_high:
                classification[current] = "present"
                surviving.discard(current)
                retired = (current, "present")
            elif b < cfg.p_low:
                classification[current] = "absent"
                surviving.discard(current)
                retired = (current, "absent")
        steps.append(MissionStep(step_no, t, current, z,
                                 tuple(beliefs.tolist()), retired))
        if not surviving:
            break
        if step_no >= cfg.max_steps:
            status = "truncated"
            break
        nxt = plan_next(inst, beliefs, surviving, current, cfg.planner)
        if nxt != current:
            t += float(inst.cost[current, nxt])
            current = nxt

    wrong = sum(1 for v in range(n)
                if classification[v] is not None
                and (classification[v] == "present") != bool(truth.present[v]))
    return MissionLog(cfg.planner, cfg.seed, status, t, steps,
                      tuple(classification), wrong)
