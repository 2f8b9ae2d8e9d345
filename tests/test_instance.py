import numpy as np
import pytest

from hpppt import (Instance, InvalidInstanceError, InvalidPathError,
                   MetricViolationError, check_path, expected_cost_direct,
                   expected_cost_q, is_metric, is_solution_path,
                   max_metric_violation, metric_closure, require_metric)
from support import expected_cost_by_cases, random_instance

TRI = Instance([[0, 1, 4], [1, 0, 2], [4, 2, 0]], [0.2, 0.5, 0.3], 0, "tri")


def test_worked_three_vertex_example():
    # 0.8*0.5*1 + 0.8*0.5*(1+2) = 0.4 + 1.2
    assert expected_cost_direct(TRI, (0, 1, 2)) == pytest.approx(1.6, abs=1e-12)
    assert expected_cost_q(TRI, (0, 1, 2)) == pytest.approx(1.6, abs=1e-12)
    assert expected_cost_direct(TRI, (0, 2, 1)) == pytest.approx(4.32, abs=1e-12)


def test_two_vertex_cost():
    inst = Instance([[0, 10], [10, 0]], [0.5, 0.7], 0)
    assert expected_cost_direct(inst, (0, 1)) == pytest.approx(5.0)
    assert expected_cost_q(inst, (0, 1)) == pytest.approx(5.0)


def test_single_vertex_cost_is_zero():
    inst = Instance([[0.0]], [0.4], 0)
    assert expected_cost_direct(inst, (0,)) == 0.0
    assert expected_cost_q(inst, (0,)) == 0.0


def test_cost_forms_agree_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        inst = random_instance(rng, n, euclidean=bool(rng.integers(2)))
        order = [inst.start] + list(rng.permutation(
            [v for v in range(n) if v != inst.start]))
        a = expected_cost_direct(inst, order)
        b = expected_cost_q(inst, order)
        c = expected_cost_by_cases(inst, order)
        scale = max(1.0, abs(c))
        assert abs(a - c) <= 1e-9 * scale
        assert abs(b - c) <= 1e-9 * scale


def test_partial_path_cost():
    # only the q form accepts prefixes
    assert expected_cost_q(TRI, (0, 1)) == pytest.approx(0.8)
    assert expected_cost_q(TRI, (0,)) == 0.0
    assert expected_cost_q(TRI, ()) == 0.0


def test_validation_rejects_bad_matrices():
    with pytest.raises(InvalidInstanceError):
        Instance([[0, 1], [1, 0], [1, 1]], [0.1, 0.1], 0)
    with pytest.raises(InvalidInstanceError):
        Instance([[0, 1], [1, 0.5]], [0.1, 0.1], 0)  # nonzero diagonal
    with pytest.raises(InvalidInstanceError):
        Instance([[0, -1], [1, 0]], [0.1, 0.1], 0)
    with pytest.raises(InvalidInstanceError):
        Instance([[0, 0], [1, 0]], [0.1, 0.1], 0)  # zero off the diagonal
    with pytest.raises(InvalidInstanceError):
        Instance([[0, np.inf], [1, 0]], [0.1, 0.1], 0)
    with pytest.raises(InvalidInstanceError):
        Instance([[0, 1], [1, 0]], [0.1, 1.0], 0)  # prob must stay below 1
    with pytest.raises(InvalidInstanceError):
        Instance([[0, 1], [1, 0]], [0.1, -0.1], 0)
    with pytest.raises(InvalidInstanceError):
        Instance([[0, 1, 1], [1, 0, 1], [1, 1, 0]], [0.1, np.nan, 0.2], 0)
    with pytest.raises(InvalidInstanceError):
        Instance([[0, 1], [1, 0]], [0.1, 0.1], 2)
    with pytest.raises(InvalidInstanceError):
        Instance([[0, 1], [1, 0]], [0.1], 0)


def test_instances_are_immutable():
    with pytest.raises(AttributeError):
        TRI.start = 1
    assert not TRI.cost.flags.writeable
    assert not TRI.prob.flags.writeable


def test_non_metric_costs_are_allowed_at_construction():
    # the worked example itself violates the triangle inequality (4 > 1+2)
    assert max_metric_violation(TRI) == pytest.approx(1.0)
    assert not is_metric(TRI)
    with pytest.raises(MetricViolationError):
        require_metric(TRI)


def test_metric_closure_repairs_and_is_idempotent():
    closed = metric_closure(TRI)
    assert closed.cost[0, 2] == pytest.approx(3.0)
    assert is_metric(closed)
    again = metric_closure(closed)
    assert np.array_equal(again.cost, closed.cost)
    require_metric(closed)


def test_metric_closure_drops_stale_coords():
    coords = np.array([[0.0, 0.0], [3.0, 4.0]])
    inst = Instance([[0, 5], [5, 0]], [0.1, 0.1], 0, "m", coords)
    assert metric_closure(inst).coords is not None
    tri = Instance(TRI.cost, TRI.prob, 0, "t", np.zeros((3, 2)) + [[0, 0], [1, 0], [2, 0]])
    assert metric_closure(tri).coords is None


def test_check_path():
    assert check_path(TRI, (0, 2, 1), full=True) == (0, 2, 1)
    assert check_path(TRI, [], full=False) == ()
    with pytest.raises(InvalidPathError):
        check_path(TRI, (1, 0, 2), full=True)  # wrong start
    with pytest.raises(InvalidPathError):
        check_path(TRI, (0, 1), full=True)  # incomplete
    with pytest.raises(InvalidPathError):
        check_path(TRI, (0, 1, 1), full=True)  # repeat
    with pytest.raises(InvalidPathError):
        check_path(TRI, (0, 5), full=False)  # out of range
    assert is_solution_path(TRI, (0, 1, 2))
    assert not is_solution_path(TRI, (0, 1))
