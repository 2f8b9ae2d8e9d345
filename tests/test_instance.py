import copy
import pickle

import numpy as np
import pytest

from hpppt import (Instance, InvalidInstanceError, InvalidPathError,
                   MetricViolationError, check_path, expected_cost_q,
                   is_metric, max_metric_violation, metric_closure,
                   require_metric, solve)
from hpppt import instance as instance_mod
from hpppt.bench import make_instance
from hpppt.formats import load_instance, parse_hpt, save_instance
from hpppt.instance import METRIC_REL_TOL, euclidean_costs
from support import (expected_cost_by_cases, expected_cost_direct,
                     random_instance)

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
    # coords next to a valid cost matrix, where they would only be kept
    with pytest.raises(InvalidInstanceError, match="coords must be finite"):
        Instance([[0.0]], [0.0], 0, "x", [[np.inf, 0.0]])
    with pytest.raises(InvalidInstanceError, match="coords must be finite"):
        Instance([[0, 1], [1, 0]], [0.1, 0.1], 0, "x",
                 [[0.0, 0.0], [np.nan, 1.0]])


def test_start_must_be_an_integer():
    # each would otherwise construct with start 1
    for start in (1.5, 1.0, True, "1", np.float64(1.0)):
        with pytest.raises(InvalidInstanceError, match="start"):
            Instance([[0, 1], [1, 0]], [0.1, 0.1], start)
    assert Instance([[0, 1], [1, 0]], [0.1, 0.1], np.int64(1)).start == 1


def test_seed_must_be_an_integer_or_none():
    # each would otherwise record a SEED the instance was not drawn from
    for seed in (2.5, 2.0, True, "2", np.float64(2.0)):
        with pytest.raises(InvalidInstanceError, match="seed"):
            Instance([[0, 1], [1, 0]], [0.1, 0.1], 0, seed=seed)
    assert Instance([[0, 1], [1, 0]], [0.1, 0.1], 0).seed is None
    assert Instance([[0, 1], [1, 0]], [0.1, 0.1], 0,
                    seed=np.int64(7)).seed == 7


def _asymmetric_instance(rng, n):
    cost = rng.uniform(1.0, 50.0, (n, n))
    np.fill_diagonal(cost, 0.0)
    return Instance(cost, rng.uniform(0.0, 0.9, n), 0)


def test_restrict_matches_rebuilt_instance():
    rng = np.random.default_rng(23)
    for trial in range(120):
        n = int(rng.integers(1, 16))
        inst = (_asymmetric_instance(rng, n) if trial % 3 == 2 else
                random_instance(rng, n, euclidean=trial % 3 == 0))
        m = int(rng.integers(1, n + 1))
        verts = [int(v) for v in rng.permutation(n)[:m]]
        prob = rng.uniform(0.0, 1.0 - 1e-9, m)
        sub = inst.restrict(verts, prob, "sub")
        ref = Instance(inst.cost[np.ix_(verts, verts)], prob, 0)
        assert sub.cost.tobytes() == ref.cost.tobytes()
        assert sub.prob.tobytes() == ref.prob.tobytes()
        assert sub.cost.shape == ref.cost.shape
        assert (sub.n, sub.start, sub.name) == (m, 0, "sub")
        assert sub.coords is None and sub.seed is None
        assert not sub.cost.flags.writeable
        assert not sub.prob.flags.writeable
        with pytest.raises(AttributeError):
            sub.start = 1
    # the sub-instance owns its arrays: writing the caller's prob later
    # leaves it unchanged
    prob = np.array([0.2, 0.3])
    sub = TRI.restrict(np.array([2, 0]), prob)
    prob[0] = 0.9
    assert sub.prob.tolist() == [0.2, 0.3]
    assert sub.cost.tolist() == [[0.0, 4.0], [4.0, 0.0]]


def test_restrict_rejects_bad_vertices_and_probabilities():
    for verts in ([], [0, 0], [0, 3], [-1, 0], [0.0, 1.0], [True, False],
                  [[0, 1]]):
        with pytest.raises(InvalidInstanceError):
            TRI.restrict(verts, [0.1] * max(1, len(verts)))
    for prob in ([0.1, np.nan], [0.1, -0.1], [0.1, 1.0], [0.1, 2.0],
                 [0.1, np.inf], [0.1], [0.1, 0.1, 0.1]):
        with pytest.raises(InvalidInstanceError):
            TRI.restrict([0, 1], prob)
    assert TRI.restrict([1, 2], [0.1, 0.1]).n == 2


def test_instances_are_immutable():
    with pytest.raises(AttributeError):
        TRI.start = 1
    assert not TRI.cost.flags.writeable
    assert not TRI.prob.flags.writeable


@pytest.mark.parametrize("make", [
    lambda: make_instance(6, 1, 4),
    lambda: parse_hpt("NAME full\nN 3\nSTART 1\nPROB 0.2 0.5 0.3\n"
                      "MATRIX FULL\n0 1 4\n1 0 2\n4 2 0\n"),
    lambda: TRI.restrict(np.array([2, 0]), [0.4, 0.1], "sub"),
], ids=["generated", "matrix-full", "restricted"])
@pytest.mark.parametrize("clone", [
    lambda inst: pickle.loads(pickle.dumps(inst)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_instances_pickle_and_copy(make, clone):
    inst = make()
    back = clone(inst)
    assert type(back) is Instance and back is not inst
    for field in ("cost", "prob", "coords"):
        a, b = getattr(inst, field), getattr(back, field)
        if a is None:
            assert b is None
        else:
            assert np.array_equal(a, b) and a.dtype == b.dtype
            assert not b.flags.writeable
    assert (back.start, back.name, back.seed) == (inst.start, inst.name,
                                                  inst.seed)
    with pytest.raises(AttributeError):
        back.start = 0


def test_non_metric_costs_are_allowed_at_construction():
    # the worked example itself violates the triangle inequality (4 > 1+2)
    assert max_metric_violation(TRI) == pytest.approx(1.0)
    assert not is_metric(TRI)
    with pytest.raises(MetricViolationError):
        require_metric(TRI)


@pytest.fixture
def relay_calls(monkeypatch):
    """The sizes of the Floyd-Warshall runs made while the test runs."""
    calls = []
    relay = instance_mod._relay_costs

    def counting_relay(cost):
        calls.append(len(cost))
        return relay(cost)

    monkeypatch.setattr(instance_mod, "_relay_costs", counting_relay)
    return calls


def test_metric_verdict_is_computed_once_and_carried(tmp_path, relay_calls):
    """is_metric runs one Floyd-Warshall per matrix instance and keeps the
    verdict; load_instance leaves it set, restrict passes the parent's on,
    and a pickled copy computes its own."""
    calls = relay_calls
    tri = Instance(TRI.cost, TRI.prob, 0, "tri")
    # without coords a metric instance needs a Floyd-Warshall for its verdict
    base = make_instance(6, 0, 4)
    metric = Instance(base.cost, base.prob, 0, "six")
    for _ in range(3):
        assert not is_metric(tri)
        assert is_metric(metric)
        require_metric(metric)
    assert calls == [3, 6]
    # a two-vertex sub-instance is metric, but it carries its parent's False
    assert not is_metric(tri.restrict([0, 1], [0.1, 0.1]))
    assert is_metric(metric.restrict([3, 1, 4], [0.1, 0.2, 0.3]))
    assert calls == [3, 6]
    assert is_metric(pickle.loads(pickle.dumps(metric)))
    assert calls == [3, 6, 6]
    path = tmp_path / "six.hpt"
    save_instance(metric, path)
    loaded = load_instance(path)
    assert calls == [3, 6, 6, 6]
    assert is_metric(loaded)
    assert calls == [3, 6, 6, 6]


def _old_euclidean_costs(coords):
    delta = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((delta ** 2).sum(axis=2))


def test_euclidean_costs_keep_the_bytes_of_the_summed_form():
    rng = np.random.default_rng(11)
    for scale in (1e-200, 1e-100, 1e-3, 1.0, 500.0, 1e100, 1e155, 1e200):
        for n in (1, 2, 7, 40):
            coords = rng.uniform(-scale, scale, (n, 2))
            with np.errstate(over="ignore", under="ignore"):
                old = _old_euclidean_costs(coords)
                new = euclidean_costs(coords)
            assert new.dtype == np.float64
            assert new.tobytes() == old.tobytes()
    # squares that overflow give inf in both forms
    with np.errstate(over="ignore"):
        assert np.isinf(euclidean_costs(np.array([[0.0, 0.0],
                                                  [1e200, 0.0]]))[0, 1])


def _coordinate_draws(rng):
    """Planar point sets of four kinds at scales from 1e-100 to 1e100."""
    for scale in (1e-100, 1e-50, 1e-20, 1e-3, 1.0, 500.0, 1e20, 1e50, 1e100):
        for _ in range(60):
            n = int(rng.integers(2, 13))
            yield rng.uniform(0.0, 1.0, (n, 2)) * scale
            t = np.sort(rng.uniform(0.0, 1.0, n))
            a, b = rng.uniform(-1.0, 1.0, 2)
            yield np.column_stack([t * a, t * b + 0.25]) * scale
            base = rng.uniform(0.0, 1.0, 2)
            near = base + np.arange(n)[:, None] * np.array([1e-9, -1e-9])
            yield near * scale
            cells = rng.choice(49, size=min(n, 49), replace=False)
            yield np.column_stack([cells // 7, cells % 7]) * scale


def test_euclidean_shortcut_agrees_with_floyd_warshall():
    """The shortcut's True is what the tolerance test on one
    Floyd-Warshall gives, and the violation stays inside is_metric's bound
    of (n + 6) * 2**-53 times the largest cost."""
    rng = np.random.default_rng(2026)
    count = 0
    for coords in _coordinate_draws(rng):
        n = len(coords)
        inst = Instance(euclidean_costs(coords), np.zeros(n), 0, "", coords)
        assert instance_mod.has_euclidean_costs(inst)
        top = float(np.max(inst.cost))
        gap = max_metric_violation(inst)
        assert gap <= (n + 6) * 2.0 ** -53 * top
        assert is_metric(inst) == (gap <= METRIC_REL_TOL * max(1.0, top))
        count += 1
    assert count >= 2000


def test_coordinate_instances_need_no_floyd_warshall(tmp_path, relay_calls):
    inst = make_instance(9, 0, 3)
    assert is_metric(inst)
    assert is_metric(pickle.loads(pickle.dumps(inst)))
    path = tmp_path / "nine.hpt"
    save_instance(inst, path)
    assert is_metric(load_instance(path))
    rng = np.random.default_rng(5)
    coords = rng.uniform(0.0, 5000.0, (1000, 2))
    big = Instance(euclidean_costs(coords), rng.uniform(0.0, 0.9, 1000), 0,
                   "big", coords)
    path = tmp_path / "big.hpt"
    save_instance(big, path)
    assert "COORDS" in path.read_text()
    assert is_metric(load_instance(path))
    assert relay_calls == []


def test_coords_that_do_not_give_the_costs_take_floyd_warshall(relay_calls):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    # the coords say 2, the cost says 4: no shortcut, and not metric
    inst = Instance([[0, 1, 4], [1, 0, 1], [4, 1, 0]], np.zeros(3), 0, "",
                    coords)
    assert not instance_mod.has_euclidean_costs(inst)
    assert not is_metric(inst)
    assert relay_calls == [3]


def test_require_metric_runs_one_floyd_warshall(relay_calls):
    tri = Instance(TRI.cost, TRI.prob, 0, "tri")
    with pytest.raises(MetricViolationError) as err:
        require_metric(tri)
    assert str(err.value) == ("triangle inequality violated by up to 1; "
                              "apply metric_closure to repair")
    assert relay_calls == [3]
    # a verdict already kept costs one more run, for the message alone
    with pytest.raises(MetricViolationError, match="up to 1;"):
        require_metric(tri)
    assert relay_calls == [3, 3]


def test_closure_carries_its_verdict(tmp_path, relay_calls):
    path = tmp_path / "tri.hpt"
    save_instance(TRI, path)
    closed = load_instance(path, metric_closure=True)
    assert relay_calls == [3]
    assert solve(closed).status == "ok"
    assert is_metric(closed)
    assert relay_calls == [3]
    # the carried verdict is the one a fresh copy computes
    assert is_metric(pickle.loads(pickle.dumps(closed)))
    assert relay_calls == [3, 3]


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
    assert check_path(TRI, (0, 1, 2), full=True) == (0, 1, 2)
    with pytest.raises(InvalidPathError):
        check_path(TRI, (0, 1), full=True)
