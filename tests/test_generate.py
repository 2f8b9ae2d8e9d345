import numpy as np
import pytest

import hpppt.generate
from hpppt import assign_probabilities, derive_seed, generate_random
from hpppt.generate import default_extent
from hpppt.instance import is_metric


def test_deterministic_for_seed():
    a = generate_random(12, seed=42)
    b = generate_random(12, seed=42)
    assert np.array_equal(a.cost, b.cost)
    assert np.array_equal(a.coords, b.coords)
    c = generate_random(12, seed=43)
    assert not np.array_equal(a.coords, c.coords)


def test_costs_are_euclidean_and_metric():
    inst = generate_random(15, seed=1)
    delta = inst.coords[:, None] - inst.coords[None]
    assert np.allclose(inst.cost, np.sqrt((delta ** 2).sum(2)), atol=0)
    assert is_metric(inst)
    assert inst.start == 0
    assert inst.prob.tolist() == [0.0] * 15


def test_extent_switches_at_forty():
    assert default_extent(40) == 500.0
    assert default_extent(41) == 5000.0
    small = generate_random(8, seed=2)
    assert small.coords.max() <= 500.0
    wide = generate_random(41, seed=2)
    assert wide.coords.max() > 500.0


def test_minimum_separation_holds():
    inst = generate_random(30, seed=3)
    off = inst.cost[~np.eye(30, dtype=bool)]
    assert off.min() >= 5.0


def test_separation_failure_raises(monkeypatch):
    # 50 points more than 5000 m apart cannot fit in a 5000 x 5000 box
    monkeypatch.setattr(hpppt.generate, "MIN_SEP", 5000.0)
    with pytest.raises(RuntimeError):
        generate_random(50, seed=4)


def test_assign_probabilities_range_and_determinism():
    base = generate_random(20, seed=5)
    a = assign_probabilities(base, seed=6)
    b = assign_probabilities(base, seed=6)
    assert np.array_equal(a.prob, b.prob)
    assert (a.prob >= 0.0).all() and (a.prob < 0.9).all()
    assert np.array_equal(a.cost, base.cost)
    c = assign_probabilities(base, seed=6, p_max=0.1)
    assert (c.prob < 0.1).all()


def test_instance_names_encode_parameters():
    assert generate_random(7, seed=9).name == "rand-n7-s9"


def test_derive_seed_stable_and_order_sensitive():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    s = derive_seed(0, 5, 1)
    assert 0 <= s < 2 ** 64
