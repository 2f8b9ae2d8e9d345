"""Seeded random instance generation."""

import numpy as np

from .instance import Instance, euclidean_costs

# generated points lie more than MIN_SEP apart
MIN_SEP = 5.0


class GenerationError(RuntimeError):
    pass


def default_extent(n: int) -> float:
    # benchmark convention: small instances on a 500 x 500 field,
    # larger ones on 5000 x 5000
    return 500.0 if n <= 40 else 5000.0


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from a tuple of integers."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def generate_random(n: int, seed: int = 0) -> Instance:
    """Uniform points on [0, default_extent(n)]^2 with pairwise separation
    > MIN_SEP.

    Costs are exact Euclidean distances, probabilities are zero (see
    assign_probabilities), start is vertex 0. Identical arguments give a
    bit-identical instance.
    """
    if n < 1:
        raise GenerationError("need at least one vertex")
    extent = default_extent(n)
    cap = max(1000 * n, 10_000)
    rng = np.random.default_rng(seed)
    pts: list[np.ndarray] = []
    tries = 0
    while len(pts) < n:
        tries += 1
        if tries > cap:
            raise GenerationError(
                f"could not place {n} points with separation {MIN_SEP} "
                f"in extent {extent} after {cap} draws")
        p = rng.uniform(0.0, extent, 2)
        ok = True
        for q in pts:
            d = p - q
            if d[0] * d[0] + d[1] * d[1] <= MIN_SEP * MIN_SEP:
                ok = False
                break
        if ok:
            pts.append(p)
    coords = np.array(pts)
    cost = euclidean_costs(coords)
    name = f"rand-n{n}-s{seed}"
    return Instance(cost, np.zeros(n), 0, name, coords, seed)


def assign_probabilities(inst: Instance, seed: int, p_max: float = 0.9) -> Instance:
    """New instance with probabilities drawn uniformly from [0, p_max)."""
    if not (0.0 <= p_max < 1.0):
        raise ValueError(f"p_max must lie in [0, 1), got {p_max}")
    rng = np.random.default_rng(seed)
    prob = rng.uniform(0.0, p_max, inst.n)
    return Instance(inst.cost, prob, inst.start, inst.name, inst.coords, seed)
