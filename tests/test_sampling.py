"""The sampler's generator: numpy's ``default_rng(seed).uniform`` stream,
reproduced bit for bit without numpy."""

import numpy as np
import pytest

from dp3 import sampling
from dp3.monodromy import point_to_json
from dp3.sampling import _PCG64, sample_manifold

# 2**128 + 7 has five uint32 words, one more than SeedSequence's pool
SEEDS = [*range(200), 2**32, 2**64 + 1, 2**128 + 7]
BOUNDS = [(-1.2, 1.2), (-0.0, 0.0), (0.0, 0.0), (-0.3, 2.5), (-1e-300, 1e-300),
          (-8.9e307, 8.9e307), (4.0, 4.0)]


def test_draws_equal_numpy_default_rng():
    for seed in SEEDS:
        ours, numpys = _PCG64(seed), np.random.default_rng(seed)
        for lo, hi in BOUNDS * 3:
            x, y = ours.uniform(lo, hi), numpys.uniform(lo, hi)
            assert type(x) is float
            assert x.hex() == y.hex(), (seed, lo, hi)


@pytest.mark.parametrize("branch", [1, 2, 3])
@pytest.mark.parametrize("bounds", [{}, {"abs_a_max": 0.0}, {"max_entry": 2.0},
                                    {"re_rho_max": 0.2}])
def test_sample_manifold_equals_a_run_on_numpy(branch, bounds, monkeypatch):
    def run():
        return [point_to_json(p) for seed in (0, 17, 2**70)
                for p in sample_manifold(seed, 15, branch, **bounds)]

    ours = run()
    monkeypatch.setattr(sampling, "_PCG64", np.random.default_rng)
    assert ours == run()
