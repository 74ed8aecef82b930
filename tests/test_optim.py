"""Adam behavior checks."""

import numpy as np
import pytest

from tokenhier.errors import ConfigError
from tokenhier.optim import AdamConfig, adam_init, adam_step


class TestAdam:
    def test_minimizes_quadratic(self):
        params = {"w": np.array([5.0, -3.0])}
        state = adam_init(params)
        cfg = AdamConfig(lr=0.05)
        for _ in range(500):
            adam_step(params, {"w": 2 * params["w"]}, state, cfg)
        assert np.abs(params["w"]).max() < 1e-3

    def test_first_step_is_signed_lr(self):
        """Bias correction makes step 1 approximately lr * sign(grad)."""
        params = {"w": np.array([1.0, 1.0])}
        state = adam_init(params)
        adam_step(params, {"w": np.array([0.3, -0.7])}, state,
                  AdamConfig(lr=0.01))
        np.testing.assert_allclose(params["w"], [1.0 - 0.01, 1.0 + 0.01],
                                   atol=1e-6)

    def test_decoupled_decay_shrinks_without_gradient(self):
        params = {"w": np.array([2.0])}
        state = adam_init(params)
        cfg = AdamConfig(lr=0.1, weight_decay=0.5)
        adam_step(params, {"w": np.array([0.0])}, state, cfg)
        np.testing.assert_allclose(params["w"], [2.0 - 0.1 * 0.5 * 2.0])

    def test_no_decay_list(self):
        params = {"w": np.array([2.0]), "b": np.array([2.0])}
        state = adam_init(params)
        cfg = AdamConfig(lr=0.1, weight_decay=0.5)
        adam_step(params, {"w": np.zeros(1), "b": np.zeros(1)}, state, cfg,
                  no_decay=("b",))
        assert params["w"][0] < 2.0
        assert params["b"][0] == 2.0

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            AdamConfig(lr=-1)
        with pytest.raises(ConfigError):
            AdamConfig(weight_decay=-1)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            params = {"w": np.array([1.0, 2.0, 3.0])}
            state = adam_init(params)
            for i in range(20):
                g = np.sin(np.arange(3) + i)
                adam_step(params, {"w": g}, state, AdamConfig(lr=0.03))
            runs.append(params["w"].copy())
        np.testing.assert_array_equal(runs[0], runs[1])
