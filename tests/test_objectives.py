"""Loss functions: closed forms, gradient checks, sign conventions."""

import numpy as np
import pytest

from radiofield.objectives import (
    LossReport,
    background_entropy,
    spectrum_mse,
    total_loss,
)
from radiofield.trainer import TrainConfig


class TestSpectrumMse:
    def test_perfect_prediction(self):
        p = np.array([0.1, 0.5, 0.9])
        loss, grad = spectrum_mse(p, p.copy())
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_uniform_residual(self):
        t = np.full(16, 0.4)
        loss, _ = spectrum_mse(t + 0.1, t)
        assert loss == pytest.approx(0.01, abs=1e-15)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 1, 32)
        t = rng.uniform(0, 1, 32)
        _, grad = spectrum_mse(p, t)
        h = 1e-7
        for i in range(0, 32, 5):
            orig = p[i]
            p[i] = orig + h
            hi, _ = spectrum_mse(p, t)
            p[i] = orig - h
            lo, _ = spectrum_mse(p, t)
            p[i] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-6 * max(abs(fd), 1.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            spectrum_mse(np.empty(0), np.empty(0))


class TestBackgroundEntropy:
    def test_half_is_ln2_per_ray(self):
        loss, _ = background_entropy(np.array([0.5]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-9)

    def test_clamped_extremes_vanish(self):
        for extreme in (0.0, 1.0):
            loss, grad = background_entropy(np.array([extreme]))
            assert loss < 2e-5
            assert np.all(grad == 0)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(0.01, 0.99, 20)
        a, _ = background_entropy(t)
        b, _ = background_entropy(1.0 - t)
        assert a == pytest.approx(b, rel=1e-12)

    def test_sum_over_batch(self):
        one, _ = background_entropy(np.array([0.5]))
        many, _ = background_entropy(np.full(7, 0.5))
        assert many == pytest.approx(7 * one, rel=1e-12)

    def test_gradient_sign_pushes_away_from_half(self):
        # dLoss/dT = -ln(T/(1-T)): positive below 0.5, negative above, so
        # descent decreases T below 0.5 and increases it above.
        _, grad = background_entropy(np.array([0.2, 0.5, 0.8]))
        assert grad[0] > 0
        assert grad[1] == pytest.approx(0.0, abs=1e-12)
        assert grad[2] < 0
        np.testing.assert_allclose(grad[0], -np.log(0.2 / 0.8), rtol=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(0.05, 0.95, 16)
        _, grad = background_entropy(t)
        h = 1e-7
        for i in range(16):
            orig = t[i]
            t[i] = orig + h
            hi, _ = background_entropy(t)
            t[i] = orig - h
            lo, _ = background_entropy(t)
            t[i] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-6 * max(abs(fd), 1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        loss, _ = background_entropy(rng.uniform(0, 1, 100))
        assert loss >= 0


class TestTotalLoss:
    def test_zero_weight(self):
        assert total_loss(0.25, 3.0, 0.0) == 0.25

    def test_weighted_sum(self):
        assert total_loss(0.01, 0.7, 1e-4) == pytest.approx(0.01007, abs=1e-15)

    def test_default_weight_value(self):
        assert TrainConfig().bg_weight == 1e-4

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            total_loss(0.1, 0.1, -1.0)


class TestLossReport:
    def test_total_consistent(self):
        rep = LossReport.build(0.02, 1.5, 1e-4, ray_count=64)
        assert rep.total == pytest.approx(rep.spectrum_loss + 1e-4 * rep.bg_loss,
                                          abs=1e-12)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            LossReport(spectrum_loss=-0.1, bg_loss=0.0, total=-0.1, ray_count=1)
