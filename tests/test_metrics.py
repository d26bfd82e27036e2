"""SSIM, percentile, and RSSI-error metric behavior."""

import numpy as np
import pytest

from radiofield.metrics import (
    cdf_table,
    gaussian_window,
    percentile_summary,
    rssi_error,
    ssim,
    write_cdf_csv,
    write_indexed_csv,
)


def random_spectrum(seed, shape=(36, 9)):
    return np.random.default_rng(seed).uniform(0, 1, size=shape)


class TestSsim:
    def test_identity_is_exactly_one(self):
        x = random_spectrum(0)
        assert ssim(x, x) == 1.0

    def test_inverted_checkerboard_scores_low(self):
        i, j = np.meshgrid(np.arange(36), np.arange(9), indexing="ij")
        x = ((i + j) % 2).astype(np.float64)
        assert ssim(x, 1.0 - x) < 0.2

    def test_symmetric(self):
        a, b = random_spectrum(1), random_spectrum(2)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_bounded(self):
        for s in range(5):
            a, b = random_spectrum(s), random_spectrum(s + 50)
            assert abs(ssim(a, b)) <= 1.0 + 1e-12

    def test_window_sums_to_one(self):
        taps = gaussian_window(11, 1.5)
        assert taps.sum() == pytest.approx(1.0, abs=1e-12)
        window_2d = np.outer(taps, taps)
        assert window_2d.sum() == pytest.approx(1.0, abs=1e-12)
        assert window_2d.shape == (11, 11)

    def test_fixed_data_range_is_scale_sensitive(self):
        # With data_range held at 1.0, rescaling both inputs changes the
        # score: the stabilizing constants do not rescale with the data.
        a, b = random_spectrum(3), random_spectrum(4)
        full = ssim(a, b)
        halved = ssim(0.5 * a, 0.5 * b)
        assert abs(full - halved) > 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 4)), np.zeros((8, 5)))

    def test_small_grid_with_symmetric_padding(self):
        # 36x9 spectra are narrower than the 11x11 window; symmetric padding
        # keeps the window valid.
        a = random_spectrum(5, shape=(36, 9))
        noisy = np.clip(a + 0.05 * np.random.default_rng(6).normal(size=a.shape), 0, 1)
        score = ssim(a, noisy)
        assert 0.0 < score < 1.0

    def test_more_similar_scores_higher(self):
        a = random_spectrum(7)
        rng = np.random.default_rng(8)
        near = np.clip(a + 0.02 * rng.normal(size=a.shape), 0, 1)
        far = np.clip(a + 0.3 * rng.normal(size=a.shape), 0, 1)
        assert ssim(a, near) > ssim(a, far)


class TestPercentiles:
    def test_median_of_small_list(self):
        assert percentile_summary([1, 2, 3, 4, 5])["median"] == 3.0

    def test_constants(self):
        s = percentile_summary(np.full(9, 4.2))
        assert s["p25"] == s["median"] == s["p75"] == pytest.approx(4.2)

    def test_linear_interpolation_rule(self):
        assert percentile_summary([0.0, 10.0])["p25"] == pytest.approx(2.5)

    def test_monotone_in_fraction(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=200)
        qs = np.percentile(v, np.linspace(0, 100, 41), method="linear")
        assert np.all(np.diff(qs) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_summary([])

    def test_cdf_table(self):
        table = cdf_table([3.0, 1.0, 2.0])
        np.testing.assert_allclose(table[:, 0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(table[:, 1], [1 / 3, 2 / 3, 1.0])


class TestRssiError:
    def test_identical_lists(self):
        errors, summary = rssi_error([-40.0, -55.0], [-40.0, -55.0])
        assert np.all(errors == 0)
        assert summary["median"] == 0.0

    def test_constant_offset(self):
        meas = np.array([-50.0, -60.0, -45.0])
        errors, summary = rssi_error(meas + 3.0, meas)
        np.testing.assert_allclose(errors, 3.0)
        assert summary["p75"] == pytest.approx(3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rssi_error([1.0], [1.0, 2.0])


class TestCsvWriters:
    def test_indexed_csv(self, tmp_path):
        path = tmp_path / "ssim.csv"
        write_indexed_csv(path, "tx_index,ssim", [7, 2], [0.5, 0.25])
        lines = path.read_text().splitlines()
        assert lines == ["tx_index,ssim", "7,0.5", "2,0.25"]
        with pytest.raises(ValueError):
            write_indexed_csv(path, "tx_index,ssim", [7], [0.5, 0.25])

    def test_cdf_csv(self, tmp_path):
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, [2.0, 1.0], value_name="ssim")
        lines = path.read_text().splitlines()
        assert lines[0] == "ssim,fraction"
        assert lines[1] == "1,0.5"
