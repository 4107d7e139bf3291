import math

import numpy as np
import pytest

from timnoma import NoiseModel, ValidationError, draw_fading, draw_fading_power

from helpers import add_noise


class TestDrawFading:
    def test_deterministic_given_seed(self):
        a = draw_fading(np.random.default_rng(7), 5)
        b = draw_fading(np.random.default_rng(7), 5)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (5,)

    def test_block_shape(self, rng):
        assert draw_fading(rng, 3, blocks=10).shape == (3, 10)

    def test_unit_variance(self):
        h = draw_fading(np.random.default_rng(11), 1, blocks=100_000)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_zero_mean(self):
        h = draw_fading(np.random.default_rng(13), 1, blocks=100_000)
        assert abs(np.mean(h)) < 0.01

    def test_rejects_empty(self, rng):
        with pytest.raises(ValidationError):
            draw_fading(rng, 0)


class TestDrawFadingPower:
    def test_shape_and_dtype(self, rng):
        power = draw_fading_power(rng, 3, 10)
        assert power.shape == (3, 10)
        assert power.dtype == np.float64

    def test_deterministic_given_seed(self):
        a = draw_fading_power(np.random.default_rng(7), 5, 20)
        b = draw_fading_power(np.random.default_rng(7), 5, 20)
        np.testing.assert_array_equal(a, b)

    def test_unit_mean_and_variance(self):
        n = 200_000
        power = draw_fading_power(np.random.default_rng(19), 1, n).ravel()
        # Exp(1): the mean has variance 1/n, the sample variance about
        # (mu4 - 1)/n with fourth central moment mu4 = 9
        assert abs(power.mean() - 1.0) < 4.0 / math.sqrt(n)
        assert abs(power.var(ddof=1) - 1.0) < 4.0 * math.sqrt(8.0 / n)

    @pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 2.0, 4.0])
    def test_distribution_matches_squared_magnitude_of_draw_fading(self, x):
        # both |h|^2 routes have the Exp(1) CDF 1 - e^-x
        n = 100_000
        exact = 1.0 - math.exp(-x)
        stderr = math.sqrt(exact * (1.0 - exact) / n)
        samples = {
            "draw_fading_power": draw_fading_power(np.random.default_rng(29), 1, n),
            "|draw_fading|^2": np.abs(draw_fading(np.random.default_rng(31), 1, n)) ** 2,
        }
        for name, power in samples.items():
            empirical = np.count_nonzero(power <= x) / n
            assert abs(empirical - exact) < 4.0 * stderr, name

    def test_rejects_empty(self, rng):
        with pytest.raises(ValidationError):
            draw_fading_power(rng, 0, 5)


class TestAddNoise:
    def test_noiseless_limit(self, rng):
        signal = np.array([1 + 1j, -2 + 0.5j])
        out = add_noise(rng, signal, NoiseModel(1e-30))
        np.testing.assert_allclose(out, signal, atol=1e-12)

    def test_empirical_variance(self):
        rng = np.random.default_rng(17)
        noise = add_noise(rng, np.zeros(100_000), NoiseModel(0.7))
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.7, rel=0.02)

    def test_deterministic_given_seed(self):
        out1 = add_noise(np.random.default_rng(3), np.zeros(8), NoiseModel(2.0))
        out2 = add_noise(np.random.default_rng(3), np.zeros(8), NoiseModel(2.0))
        np.testing.assert_array_equal(out1, out2)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValidationError):
            NoiseModel(0.0)
        with pytest.raises(ValidationError):
            NoiseModel(-1.0)


class TestProjectionKeepsNoiseWhite:
    def test_variance_preserved_along_unit_vector(self, ref_basis):
        rng = np.random.default_rng(23)
        noise = add_noise(rng, np.zeros((2, 100_000)), NoiseModel(0.5))
        projected = ref_basis.vectors[0] @ noise
        assert np.mean(np.abs(projected) ** 2) == pytest.approx(0.5, rel=0.02)
