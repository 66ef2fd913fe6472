"""CDF behaviour and distribution comparisons."""

import numpy as np
import pytest

from repro.metrics import Cdf, dominance_fraction, dominates, median_shift


class TestCdf:
    def test_evaluate_matches_definition(self):
        cdf = Cdf.from_samples([1, 2, 3, 4])
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(1) == 0.25
        assert cdf.evaluate(2.5) == 0.5
        assert cdf.evaluate(4) == 1.0

    def test_quantile_inverse_of_evaluate(self):
        samples = np.arange(1, 101, dtype=float)
        cdf = Cdf.from_samples(samples)
        assert cdf.quantile(0.5) == 50.0
        assert cdf.quantile(0.01) == 1.0
        assert cdf.quantile(1.0) == 100.0

    def test_median_property(self):
        assert Cdf.from_samples([5, 1, 9]).median == 5

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            Cdf.from_samples([])

    def test_quantile_bounds_checked(self):
        cdf = Cdf.from_samples([1, 2])
        with pytest.raises(ValueError):
            cdf.quantile(0.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.1)

    def test_as_points_is_nondecreasing(self):
        cdf = Cdf.from_samples([3, 1, 4, 1, 5])
        points = cdf.as_points()
        xs = [x for x, _ in points]
        ps = [p for _, p in points]
        assert xs == sorted(xs)
        assert ps == sorted(ps)
        assert ps[-1] == 1.0


class TestComparisons:
    def test_median_shift_sign(self):
        fast = Cdf.from_samples([1, 2, 3])
        slow = Cdf.from_samples([11, 12, 13])
        assert median_shift(fast, slow) == 10
        assert median_shift(slow, fast) == -10

    def test_dominates_for_shifted_distribution(self):
        rng = np.random.default_rng(0)
        base = rng.normal(10, 1, 2000)
        shifted = base + 5.0
        assert dominates(Cdf.from_samples(shifted), Cdf.from_samples(base))
        assert not dominates(Cdf.from_samples(base), Cdf.from_samples(shifted))

    def test_dominance_fraction_for_identical_is_full(self):
        samples = [1.0, 2.0, 3.0]
        cdf = Cdf.from_samples(samples)
        assert dominance_fraction(cdf, cdf) == 1.0

    def test_dominance_fraction_interleaved_is_partial(self):
        rng = np.random.default_rng(1)
        a = Cdf.from_samples(rng.normal(10, 1, 500))
        b = Cdf.from_samples(rng.normal(10, 1, 500))
        fraction = dominance_fraction(a, b)
        assert 0.0 < fraction < 1.0
