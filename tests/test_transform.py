import numpy as np
import pytest

from carp import dequantize, haar_forward, haar_inverse, quantize

from oracles import reference_haar_forward


class TestHaar:
    def test_constant_vector(self):
        c = haar_forward(np.ones(4))
        assert c[0] == pytest.approx(2.0)
        assert np.allclose(c[1:], 0.0)

    def test_two_point(self):
        c = haar_forward(np.array([1.0, -1.0]))
        assert c[0] == pytest.approx(0.0)
        assert c[1] == pytest.approx(np.sqrt(2.0))

    def test_scale_sizes(self):
        v = np.arange(16.0)
        c = haar_forward(v)
        assert c.shape == (16,)
        # scale j is c[2^j : 2^(j+1)]: the details of the 2^j aligned runs
        for j in range(4):
            runs = v.reshape(1 << j, 2, -1)
            want = (runs[:, 0].sum(axis=1) - runs[:, 1].sum(axis=1)) / np.sqrt(runs[0].size)
            assert np.allclose(c[1 << j : 2 << j], want)

    @pytest.mark.parametrize("k", [0, 1, 5, 10])
    def test_roundtrip(self, k):
        rng = np.random.default_rng(k)
        v = rng.normal(scale=100.0, size=2**k)
        back = haar_inverse(haar_forward(v))
        assert np.max(np.abs(back - v)) < 1e-10

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 12])
    def test_matches_reference_bit_for_bit(self, k):
        v = np.random.default_rng(k).normal(scale=100.0, size=2**k)
        assert np.array_equal(haar_forward(v), reference_haar_forward(v))

    def test_energy_preservation(self):
        rng = np.random.default_rng(3)
        v = rng.normal(scale=50.0, size=1024)
        c = haar_forward(v)
        assert float(np.sum(c * c)) == pytest.approx(float(np.sum(v * v)), rel=1e-9)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            haar_forward(np.zeros(6))
        with pytest.raises(ValueError):
            haar_forward(np.zeros(0))
        with pytest.raises(ValueError):
            haar_inverse(np.zeros(3))


class TestQuantizer:
    def test_dead_zone(self):
        assert quantize(0.4, 1.0) == 0
        assert quantize(-0.9, 1.0) == 0
        assert dequantize(0, 1.0) == 0.0

    def test_midpoint_reconstruction(self):
        assert quantize(2.5, 1.0) == 2
        assert dequantize(2, 1.0) == pytest.approx(2.5)
        assert quantize(-2.5, 1.0) == -2
        assert dequantize(-2, 1.0) == pytest.approx(-2.5)

    def test_error_bounds(self):
        rng = np.random.default_rng(4)
        q = 0.75
        c = rng.uniform(-50, 50, size=20000)
        err = np.abs(dequantize(quantize(c, q), q) - c)
        assert np.all(err <= q + 1e-12)
        outside = np.abs(c) >= q
        assert np.all(err[outside] <= q / 2 + 1e-12)

    def test_rejects_bad_step(self):
        for q in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="quantizer step"):
                quantize(np.array([3.0, -7.5]), q)
            with pytest.raises(ValueError, match="quantizer step"):
                dequantize(np.array([1, -2], dtype=np.int64), q)
