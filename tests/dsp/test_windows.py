"""Window and envelope tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.windows import hann_window, periodic_hann_window, raised_cosine_edges
from repro.errors import ConfigurationError


class TestHann:
    def test_endpoints_zero(self):
        w = hann_window(64)
        assert w[0] == pytest.approx(0.0)
        assert w[-1] == pytest.approx(0.0)

    def test_peak_is_one(self):
        w = hann_window(65)
        assert np.max(w) == pytest.approx(1.0)

    def test_length_one(self):
        assert np.array_equal(hann_window(1), np.ones(1))

    def test_rejects_zero_length(self):
        with pytest.raises(ConfigurationError):
            hann_window(0)

    def test_matches_numpy(self):
        assert np.allclose(hann_window(128), np.hanning(128))


class TestPeriodicHann:
    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    def test_bit_identical_to_scipy_get_window(self, length):
        from scipy.signal import get_window

        assert np.array_equal(periodic_hann_window(length), get_window("hann", length))

    def test_welch_default_length(self):
        from scipy.signal import get_window

        assert np.array_equal(periodic_hann_window(4096), get_window("hann", 4096))

    def test_rejects_zero_length(self):
        with pytest.raises(ConfigurationError):
            periodic_hann_window(0)


class TestRaisedCosineEdges:
    def test_flat_interior(self):
        env = raised_cosine_edges(100, 10)
        assert np.allclose(env[10:90], 1.0)

    def test_zero_ramp_is_rect(self):
        assert np.array_equal(raised_cosine_edges(50, 0), np.ones(50))

    def test_symmetry(self):
        env = raised_cosine_edges(100, 20)
        assert np.allclose(env, env[::-1])

    def test_rejects_oversized_ramp(self):
        with pytest.raises(ConfigurationError):
            raised_cosine_edges(10, 6)

    @given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_bounded_property(self, length, ramp):
        if 2 * ramp > length:
            return
        env = raised_cosine_edges(length, ramp)
        assert env.size == length
        assert np.all(env >= 0.0) and np.all(env <= 1.0 + 1e-12)
