"""Behavior of the ``REPRO_NUMERICS=fast`` fused kernels.

Exact mode's contract (bit-identity across backends) is covered by
``test_backends.py`` / ``test_zero_fallback.py``; the tolerance golden
tier (``tests/experiments/test_golden_tolerance.py``) gates fast mode's
figure-level accuracy. This module pins the *mechanics* in between: the
fused kernels stay numerically close to their exact counterparts, carry
the intended single-precision dtypes, genuinely give up bit-identity
(so a silent fall-back to the exact path would be caught).

Tests monkeypatch ``REPRO_NUMERICS`` directly — the helpers read the
environment at call time — so the module passes under either ambient
mode.
"""

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.channel.fading import BodyMotionFading, _interp_rows_fused, stack_envelopes
from repro.channel.link import transmit_batch
from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.engine import AmbientCache, Scenario, SweepRunner, SweepSpec
from repro.errors import SignalError
from repro.fm.demodulator import fm_demodulate
from repro.utils.env import NUMERICS_ENV_VAR

SEED = 2017


@pytest.fixture
def fast_env(monkeypatch):
    monkeypatch.setenv(NUMERICS_ENV_VAR, "fast")


@pytest.fixture
def exact_env(monkeypatch):
    monkeypatch.setenv(NUMERICS_ENV_VAR, "exact")


class TestFusedInterp:
    def test_matches_per_row_interp(self):
        rng = np.random.default_rng(SEED)
        rows = rng.standard_normal((5, 64)).astype(np.float32) + 3.0
        fused = _interp_rows_fused(rows, 1000)
        x_internal = np.linspace(0.0, 1.0, 64)
        x_out = np.linspace(0.0, 1.0, 1000)
        for r in range(rows.shape[0]):
            exact = np.interp(x_out, x_internal, rows[r].astype(np.float64))
            np.testing.assert_allclose(fused[r], exact, rtol=0, atol=1e-4)

    def test_preserves_endpoints(self):
        rows = np.arange(64, dtype=np.float32)[np.newaxis, :] / 63.0
        fused = _interp_rows_fused(rows, 257)
        assert fused[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert fused[0, -1] == pytest.approx(1.0, abs=1e-6)

    def test_stack_envelopes_dtype_follows_mode(self, monkeypatch):
        def envelopes():
            models = [BodyMotionFading("walking", rng=7) for _ in range(3)]
            return stack_envelopes(models, 4000, MPX_RATE_HZ)

        monkeypatch.setenv(NUMERICS_ENV_VAR, "exact")
        exact = envelopes()
        monkeypatch.setenv(NUMERICS_ENV_VAR, "fast")
        fast = envelopes()
        assert exact.dtype == np.float64
        assert fast.dtype == np.float32
        # Same draws, different interpolation arithmetic: close, not equal.
        np.testing.assert_allclose(fast, exact, rtol=0, atol=1e-3)
        # Unit-RMS normalization holds in both modes.
        np.testing.assert_allclose(
            np.sqrt(np.mean(fast**2, axis=-1)), 1.0, atol=1e-3
        )


class TestFusedDiscriminator:
    @pytest.fixture
    def iq(self):
        rng = np.random.default_rng(SEED)
        phase = np.cumsum(rng.uniform(-0.3, 0.3, size=(3, 2000)), axis=-1)
        return np.exp(1j * phase)

    def test_close_to_exact_path(self, iq, monkeypatch):
        monkeypatch.setenv(NUMERICS_ENV_VAR, "exact")
        exact = fm_demodulate(iq)
        monkeypatch.setenv(NUMERICS_ENV_VAR, "fast")
        fast = fm_demodulate(iq)
        assert fast.shape == exact.shape
        np.testing.assert_allclose(fast, exact, rtol=0, atol=1e-9)

    def test_dtype_follows_input(self, iq, fast_env):
        assert fm_demodulate(iq).dtype == np.float64
        assert fm_demodulate(iq.astype(np.complex64)).dtype == np.float32

    def test_all_zero_rows_still_rejected(self, fast_env):
        iq = np.ones((2, 64), dtype=complex)
        iq[1] = 0.0
        with pytest.raises(SignalError, match="no signal"):
            fm_demodulate(iq)


class TestFastTransmitBatch:
    def _stack(self):
        from test_stages import _chain

        chain = _chain()
        iq = tone(1000.0, 0.02, MPX_RATE_HZ, amplitude=0.5).astype(complex)
        budgets = [
            _chain(power_dbm=p, distance_ft=d).link_budget()
            for p, d in ((-20.0, 2), (-50.0, 8))
        ]
        del chain
        return iq, budgets

    def test_single_precision_rows(self, fast_env):
        iq, budgets = self._stack()
        out = transmit_batch(iq, budgets, [11, 12])
        assert out.dtype == np.complex64
        assert out.shape == (2, iq.size)

    def test_noise_statistics_match_exact(self, monkeypatch):
        iq, budgets = self._stack()
        monkeypatch.setenv(NUMERICS_ENV_VAR, "exact")
        exact = transmit_batch(iq, budgets, [11, 12])
        monkeypatch.setenv(NUMERICS_ENV_VAR, "fast")
        fast = transmit_batch(iq, budgets, [11, 12])
        # Different realization by design...
        assert not np.array_equal(np.asarray(fast, dtype=complex), exact)
        # ...but the same per-row signal-plus-noise power within a few
        # percent (noise dominates the -50 dBm row).
        p_exact = np.mean(np.abs(exact) ** 2, axis=-1)
        p_fast = np.mean(np.abs(fast) ** 2, axis=-1, dtype=np.float64)
        np.testing.assert_allclose(p_fast, p_exact, rtol=0.1)


class TestFastSweep:
    def _scenario(self):
        payload = tone(1000.0, 0.05, AUDIO_RATE_HZ, amplitude=0.9)
        return Scenario(
            name="fastmode",
            sweep=SweepSpec.grid(distance_ft=(2, 4, 8, 16)),
            prepare=lambda gen: {"payload": payload},
            base_chain={
                "program": "silence",
                "power_dbm": -40.0,
                "stereo_decode": False,
                "back_amplitude": 0.25,
            },
            chain_axes=("distance_ft",),
            payload="payload",
            measure=lambda run: float(np.mean(np.abs(run.received.mono))),
        )

    def test_fast_batched_close_to_exact_not_identical(self, monkeypatch):
        monkeypatch.setenv(NUMERICS_ENV_VAR, "exact")
        exact = SweepRunner(
            self._scenario(), rng=SEED, cache=AmbientCache(), backend="batched"
        ).run()
        monkeypatch.setenv(NUMERICS_ENV_VAR, "fast")
        fast = SweepRunner(
            self._scenario(), rng=SEED, cache=AmbientCache(), backend="batched"
        ).run()
        assert fast.values != exact.values
        np.testing.assert_allclose(fast.values, exact.values, rtol=0.05)

    def test_fast_sweep_outputs_stay_json_safe_float64(self, fast_env):
        result = SweepRunner(
            self._scenario(), rng=SEED, cache=AmbientCache(), backend="batched"
        ).run()
        assert all(isinstance(v, float) for v in result.values)
