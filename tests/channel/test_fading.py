"""Body-motion fading tests."""

import numpy as np
import pytest

from repro.channel.fading import (
    MOTION_PROFILES,
    BodyMotionFading,
    MotionFadingSpec,
    stack_envelopes,
)
from repro.errors import ConfigurationError


class TestProfiles:
    def test_three_paper_states_exist(self):
        assert set(MOTION_PROFILES) == {"standing", "walking", "running"}

    def test_running_fades_harder_than_standing(self):
        assert (
            MOTION_PROFILES["running"].k_factor_db
            < MOTION_PROFILES["standing"].k_factor_db
        )


class TestEnvelope:
    def test_unit_mean_square(self):
        env = BodyMotionFading("walking", rng=0).envelope(48_000, 48_000.0)
        assert np.mean(env**2) == pytest.approx(1.0, rel=1e-6)

    def test_positive(self):
        env = BodyMotionFading("running", rng=1).envelope(10_000, 48_000.0)
        assert np.all(env > 0)

    def test_standing_varies_less_than_running(self):
        std_s = np.std(BodyMotionFading("standing", rng=2).envelope(96_000, 48_000.0))
        std_r = np.std(BodyMotionFading("running", rng=2).envelope(96_000, 48_000.0))
        assert std_r > std_s

    def test_rejects_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            BodyMotionFading("flying")

    def test_deterministic_with_seed(self):
        a = BodyMotionFading("walking", rng=3).envelope(1000, 48_000.0)
        b = BodyMotionFading("walking", rng=3).envelope(1000, 48_000.0)
        assert np.array_equal(a, b)


class TestEnvelopeBatch:
    def test_rows_bit_identical_to_successive_scalar_calls(self):
        model = BodyMotionFading("walking", rng=7)
        batch = stack_envelopes([model] * 4, 5000, 48_000.0)
        serial = BodyMotionFading("walking", rng=7)
        for i in range(4):
            assert np.array_equal(batch[i], serial.envelope(5000, 48_000.0)), i

    def test_empty_batch(self):
        model = BodyMotionFading("walking", rng=0)
        assert stack_envelopes([model] * 0, 100, 48e3).shape == (0, 100)

    def test_rejects_nonpositive_length(self):
        model = BodyMotionFading("walking", rng=0)
        for n_samples in (0, -1):
            with pytest.raises(ConfigurationError):
                stack_envelopes([model], n_samples, 48e3)
            with pytest.raises(ConfigurationError):
                model.envelope(n_samples, 48e3)


class TestStackEnvelopes:
    def test_distinct_models_and_mixed_profiles(self):
        models = [
            BodyMotionFading("walking", rng=1),
            BodyMotionFading("running", rng=2),
            BodyMotionFading("walking", rng=3),
        ]
        refs = [
            BodyMotionFading("walking", rng=1),
            BodyMotionFading("running", rng=2),
            BodyMotionFading("walking", rng=3),
        ]
        stack = stack_envelopes(models, 4000, 48_000.0)
        for i, ref in enumerate(refs):
            assert np.array_equal(stack[i], ref.envelope(4000, 48_000.0)), i

    def test_shared_stateful_model_consumes_stream_in_list_order(self):
        shared = BodyMotionFading("running", rng=9)
        ref = BodyMotionFading("running", rng=9)
        stack = stack_envelopes([shared, shared], 4000, 48_000.0)
        assert np.array_equal(stack[0], ref.envelope(4000, 48_000.0))
        assert np.array_equal(stack[1], ref.envelope(4000, 48_000.0))

    def test_foreign_fading_models_evaluate_at_their_slot(self):
        class Constant:
            def envelope(self, n_samples, sample_rate):
                return np.full(n_samples, 0.5)

        stack = stack_envelopes(
            [Constant(), BodyMotionFading("walking", rng=4)], 1000, 48_000.0
        )
        assert np.array_equal(stack[0], np.full(1000, 0.5))
        assert np.array_equal(
            stack[1], BodyMotionFading("walking", rng=4).envelope(1000, 48_000.0)
        )


class TestMotionFadingSpec:
    def test_picklable_and_frozen(self):
        import pickle

        spec = MotionFadingSpec("running")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_rejects_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            MotionFadingSpec("flying")

    def test_build_is_deterministic_per_generator(self):
        spec = MotionFadingSpec("walking")
        a = spec.build(5).envelope(1000, 48_000.0)
        b = spec.build(5).envelope(1000, 48_000.0)
        assert np.array_equal(a, b)
