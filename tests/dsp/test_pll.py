"""PLL tests: lock, tracking, harmonics, the multi-waveform batch, and
the three bit-identical loops behind it (compiled, float, vector)."""

import ctypes
import ctypes.util
import logging
import math
import os
import shutil
import sys
import threading

import numpy as np
import pytest

from repro.dsp import ckernel
from repro.dsp import pll as pll_module
from repro.dsp.pll import PhaseLockedLoop, PLLBatchResult
from repro.errors import ConfigurationError, SignalError
from repro.fm.pilot import PILOT_DETECT_THRESHOLD_DB

FS = 96_000.0


def _disable_compiled_loop(monkeypatch):
    """Make ``track_batch`` run the float loop, as on a host without gcc."""
    monkeypatch.setattr(pll_module._KERNEL, "_ready", True)
    monkeypatch.setattr(pll_module._KERNEL, "_func", None)


def _fresh_compiled_loop(monkeypatch, cache_home):
    """An unbuilt compiled loop whose cache lives under ``cache_home``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    monkeypatch.setattr(pll_module._KERNEL, "_ready", False)
    monkeypatch.setattr(pll_module._KERNEL, "_func", None)


requires_compiled_loop = pytest.mark.skipif(
    not pll_module.FLOAT_SIN_IS_NUMPY_SIN or shutil.which(ckernel._COMPILER) is None,
    reason="the compiled loop needs a C compiler and math.sin == np.sin",
)


class TestLock:
    def test_locks_to_exact_tone(self):
        t = np.arange(int(0.5 * FS)) / FS
        x = 0.1 * np.cos(2 * np.pi * 19_000 * t)
        result = PhaseLockedLoop(19_000, FS).track(x)
        assert result.locked

    def test_locks_with_frequency_offset(self):
        t = np.arange(int(1.0 * FS)) / FS
        x = np.cos(2 * np.pi * 19_010 * t)
        result = PhaseLockedLoop(19_000, FS, loop_bandwidth_hz=60.0).track(x)
        assert abs(np.mean(result.frequency_hz[-1000:]) - 19_010) < 5

    def test_amplitude_estimate(self):
        t = np.arange(int(0.5 * FS)) / FS
        x = 0.25 * np.cos(2 * np.pi * 19_000 * t)
        result = PhaseLockedLoop(19_000, FS).track(x)
        assert result.amplitude == pytest.approx(0.25, rel=0.1)

    def test_does_not_lock_to_silence(self):
        result = PhaseLockedLoop(19_000, FS).track(1e-9 * np.ones(int(0.2 * FS)))
        # With no tone present the loop free-runs near center; either way
        # the amplitude estimate must be essentially zero.
        assert abs(result.amplitude) < 1e-3


class TestReference:
    def test_reference_tracks_input_phase(self):
        t = np.arange(int(0.5 * FS)) / FS
        x = np.cos(2 * np.pi * 19_000 * t + 0.7)
        result = PhaseLockedLoop(19_000, FS).track(x)
        ref = result.reference()
        tail = slice(-2000, None)
        corr = np.mean(x[tail] * ref[tail]) * 2
        assert corr == pytest.approx(1.0, abs=0.1)

    def test_harmonic_doubles_frequency(self):
        t = np.arange(int(0.5 * FS)) / FS
        x = np.cos(2 * np.pi * 19_000 * t)
        result = PhaseLockedLoop(19_000, FS).track(x)
        ref38 = result.reference_harmonic(2)
        target = np.cos(2 * np.pi * 38_000 * t)
        tail = slice(-2000, None)
        assert np.mean(ref38[tail] * target[tail]) * 2 == pytest.approx(1.0, abs=0.15)

    def test_rejects_bad_harmonic(self):
        t = np.arange(1000) / FS
        result = PhaseLockedLoop(19_000, FS).track(np.cos(2 * np.pi * 19_000 * t))
        with pytest.raises(ConfigurationError):
            result.reference_harmonic(0)


class TestConfig:
    def test_rejects_center_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            PhaseLockedLoop(60_000, FS)


class TestTrackBatch:
    """track_batch tracks independent waveforms, so every row must be
    bit-identical to tracking that waveform alone — the invariant the
    batched sweep backend's stereo decode rests on. It must hold for the
    default loop and for the float and vector loops it falls back to."""

    @staticmethod
    def _assert_rows_match_track(pll, stack):
        batch = pll.track_batch(stack)
        with pytest.MonkeyPatch.context() as patch:
            _disable_compiled_loop(patch)
            floats = pll.track_batch(stack)
            patch.setattr(pll_module, "FLOAT_SIN_IS_NUMPY_SIN", False)
            vector = pll.track_batch(stack)
        for i in range(stack.shape[0]):
            single = pll.track(stack[i])
            for result in (batch, floats, vector):
                assert np.array_equal(result.phase[i], single.phase), i
                assert np.array_equal(result.frequency_hz[i], single.frequency_hz), i
                assert bool(result.locked[i]) == single.locked, i
                assert float(result.amplitude[i]) == single.amplitude, i

    def test_random_stack_rows_bit_identical_to_track(self, rng):
        # Amplitudes and offsets scattered per row.
        t = np.arange(int(0.25 * FS)) / FS
        stack = np.stack(
            [
                rng.uniform(0.05, 1.0)
                * np.cos(2 * np.pi * (19_000 + offset) * t + rng.uniform(0, 2 * np.pi))
                + 0.02 * rng.standard_normal(t.size)
                for offset in (0.0, 4.0, -3.0, 8.0, -7.0, 2.0, 5.5, -1.0)
            ]
        )
        self._assert_rows_match_track(PhaseLockedLoop(19_000, FS), stack)

    def test_single_waveform_batch_matches_track(self):
        t = np.arange(int(0.2 * FS)) / FS
        stack = 0.1 * np.cos(2 * np.pi * 19_000 * t)[np.newaxis, :]
        self._assert_rows_match_track(PhaseLockedLoop(19_000, FS), stack)

    def test_mixed_lock_outcomes_in_one_batch(self):
        # Strong pilots, silent rows and far-off-frequency rows must
        # keep their individual lock decisions inside one vector-loop
        # batch.
        t = np.arange(int(0.3 * FS)) / FS
        stack = np.stack(
            [
                0.1 * np.cos(2 * np.pi * 19_000 * t),
                1e-9 * np.ones(t.size),
                0.1 * np.cos(2 * np.pi * 26_000 * t),
                0.5 * np.cos(2 * np.pi * 19_000 * t + 1.3),
                np.zeros(t.size),
                0.25 * np.cos(2 * np.pi * 19_004 * t),
            ]
        )
        batch = PhaseLockedLoop(19_000, FS).track_batch(stack)
        assert bool(batch.locked[0])
        assert not bool(batch.locked[2])
        assert bool(batch.locked[3])
        self._assert_rows_match_track(PhaseLockedLoop(19_000, FS), stack)

    def test_pilot_powers_around_detect_threshold(self, rng):
        # Pilot amplitudes straddling the stereo detect threshold (a
        # fixed guard-band noise floor, pilots from ~8 dB below to ~8 dB
        # above it) — the regime the Fig. 13 power axis sweeps through.
        t = np.arange(int(0.3 * FS)) / FS
        noise = 0.02 * rng.standard_normal(t.size)
        ratios_db = np.array([-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0]) + PILOT_DETECT_THRESHOLD_DB
        amplitudes = 0.002 * 10.0 ** (ratios_db / 20.0)
        stack = np.stack(
            [a * np.cos(2 * np.pi * 19_000 * t) + noise for a in amplitudes]
        )
        self._assert_rows_match_track(PhaseLockedLoop(19_000, FS), stack)

    def test_narrow_stack_delegation_matches_track(self, rng):
        # A stack narrower than the sweep's partitions; results must be
        # indistinguishable from per-row tracks.
        t = np.arange(int(0.2 * FS)) / FS
        stack = np.stack(
            [
                0.1 * np.cos(2 * np.pi * 19_000 * t) + 0.01 * rng.standard_normal(t.size)
                for _ in range(3)
            ]
        )
        self._assert_rows_match_track(PhaseLockedLoop(19_000, FS), stack)

    def test_empty_batch_returns_empty_results(self):
        batch = PhaseLockedLoop(19_000, FS).track_batch(np.empty((0, 128)))
        assert batch.phase.shape == (0, 128)
        assert batch.frequency_hz.shape == (0, 128)
        assert batch.locked.shape == (0,)
        assert batch.amplitude.shape == (0,)

    def test_rejects_zero_length_waveforms_like_track(self):
        pll = PhaseLockedLoop(19_000, FS)
        with pytest.raises(SignalError):
            pll.track(np.empty(0))
        with pytest.raises(SignalError):
            pll.track_batch(np.empty((3, 0)))

    def test_rejects_non_2d_and_complex_input(self):
        pll = PhaseLockedLoop(19_000, FS)
        with pytest.raises(SignalError):
            pll.track_batch(np.zeros(64))
        with pytest.raises(SignalError):
            pll.track_batch(np.zeros((2, 64), dtype=complex))

    def test_row_view_and_harmonics(self):
        t = np.arange(int(0.2 * FS)) / FS
        stack = np.stack([0.1 * np.cos(2 * np.pi * 19_000 * t)] * 2)
        batch = PhaseLockedLoop(19_000, FS).track_batch(stack)
        assert isinstance(batch, PLLBatchResult)
        row = batch.row(1)
        assert np.array_equal(row.phase, batch.phase[1])
        assert np.array_equal(batch.reference(), np.cos(batch.phase))
        assert np.array_equal(batch.reference_harmonic(2), np.cos(2 * batch.phase))
        with pytest.raises(ConfigurationError):
            batch.reference_harmonic(0)


def _assert_same_tracks(a, b):
    assert np.array_equal(a.phase, b.phase)
    assert np.array_equal(a.frequency_hz, b.frequency_hz)
    assert np.array_equal(a.locked, b.locked)
    assert np.array_equal(a.amplitude, b.amplitude)


def _pilot_rows(n, rng):
    """A clean pilot, a noisy off-frequency pilot and a zero-RMS row."""
    t = np.arange(n) / FS
    return np.stack(
        [
            0.1 * np.cos(2 * np.pi * 19_000 * t + 0.5),
            0.05 * np.cos(2 * np.pi * 19_004 * t) + 0.05 * rng.standard_normal(n),
            np.zeros(n),
        ]
    )


class TestFloatLoop:
    """Without a compiled loop, track_batch runs the recursion over plain
    floats with ``math.sin``; its bit-identity to the NumPy vector loop
    rests on ``math.sin == np.sin``, and the compiled loop's on the C
    library's ``sin`` being that same function."""

    def test_math_sin_equals_numpy_sin(self, rng):
        # Phases like the loop's own: small, and unwrapped far from zero.
        probe = np.concatenate(
            [rng.uniform(-10.0, 10.0, 2000), rng.uniform(-3e6, 3e6, 2000)]
        )
        floats = np.array([math.sin(x) for x in probe.tolist()])
        assert np.array_equal(np.sin(probe), floats)
        assert all(np.sin(x) == math.sin(x) for x in probe[:200].tolist())
        assert pll_module.FLOAT_SIN_IS_NUMPY_SIN
        # The compiled loop calls the C library's sin, which must be the
        # function math.sin calls.
        libm = ctypes.CDLL(ctypes.util.find_library("m"))
        libm.sin.restype = ctypes.c_double
        libm.sin.argtypes = (ctypes.c_double,)
        assert np.array_equal([libm.sin(x) for x in probe.tolist()], floats)

    def test_float_loop_matches_vector_loop(self, rng, monkeypatch):
        t = np.arange(int(0.25 * FS)) / FS
        stack = np.stack(
            [
                0.3 * np.cos(2 * np.pi * (19_000 + offset) * t + 0.4)
                + 0.05 * rng.standard_normal(t.size)
                for offset in (0.0, 6.0, -9.0)
            ]
        )
        pll = PhaseLockedLoop(19_000, FS)
        _disable_compiled_loop(monkeypatch)
        floats = pll.track_batch(stack)
        # With the probe failing, every stack falls back to the vector loop.
        monkeypatch.setattr(pll_module, "FLOAT_SIN_IS_NUMPY_SIN", False)
        vector = pll.track_batch(stack)
        _assert_same_tracks(floats, vector)


@requires_compiled_loop
class TestCompiledLoop:
    """The compiled, float and vector loops perform the same operations
    in the same order, so their tracks must be bit-identical, row by
    row, at every length."""

    def test_compiled_loop_is_active(self):
        assert pll_module.active_loop() == "compiled"

    @pytest.mark.parametrize("n", [1, 2, 5, 12_345, 96_000, 192_000])
    def test_loops_agree_per_row(self, n, rng, monkeypatch):
        stack = _pilot_rows(n, rng)
        pll = PhaseLockedLoop(19_000, FS, loop_bandwidth_hz=30.0)
        compiled = pll.track_batch(stack)
        singles = [pll.track(row) for row in stack]
        _disable_compiled_loop(monkeypatch)
        floats = pll.track_batch(stack)
        monkeypatch.setattr(pll_module, "FLOAT_SIN_IS_NUMPY_SIN", False)
        vector = pll.track_batch(stack)
        _assert_same_tracks(compiled, floats)
        _assert_same_tracks(floats, vector)
        for i, single in enumerate(singles):
            assert np.array_equal(compiled.phase[i], single.phase), i
            assert np.array_equal(compiled.frequency_hz[i], single.frequency_hz), i
            assert bool(compiled.locked[i]) == single.locked, i
            assert float(compiled.amplitude[i]) == single.amplitude, i


@requires_compiled_loop
class TestCompiledLoopFallback:
    """Whatever stops the compiled loop, track_batch must fall back to
    the float loop, warn once under ``repro.dsp.pll`` and give the same
    tracks."""

    @pytest.fixture
    def stack(self, rng):
        return _pilot_rows(20_000, rng)

    @staticmethod
    def _assert_falls_back(stack, caplog):
        pll = PhaseLockedLoop(19_000, FS)
        with caplog.at_level(logging.WARNING, logger="repro.dsp.pll"):
            first = pll.track_batch(stack)
            second = pll.track_batch(stack)
            assert pll_module.active_loop() == "float"
        warnings = [r for r in caplog.records if r.name == "repro.dsp.pll"]
        assert len(warnings) == 1
        assert warnings[0].levelno == logging.WARNING
        with pytest.MonkeyPatch.context() as patch:
            _disable_compiled_loop(patch)
            reference = pll.track_batch(stack)
        _assert_same_tracks(first, reference)
        _assert_same_tracks(second, reference)
        return warnings[0].getMessage()

    def test_compiler_missing(self, stack, caplog, monkeypatch, tmp_path):
        _fresh_compiled_loop(monkeypatch, tmp_path)
        monkeypatch.setattr(ckernel, "_COMPILER", "repro-no-such-compiler")
        self._assert_falls_back(stack, caplog)

    def test_probe_mismatch(self, stack, caplog, monkeypatch, tmp_path):
        # A loop that rounds its sine to single precision builds and
        # runs, but its probe track cannot equal the float loop's.
        _fresh_compiled_loop(monkeypatch, tmp_path)
        monkeypatch.setattr(
            pll_module._KERNEL, "source",
            pll_module._C_SOURCE.replace("sin(theta)", "sinf((float)theta)"),
        )
        message = self._assert_falls_back(stack, caplog)
        assert "probe" in message

    def test_unwritable_cache_directory(self, stack, caplog, monkeypatch, tmp_path):
        # A file where the cache directory's parent should be: nothing
        # can be created under it, whatever this user's privileges.
        blocker = tmp_path / "cache-home"
        blocker.write_text("")
        _fresh_compiled_loop(monkeypatch, blocker)
        self._assert_falls_back(stack, caplog)

    def test_cache_directory_writable_by_others(self, stack, caplog, monkeypatch, tmp_path):
        shared = tmp_path / "repro"
        shared.mkdir()
        shared.chmod(0o777)
        _fresh_compiled_loop(monkeypatch, tmp_path)
        message = self._assert_falls_back(stack, caplog)
        assert "private" in message

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() != 0,
        reason="handing a directory to another user needs root",
    )
    def test_foreign_owned_cache_directory(self, stack, caplog, monkeypatch, tmp_path):
        foreign = tmp_path / "repro"
        foreign.mkdir(mode=0o700)
        os.chown(foreign, 4242, 4242)
        _fresh_compiled_loop(monkeypatch, tmp_path)
        message = self._assert_falls_back(stack, caplog)
        assert "private" in message


@requires_compiled_loop
def test_concurrent_first_calls_build_once(rng, monkeypatch, tmp_path):
    _fresh_compiled_loop(monkeypatch, tmp_path)
    builds = []
    compile_ = ckernel._compile

    def counting_compile(source, library):
        builds.append(library)
        compile_(source, library)

    monkeypatch.setattr(ckernel, "_compile", counting_compile)
    stack = _pilot_rows(12_345, rng)
    pll = PhaseLockedLoop(19_000, FS)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def first_call(i):
        barrier.wait()
        results[i] = pll.track_batch(stack)

    threads = [threading.Thread(target=first_call, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert pll_module.active_loop() == "compiled"
    assert [p.name for p in (tmp_path / "repro").iterdir()] == [
        os.path.basename(pll_module._KERNEL.build())
    ]
    for result in results[1:]:
        _assert_same_tracks(result, results[0])
    _disable_compiled_loop(monkeypatch)
    _assert_same_tracks(results[0], pll.track_batch(stack))
