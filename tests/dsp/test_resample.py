"""Resampling tests: lengths and validation, bit-identity with
``scipy.signal.resample_poly``, and the compiled kernel's fallbacks."""

import logging
import os
import shutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import ckernel
from repro.dsp import resample as resample_module
from repro.dsp.plan_cache import clear_plan_cache, plan_cache_stats
from repro.dsp.resample import resample_by_ratio, resample_poly_exact
from repro.errors import ConfigurationError


class TestResamplePolyExact:
    def test_identity_when_equal(self):
        x = np.arange(10.0)
        assert np.array_equal(resample_poly_exact(x, 3, 3), x)

    def test_upsample_length(self):
        x = np.zeros(100)
        assert resample_poly_exact(x, 10, 1).size == 1000

    def test_downsample_length(self):
        x = np.zeros(1000)
        assert resample_poly_exact(x, 1, 10).size == 100

    def test_tone_preserved_through_round_trip(self):
        fs = 48_000
        t = np.arange(4800) / fs
        x = np.cos(2 * np.pi * 1000 * t)
        y = resample_poly_exact(resample_poly_exact(x, 10, 1), 1, 10)
        mid = slice(500, 4300)
        assert np.corrcoef(x[mid], y[mid])[0, 1] > 0.999

    def test_rejects_bad_factors(self):
        with pytest.raises(ConfigurationError):
            resample_poly_exact(np.zeros(10), 0, 1)
        with pytest.raises(ConfigurationError):
            resample_poly_exact(np.zeros(10), 1.5, 1)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
    @settings(max_examples=25, deadline=None)
    def test_output_length_property(self, up, down):
        x = np.zeros(240)
        out = resample_poly_exact(x, up, down)
        assert out.size == int(np.ceil(240 * up / down))


class TestResampleByRatio:
    def test_audio_to_mpx_rates(self):
        x = np.zeros(480)
        assert resample_by_ratio(x, 48_000, 480_000).size == 4800

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ConfigurationError):
            resample_by_ratio(np.zeros(10), 0, 48_000)


# -- the compiled kernel: bit-identity with scipy and its fallbacks -----------

FACTORS = [(1, 10), (10, 1), (3, 7), (7, 3), (2, 1)]


def _fresh_kernel(monkeypatch, cache_home):
    """An unbuilt kernel whose cache lives under ``cache_home``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    monkeypatch.setattr(resample_module._KERNEL, "_ready", False)
    monkeypatch.setattr(resample_module._KERNEL, "_func", None)


def _scipy(x, up, down):
    from scipy.signal import resample_poly

    return resample_poly(x, up, down, axis=-1)


requires_kernel = pytest.mark.skipif(
    shutil.which(ckernel._COMPILER) is None, reason="the kernel needs a C compiler"
)


@requires_kernel
class TestMatchesScipy:
    """``scipy.signal.resample_poly`` is the oracle: the compiled kernel
    and the NumPy design behind it must equal it bit for bit."""

    def test_kernel_is_active(self):
        assert resample_module.active_kernel() == "compiled"

    @pytest.mark.parametrize("up,down", FACTORS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 4801, 480_000])
    def test_one_dimensional(self, up, down, n):
        x = np.random.default_rng(n + 31 * up + down).standard_normal(n)
        out = resample_poly_exact(x, up, down)
        expected = _scipy(x, up, down)
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("up,down", FACTORS)
    @pytest.mark.parametrize("n", [1, 5, 4801, 480_000])
    def test_stack_rows(self, up, down, n):
        x = np.random.default_rng(n + 7 * up + down).standard_normal((2, n))
        out = resample_poly_exact(x, up, down)
        assert np.array_equal(out, _scipy(x, up, down))
        for row in range(2):
            assert np.array_equal(out[row], resample_poly_exact(x[row], up, down))

    def test_unreduced_factors_and_strided_rows(self):
        x = np.random.default_rng(3).standard_normal((4, 2000))[::2, ::3]
        assert np.array_equal(resample_poly_exact(x, 20, 2), _scipy(x, 10, 1))
        assert np.array_equal(resample_poly_exact(x, 6, 14), _scipy(x, 3, 7))

    def test_complex_input_takes_scipy(self, caplog):
        x = np.random.default_rng(4).standard_normal((2, 999)) * (1 + 0.5j)
        with caplog.at_level(logging.WARNING, logger="repro.dsp.resample"):
            out = resample_poly_exact(x, 10, 1)
        assert np.iscomplexobj(out)
        assert np.array_equal(out, _scipy(x, 10, 1))
        assert not caplog.records

    @pytest.mark.parametrize("up,down", FACTORS)
    def test_numpy_reference_matches_scipy(self, up, down):
        # The probe's reference must itself be exact, or a correct
        # kernel would fail its probe.
        x = np.random.default_rng(5).standard_normal((3, 97))
        phases = resample_module._plan(up, down)
        assert np.array_equal(
            resample_module._reference(x, phases, up, down), _scipy(x, up, down)
        )

    def test_design_is_cached(self):
        clear_plan_cache()
        first = resample_module._plan(10, 1)
        misses = plan_cache_stats()["misses"]
        assert resample_module._plan(10, 1) is first
        assert plan_cache_stats()["misses"] == misses
        assert not first.flags.writeable


@requires_kernel
class TestKernelFallback:
    """Whatever stops the compiled kernel, resampling must fall back to
    scipy, warn once under ``repro.dsp.resample`` and give equal output."""

    @staticmethod
    def _assert_falls_back(caplog):
        x = np.random.default_rng(6).standard_normal((2, 4801))
        with caplog.at_level(logging.WARNING, logger="repro.dsp.resample"):
            first = resample_poly_exact(x, 10, 1)
            second = resample_poly_exact(x, 1, 10)
            assert resample_module.active_kernel() == "scipy"
        warnings = [r for r in caplog.records if r.name == "repro.dsp.resample"]
        assert len(warnings) == 1
        assert warnings[0].levelno == logging.WARNING
        assert np.array_equal(first, _scipy(x, 10, 1))
        assert np.array_equal(second, _scipy(x, 1, 10))
        return warnings[0].getMessage()

    def test_compiler_missing(self, caplog, monkeypatch, tmp_path):
        _fresh_kernel(monkeypatch, tmp_path)
        monkeypatch.setattr(ckernel, "_COMPILER", "repro-no-such-compiler")
        self._assert_falls_back(caplog)

    @pytest.mark.parametrize(
        "product",
        ["row[j] * phase[j - first]", "x0[i] * h0[i]"],
        ids=["padded-outputs", "four-output-block"],
    )
    def test_probe_mismatch(self, product, caplog, monkeypatch, tmp_path):
        # A kernel that rounds one product to single precision, on the
        # outputs that touch the zero padding or on those clear of it,
        # builds and runs, but its probe output cannot equal the
        # reference's.
        _fresh_kernel(monkeypatch, tmp_path)
        assert resample_module._C_SOURCE.count(f"+= {product};") == 1
        monkeypatch.setattr(
            resample_module._KERNEL, "source",
            resample_module._C_SOURCE.replace(
                f"+= {product};", f"+= (float)({product});"
            ),
        )
        message = self._assert_falls_back(caplog)
        assert "probe" in message

    def test_unwritable_cache_directory(self, caplog, monkeypatch, tmp_path):
        blocker = tmp_path / "cache-home"
        blocker.write_text("")
        _fresh_kernel(monkeypatch, blocker)
        self._assert_falls_back(caplog)

    def test_cache_directory_writable_by_others(self, caplog, monkeypatch, tmp_path):
        shared = tmp_path / "repro"
        shared.mkdir()
        shared.chmod(0o777)
        _fresh_kernel(monkeypatch, tmp_path)
        message = self._assert_falls_back(caplog)
        assert "private" in message

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() != 0,
        reason="handing a directory to another user needs root",
    )
    def test_foreign_owned_cache_directory(self, caplog, monkeypatch, tmp_path):
        foreign = tmp_path / "repro"
        foreign.mkdir(mode=0o700)
        os.chown(foreign, 4242, 4242)
        _fresh_kernel(monkeypatch, tmp_path)
        message = self._assert_falls_back(caplog)
        assert "private" in message


@requires_kernel
def test_concurrent_first_calls_build_once(monkeypatch, tmp_path):
    _fresh_kernel(monkeypatch, tmp_path)
    builds = []
    compile_ = ckernel._compile

    def counting_compile(source, library):
        builds.append(library)
        compile_(source, library)

    monkeypatch.setattr(ckernel, "_compile", counting_compile)
    x = np.random.default_rng(9).standard_normal((2, 4801))
    barrier = threading.Barrier(8)
    results = [None] * 8

    def first_call(i):
        barrier.wait()
        results[i] = resample_poly_exact(x, 10, 1)

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
    assert resample_module.active_kernel() == "compiled"
    assert [p.name for p in (tmp_path / "repro").iterdir()] == [
        os.path.basename(resample_module._KERNEL.build())
    ]
    expected = _scipy(x, 10, 1)
    for result in results:
        assert np.array_equal(result, expected)
