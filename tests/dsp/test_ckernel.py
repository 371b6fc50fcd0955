"""The shared C-kernel harness: one compiler query per process, one
private cache directory, one library per kernel."""

import os
import shutil
import subprocess

import pytest

from repro.dsp import ckernel
from repro.dsp import pll as pll_module
from repro.dsp import resample as resample_module

pytestmark = pytest.mark.skipif(
    shutil.which(ckernel._COMPILER) is None, reason="the kernels need a C compiler"
)


def test_both_kernels_share_one_cache_and_one_version_query(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(ckernel, "_versions", {})
    queries = []
    run = subprocess.run

    def counting_run(args, *rest, **kwargs):
        if "-dumpfullversion" in args:
            queries.append(args)
        return run(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    libraries = []
    for kernel in (pll_module._KERNEL, resample_module._KERNEL):
        monkeypatch.setattr(kernel, "_ready", False)
        monkeypatch.setattr(kernel, "_func", None)
        assert kernel.get() is not None
        libraries.append(os.path.basename(kernel.build()))
    assert len(queries) == 1
    assert libraries[0].startswith("pll-") and libraries[1].startswith("resample-")
    cache = tmp_path / "repro"
    assert sorted(p.name for p in cache.iterdir()) == sorted(libraries)
    assert cache.stat().st_mode & 0o777 == 0o700


def test_missing_symbol_falls_back(monkeypatch, tmp_path, caplog):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    kernel = ckernel.CompiledKernel(
        "empty", "void other(void) {}\n", "absent", (), lambda func: None,
        resample_module.logger, "the reference",
    )
    with caplog.at_level("WARNING", logger="repro.dsp.resample"):
        assert kernel.get() is None
        assert kernel.get() is None
    assert len(caplog.records) == 1
    assert "the reference" in caplog.records[0].getMessage()
