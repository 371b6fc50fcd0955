"""Cold start: no figure but Fig. 12 loads ``scipy.signal``.

Importing ``scipy.signal`` costs over a second per process, because it
pulls in ``scipy.stats``, ``scipy.interpolate`` and ``scipy.spatial``.
The resampler every receive path runs has its own copy of
``resample_poly``, the Welch estimate behind the stereo pilot gate and
the tone SNR runs on ``scipy.fft``, and the modules that still call
``scipy.signal`` import it inside those calls. So a fresh interpreter
that runs a figure must not have it loaded afterwards. No timing is
asserted, only which modules are loaded.
"""

import json
import os
import subprocess
import sys

import repro

SIGNAL_EXCEPTIONS = {
    "fig12_pesq_cooperative": "receiver/cooperative.py calls scipy.signal.fftconvolve",
}
"""Golden cases that still load ``scipy.signal``, each with the call
that does. A case leaves this list once its call is gone; the test
below fails while a listed case no longer needs to be here."""

_FIG08_CHILD = """
import sys
from repro.experiments import fig08_ber_overlay, fig09_mrc

fig08_ber_overlay.run(powers_dbm=(-20.0,), distances_ft=(2, 8), n_bits=10, rng=3)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "signal"]))
"""

_GOLDEN_CHILD = """
import json
import sys

sys.path.insert(0, {tests_dir!r})
from test_golden_outputs import CASES

exceptions = {exceptions!r}
names = [n for n in sorted(CASES) if CASES[n] is not None and n not in exceptions]
loaded = {{}}
for name in names + sorted(exceptions):
    CASES[name]()
    loaded[name] = "scipy.signal" in sys.modules
print(json.dumps(loaded))
"""


def _run_child(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_fig08_and_fig09_do_not_load_scipy_signal():
    assert _run_child(_FIG08_CHILD) == "[]"


def test_golden_cases_do_not_load_scipy_signal():
    """Every golden case runs in one fresh interpreter, the exceptions
    last; the first case that loads ``scipy.signal`` is named."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    loaded = json.loads(
        _run_child(_GOLDEN_CHILD.format(tests_dir=tests_dir, exceptions=SIGNAL_EXCEPTIONS))
    )
    offenders = [n for n, hit in loaded.items() if hit and n not in SIGNAL_EXCEPTIONS]
    assert not offenders, f"{offenders[0]} loaded scipy.signal"
    for name in SIGNAL_EXCEPTIONS:
        assert loaded[name], f"{name} no longer loads scipy.signal; drop its exception"
    assert {"fig05_stereo_usage", "fig06_freq_response", "fig07_snr_distance",
            "fig10_stereo_ber", "fig13_pesq_stereo", "fig14_car"} <= set(loaded)
