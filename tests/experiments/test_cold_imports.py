"""Cold start: the Fig. 8 and Fig. 9 paths never load ``scipy.signal``.

Importing ``scipy.signal`` costs over a second per process, because it
pulls in ``scipy.stats``, ``scipy.interpolate`` and ``scipy.spatial``.
The resampler every receive path runs has its own copy of
``resample_poly``, and the modules that still call ``scipy.signal``
import it inside those calls, so a fresh interpreter that imports the
two figures and runs a Fig. 8 grid must not have it loaded. No timing is
asserted, only which modules are loaded.
"""

import os
import subprocess
import sys

import repro

_CHILD = """
import sys
from repro.experiments import fig08_ber_overlay, fig09_mrc

fig08_ber_overlay.run(powers_dbm=(-20.0,), distances_ft=(2, 8), n_bits=10, rng=3)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "signal"]))
"""


def test_fig08_and_fig09_do_not_load_scipy_signal():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"
