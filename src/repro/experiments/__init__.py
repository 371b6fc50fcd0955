"""Paper-figure reproduction harness.

One module per evaluation figure; each exposes a ``run(...)`` function
that sweeps the figure's parameters through the full simulation chain and
returns the same series the paper plots. The benchmark suite under
``benchmarks/`` calls these with reduced grids and checks the paper's
qualitative shape (who wins, where cliffs fall);
:func:`repro.experiments.report.render_report` prints paper-vs-measured
values from live runs.
"""

from repro.experiments.common import (
    ExperimentChain,
    measure_data_ber,
    simulate_overlay_audio,
)

__all__ = [
    "ExperimentChain",
    "measure_data_ber",
    "simulate_overlay_audio",
]
