"""FM Backscatter (NSDI 2017) reproduction library.

Transforms everyday objects into FM radio stations: backscatter ambient
FM broadcasts so that any unmodified FM receiver (smartphone, car radio)
decodes the overlaid audio or data. The README maps the package, and
``python -m repro.experiments.report`` reruns the paper-figure
reproductions and prints them as markdown
(:func:`repro.experiments.report.render_report`).
"""

from repro._version import __version__

__all__ = ["__version__"]
