"""Acoustic-emission source location on 1-D waveguides by learned delay-position prototypes.

The package root re-exports the names the scripts and the README use; every
other name is imported from its own module (``aeloc.grnn``, ``aeloc.pipeline``, ...).
"""

from . import calibration, grnn, pipeline, signals, simulator, svgplot, util  # noqa: F401
from .signals import FilterSpec, design_bandpass, filtered_delay
from .simulator import parse_config, run_experiment

__version__ = "0.1.0"
