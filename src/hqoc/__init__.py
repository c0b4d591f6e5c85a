"""hqoc: hybrid qubit-oscillator computation toolkit.

Circuit IR and static moment analysis, GKP comb-state encoding and
measurement, desk-scale grid simulation with homodyne sampling, and the
energy trade-off / lower-bound calculators.  Import the modules directly,
e.g. ``from hqoc import simulator``.
"""

__version__ = "0.1.0"
