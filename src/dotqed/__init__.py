"""Simulation and analysis toolkit for a microwave-controlled charge qubit
dispersively read out through a high-impedance resonator.

The package follows the signal path of the tabletop experiment it models:
`device` holds the physical parameters and frame transformations, `pulses`
the shaped-drive sequences, `dynamics` the Lindblad and semiclassical
solvers, `readout` the reflection and heterodyne chain, `fitting` the
estimators, and `experiments` the config-driven runners behind the
command line interface.
"""

__version__ = "0.1.0"

from . import device, dynamics, experiments, fitting, pulses, qops, readout
