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

from .device import (
    CouplingParams,
    DecoherenceParams,
    DeviceParams,
    DqdParams,
    ResonatorParams,
    build_rotating_frame_hamiltonian,
    coupling_at_detuning,
    dispersive_shift,
    qubit_frequency,
    vacuum_rabi_splitting,
)
from .dynamics import (
    CollapseChannel,
    OuNoiseModel,
    SimulationGrid,
    Trajectory,
    evolve,
    liouvillian,
    monte_carlo_dephasing,
    sample_ou_detuning,
    semiclassical_cavity_response,
    simulate_sequence,
    steady_state,
    steady_state_spectroscopy,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    RunManifest,
    build_readout_pipeline,
    compare_to_reference,
    load_config,
    measure_dispersive_pull,
    measure_population,
    measure_stark_shift,
    run_experiment,
    validate_config,
)
from .fitting import (
    extrapolate_zero_power_linewidth,
    fit_damped_cosine,
    fit_exponential_decay,
    fit_lorentzian,
    fit_rabi_sweep,
)
from .pulses import (
    GaussianPulse,
    PulseSequence,
    build_echo_sequence,
    build_rabi_sequence,
    build_ramsey_sequence,
    build_t1_sequence,
    calibrate_pi_amplitude,
)
from .qops import HilbertSpace
from .readout import (
    HeterodyneConfig,
    IqTrace,
    ReadoutNoiseModel,
    estimate_population,
    reflection_coefficient,
    synthesize_readout_waveform,
)
