"""Config-driven experiment runners and their bookkeeping.

Each runner takes a validated ExperimentConfig, drives the simulation and
readout chain over the requested sweep, writes CSV traces plus a JSON fit
report into the output directory, and returns flat scalar results.  A
RunManifest ties the artifacts to the exact configuration, seed and library
versions so a rerun can be checked byte for byte.

Two measurement protocols that need the full Jaynes-Cummings model live here
as plain functions rather than CLI experiment kinds: measure_dispersive_pull
(steady-state cavity line versus pinned qubit state) and measure_stark_shift
(qubit precession frequency versus intracavity photon number).
"""

from __future__ import annotations

import hashlib
import inspect
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import device, dynamics, fitting, pulses, qops, readout

DEFAULT_SATURATION_TARGETS = (0.05, 0.1, 0.2, 0.3, 0.4)

# dispersive pull: probe points, Fock cutoff, and the rate (Hz) of the
# collapse pumps that hold each qubit branch
PULL_PROBE_POINTS = 61
PULL_FOCK_CUTOFF = 6
PULL_HOLD_RATE = 16e6

# ac-Stark fit window ends once |<sigma+>| falls below this fraction of its
# post-settle value
STARK_COHERENCE_FLOOR = 0.25
# noisy readout shots drawn at a time: 32 records of 1000 samples are 256 KiB,
# small enough to leave the process's peak RSS where it was
SHOT_BLOCK = 32


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


# ------------------------------------------------------- config parsing

def _as_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(mapping, allowed, path):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}"
                          + (f"; allowed: {', '.join(sorted(allowed))}"
                             if allowed else ""))


def _as_number(value, path, minimum=None, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    x = float(value)
    if not np.isfinite(x):
        raise ConfigError(f"{path}: must be finite")
    if positive and x <= 0:
        raise ConfigError(f"{path}: must be > 0")
    if minimum is not None and x < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return x


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return int(value)


def _as_choice(value, path, choices):
    if value not in choices:
        raise ConfigError(f"{path}: expected one of {', '.join(map(str, choices))}, "
                          f"got {value!r}")
    return value


@dataclass(frozen=True)
class SweepSpec:
    """Uniform sweep axis; the meaning of the values is set by the kind."""
    start: float
    stop: float
    points: int

    @property
    def values(self):
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    device: device.DeviceParams
    sweep: SweepSpec | None
    seed: int
    output_dir: str
    heterodyne: readout.HeterodyneConfig
    readout_noise: readout.ReadoutNoiseModel | None
    dephasing: dynamics.OuNoiseModel | None
    probe_frequency: float | None
    probe_amplitude: float | None
    pulse_sigma: float
    drag_beta: float
    truncation_k: float
    averages: int
    params: dict
    effective: dict = field(repr=False)


_TOP_KEYS = ("experiment", "device", "sweep", "seed", "output_dir", "noise",
             "pulse", "readout", "params", "averages")

_DEVICE_KEYS = ("dqd", "resonator", "coupling", "decoherence")


def _number(**limits):
    return lambda value, path: _as_number(value, path, **limits)


def _integer(**limits):
    return lambda value, path: _as_int(value, path, **limits)


def _choice(*choices):
    return lambda value, path: _as_choice(value, path, choices)


def _drive_amplitudes(value, path):
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise ConfigError(f"{path}: expected a list of >= 2 drive amplitudes in Hz")
    return [_as_number(a, f"{path}[{i}]", positive=True)
            for i, a in enumerate(value)]


def _population(value, path):
    p = _as_number(value, path, minimum=0.0)
    if p > 1.0:
        raise ConfigError(f"{path}: must be <= 1")
    return p


def _default(owner, key):
    """The default that a class or function gives its parameter `key`."""
    return inspect.signature(owner).parameters[key].default


def _fields(owner, **checks):
    """Schema entries whose defaults are the defaults of `owner`."""
    return {key: (check, _default(owner, key)) for key, check in checks.items()}


# the default of a key the config must set
_REQUIRED = object()

# each config object as key -> (validator, default); a default of None leaves
# the key out, for a value that the run derives from the device
_SECTIONS = {
    "sweep": {"start": (_number(), _REQUIRED),
              "stop": (_number(), _REQUIRED),
              "points": (_integer(minimum=2), _REQUIRED)},
    "pulse": {"sigma": (_number(positive=True), 0.25e-9),
              **_fields(pulses.GaussianPulse, drag_beta=_number(),
                        truncation_k=_number(positive=True))},
    "readout": {"probe_frequency": (_number(positive=True), None),
                "probe_amplitude": (_number(positive=True), None),
                **_fields(readout.HeterodyneConfig,
                          sample_rate=_number(positive=True),
                          intermediate_frequency=_number(positive=True),
                          lowpass_cutoff=_number(positive=True),
                          integration_window=_number(positive=True),
                          n_filter_taps=_integer(minimum=3))},
    "noise.readout": _fields(readout.ReadoutNoiseModel,
                             noise_temperature=_number(minimum=0.0),
                             system_gain=_number(positive=True)),
    "noise.dephasing": {"sigma_delta": (_number(minimum=0.0), _REQUIRED),
                        "tau_c": (_number(positive=True), _REQUIRED),
                        **_fields(dynamics.OuNoiseModel,
                                  n_realizations=_integer(minimum=1))},
}


def _parse_section(raw, path, schema):
    """Check a config object against its schema; return its values by key."""
    m = _as_mapping(raw, path)
    _check_keys(m, schema, path)
    values = {}
    for key, (check, default) in schema.items():
        if key in m:
            values[key] = check(m[key], f"{path}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required")
        elif default is not None:
            values[key] = default
    return values


def _reads(kind, name):
    """Whether the kind reads the section `name` or one of its subsections."""
    return any(r == name or r.startswith(name + ".") for r in _KINDS[kind].reads)


def _check_reads(m, kind):
    """Reject every optional section that the kind never reads, and `noise`
    whole on a kind that reads neither of its sections; return the `noise`
    object ({} when the config has none).
    """
    def check(name):
        if not _reads(kind, name):
            raise ConfigError(f"{name}: not used by experiment '{kind}'")

    for key in ("sweep", "noise", "pulse", "readout", "averages"):
        if key in m:
            check(key)
    noise = _as_mapping(m.get("noise", {}), "noise")
    _check_keys(noise, ("readout", "dephasing"), "noise")
    for key in noise:
        check(f"noise.{key}")
    return noise


def validate_config(raw, experiment=None, seed=None, output_dir=None):
    """Validate a raw config dict into an ExperimentConfig.

    seed / output_dir override the corresponding config fields
    (command-line precedence).  experiment fills in the kind when the
    config omits it and must agree with the config when both are given,
    so a config written for one pipeline is never run through another.
    Raises ConfigError naming the offending field on any problem, including
    a section the kind never reads; never partially applies a config.

    The config's `effective` dict is what the run is hashed by and echoes:
    the kind, seed, device (every number a float), params and each section
    the kind reads, with every default filled in except those derived from
    the device at run time.  output_dir is never in it.
    """
    m = dict(_as_mapping(raw, "config"))
    if experiment is not None:
        declared = m.get("experiment")
        if declared is not None and declared != experiment:
            raise ConfigError(
                f"experiment: config declares {declared!r} but the command "
                f"line selected {experiment!r}")
        m["experiment"] = experiment
    if seed is not None:
        m["seed"] = seed
    if output_dir is not None:
        m["output_dir"] = output_dir

    _check_keys(m, _TOP_KEYS, "config")

    kind = m.get("experiment")
    if kind is None:
        raise ConfigError("experiment: required (or pass the subcommand)")
    if kind not in _KINDS:
        raise ConfigError(f"experiment: unknown kind {kind!r}; choose from "
                          f"{', '.join(EXPERIMENT_KINDS)}")

    if "device" not in m:
        raise ConfigError("device: required")
    dev_raw = _as_mapping(m["device"], "device")
    _check_keys(dev_raw, _DEVICE_KEYS, "device")
    try:
        dev = device.DeviceParams.from_dict(dev_raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"device: {exc}") from exc

    noise = _check_reads(m, kind)
    if "sweep" not in m and _reads(kind, "sweep"):
        raise ConfigError(f"sweep: required for experiment '{kind}'")
    sweep = (_parse_section(m["sweep"], "sweep", _SECTIONS["sweep"])
             if "sweep" in m else None)

    seed_val = _as_int(m.get("seed", 0), "seed", minimum=0)
    out_dir = m.get("output_dir", f"runs/{kind}")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output_dir: expected a non-empty string")

    noise = {key: _parse_section(sub, f"noise.{key}", _SECTIONS[f"noise.{key}"])
             for key, sub in noise.items()}
    pulse = _parse_section(m.get("pulse", {}), "pulse", _SECTIONS["pulse"])
    het_values = _parse_section(m.get("readout", {}), "readout",
                                _SECTIONS["readout"])
    try:
        heterodyne = readout.HeterodyneConfig(**{
            k: v for k, v in het_values.items() if not k.startswith("probe_")})
    except ValueError as exc:
        raise ConfigError(f"readout: {exc}") from exc
    params = _parse_section(m.get("params", {}), "params", _KINDS[kind].params)
    fewest = _KINDS[kind].min_points(params)
    if sweep and sweep["points"] < fewest:
        raise ConfigError(f"sweep.points: must be >= {fewest} for experiment "
                          f"'{kind}'")
    averages = _as_int(
        m.get("averages", _default(measure_population, "averages")),
        "averages", minimum=1)

    effective = {"experiment": kind, "seed": seed_val, "params": params,
                 "device": {name: {k: float(v) for k, v in section.items()}
                            for name, section in dev.to_dict().items()}}
    sections = {"sweep": sweep, "noise": noise, "pulse": pulse,
                "readout": het_values, "averages": averages}
    effective.update((name, value) for name, value in sections.items()
                     if _reads(kind, name))
    return ExperimentConfig(
        experiment=kind, device=dev, sweep=sweep and SweepSpec(**sweep),
        seed=seed_val, output_dir=out_dir, heterodyne=heterodyne,
        readout_noise=(readout.ReadoutNoiseModel(**noise["readout"])
                       if "readout" in noise else None),
        dephasing=(dynamics.OuNoiseModel(**noise["dephasing"])
                   if "dephasing" in noise else None),
        probe_frequency=het_values.get("probe_frequency"),
        probe_amplitude=het_values.get("probe_amplitude"),
        pulse_sigma=pulse["sigma"],
        drag_beta=pulse["drag_beta"], truncation_k=pulse["truncation_k"],
        averages=averages, params=params, effective=effective)


def load_config(path, experiment=None, seed=None, output_dir=None):
    """Read a JSON config file and validate it."""
    return validate_config(_read_json(path, "config"), experiment=experiment,
                           seed=seed, output_dir=output_dir)


# --------------------------------------------------- readout pipeline

@dataclass(frozen=True)
class ReadoutPipeline:
    """Conditional cavity fields and demodulated references on the ADC grid.

    The master equation is linear in the density matrix, so the conditional
    fields for |g> and |e> span every mixture, and the chain is linear in
    them, so a read needs no synthesis (measure_population).  The fields
    are at the chain's system_gain, and sigma is the std of the added noise
    per ADC sample (0 without added noise).
    """
    heterodyne: readout.HeterodyneConfig
    sigma: float
    alpha_g: np.ndarray
    alpha_e: np.ndarray
    ref_g: np.ndarray
    ref_e: np.ndarray
    probe_frequency: float

    def mixture_field(self, p_e):
        """Cavity field of the mixture with excited population p_e."""
        return (1.0 - p_e) * self.alpha_g + p_e * self.alpha_e

    @cached_property
    def noise_kernel(self):
        """Pull of each sample of added noise on a shot (noisy reads only)."""
        return readout.shot_noise_kernel(self.ref_g, self.ref_e,
                                         self.heterodyne)


def build_readout_pipeline(dev, heterodyne=None, noise=None,
                           probe_frequency=None, probe_amplitude=None):
    """Ring up the conditional cavity fields and demodulate the references.

    The probe defaults to the ground-state resonance; the amplitude default
    puts one steady-state photon in the cavity for the ground branch.  The
    fields, and so the references and every shot, are at the chain's
    system_gain.
    """
    het = heterodyne or readout.HeterodyneConfig()
    res = dev.resonator
    chi = device.dispersive_shift_of(dev)
    if probe_frequency is None:
        probe_frequency = res.bare_frequency_nu_r + \
            readout.dressed_resonance_shift("g", chi)
    if probe_amplitude is None:
        # |alpha_ss| = 1 on the ground-branch resonance
        probe_amplitude = np.pi * res.kappa_tot / np.sqrt(2.0 * np.pi * res.kappa_ext)
    gain, sigma = 1.0, 0.0
    if noise is not None:
        gain = noise.system_gain
        sigma = noise.sigma_per_sample(probe_frequency)
    alpha_g, alpha_e = (gain * dynamics.semiclassical_cavity_response(
        state, res, chi, probe_frequency, probe_amplitude, het.adc_times)
        for state in ("g", "e"))
    return ReadoutPipeline(
        heterodyne=het, sigma=sigma, alpha_g=alpha_g, alpha_e=alpha_e,
        ref_g=readout.synthesize_readout_waveform(alpha_g, het),
        ref_e=readout.synthesize_readout_waveform(alpha_e, het),
        probe_frequency=probe_frequency)


def _noisy_shots(pipe, p_e, rng, averages):
    """Shots p_e + pipe.noise_kernel . xi; the record noise xi is drawn
    SHOT_BLOCK shots at a time, in the order full synthesis draws it."""
    rng, n = np.random.default_rng(rng), pipe.heterodyne.n_samples
    return np.concatenate([
        p_e + rng.normal(0.0, pipe.sigma, (min(SHOT_BLOCK, averages - k), n))
        @ pipe.noise_kernel for k in range(0, averages, SHOT_BLOCK)])


def measure_population(pipe, p_e, rng=None, averages=1):
    """Read a mixture out `averages` times; return (mean, sem).  The chain is
    linear, so a noiseless read is p_e and a shot p_e plus its noise
    (_noisy_shots); full synthesis then estimate_population is the reference."""
    averages = _as_int(averages, "averages", minimum=1)
    if pipe.sigma <= 0.0:
        return float(p_e), 0.0
    vals = _noisy_shots(pipe, p_e, rng, averages)
    sem = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(vals.mean()), sem


# --------------------------------------- full-model measurement protocols

@dataclass(frozen=True)
class DispersivePull:
    """Cavity line centers conditioned on the qubit branch; max_residual is
    the largest relative steady-state residual over all probes."""
    probe_frequencies: np.ndarray
    responses: dict
    centers: dict
    pull_g: float
    pull_e: float
    chi_measured: float
    chi_dispersive: float
    fits: dict
    max_residual: float


def measure_dispersive_pull(dev):
    """Steady-state cavity transmission line versus pinned qubit state.

    Sweeps a weak probe across the resonator for three qubit branches held
    open-system style: a collapse pump to |g>, to |e>, and balanced pumps
    giving a maximally mixed qubit.  The probe spans nu_r +- 2 (kappa_tot +
    2 |chi|) at amplitude kappa_tot/20, about 0.01 photons, which keeps the
    response linear.  The hold rate must dominate the Purcell rate
    (kappa (g/Delta)^2, fractions of a MHz here) or the branch drifts toward
    |g> while the probe integrates.  chi_measured is the line pull of the
    mixed branch relative to the ground branch; in the dispersive regime it
    approaches g^2/Delta.

    The probe Hamiltonians are built as one stack and shared by the
    branches; each branch is one `dynamics.steady_states` call over the
    whole sweep, solved by charge sector in `space`.
    """
    res = dev.resonator
    space = qops.HilbertSpace(PULL_FOCK_CUTOFF)
    chi = device.dispersive_shift_of(dev)
    span = 2.0 * (res.kappa_tot + 2.0 * abs(chi))
    probe_amplitude = res.kappa_tot / 20.0
    freqs = np.linspace(res.bare_frequency_nu_r - span,
                        res.bare_frequency_nu_r + span, PULL_PROBE_POINTS)

    a_op = qops.cavity_operator(qops.annihilation(space.fock_cutoff), space)
    sm = qops.qubit_operator(qops.sigma_minus(), space)
    sp = qops.qubit_operator(qops.sigma_plus(), space)
    hold = 2.0 * np.pi * PULL_HOLD_RATE
    branch_channels = {
        "g": [dynamics.CollapseChannel(sm, hold, "hold |g>")],
        "e": [dynamics.CollapseChannel(sp, hold, "hold |e>")],
        "mixed": [dynamics.CollapseChannel(sm, hold, "hold down"),
                  dynamics.CollapseChannel(sp, hold, "hold up")],
    }
    cavity = dynamics.cavity_channels(res, space)

    hams = device.build_rotating_frame_hamiltonian(
        dev.dqd, res, dev.coupling, drive_frequency=freqs,
        cavity_drive=probe_amplitude, space=space)
    responses = {}
    fits = {}
    centers = {}
    max_residual = 0.0
    for branch, extra in branch_channels.items():
        solved = dynamics.steady_states(hams, cavity + extra, space)
        resp = np.array([qops.expectation(rho, a_op) for rho in solved.states])
        fit = fitting.fit_lorentzian(freqs, np.abs(resp) ** 2)
        responses[branch] = resp
        fits[branch] = fit
        centers[branch] = float(fit.params["center"])
        max_residual = max(max_residual, float(solved.residuals.max()))

    nu_r = res.bare_frequency_nu_r
    return DispersivePull(
        probe_frequencies=freqs, responses=responses, centers=centers,
        pull_g=centers["g"] - nu_r, pull_e=centers["e"] - nu_r,
        chi_measured=centers["mixed"] - centers["g"],
        chi_dispersive=chi, fits=fits, max_residual=max_residual)


@dataclass(frozen=True)
class StarkPoint:
    """One measurement-tone amplitude: photons and dressed qubit frequency."""
    drive_amplitude: float
    photon_number: float
    qubit_frequency: float
    max_trace_deviation: float
    min_eigenvalue: float


def _displaced_frame(dev, drive_amplitude, probe, space):
    """H/h (Hz) in the frame of measure_stark_shift, and its field alpha."""
    res = dev.resonator
    alpha = -1j * drive_amplitude / (1j * (res.bare_frequency_nu_r - probe)
                                     + 0.5 * res.kappa_tot)
    g = device.coupling_at_detuning(dev.coupling, dev.dqd)
    sp = qops.qubit_operator(qops.sigma_plus(), space)
    h = device.build_rotating_frame_hamiltonian(
        dev.dqd, res, dev.coupling, drive_frequency=probe, space=space)
    return h + g * (alpha * sp + np.conj(alpha) * sp.conj().T), alpha


def measure_stark_shift(dev, drive_amplitude, probe_frequency=None,
                        fock_cutoff=8, settle_time=10e-9,
                        precession_time=100e-9, dt=2e-11):
    """Qubit precession frequency with the measurement tone populating the cavity.

    Works in the frame displaced by the empty-cavity steady-state field
    alpha = -i eps / (i (nu_r - nu_p) + kappa_tot/2), a -> a + alpha
    (Gambetta et al., PRA 74, 042318, 2006).  There the tone eps (a + a^dag)
    cancels, the qubit instead sees the classical drive
    g (alpha sigma_+ + alpha^* sigma_-), and the cavity loss keeps its jump
    a and its rate.  The cavity ladder only holds the departure from the
    coherent field, so fock_cutoff, and the TruncationWarning of `evolve`,
    refer to the displaced ladder, not to the photons in the cavity.

    Prepares the driven steady state, tips the qubit to the equator (the
    tip acts on the qubit only, so it commutes with the displacement), and
    reads the superposition's precession rate off the unwrapped phase of
    <sigma+>.  The first settle_time is excluded from the phase fit: after
    the tip the cavity re-rings toward the excited-branch field and the
    transient frequency is not yet stationary.  Probing at the bare resonator
    frequency keeps <n> symmetric between the branches so the photon number
    is constant during the precession window.  The photon number is
    <a^dag a> + 2 Re(alpha^* <a>) + |alpha|^2 in the displaced frame,
    averaged over the fit window.

    The fit window also ends once |<sigma+>| falls below
    STARK_COHERENCE_FLOOR of its post-settle value: the bare-basis sigma+
    carries an order-g/Delta cavity-like component that does not dephase
    with the qubit, and once the qubit part has decayed that remnant owns
    the phase.  So a post-settle |<sigma+>| below that fraction of its
    value after the tip raises RuntimeError, not a resonator frequency.
    """
    res = dev.resonator
    space = qops.HilbertSpace(fock_cutoff)
    probe = res.bare_frequency_nu_r if probe_frequency is None else probe_frequency
    h, alpha = _displaced_frame(dev, drive_amplitude, probe, space)
    channels = dynamics.cavity_channels(res, space)

    rho_ss = dynamics.steady_state(h, channels, space)
    c = np.sqrt(0.5)
    tip = qops.qubit_operator(np.array([[c, -c], [c, c]]), space)
    rho0 = tip @ rho_ss @ tip.conj().T

    grid = dynamics.SimulationGrid(0.0, precession_time, dt)
    e_ops = {
        "sigma_plus": qops.qubit_operator(qops.sigma_plus(), space),
        "a_dag_a": qops.cavity_operator(
            qops.number_operator(space.fock_cutoff), space),
    }
    traj = dynamics.evolve(rho0, h, channels, grid, space=space, e_ops=e_ops)
    traj.validate_populations()

    sel = traj.times >= settle_time
    sigma_plus = traj.expectations["sigma_plus"]
    coherence = sigma_plus[sel]
    times = traj.times[sel]
    alive = np.abs(coherence) >= STARK_COHERENCE_FLOOR * np.abs(coherence[0])
    n_keep = len(alive) if alive.all() else int(np.argmin(alive))
    if (n_keep < 32 or np.abs(coherence[0])
            < STARK_COHERENCE_FLOOR * np.abs(sigma_plus[0])):
        raise RuntimeError(
            "qubit coherence decayed before a phase fit window opened; "
            "reduce the drive amplitude or settle_time")
    # <sigma+> rotates at +2 pi (nu_q_dressed - nu_probe)
    phase = np.unwrap(np.angle(coherence[:n_keep]))
    slope = np.polyfit(times[:n_keep], phase, 1)[0]
    nu_q = probe + slope / (2.0 * np.pi)
    photons = (traj.expectations["a_dag_a"].real
               + 2.0 * np.real(np.conj(alpha) * traj.cavity_alpha) + abs(alpha) ** 2)
    n_bar = float(np.mean(photons[sel][:n_keep]))
    diag = traj.diagnostics
    return StarkPoint(drive_amplitude=float(drive_amplitude),
                      photon_number=n_bar, qubit_frequency=float(nu_q),
                      max_trace_deviation=diag.max_trace_deviation,
                      min_eigenvalue=diag.min_eigenvalue)


# ------------------------------------------------------------ runners

def _point_rngs(seed, n_points):
    """Two independent streams per sweep point, stable under any scheduling."""
    kids = np.random.SeedSequence(seed).spawn(n_points)
    return [tuple(np.random.default_rng(s) for s in k.spawn(2)) for k in kids]


def _write_csv(path, header, columns):
    """The one CSV layout: comma-separated %.12e columns, bare header."""
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    np.savetxt(path, data, delimiter=",", header=header, comments="",
               fmt="%.12e")


def _null_non_finite(obj):
    """obj with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _null_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(v) for v in obj]
    return obj


def _write_json(path, obj):
    """Strict JSON (RFC 8259): non-finite floats are written as null."""
    with open(path, "w") as fh:
        json.dump(_null_non_finite(obj), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _read_json(path, label):
    """The JSON object in a UTF-8 file; ConfigError naming `label` and the
    file if it cannot be read, is not JSON or is not an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{label}: cannot read {path}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{label}: {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{label}: {path} is not a JSON object")
    return obj


def _pipeline_from_config(cfg):
    return build_readout_pipeline(cfg.device, heterodyne=cfg.heterodyne,
                                  noise=cfg.readout_noise,
                                  probe_frequency=cfg.probe_frequency,
                                  probe_amplitude=cfg.probe_amplitude)


def _analyse_rabi(amps, p_est, cfg, pi_amp):
    fit = fitting.fit_rabi_sweep(amps, p_est)
    rate = abs(fit.params["frequency"])  # oscillation cycles per Hz of drive
    return fit, {"pi_amplitude_hz": 0.5 / rate if rate > 0 else float("nan"),
                 "predicted_pi_amplitude_hz": pi_amp}


def _analyse_ramsey(delays, p_est, cfg, pi_amp):
    detuning = cfg.params["drive_detuning"]
    if detuning != 0.0:
        fit = fitting.fit_damped_cosine(delays, p_est,
                                        envelope=cfg.params["fit_envelope"])
        t2 = fit.params.get("decay_time", float("inf"))
        fringe = abs(fit.params["frequency"])
    else:
        fit = fitting.fit_exponential_decay(delays, p_est)
        t2 = fit.params["time_constant"]
        fringe = 0.0
    return fit, {"t2_ramsey_s": float(t2),
                 "fringe_frequency_hz": float(fringe),
                 "drive_detuning_hz": detuning}


def _analyse_decay(result_key):
    def analyse(delays, p_est, cfg, pi_amp):
        fit = fitting.fit_exponential_decay(delays, p_est)
        return fit, {result_key: float(fit.params["time_constant"])}
    return analyse


@dataclass(frozen=True)
class _PulsedKind:
    """What sets one pulsed kind apart from the others.

    sequence(x, cfg, pi_amplitude, shape) builds the sequence for sweep value
    x, where shape holds the pulse and readout keywords every builder takes.
    columns pairs each CSV header with a sweep-table key, in file order.
    fit_key names the fits.json entry.  analyse(x, pe_estimated, cfg,
    pi_amplitude) returns the fit and the results particular to the kind.
    """
    sequence: Callable
    columns: tuple
    fit_key: str
    analyse: Callable


def _run_pulsed(kind, cfg, out):
    """Pulsed kinds: simulate each sweep point, read it out, fit the sweep."""
    pi_amp = pulses.calibrate_pi_amplitude(cfg.pulse_sigma,
                                           truncation_k=cfg.truncation_k)
    shape = dict(sigma=cfg.pulse_sigma, truncation_k=cfg.truncation_k,
                 drag_beta=cfg.drag_beta,
                 readout_duration=cfg.heterodyne.integration_window)
    values = cfg.sweep.values
    pipe = _pipeline_from_config(cfg)
    rngs = _point_rngs(cfg.seed, len(values))

    seqs = [kind.sequence(x, cfg, pi_amp, shape) for x in values]
    trajs = dynamics.simulate_sweep(seqs, cfg.device.decoherence,
                                    cfg.dephasing, [r for r, _ in rngs])
    rows = []
    for traj, (_, rng_readout) in zip(trajs, rngs):
        traj.validate_populations()
        pe_true = float(traj.qubit_pe[-1])
        p_est, est_err = measure_population(pipe, pe_true, rng=rng_readout,
                                            averages=cfg.averages)
        rows.append((pe_true, traj.pe_stderr, p_est, est_err,
                     traj.diagnostics.max_trace_deviation))
    pe_true, true_err, p_est, est_err, trace_dev = map(np.array, zip(*rows))
    table = {"x": values, "pe_true": pe_true, "pe_true_err": true_err,
             "pe_est": p_est, "pe_est_err": est_err}

    name = f"{cfg.experiment}.csv"
    _write_csv(out / name, ",".join(header for header, _ in kind.columns),
               [table[key] for _, key in kind.columns])
    fit, results = kind.analyse(values, p_est, cfg, pi_amp)
    results["fit_residual_rms"] = fit.residual_rms
    results["max_trace_deviation"] = float(trace_dev.max())
    return [name], {kind.fit_key: fit.to_dict()}, results


def _run_spectroscopy(cfg, out):
    dec = cfg.device.decoherence
    dets = cfg.sweep.values
    amps = cfg.params.get("rabi_amplitudes")
    if amps is None:
        # low saturation ladder; hwhm^2 stays linear in drive power
        amps = [float(np.sqrt(s * dec.gamma1 * dec.gamma2))
                for s in DEFAULT_SATURATION_TARGETS]
    amps = np.asarray(amps, dtype=float)

    lines = [dynamics.steady_state_spectroscopy(dets, a, dec) for a in amps]
    line_fits = [fitting.fit_lorentzian(dets, line) for line in lines]
    hwhms = np.array([abs(f.params["hwhm"]) for f in line_fits])
    extrap = fitting.extrapolate_zero_power_linewidth(
        amps ** 2, hwhms, mode=cfg.params["extrapolation_mode"])

    header = "detuning_hz," + ",".join(f"pe_line{i}" for i in range(len(amps)))
    _write_csv(out / "lines.csv", header, [dets] + lines)
    _write_csv(out / "linewidths.csv",
               "rabi_amplitude_hz,drive_power_hz2,hwhm_hz",
               [amps, amps ** 2, hwhms])
    fits = {
        "lines": [f.to_dict() for f in line_fits],
        "zero_power_extrapolation": {
            "mode": extrap.mode, "gamma2_hz": extrap.gamma2,
            "t2_s": extrap.t2, "slope": extrap.slope,
            "intercept": extrap.intercept,
        },
    }
    results = {
        "gamma2_hz": extrap.gamma2,
        "t2_s": extrap.t2,
        "peak_pe_max": float(max(line.max() for line in lines)),
    }
    return ["lines.csv", "linewidths.csv"], fits, results


def _run_stark(cfg, out):
    amps = cfg.sweep.values
    points = [measure_stark_shift(cfg.device, a, **cfg.params) for a in amps]
    n_bar = np.array([pt.photon_number for pt in points])
    nu_q = np.array([pt.qubit_frequency for pt in points])

    # polyfit scales a covariance once a point is spare: three for a line
    if len(amps) >= 3:
        coef, cov = np.polyfit(n_bar, nu_q, 1, cov=True)
        slope_std = float(np.sqrt(cov[0, 0]))
    else:
        coef = np.polyfit(n_bar, nu_q, 1)
        slope_std = float("nan")
    resid = nu_q - np.polyval(coef, n_bar)
    chi = device.dispersive_shift_of(cfg.device)

    _write_csv(out / "stark.csv",
               "drive_amplitude_hz,photon_number,qubit_frequency_hz",
               [amps, n_bar, nu_q])
    fits = {"photon_number_shift": {
        "slope_hz_per_photon": float(coef[0]),
        "intercept_hz": float(coef[1]),
        "slope_std_hz_per_photon": slope_std,
        "residual_rms_hz": float(np.sqrt(np.mean(resid ** 2))),
    }}
    results = {
        "stark_slope_hz_per_photon": float(coef[0]),
        "stark_intercept_hz": float(coef[1]),
        "two_chi_hz": 2.0 * chi,
        "max_photon_number": float(n_bar.max()),
        "max_trace_deviation": max(pt.max_trace_deviation for pt in points),
        "min_eigenvalue": min(pt.min_eigenvalue for pt in points),
    }
    return ["stark.csv"], fits, results


def _run_readout_trace(cfg, out):
    pipe = _pipeline_from_config(cfg)
    het = pipe.heterodyne
    p_target = cfg.params["population"]
    skip = het.filter_delay_samples

    mean_g = complex(pipe.ref_g[skip:].mean())
    mean_e = complex(pipe.ref_e[skip:].mean())
    rotation = float(np.angle(mean_e - mean_g))

    rng_meas, rng_trace = (np.random.default_rng(s)
                           for s in np.random.SeedSequence(cfg.seed).spawn(2))
    alpha = pipe.mixture_field(p_target)
    noiseless = readout.synthesize_readout_waveform(alpha, het)
    midpoint = readout.estimate_population(noiseless, pipe.ref_g, pipe.ref_e,
                                           het)
    p_est, est_err = measure_population(pipe, p_target, rng=rng_meas,
                                        averages=cfg.averages)
    mixture = noiseless if pipe.sigma <= 0.0 else \
        readout.synthesize_readout_waveform(alpha, het, pipe.sigma, rng_trace)

    turn = np.exp(-1j * rotation)       # puts e - g on the +I axis
    for env, name in ((pipe.ref_g, "iq_ground.csv"),
                      (pipe.ref_e, "iq_excited.csv"),
                      (mixture, "iq_mixture.csv")):
        iq = env * turn
        _write_csv(out / name, "time_s,i,q", [het.adc_times, iq.real, iq.imag])

    fits = {"population_estimate": {
        "method": "matched",
        "target_population": p_target,
        "noiseless_estimate": midpoint,
        "noisy_estimate": p_est,
        "noisy_stderr": est_err,
    }}
    results = {
        "iq_separation": float(abs(mean_e - mean_g)),
        "rotation_phase_rad": rotation,
        "midpoint_noiseless": midpoint,
        "population_estimate": float(p_est),
        "estimate_stderr": float(est_err),
        "probe_frequency_hz": pipe.probe_frequency,
    }
    return (["iq_ground.csv", "iq_excited.csv", "iq_mixture.csv"],
            fits, results)


def _run_s11(cfg, out):
    res = cfg.device.resonator
    freqs = cfg.sweep.values
    state = cfg.params["qubit_state"]
    if state == "bare":
        shift = 0.0
    else:
        shift = readout.dressed_resonance_shift(
            state, device.dispersive_shift_of(cfg.device))
    s11 = readout.reflection_coefficient(freqs, res, resonance_shift=shift)
    _write_csv(out / "s11.csv", "freq_hz,re_s11,im_s11",
               [freqs, s11.real, s11.imag])

    fit = fitting.fit_lorentzian(freqs, np.abs(s11) ** 2)
    kappa_tot = 2.0 * abs(fit.params["hwhm"])
    winding = readout.phase_winding(s11)
    results = {
        "kappa_tot_hz": float(kappa_tot),
        "resonance_frequency_hz": float(fit.params["center"]),
        "winding_turns": float(winding / (2.0 * np.pi)),
        "min_abs_s11": float(np.abs(s11).min()),
        "passive": 1.0 if readout.is_passive(s11) else 0.0,
    }
    return ["s11.csv"], {"reflection_dip": fit.to_dict()}, results


@dataclass(frozen=True)
class _Kind:
    """One experiment kind.

    run(cfg, out) writes the artifacts and returns (files, fits, results).
    reads names the optional config sections the runner uses: "sweep",
    "pulse", "readout", "averages", "noise.readout" and "noise.dephasing";
    validate_config rejects the others.  params is the schema of "params" in
    the _SECTIONS form, key -> (validator, default).  min_points(params) is
    the fewest sweep points the kind's fit takes: one more than its
    parameters, as `fitting` needs a spare point, or the two of a line.
    """
    run: Callable
    reads: tuple
    params: dict
    min_points: Callable = lambda params: 2


def _pulsed(**kind):
    return partial(_run_pulsed, _PulsedKind(**kind))


def _ramsey_points(params):
    """A fringe's damped cosine has 5 parameters, 4 without an envelope; at
    zero detuning the exponential decay has 3."""
    if params["drive_detuning"] == 0.0:
        return 4
    return 5 if params["fit_envelope"] == "none" else 6


_PULSED_READS = ("sweep", "pulse", "readout", "averages", "noise.readout",
                 "noise.dephasing")

_DELAY_COLUMNS = (("delay_s", "x"), ("pe_simulated", "pe_true"),
                  ("pe_sim_stderr", "pe_true_err"), ("pe_estimated", "pe_est"),
                  ("pe_est_stderr", "pe_est_err"))

# in the order the command line lists them.  Pulse builders are looked up in
# `pulses` at call time, not bound here, so that a replaced module function
# (a profiler's wrapper, a test double) is used
_KINDS = {
    "spectroscopy": _Kind(
        run=_run_spectroscopy, reads=("sweep",),
        params={"rabi_amplitudes": (_drive_amplitudes, None),
                "extrapolation_mode": (
                    _choice("squared", "linear"),
                    _default(fitting.extrapolate_zero_power_linewidth, "mode"))},
        min_points=lambda params: 5),         # Lorentzian: 4 parameters
    "stark": _Kind(
        run=_run_stark, reads=("sweep",),
        params={"probe_frequency": (_number(positive=True), None),
                **_fields(measure_stark_shift,
                          fock_cutoff=_integer(minimum=4),
                          settle_time=_number(positive=True),
                          precession_time=_number(positive=True),
                          dt=_number(positive=True))}),
    "rabi": _Kind(
        run=_pulsed(
            sequence=lambda amp, cfg, pi_amp, shape:
                pulses.build_rabi_sequence(amp, **shape),
            columns=(("drive_amplitude_hz", "x"), ("pe_simulated", "pe_true"),
                     ("pe_estimated", "pe_est"), ("pe_stderr", "pe_est_err")),
            fit_key="rabi_oscillation", analyse=_analyse_rabi),
        reads=_PULSED_READS, params={},
        min_points=lambda params: 5),         # cosine: 4 parameters
    "ramsey": _Kind(
        run=_pulsed(
            sequence=lambda tau, cfg, pi_amp, shape:
                pulses.build_ramsey_sequence(
                    tau, cfg.params["drive_detuning"], pi_amplitude=pi_amp,
                    **shape),
            columns=_DELAY_COLUMNS, fit_key="fringe_decay",
            analyse=_analyse_ramsey),
        reads=_PULSED_READS,
        params={"drive_detuning": (_number(), 100e6),
                "fit_envelope": (_choice("exp", "gauss", "none"),
                                 _default(fitting.fit_damped_cosine,
                                          "envelope"))},
        min_points=_ramsey_points),
    "t1": _Kind(
        run=_pulsed(
            sequence=lambda tau, cfg, pi_amp, shape:
                pulses.build_t1_sequence(tau, pi_amplitude=pi_amp, **shape),
            columns=_DELAY_COLUMNS, fit_key="population_decay",
            analyse=_analyse_decay("t1_s")),
        reads=_PULSED_READS, params={},
        min_points=lambda params: 4),         # exponential: 3 parameters
    "echo": _Kind(
        run=_pulsed(
            sequence=lambda tau, cfg, pi_amp, shape:
                pulses.build_echo_sequence(tau, pi_amplitude=pi_amp, **shape,
                                           **cfg.params),
            columns=_DELAY_COLUMNS, fit_key="echo_decay",
            analyse=_analyse_decay("t2_echo_s")),
        reads=_PULSED_READS,
        params=_fields(pulses.build_echo_sequence, echo_phase=_number()),
        min_points=lambda params: 4),         # exponential: 3 parameters
    "readout-trace": _Kind(
        run=_run_readout_trace, reads=("readout", "averages", "noise.readout"),
        params={"population": (_population, 0.5)}),
    "s11-sweep": _Kind(
        run=_run_s11, reads=("sweep",),
        params={"qubit_state": (_choice("bare", "g", "e"), "bare")},
        min_points=lambda params: 5),         # Lorentzian: 4 parameters
}

EXPERIMENT_KINDS = tuple(_KINDS)


# ----------------------------------------------------------- manifest

def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def config_hash(effective):
    """Hash of the effective config (ExperimentConfig.effective)."""
    return _sha256_text(_canonical_json(effective))


def _versions():
    import scipy

    from . import __version__
    return {"package": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


@dataclass(frozen=True)
class RunManifest:
    """Provenance record: config hash, seed, versions, artifact digests.

    run_hash covers everything that determines the outputs (config, seed,
    library versions, file digests) and nothing that does not (timestamps,
    output paths), so identical reruns produce identical hashes.
    """
    experiment: str
    config_sha256: str
    seed: int
    versions: dict
    created_at: str
    files: list
    run_hash: str

    @classmethod
    def build(cls, cfg, out_dir, filenames):
        entries = []
        for name in sorted(filenames):
            path = Path(out_dir) / name
            entries.append({"name": name, "sha256": _sha256_file(path),
                            "bytes": path.stat().st_size})
        cfg_hash = config_hash(cfg.effective)
        versions = _versions()
        run_hash = _sha256_text(_canonical_json({
            "config_sha256": cfg_hash,
            "seed": cfg.seed,
            "versions": versions,
            "files": [{"name": e["name"], "sha256": e["sha256"]}
                      for e in entries],
        }))
        return cls(experiment=cfg.experiment, config_sha256=cfg_hash,
                   seed=cfg.seed, versions=versions,
                   created_at=datetime.now(timezone.utc).isoformat(
                       timespec="seconds"),
                   files=entries, run_hash=run_hash)

    def save(self, path):
        _write_json(path, asdict(self))

    @classmethod
    def load(cls, path):
        p = Path(path)
        if p.is_dir():
            p = p / "manifest.json"
        d = _read_json(p, "run")
        try:
            return cls(**{f.name: d[f.name] for f in fields(cls)})
        except KeyError as exc:
            raise ConfigError(f"run: manifest {p} is missing {exc}") from exc


def run_experiment(cfg):
    """Execute one configured experiment end to end; returns the manifest."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    files, fit_report, results = _KINDS[cfg.experiment].run(cfg, out)
    _write_json(out / "fits.json", fit_report)
    _write_json(out / "results.json", results)
    _write_json(out / "config.json", cfg.effective)
    files = list(files) + ["fits.json", "results.json", "config.json"]
    manifest = RunManifest.build(cfg, out, files)
    manifest.save(out / "manifest.json")
    return manifest


# ----------------------------------------------------- reference check

@dataclass(frozen=True)
class CheckRow:
    name: str
    expected: float
    actual: float | None
    rtol: float
    atol: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class CheckReport:
    rows: list

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def format_table(self):
        lines = [f"{'quantity':<28} {'expected':>14} {'actual':>14} "
                 f"{'tolerance':>18} {'status':>8}"]
        for r in self.rows:
            actual = "missing" if r.actual is None else f"{r.actual:.6e}"
            tol = f"rtol={r.rtol:g}" if r.rtol else f"atol={r.atol:g}"
            status = "pass" if r.passed else "FAIL"
            note = f"  ({r.note})" if r.note and not r.passed else ""
            lines.append(f"{r.name:<28} {r.expected:>14.6e} {actual:>14} "
                         f"{tol:>18} {status:>8}{note}")
        n_fail = sum(not r.passed for r in self.rows)
        lines.append(f"{len(self.rows)} quantities checked, {n_fail} failed")
        return "\n".join(lines)


# one entry under a reference file's "quantities", in the _SECTIONS form
_REFERENCE_QUANTITY = {"expected": (_number(), _REQUIRED),
                       "rtol": (_number(minimum=0.0), 0.0),
                       "atol": (_number(minimum=0.0), 0.0)}


def flagged_fits(report, name=""):
    """(name, problems) for each fit in a fits.json object that did not
    converge or raised flags; nested objects and lists are walked."""
    if isinstance(report, list):
        return [bad for i, item in enumerate(report)
                for bad in flagged_fits(item, f"{name}[{i}]")]
    if not isinstance(report, dict):
        return []
    if "converged" in report:
        if not isinstance(report.get("flags"), list):
            raise ConfigError(f"fit {name or '(top level)'} has 'converged' "
                              "but no 'flags' list")
        problems = list(report["flags"])
        if not report["converged"]:
            problems.insert(0, "not converged")
        return [(name, problems)] if problems else []
    return [bad for key, item in report.items()
            for bad in flagged_fits(item, f"{name}.{key}" if name else key)]


def compare_to_reference(run, reference_path):
    """Check a run's results.json against expected values with tolerances.

    `run` is a manifest path or a run directory.  The reference file must
    hold a non-empty "quantities" object; an empty or malformed reference
    raises ConfigError rather than passing vacuously.  Every fit in the
    run's fits.json that did not converge or raised flags adds a failing
    row, whose value is its number of problems.  So does a numerical
    diagnostic of results.json out of bounds: `max_trace_deviation` above
    dynamics.TRACE_TOL, or `min_eigenvalue` below -dynamics.POPULATION_TOL.
    """
    run_path = Path(run)
    RunManifest.load(run_path)  # reject runs without a readable manifest
    run_dir = run_path if run_path.is_dir() else run_path.parent

    results, fits = (_read_json(run_dir / name, "run")
                     for name in ("results.json", "fits.json"))
    try:
        flagged = flagged_fits(fits)
    except ConfigError as exc:
        raise ConfigError(f"run: {run_dir / 'fits.json'}: {exc}") from None

    ref = _read_json(reference_path, "reference")
    if "quantities" not in ref:
        raise ConfigError(f'reference: {reference_path} has no "quantities" '
                          "key")
    quantities = ref["quantities"]
    if not isinstance(quantities, dict) or not quantities:
        raise ConfigError("reference: quantities must be a non-empty object")

    rows = []
    for name in sorted(quantities):
        path = f"reference.quantities.{name}"
        spec = _parse_section(quantities[name], path, _REFERENCE_QUANTITY)
        expected, rtol, atol = spec["expected"], spec["rtol"], spec["atol"]
        if rtol == 0.0 and atol == 0.0:
            raise ConfigError(f"{path}: needs rtol or atol")
        actual = results.get(name)
        if actual is None or isinstance(actual, bool) \
                or not isinstance(actual, (int, float)):
            rows.append(CheckRow(name=name, expected=expected, actual=None,
                                 rtol=rtol, atol=atol, passed=False,
                                 note="missing from results"))
            continue
        ok = abs(float(actual) - expected) <= atol + rtol * abs(expected)
        rows.append(CheckRow(name=name, expected=expected,
                             actual=float(actual), rtol=rtol, atol=atol,
                             passed=bool(ok)))
    for name, problems in flagged:
        rows.append(CheckRow(name=f"fit {name}", expected=0.0,
                             actual=float(len(problems)), rtol=0.0, atol=0.0,
                             passed=False, note=", ".join(problems)))
    # a diagnostic fails when sign * value exceeds its bound
    for name, sign, tol, note in (
            ("max_trace_deviation", 1.0, dynamics.TRACE_TOL, "trace drifted"),
            ("min_eigenvalue", -1.0, dynamics.POPULATION_TOL,
             "negative eigenvalue")):
        value = results.get(name)
        if isinstance(value, (int, float)) and sign * value > tol:
            rows.append(CheckRow(name=f"numerics {name}", expected=0.0,
                                 actual=float(value), rtol=0.0, atol=tol,
                                 passed=False, note=note))
    return CheckReport(rows=rows)
