"""The benchmark workloads: inputs made from a seed, the public dotqed calls
that make up one pass, and the correctness gate on each call's output.

Gate tolerances repeat tests/test_acceptance.py.  Every grid keeps the
acceptance start and stop values, so the mix of pulse steps and idle steps
is the acceptance mix; point counts, realizations and shots are scaled so
that one pass takes a few seconds on a 2-core machine.
"""

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dotqed import device, dynamics, experiments, pulses

TRACE_TOL = 1e-7

FLAGSHIP = {
    "dqd": {"tunnel_splitting_2t": 5.68e9, "detuning_delta": 0.0},
    "resonator": {"bare_frequency_nu_r": 5.07e9, "kappa_ext": 23e6,
                  "kappa_int": 7e6},
    "coupling": {"g0": 55e6},
    "decoherence": {"gamma1": 3.7625e6, "gamma_phi": 4.9203e6},
}
# designed coherence of the flagship device
T1_S, T2_S, GAMMA2_HZ = 42.3e-9, 23.4e-9, 6.80155e6
CHI_FLAGSHIP_HZ = 5.0e6

# wide cavity of the acceptance ac-Stark check
STARK_DEVICE = dict(FLAGSHIP, resonator={"bare_frequency_nu_r": 5.07e9,
                                         "kappa_ext": 80e6, "kappa_int": 20e6})
STARK_PHOTONS = (0, 4)

# spectroscopy device of the acceptance linewidth check
SPEC_GAMMA1, SPEC_GAMMA2 = 3.7625e6, 3.3e6
SPEC_DEVICE = dict(FLAGSHIP, decoherence={
    "gamma1": SPEC_GAMMA1, "gamma_phi": SPEC_GAMMA2 - 0.5 * SPEC_GAMMA1})
SPEC_SATURATIONS = (0.05, 0.1, 0.2, 0.3, 0.4, 100.0)

PULSED_POINTS = {"rabi": 11, "ramsey": 11, "t1": 4}
MC_POINTS, MC_REALIZATIONS = 4, 500
READOUT_AVERAGES = 2000


def derive_seed(workload, seed, op):
    """Config seed of one operation, fixed by the workload seed."""
    digest = hashlib.sha256(f"{workload}/{op}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def array_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------- gates

def _rel(label, actual, expected, tol):
    err = abs(actual - expected) / abs(expected)
    return (label, bool(err < tol),
            f"{actual:.6g} vs {expected:.6g}: {100 * err:.2f}% off "
            f"(limit {100 * tol:g}%)")


def _trace(results):
    dev = results["max_trace_deviation"]
    return ("max_trace_deviation", bool(dev < TRACE_TOL),
            f"{dev:.1e} (limit {TRACE_TOL:g})")


def rotation_pi_amplitude(amplitudes, pe):
    """Pi amplitude of P(A) = c sin^2(pi A / (2 A_pi)), least squares.

    The axis is scaled to [0, 1] first.  For each trial rate k the best
    contrast c is linear; k is scanned on a fine grid, then refined.
    """
    amplitudes, pe = np.asarray(amplitudes), np.asarray(pe)
    scale = amplitudes.max()
    x = amplitudes / scale

    def misfit(k):
        g = 0.5 * (1.0 - np.cos(k * x))
        c = g @ pe / (g @ g)
        return float(np.sum((pe - c * g) ** 2))

    ks = np.linspace(0.5, np.pi / np.diff(x).max(), 2000)
    i = int(np.argmin([misfit(k) for k in ks]))
    lo, hi = ks[max(i - 1, 0)], ks[min(i + 1, len(ks) - 1)]
    for _ in range(60):  # golden-section search on [lo, hi]
        a, b = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
        lo, hi = (lo, b) if misfit(a) < misfit(b) else (a, hi)
    return np.pi * scale / (0.5 * (lo + hi))


def _gate_rabi(r, done):
    fitted = rotation_pi_amplitude(r["amplitudes"], r["pe"])
    return [_rel("pi_amplitude_hz (rotation fit of simulated P_e)", fitted,
                 r["predicted_pi_amplitude_hz"], 0.05), _trace(r)]


def _gate_ramsey(r, done):
    return [_rel("t2_ramsey_s", r["t2_ramsey_s"], T2_S, 0.05),
            _rel("fringe_frequency_hz", r["fringe_frequency_hz"], 100e6, 0.02),
            _trace(r)]


def _gate_t1(r, done):
    return [_rel("t1_s", r["t1_s"], T1_S, 0.05), _trace(r)]


def _gate_trace_only(r, done):
    return [_trace(r)]


def _gate_echo(r, done):
    ratio = r["t2_echo_s"] / done["ramsey"]["t2_ramsey_s"]
    return [("t2_echo/t2_ramsey", bool(ratio >= 1.8),
             f"{ratio:.3f} (limit >= 1.8)"), _trace(r)]


def _gate_pull(r, done):
    return [_rel("chi_measured_hz", r["chi_measured"], r["chi_dispersive"],
                 0.10),
            _rel("chi_measured_hz vs 5 MHz", r["chi_measured"],
                 CHI_FLAGSHIP_HZ, 0.10)]


def _stark_slope_gate(two_chi):
    def gate(r, done):
        points = [done[f"stark-n{n}"] for n in STARK_PHOTONS]
        n_bar = np.array([p["photon_number"] for p in points])
        freqs = np.array([p["qubit_frequency"] for p in points])
        slope = np.polyfit(n_bar, freqs, 1)[0]
        return [_rel("stark_slope_hz_per_photon", slope, two_chi, 0.10),
                ("max_photon_number", bool(n_bar.max() > 3.5),
                 f"{n_bar.max():.3f} (limit > 3.5)"), _trace(r)]
    return gate


def _gate_readout_trace(r, done):
    mid = abs(r["midpoint_noiseless"] - 0.5)
    err = abs(r["population_estimate"] - 0.5)
    limit = 5.0 * r["estimate_stderr"]
    return [("midpoint_noiseless", bool(mid <= 1e-6),
             f"off by {mid:.1e} (limit 1e-6)"),
            ("population_estimate", bool(err <= limit),
             f"off by {err:.2e} (limit 5 stderr = {limit:.2e})")]


def _gate_s11(r, done):
    wind = abs(r["winding_turns"])
    return [_rel("kappa_tot_hz", r["kappa_tot_hz"], 30e6, 0.02),
            ("winding_turns", bool(abs(wind - 1.0) < 0.02),
             f"{wind:.4f} (limit 1 +- 0.02)"),
            ("passive", r["passive"] == 1.0, f"{r['passive']:g}")]


def _gate_spectroscopy(r, done):
    return [_rel("gamma2_hz", r["gamma2_hz"], SPEC_GAMMA2, 0.03),
            _rel("peak_pe_max", r["peak_pe_max"], 0.5, 0.01),
            _rel("t2_s", r["t2_s"], 48e-9, 0.01)]


# ------------------------------------------------------------ operations

@dataclass
class Op:
    """One experiment run or one measurement call, with its gate.

    `run(cfg)` returns (results, digest); for experiments cfg is the
    validated config and the digest is the manifest's run_hash.
    """
    name: str
    run: object
    gate: object
    config: dict | None = None
    cfg: object = field(default=None, repr=False)


def _rabi_sweep(cfg):
    """The Rabi amplitude sweep through the two-level stepper alone.

    The same sequences as the `rabi` experiment, without its readout and
    without its cosine fit, which misconverges on this axis (ROADMAP item 1).
    """
    pe, trace_dev = [], []
    for amp in cfg.sweep.values:
        seq = pulses.build_rabi_sequence(
            amp, cfg.pulse_sigma, truncation_k=cfg.truncation_k,
            drag_beta=cfg.drag_beta,
            readout_duration=cfg.heterodyne.integration_window)
        traj = dynamics.simulate_sequence(seq, cfg.device.decoherence)
        traj.validate_populations()
        pe.append(float(traj.qubit_pe[-1]))
        trace_dev.append(traj.diagnostics.max_trace_deviation)
    results = {"amplitudes": [float(a) for a in cfg.sweep.values], "pe": pe,
               "max_trace_deviation": float(max(trace_dev)),
               "predicted_pi_amplitude_hz": pulses.calibrate_pi_amplitude(
                   cfg.pulse_sigma, truncation_k=cfg.truncation_k)}
    return results, array_digest(np.array(pe), np.array(trace_dev))


def _run_experiment(cfg):
    manifest = experiments.run_experiment(cfg)
    with open(Path(cfg.output_dir) / "results.json") as fh:
        return json.load(fh), manifest.run_hash


def _measure_pull(dev):
    def run(cfg):
        pull = experiments.measure_dispersive_pull(dev)
        results = {"chi_measured": pull.chi_measured,
                   "chi_dispersive": pull.chi_dispersive}
        digest = array_digest(pull.probe_frequencies,
                              *(pull.responses[b] for b in sorted(pull.responses)))
        return results, digest
    return run


def _measure_stark(dev, amplitude):
    def run(cfg):
        p = experiments.measure_stark_shift(dev, amplitude)
        results = {"photon_number": p.photon_number,
                   "qubit_frequency": p.qubit_frequency,
                   "max_trace_deviation": p.max_trace_deviation}
        return results, array_digest(np.array(list(results.values())))
    return run


def _experiment_op(name, gate, config):
    return Op(name=name, run=_run_experiment, gate=gate, config=config)


def _pulsed_sweep(seed_of):
    def cfg(kind, stop):
        return {"experiment": kind, "device": FLAGSHIP,
                "sweep": {"start": 0.0, "stop": stop,
                          "points": PULSED_POINTS[kind]},
                "seed": seed_of(kind)}
    return [Op(name="rabi-sweep", run=_rabi_sweep, gate=_gate_rabi,
               config=cfg("rabi", 2e9)),
            _experiment_op("ramsey", _gate_ramsey, cfg("ramsey", 25e-9)),
            _experiment_op("t1", _gate_t1, cfg("t1", 150e-9))]


def _mc_dephasing(seed_of):
    # sigma = 2 gamma2 pulls the Ramsey 1/e time down to T2/2; a 4 us
    # correlation time is quasi-static on the 40 ns window, so echo refocuses
    noise = {"dephasing": {"sigma_delta": 2.0 * GAMMA2_HZ, "tau_c": 4e-6,
                           "n_realizations": MC_REALIZATIONS}}

    def cfg(kind, params):
        return {"experiment": kind, "device": FLAGSHIP,
                "sweep": {"start": 0.0, "stop": 40e-9, "points": MC_POINTS},
                "noise": noise, "params": params, "seed": seed_of(kind)}
    return [_experiment_op("ramsey", _gate_trace_only,
                           cfg("ramsey", {"drive_detuning": 0.0})),
            _experiment_op("echo", _gate_echo, cfg("echo", {}))]


def _jc_master(seed_of):
    flagship = device.DeviceParams.from_dict(FLAGSHIP)
    stark_dev = device.DeviceParams.from_dict(STARK_DEVICE)
    half_kappa = 0.5 * stark_dev.resonator.kappa_tot
    chi = device.dispersive_shift(55e6, 5.68e9 - 5.07e9)
    ops = [Op(name="dispersive-pull", run=_measure_pull(flagship),
              gate=_gate_pull)]
    for n in STARK_PHOTONS:
        # sqrt(n) sqrt(chi^2 + (kappa/2)^2) holds n photons on either branch
        amp = float(np.sqrt(n) * np.hypot(chi, half_kappa))
        gate = (_stark_slope_gate(2.0 * chi) if n == STARK_PHOTONS[-1]
                else _gate_trace_only)
        ops.append(Op(name=f"stark-n{n}", run=_measure_stark(stark_dev, amp),
                      gate=gate))
    return ops


def _readout_shots(seed_of):
    amps = [float(np.sqrt(s * SPEC_GAMMA1 * SPEC_GAMMA2))
            for s in SPEC_SATURATIONS]
    return [
        _experiment_op("readout-trace", _gate_readout_trace, {
            "experiment": "readout-trace", "device": FLAGSHIP,
            "noise": {"readout": {"noise_temperature": 6.0}},
            "averages": READOUT_AVERAGES, "seed": seed_of("readout-trace")}),
        _experiment_op("s11-sweep", _gate_s11, {
            "experiment": "s11-sweep", "device": FLAGSHIP,
            "sweep": {"start": 5.07e9 - 600e6, "stop": 5.07e9 + 600e6,
                      "points": 201},
            "seed": seed_of("s11-sweep")}),
        _experiment_op("spectroscopy", _gate_spectroscopy, {
            "experiment": "spectroscopy", "device": SPEC_DEVICE,
            "sweep": {"start": -150e6, "stop": 150e6, "points": 1501},
            "params": {"rabi_amplitudes": amps},
            "seed": seed_of("spectroscopy")}),
    ]


_BUILDERS = {"pulsed-sweep": _pulsed_sweep, "mc-dephasing": _mc_dephasing,
             "jc-master": _jc_master, "readout-shots": _readout_shots}


def build(workload, seed, out_dir):
    """Make the workload's operations from the seed and validate their configs."""
    ops = _BUILDERS[workload](lambda op: derive_seed(workload, seed, op))
    for op in ops:
        if op.config is not None:
            op.cfg = experiments.validate_config(
                dict(op.config, output_dir=str(Path(out_dir) / op.name)))
    return ops


def run_pass(ops, done, start=0, clock=time.perf_counter, may_start=None):
    """Run each operation once, in order from ops[start] round to
    ops[start - 1]; returns one record per operation run.

    `done` maps an operation's name to its latest results, which later
    gates read; the pass updates it.  A record's `seconds` times the call
    alone, not its gate, on `clock`.  When `may_start(op)` is given and
    returns False, the pass ends before that operation.
    """
    records = []
    for op in ops[start:] + ops[:start]:
        if may_start is not None and not may_start(op):
            break
        rec = {"name": op.name, "ok": False, "checks": [], "digest": None,
               "error": None, "seconds": None}
        try:
            t0 = clock()
            results, rec["digest"] = op.run(op.cfg)
            rec["seconds"] = clock() - t0
            done[op.name] = results
            rec["checks"] = op.gate(results, done)
            rec["ok"] = all(ok for _, ok, _ in rec["checks"])
        except Exception as exc:  # a raising call is a failed operation
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return records
