"""Release acceptance: nine end-to-end checks, one line of output each.

Every check drives the public stack the way a user would (device parameters
in, fitted numbers out) and prints a PASS/FAIL line carrying the measured
values, so `pytest -s tests/test_acceptance.py` doubles as the release
report.  Checks with meaningful runtime also assert a generous wall-clock
ceiling; the margins are wide enough that slow CI hosts do not flap.
"""

import json
import time
from pathlib import Path

import numpy as np

from dotqed import device, dynamics, experiments, pulses, qops, readout

# Trace-deviation records accumulated by the checks that run full dynamics;
# the hygiene check at the end sweeps whatever has been recorded.
TRACE_RECORDS = {}


def _report(tag, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  {tag}: {detail}"
    print(line)
    assert ok, line


def _results(out_dir):
    with open(Path(out_dir) / "results.json") as fh:
        return json.load(fh)


def test_dispersive_pull_recovers_chi(flagship):
    # ground-vs-mixed pull of the resonator line, full master equation
    t0 = time.perf_counter()
    pull = experiments.measure_dispersive_pull(flagship)
    elapsed = time.perf_counter() - t0
    chi = pull.chi_dispersive                     # g^2/Delta = 4.959 MHz
    err = abs(pull.chi_measured - chi) / chi
    ok = (err < 0.10
          and abs(pull.chi_measured - 5.0e6) / 5.0e6 < 0.10
          and elapsed < 60.0)
    _report("dispersive pull", ok,
            f"chi {pull.chi_measured / 1e6:.3f} MHz vs g^2/Delta "
            f"{chi / 1e6:.3f} MHz ({100 * err:.2f}% off, {elapsed:.1f} s)")
    # the centers are only read off fits that report themselves healthy
    for branch, fit in pull.fits.items():
        assert fit.converged and not fit.flags, (branch, fit.flags)


def test_vacuum_rabi_splitting_is_2g():
    dqd = device.DqdParams(tunnel_splitting_2t=5.07e9, detuning_delta=0.0)
    res = device.ResonatorParams(bare_frequency_nu_r=5.07e9, kappa_ext=23e6,
                                 kappa_int=7e6)
    split = device.vacuum_rabi_splitting(dqd, res,
                                         device.CouplingParams(g0=37.5e6))
    err = abs(split - 75e6) / 75e6
    _report("vacuum Rabi splitting", err < 1e-6,
            f"{split / 1e6:.6f} MHz vs 75 MHz ({err:.1e} relative)")


def test_stark_shift_slope_is_two_chi_per_photon():
    # wide cavity so a few photons fit before measurement back-action
    # erases the precession window
    dev = device.DeviceParams(
        dqd=device.DqdParams(tunnel_splitting_2t=5.68e9),
        resonator=device.ResonatorParams(bare_frequency_nu_r=5.07e9,
                                         kappa_ext=80e6, kappa_int=20e6),
        coupling=device.CouplingParams(g0=55e6),
        decoherence=device.DecoherenceParams(gamma1=3.7625e6,
                                             gamma_phi=4.9203e6),
    )
    chi = device.dispersive_shift(55e6, 5.68e9 - 5.07e9)
    half_kappa = 0.5 * dev.resonator.kappa_tot
    # drive sqrt(n) * sqrt(chi^2 + (kappa/2)^2) holds n steady photons on
    # either branch when probing at the bare resonator frequency
    t0 = time.perf_counter()
    points = [experiments.measure_stark_shift(
        dev, float(np.sqrt(n) * np.hypot(chi, half_kappa)))
        for n in range(5)]
    elapsed = time.perf_counter() - t0
    n_bar = np.array([p.photon_number for p in points])
    freqs = np.array([p.qubit_frequency for p in points])
    slope = np.polyfit(n_bar, freqs, 1)[0]
    err = abs(slope - 2.0 * chi) / (2.0 * chi)
    TRACE_RECORDS["stark"] = max(p.max_trace_deviation for p in points)
    ok = err < 0.10 and n_bar.max() > 3.5 and elapsed < 300.0
    _report("ac-Stark slope", ok,
            f"{slope / 1e6:.3f} MHz/photon vs 2 chi {2 * chi / 1e6:.3f} MHz "
            f"({100 * err:.2f}% off over n = 0..{n_bar.max():.1f}, "
            f"{elapsed:.1f} s)")


def test_pipeline_recovers_t1_t2_and_fringe(flagship_dict, tmp_path):
    t0 = time.perf_counter()
    experiments.run_experiment(experiments.validate_config({
        "experiment": "ramsey",
        "device": flagship_dict,
        "sweep": {"start": 0.0, "stop": 25e-9, "points": 26},
        "seed": 41,
        "output_dir": str(tmp_path / "ramsey"),
    }))
    ram = _results(tmp_path / "ramsey")
    experiments.run_experiment(experiments.validate_config({
        "experiment": "t1",
        "device": flagship_dict,
        "sweep": {"start": 0.0, "stop": 150e-9, "points": 31},
        "seed": 42,
        "output_dir": str(tmp_path / "t1"),
    }))
    t1 = _results(tmp_path / "t1")
    elapsed = time.perf_counter() - t0

    t1_err = abs(t1["t1_s"] - 42.3e-9) / 42.3e-9
    t2_err = abs(ram["t2_ramsey_s"] - 23.4e-9) / 23.4e-9
    fr_err = abs(ram["fringe_frequency_hz"] - 100e6) / 100e6
    TRACE_RECORDS["ramsey"] = ram["max_trace_deviation"]
    TRACE_RECORDS["t1"] = t1["max_trace_deviation"]
    ok = (t1_err < 0.05 and t2_err < 0.05 and fr_err < 0.02
          and elapsed < 600.0)
    _report("closed-loop coherence", ok,
            f"T1 {t1['t1_s'] * 1e9:.2f} ns ({100 * t1_err:.2f}%), "
            f"T2 {ram['t2_ramsey_s'] * 1e9:.2f} ns ({100 * t2_err:.2f}%), "
            f"fringe {ram['fringe_frequency_hz'] / 1e6:.2f} MHz "
            f"({100 * fr_err:.2f}%), {elapsed:.1f} s")


def test_echo_refocuses_quasi_static_noise_only(flagship_dict, tmp_path):
    t0 = time.perf_counter()

    def run(kind, tau_max, noise, seed, sub):
        params = {"drive_detuning": 0.0} if kind == "ramsey" else {}
        cfg = experiments.validate_config({
            "experiment": kind,
            "device": flagship_dict,
            "sweep": {"start": 0.0, "stop": tau_max, "points": 21},
            "noise": {"dephasing": noise},
            "params": params,
            "seed": seed,
            "output_dir": str(tmp_path / sub),
        })
        experiments.run_experiment(cfg)
        out = _results(tmp_path / sub)
        TRACE_RECORDS[sub] = out["max_trace_deviation"]
        return out

    gamma2 = 6.80155e6          # device gamma1/2 + gamma_phi
    # sigma = 2 gamma2 makes the quasi-static Gaussian envelope pull the
    # Ramsey 1/e time down to exactly T2/2
    slow = {"sigma_delta": 2.0 * gamma2, "tau_c": 100 * 40e-9,
            "n_realizations": 1000}
    fast = {"sigma_delta": 193e6, "tau_c": 10e-9 / 100.0,
            "n_realizations": 1000}
    ram_slow = run("ramsey", 40e-9, slow, 501, "qs-ramsey")
    echo_slow = run("echo", 40e-9, slow, 502, "qs-echo")
    ram_fast = run("ramsey", 10e-9, fast, 503, "white-ramsey")
    echo_fast = run("echo", 10e-9, fast, 504, "white-echo")
    elapsed = time.perf_counter() - t0

    slow_ratio = echo_slow["t2_echo_s"] / ram_slow["t2_ramsey_s"]
    fast_ratio = echo_fast["t2_echo_s"] / ram_fast["t2_ramsey_s"]
    ok = (slow_ratio >= 1.8 and abs(fast_ratio - 1.0) <= 0.10
          and elapsed < 900.0)
    _report("echo refocusing", ok,
            f"T2e/T2r {slow_ratio:.2f} under quasi-static noise (>= 1.8), "
            f"{fast_ratio:.2f} under white noise (1 +- 10%), {elapsed:.0f} s")


def test_zero_power_linewidth_extrapolation(flagship_dict, tmp_path):
    gamma1, gamma2 = 3.7625e6, 3.3e6
    dev = dict(flagship_dict)
    dev["decoherence"] = {"gamma1": gamma1,
                          "gamma_phi": gamma2 - 0.5 * gamma1}
    # low-saturation ladder plus one deeply saturated line (s = 100)
    amps = [float(np.sqrt(s * gamma1 * gamma2))
            for s in (0.05, 0.1, 0.2, 0.3, 0.4, 100.0)]
    cfg = experiments.validate_config({
        "experiment": "spectroscopy",
        "device": dev,
        "sweep": {"start": -150e6, "stop": 150e6, "points": 1501},
        "params": {"rabi_amplitudes": amps},
        "output_dir": str(tmp_path / "spectroscopy"),
    })
    experiments.run_experiment(cfg)
    out = _results(tmp_path / "spectroscopy")
    g2_err = abs(out["gamma2_hz"] - gamma2) / gamma2
    sat_err = abs(out["peak_pe_max"] - 0.5) / 0.5
    t2_err = abs(out["t2_s"] - 48e-9) / 48e-9
    ok = g2_err < 0.03 and sat_err < 0.01 and t2_err < 0.01
    _report("linewidth extrapolation", ok,
            f"gamma2 {out['gamma2_hz'] / 1e6:.4f} MHz ({100 * g2_err:.3f}%), "
            f"saturated peak {out['peak_pe_max']:.4f} "
            f"({100 * sat_err:.2f}% from 1/2), "
            f"T2 {out['t2_s'] * 1e9:.2f} ns ({100 * t2_err:.2f}%)")


def test_reflection_linewidth_and_winding(flagship_dict, tmp_path):
    cfg = experiments.validate_config({
        "experiment": "s11-sweep",
        "device": flagship_dict,
        "sweep": {"start": 5.07e9 - 600e6, "stop": 5.07e9 + 600e6,
                  "points": 201},
        "output_dir": str(tmp_path / "s11"),
    })
    experiments.run_experiment(cfg)
    out = _results(tmp_path / "s11")
    k_err = abs(out["kappa_tot_hz"] - 30e6) / 30e6
    wind = abs(out["winding_turns"])
    ok = k_err < 0.02 and abs(wind - 1.0) < 0.02 and out["passive"] == 1.0
    _report("reflection sweep", ok,
            f"kappa_tot {out['kappa_tot_hz'] / 1e6:.3f} MHz "
            f"({100 * k_err:.2f}%), winding {wind:.4f} turns, "
            f"passive {out['passive'] == 1.0}")


def test_readout_estimator_and_averaging_law(flagship):
    # the noiseless midpoint through the full chain, which measure_population
    # short-cuts: synthesise the mixture's trace, then estimate
    pipe = experiments.build_readout_pipeline(flagship)
    mid = readout.synthesize_readout_waveform(pipe.mixture_field(0.5),
                                              pipe.heterodyne)
    p_mid = readout.estimate_population(mid, pipe.ref_g, pipe.ref_e,
                                        pipe.heterodyne)
    mid_err = abs(p_mid - 0.5)

    # shorter window keeps 4e4 single shots affordable; the averaging law
    # does not care about the per-shot variance itself
    het = readout.HeterodyneConfig(integration_window=200e-9)
    noise = readout.ReadoutNoiseModel(noise_temperature=6.0, system_gain=1.0)
    pipe_n = experiments.build_readout_pipeline(flagship, heterodyne=het,
                                                noise=noise)
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()
    shots = np.array([experiments.measure_population(pipe_n, 0.5, rng=rng)[0]
                      for _ in range(40000)])
    elapsed = time.perf_counter() - t0
    sd_one = shots.std(ddof=1)
    sd_hundred = shots.reshape(400, 100).mean(axis=1).std(ddof=1)
    ratio = sd_one / sd_hundred           # sqrt(100) if the law holds
    # shots are iid by construction, so the reduction extends as sqrt(N)
    reduction_1e4 = ratio * np.sqrt(1e4 / 100.0)
    ok = mid_err <= 1e-6 and abs(reduction_1e4 - 100.0) <= 10.0
    _report("readout averaging", ok,
            f"noiseless midpoint off by {mid_err:.1e}; std ratio "
            f"{ratio:.2f} at N=100 -> x{reduction_1e4:.1f} at N=1e4 "
            f"({elapsed:.0f} s)")


def test_numerical_hygiene_and_cavity_model_agreement(flagship):
    # full Jaynes-Cummings cavity field against the conditioned
    # semiclassical model, ten couplings detuned (Delta = 10 g)
    dqd = device.DqdParams(tunnel_splitting_2t=5.37e9)
    res = device.ResonatorParams(bare_frequency_nu_r=5.07e9, kappa_ext=16e6,
                                 kappa_int=4e6)
    coupling = device.CouplingParams(g0=30e6)
    chi = device.dispersive_shift(30e6, 300e6)
    probe = res.bare_frequency_nu_r - chi
    a_in = 0.6 * np.pi * res.kappa_tot / np.sqrt(2.0 * np.pi * res.kappa_ext)
    eps = np.sqrt(2.0 * np.pi * res.kappa_ext) * a_in / (2.0 * np.pi)
    space = qops.HilbertSpace(8)
    h = device.build_rotating_frame_hamiltonian(dqd, res, coupling, probe,
                                                cavity_drive=eps, space=space)
    rho0 = qops.ket_to_dm(np.eye(space.dim)[0])
    full = dynamics.evolve(rho0, h, dynamics.cavity_channels(res, space),
                           dynamics.SimulationGrid(0.0, 150e-9, 2e-11),
                           space=space)
    full.validate_populations()
    times = full.times[::10]
    semi = dynamics.semiclassical_cavity_response("g", res, chi, probe, a_in,
                                                  times)
    settled = times > 10e-9               # skip the ring-up transient
    model_err = np.max(np.abs(np.abs(full.cavity_alpha[::10][settled])
                              / np.abs(semi[settled]) - 1.0))

    diag = full.diagnostics
    TRACE_RECORDS["jc-cavity"] = diag.max_trace_deviation
    # a short pulsed run exercises the two-level stepper's bookkeeping too
    seq = pulses.build_ramsey_sequence(
        10e-9, 100e6, sigma=0.25e-9,
        pi_amplitude=pulses.calibrate_pi_amplitude(0.25e-9))
    traj = dynamics.simulate_sequence(seq, flagship.decoherence)
    traj.validate_populations()
    TRACE_RECORDS["stepper"] = traj.diagnostics.max_trace_deviation

    worst = max(TRACE_RECORDS.values())
    ok = (model_err < 0.02 and worst < 1e-7
          and diag.min_eigenvalue > -1e-8)
    _report("numerical hygiene", ok,
            f"cavity model mismatch {100 * model_err:.2f}% (< 2%), worst "
            f"trace drift {worst:.1e} over {len(TRACE_RECORDS)} recorded "
            f"runs, min eigenvalue {diag.min_eigenvalue:.1e}")
