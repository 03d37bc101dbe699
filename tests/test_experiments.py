import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from dotqed import cli, device, dynamics, experiments, qops, readout


def _device_dict():
    return {
        "dqd": {"tunnel_splitting_2t": 5.68e9, "detuning_delta": 0.0},
        "resonator": {"bare_frequency_nu_r": 5.07e9, "kappa_ext": 23e6,
                      "kappa_int": 7e6},
        "coupling": {"g0": 55e6},
        "decoherence": {"gamma1": 3.7625e6, "gamma_phi": 4.9203e6},
    }


def _s11_config(out, points=201):
    return {
        "experiment": "s11-sweep",
        "device": _device_dict(),
        "sweep": {"start": 5.07e9 - 600e6, "stop": 5.07e9 + 600e6,
                  "points": points},
        "seed": 7,
        "output_dir": str(out),
    }


def _ramsey_config(out):
    return {
        "experiment": "ramsey",
        "device": _device_dict(),
        "sweep": {"start": 0.0, "stop": 25e-9, "points": 26},
        "params": {"drive_detuning": 100e6},
        "seed": 11,
        "output_dir": str(out),
    }


def test_validate_config_happy_path(tmp_path):
    cfg = experiments.validate_config(_ramsey_config(tmp_path / "r"))
    assert cfg.experiment == "ramsey"
    assert cfg.sweep.points == 26
    assert cfg.pulse_sigma == 0.25e-9
    assert cfg.truncation_k == 2.0
    assert cfg.averages == 1
    assert cfg.readout_noise is None and cfg.dephasing is None
    npt.assert_allclose(cfg.sweep.values[-1], 25e-9, rtol=1e-15)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda c: c.__setitem__("experiment", "juggling"),
     "experiment: unknown kind"),
    (lambda c: c.pop("device"), "device: required"),
    (lambda c: c.pop("sweep"), "sweep: required"),
    (lambda c: c["sweep"].__setitem__("points", 1),
     "sweep.points: must be >= 2"),
    (lambda c: c["sweep"].pop("stop"), "sweep.stop: required"),
    (lambda c: c.__setitem__("bogus", 1), "config: unknown key"),
    (lambda c: c.__setitem__("workers", 2), r"config: unknown key\(s\) workers"),
    (lambda c: c["device"].pop("coupling"), "missing section"),
    (lambda c: c["device"].__setitem__("decoherance_typo", {"gamma1": 1e6}),
     r"device: unknown key\(s\) decoherance_typo"),
    (lambda c: c["device"]["resonator"].__setitem__("impedance_Zr", 3e3),
     "device: .*impedance_Zr"),
    (lambda c: c.update(experiment="readout-trace", params={}),
     "sweep: not used by experiment 'readout-trace'"),
    (lambda c: c.__setitem__("params", {"wavelength": 1.0}),
     r"^params: unknown key\(s\) wavelength; allowed: drive_detuning, "
     r"fit_envelope$"),
    (lambda c: c.update(experiment="t1", params={"drive_detuning": 0.0}),
     r"^params: unknown key\(s\) drive_detuning$"),
    (lambda c: c.__setitem__("noise", {"dephasing": {"sigma_delta": 1e6}}),
     "noise.dephasing.tau_c: required"),
    (lambda c: c.__setitem__("readout", {"intermediate_frequency": 2e9}),
     "readout: "),
    # 100 samples at 2.5 GS/s, all inside the 127-tap filter transient
    (lambda c: c.__setitem__("readout", {"integration_window": 40e-9}),
     "readout: integration window must hold more samples than the filter"),
    (lambda c: c.__setitem__("averages", 0), "averages: must be >= 1"),
    (lambda c: c.__setitem__("seed", -1), "seed: must be >= 0"),
    (lambda c: c.__setitem__("pulse", {"sigma": -1e-9}),
     "pulse.sigma: must be > 0"),
])
def test_validate_config_field_errors(tmp_path, mutate, fragment):
    raw = _ramsey_config(tmp_path / "r")
    mutate(raw)
    with pytest.raises(experiments.ConfigError, match=fragment):
        experiments.validate_config(raw)


# the optional sections each kind reads, and a valid value of each section
_PULSED_READS = {"sweep", "pulse", "readout", "averages", "noise.readout",
                 "noise.dephasing"}
_READS = {
    "spectroscopy": {"sweep"},
    "stark": {"sweep"},
    "rabi": _PULSED_READS,
    "ramsey": _PULSED_READS,
    "t1": _PULSED_READS,
    "echo": _PULSED_READS,
    "readout-trace": {"readout", "averages", "noise.readout"},
    "s11-sweep": {"sweep"},
}
_SECTION_VALUES = {
    "sweep": {"start": 0.0, "stop": 25e-9, "points": 6},
    "pulse": {"sigma": 0.3e-9, "drag_beta": 0.1e-9},
    "readout": {"integration_window": 300e-9},
    "averages": 4,
    "noise.readout": {"noise_temperature": 3.0},
    "noise.dephasing": {"sigma_delta": 1e6, "tau_c": 1e-6},
}


@pytest.mark.parametrize("kind", experiments.EXPERIMENT_KINDS)
@pytest.mark.parametrize("section", list(_SECTION_VALUES))
def test_validate_config_rejects_unread_sections(tmp_path, kind, section):
    raw = {"experiment": kind, "device": _device_dict(),
           "output_dir": str(tmp_path / "r")}
    if "sweep" in _READS[kind]:
        raw["sweep"] = dict(_SECTION_VALUES["sweep"])
    parent, _, key = section.rpartition(".")
    (raw.setdefault(parent, {}) if parent else raw)[key] = \
        _SECTION_VALUES[section]
    if section in _READS[kind]:
        experiments.validate_config(raw)
        return
    # `noise` is unread as a whole when the kind reads none of its sections
    reads_noise = any(s.startswith("noise.") for s in _READS[kind])
    path = section if reads_noise or not parent else parent
    with pytest.raises(experiments.ConfigError,
                       match=f"^{re.escape(path)}: not used by experiment "
                             f"'{re.escape(kind)}'$"):
        experiments.validate_config(raw)


def test_readme_tables_match_the_kind_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def rows(heading):
        # the first markdown table after `heading`, as lists of cells
        lines = readme[readme.index(heading):].splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("|"))
        table = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            table.append([c.strip() for c in line.strip("|").split("|")])
        return table

    def names(cell):
        # backticked names outside parentheses
        return re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", cell))

    per_kind = rows("Sweep axis and `params` per kind")
    assert [names(r[0])[0] for r in per_kind] \
        == list(experiments.EXPERIMENT_KINDS)
    for row in per_kind:
        kind = names(row[0])[0]
        assert names(row[2]) == list(experiments._KINDS[kind].params), kind

    read_by = {names(r[0])[0]: names(r[2]) for r in rows("Top level")}
    for section in _SECTION_VALUES:
        assert read_by[section] == [
            k for k, spec in experiments._KINDS.items()
            if section in spec.reads], section


# one malformed value per (kind, params key), and echo's former key
_PARAM_ERRORS = [
    ("spectroscopy", "rabi_amplitudes", [2e6],
     "params.rabi_amplitudes: expected a list of >= 2 drive amplitudes in Hz"),
    ("spectroscopy", "extrapolation_mode", "cubic",
     "params.extrapolation_mode: expected one of squared, linear, "
     "got 'cubic'"),
    ("stark", "probe_frequency", -5e9, "params.probe_frequency: must be > 0"),
    ("stark", "fock_cutoff", 3, "params.fock_cutoff: must be >= 4"),
    ("stark", "settle_time", 0.0, "params.settle_time: must be > 0"),
    ("stark", "precession_time", "long",
     "params.precession_time: expected a number, got str"),
    ("stark", "dt", -2e-11, "params.dt: must be > 0"),
    ("ramsey", "drive_detuning", True,
     "params.drive_detuning: expected a number, got bool"),
    ("ramsey", "fit_envelope", "lorentz",
     "params.fit_envelope: expected one of exp, gauss, none, got 'lorentz'"),
    ("echo", "echo_phase", float("inf"), "params.echo_phase: must be finite"),
    ("readout-trace", "population", 1.5, "params.population: must be <= 1"),
    ("s11-sweep", "qubit_state", "f",
     "params.qubit_state: expected one of bare, g, e, got 'f'"),
    ("echo", "fit_envelope", "exp",
     "params: unknown key(s) fit_envelope; allowed: echo_phase"),
]


@pytest.mark.parametrize("kind, key, value, message", _PARAM_ERRORS,
                         ids=[f"{kind}-{key}" for kind, key, *_ in _PARAM_ERRORS])
def test_validate_config_param_errors(tmp_path, kind, key, value, message):
    raw = _ramsey_config(tmp_path / "r")
    raw["experiment"] = kind
    raw["params"] = {key: value}
    if kind == "readout-trace":
        raw.pop("sweep")
    with pytest.raises(experiments.ConfigError, match=re.escape(message)):
        experiments.validate_config(raw)


def test_subcommand_must_agree_with_config(tmp_path):
    raw = _ramsey_config(tmp_path / "r")
    with pytest.raises(experiments.ConfigError, match="config declares"):
        experiments.validate_config(raw, experiment="t1")
    # matching subcommand and omitted field are both fine
    experiments.validate_config(raw, experiment="ramsey")
    raw.pop("experiment")
    cfg = experiments.validate_config(raw, experiment="ramsey")
    assert cfg.experiment == "ramsey"


# each way a JSON file that dotqed reads can be broken, and the message
# fragment it gives; every one is a config error naming the file (exit 2)
_JSON_FAULTS = {
    "missing": (lambda p: p.unlink(), "cannot read"),
    "directory": (lambda p: (p.unlink(), p.mkdir()), "cannot read"),
    "not-utf8": (lambda p: p.write_bytes(b"\xff\xfe{}"), "not valid JSON"),
    "not-json": (lambda p: p.write_text("{not json"), "not valid JSON"),
    "not-object": (lambda p: p.write_text("[1, 2]"), "not a JSON object"),
}


def test_load_config_errors(tmp_path, capsys):
    for fault, (damage, fragment) in _JSON_FAULTS.items():
        path = tmp_path / f"{fault}.json"
        path.write_text(json.dumps(_s11_config(tmp_path / "run")))
        damage(path)
        with pytest.raises(experiments.ConfigError, match=fragment):
            experiments.load_config(path)
        assert cli.main(["simulate", "s11-sweep", "--config", str(path)]) == 2
        assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_hash_ignores_output_location(tmp_path):
    a = experiments.validate_config(_s11_config(tmp_path / "a"))
    b = experiments.validate_config(_s11_config(tmp_path / "b"))
    assert experiments.config_hash(a.effective) \
        == experiments.config_hash(b.effective)


def _bare_config(kind):
    raw = {"experiment": kind, "device": _device_dict()}
    if kind != "readout-trace":
        raw["sweep"] = {"start": 0.0, "stop": 25e-9, "points": 6}
    return raw


def _int_g0(raw):
    raw["device"]["coupling"]["g0"] = 55_000_000
    return raw


# (kind, change to the bare config, whether the config hash stays): each
# change that keeps it spells out a default or writes a device number as an
# integer
_HASH_CASES = [
    ("rabi", lambda c: c.update(averages=1), True),
    ("rabi", lambda c: c.update(pulse={}), True),
    ("rabi", lambda c: c.update(noise={}), True),
    ("rabi", lambda c: c.update(params={}), True),
    ("rabi", lambda c: c.update(readout={}), True),
    ("rabi", lambda c: c.update(readout={"n_filter_taps": 127}), True),
    ("rabi", lambda c: c.update(pulse={"sigma": 2.5e-10}), True),
    ("rabi", _int_g0, True),
    ("ramsey", lambda c: c.update(params={"drive_detuning": 100_000_000,
                                          "fit_envelope": "exp"}), True),
    ("echo", lambda c: c.update(params={"echo_phase": np.pi / 2}), True),
    ("stark", lambda c: c.update(params={
        "fock_cutoff": 8, "settle_time": 10e-9, "precession_time": 100e-9,
        "dt": 2e-11}), True),
    ("spectroscopy", lambda c: c.update(
        params={"extrapolation_mode": "squared"}), True),
    ("readout-trace", lambda c: c.update(params={"population": 0.5}), True),
    ("s11-sweep", lambda c: c.update(params={"qubit_state": "bare"}), True),
    ("rabi", lambda c: c.update(pulse={"sigma": 3e-10}), False),
]


@pytest.mark.parametrize("kind, change, same", _HASH_CASES)
def test_config_hash_covers_values_not_their_spelling(kind, change, same):
    raw = _bare_config(kind)
    change(raw)
    hashes = [experiments.config_hash(experiments.validate_config(c).effective)
              for c in (raw, _bare_config(kind))]
    assert (hashes[0] == hashes[1]) is same


# a short run of each kind, with a section or param set where it reads one
_DELAYS = {"start": 0.0, "stop": 20e-9, "points": 8}
_ROUND_TRIP = {
    "spectroscopy": {"sweep": {"start": -50e6, "stop": 50e6, "points": 41}},
    "stark": {"sweep": {"start": 0.5e6, "stop": 1e6, "points": 2},
              "params": {"fock_cutoff": 6, "precession_time": 30e-9}},
    "rabi": {"sweep": {"start": 0.0, "stop": 2e9, "points": 8},
             "pulse": {"drag_beta": 0.1e-9}},
    "ramsey": {"sweep": _DELAYS, "noise": {"readout": {}}, "averages": 2},
    "t1": {"sweep": {"start": 0.0, "stop": 100e-9, "points": 8},
           "readout": {"probe_frequency": 5.065e9}},
    # zero sigma_delta keeps the section but skips the Monte Carlo path
    "echo": {"sweep": _DELAYS, "noise": {"dephasing": {
        "sigma_delta": 0.0, "tau_c": 1e-6, "n_realizations": 10}}},
    "readout-trace": {"params": {"population": 0.25}},
    "s11-sweep": {"sweep": {"start": 4.47e9, "stop": 5.67e9, "points": 201},
                  "params": {"qubit_state": "e"}},
}


@pytest.mark.parametrize("kind", experiments.EXPERIMENT_KINDS)
def test_config_json_reproduces_the_config_hash(tmp_path, kind):
    raw = dict(_ROUND_TRIP[kind], experiment=kind, device=_device_dict(),
               output_dir=str(tmp_path / "run"))
    manifest = experiments.run_experiment(
        experiments.validate_config(raw, seed=5))
    echoed = json.loads((tmp_path / "run" / "config.json").read_text())
    assert "output_dir" not in echoed
    cfg = experiments.validate_config(echoed)
    assert experiments.config_hash(cfg.effective) == manifest.config_sha256


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON token")


def test_artifacts_are_strict_json(tmp_path):
    # two Stark points leave the slope's standard error undefined; it is
    # written as null, since NaN is not valid JSON (RFC 8259)
    raw = dict(_ROUND_TRIP["stark"], experiment="stark", device=_device_dict(),
               output_dir=str(tmp_path / "run"))
    experiments.run_experiment(experiments.validate_config(raw, seed=7))
    for name in ("fits.json", "results.json", "config.json", "manifest.json"):
        json.loads((tmp_path / "run" / name).read_text(),
                   parse_constant=_reject_constant)
    fits = json.loads((tmp_path / "run" / "fits.json").read_text())
    assert fits["photon_number_shift"]["slope_std_hz_per_photon"] is None
    # evolve's hygiene diagnostics, at the bounds of the acceptance check
    results = json.loads((tmp_path / "run" / "results.json").read_text())
    assert "max_hermiticity_defect" not in results
    assert results["min_eigenvalue"] > -1e-8


def test_run_is_deterministic_across_output_dirs(tmp_path):
    m1 = experiments.run_experiment(
        experiments.validate_config(_s11_config(tmp_path / "one")))
    m2 = experiments.run_experiment(
        experiments.validate_config(_s11_config(tmp_path / "two")))
    assert m1.run_hash == m2.run_hash
    for name in ("s11.csv", "fits.json", "results.json", "config.json"):
        assert (tmp_path / "one" / name).read_bytes() \
            == (tmp_path / "two" / name).read_bytes()
    # the echoed config never records where the artifacts landed
    echoed = json.loads((tmp_path / "one" / "config.json").read_text())
    assert "output_dir" not in echoed


def test_s11_runner_recovers_linewidth(tmp_path):
    out = tmp_path / "s11"
    cfg = experiments.validate_config(_s11_config(out))
    manifest = experiments.run_experiment(cfg)
    results = json.loads((out / "results.json").read_text())
    # fitted kappa_tot lands on 30 MHz well within the 2% contract
    npt.assert_allclose(results["kappa_tot_hz"], 30e6, rtol=0.02)
    npt.assert_allclose(results["resonance_frequency_hz"], 5.07e9, rtol=1e-6)
    npt.assert_allclose(results["min_abs_s11"], 16.0 / 30.0, atol=1e-3)
    npt.assert_allclose(abs(results["winding_turns"]), 1.0, atol=0.02)
    assert results["passive"] == 1.0
    listed = {f["name"] for f in manifest.files}
    assert {"s11.csv", "fits.json", "results.json",
            "config.json"} <= listed
    # s11.csv round-trips the reflection coefficient
    assert (out / "s11.csv").read_text().startswith("freq_hz,re_s11,im_s11\n")
    data = np.loadtxt(out / "s11.csv", delimiter=",", skiprows=1)
    npt.assert_allclose(data[:, 0], cfg.sweep.values, rtol=1e-12)
    npt.assert_allclose(data[:, 1] + 1j * data[:, 2],
                        readout.reflection_coefficient(cfg.sweep.values,
                                                       cfg.device.resonator),
                        rtol=1e-12, atol=1e-12)


def test_ramsey_runner_fits_fringe_and_decay(tmp_path):
    out = tmp_path / "ramsey"
    experiments.run_experiment(
        experiments.validate_config(_ramsey_config(out)))
    results = json.loads((out / "results.json").read_text())
    npt.assert_allclose(results["fringe_frequency_hz"], 100e6, rtol=0.02)
    npt.assert_allclose(results["t2_ramsey_s"], 23.4e-9, rtol=0.05)
    assert results["max_trace_deviation"] < 1e-7
    data = np.loadtxt(out / "ramsey.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 26
    # estimated populations ride on the true ones at zero detector noise
    npt.assert_allclose(data[:, 3], data[:, 1], atol=1e-6)


def test_readout_trace_runner_midpoint(tmp_path):
    out = tmp_path / "trace"
    raw = {
        "experiment": "readout-trace",
        "device": _device_dict(),
        "params": {"population": 0.5},
        "seed": 3,
        "output_dir": str(out),
    }
    cfg = experiments.validate_config(raw)
    experiments.run_experiment(cfg)
    results = json.loads((out / "results.json").read_text())
    npt.assert_allclose(results["midpoint_noiseless"], 0.5, atol=1e-9)
    npt.assert_allclose(results["population_estimate"], 0.5, atol=1e-9)
    assert results["iq_separation"] > 0.1
    # each iq_*.csv is time, I, Q of its envelope turned by the rotation
    pipe = experiments.build_readout_pipeline(cfg.device, cfg.heterodyne)
    het = pipe.heterodyne
    mixture = readout.synthesize_readout_waveform(pipe.mixture_field(0.5), het)
    turn = np.exp(-1j * results["rotation_phase_rad"])
    for env, name in ((pipe.ref_g, "iq_ground.csv"),
                      (pipe.ref_e, "iq_excited.csv"),
                      (mixture, "iq_mixture.csv")):
        assert (out / name).read_text().startswith("time_s,i,q\n")
        data = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert data.shape == (het.n_samples, 3)
        npt.assert_allclose(data[:, 0], het.adc_times, rtol=1e-12)
        npt.assert_allclose(data[:, 1] + 1j * data[:, 2], env * turn,
                            rtol=1e-12, atol=1e-12 * abs(env).max())


@pytest.mark.parametrize("temperature", [0.0, 1e-6])
def test_measure_population_is_unbiased_at_any_gain(flagship, temperature):
    # references and shots both go through the chain at its system_gain, so
    # the gain cancels from the estimate with or without added noise
    noise = readout.ReadoutNoiseModel(noise_temperature=temperature,
                                      system_gain=2.0)
    pipe = experiments.build_readout_pipeline(flagship, noise=noise)
    rng = np.random.default_rng(5)
    for p_e in (0.0, 0.5, 1.0):
        p_est, _ = experiments.measure_population(pipe, p_e, rng=rng,
                                                  averages=4)
        npt.assert_allclose(p_est, p_e, atol=1e-3)


@pytest.mark.parametrize("gain", [1.0, 2.0])
def test_noiseless_read_is_the_full_chain_estimate(flagship, gain):
    # the shortcut behind measure_population: the chain is linear in the
    # cavity field, so its estimate of a mixture is the population itself
    noise = readout.ReadoutNoiseModel(noise_temperature=0.0, system_gain=gain)
    pipe = experiments.build_readout_pipeline(flagship, noise=noise)
    het = pipe.heterodyne
    for p_e in np.linspace(0.0, 1.0, 101):
        want = readout.estimate_population(
            readout.synthesize_readout_waveform(pipe.mixture_field(p_e), het),
            pipe.ref_g, pipe.ref_e, het)
        p_est, sem = experiments.measure_population(pipe, p_e)
        assert type(p_est) is float and sem == 0.0
        npt.assert_allclose(p_est, want, rtol=0, atol=1e-12)


def _count_chain_calls(monkeypatch):
    """Count the calls into the readout chain; each raw record made is
    logged as noisy (True) or noiseless (False)."""
    calls = {"records": [], "demodulate": 0, "estimate_population": 0}
    record = readout.heterodyne_record

    def counted_record(alpha, config, sigma=0.0, rng=None):
        calls["records"].append(sigma > 0)
        return record(alpha, config, sigma, rng)

    monkeypatch.setattr(readout, "heterodyne_record", counted_record)
    for name in ("demodulate", "estimate_population"):
        def counted(*args, _func=getattr(readout, name), _name=name):
            calls[_name] += 1
            return _func(*args)
        monkeypatch.setattr(readout, name, counted)
    return calls


@pytest.mark.parametrize("temperature", [0.0, 6.0])
def test_a_read_synthesises_no_trace(flagship, temperature, monkeypatch):
    noise = readout.ReadoutNoiseModel(noise_temperature=temperature)
    pipe = experiments.build_readout_pipeline(flagship, noise=noise)
    calls = _count_chain_calls(monkeypatch)
    for p_e in (0.0, 0.3, 1.0):
        experiments.measure_population(pipe, p_e,
                                       rng=np.random.default_rng(0),
                                       averages=40)
    assert calls == {"records": [], "demodulate": 0, "estimate_population": 0}


@pytest.mark.parametrize("noise, n_noisy", [({}, 0), ({"readout": {}}, 1)])
def test_readout_trace_synthesises_its_noiseless_trace_once(
        tmp_path, monkeypatch, noise, n_noisy):
    raw = {"experiment": "readout-trace", "device": _device_dict(),
           "noise": noise, "seed": 3, "output_dir": str(tmp_path / "trace")}
    cfg = experiments.validate_config(raw)
    calls = _count_chain_calls(monkeypatch)
    experiments.run_experiment(cfg)
    # the g and e references, the noiseless mixture, and with added noise
    # the noisy mixture of iq_mixture.csv
    assert sorted(calls.pop("records")) == [False] * 3 + [True] * n_noisy
    assert calls == {"demodulate": 3 + n_noisy, "estimate_population": 1}


def test_readout_trace_midpoint_at_gain(tmp_path):
    out = tmp_path / "trace"
    raw = {
        "experiment": "readout-trace",
        "device": _device_dict(),
        "noise": {"readout": {"noise_temperature": 1e-6, "system_gain": 2.0}},
        "averages": 2,
        "seed": 3,
        "output_dir": str(out),
    }
    experiments.run_experiment(experiments.validate_config(raw))
    results = json.loads((out / "results.json").read_text())
    npt.assert_allclose(results["midpoint_noiseless"], 0.5, atol=1e-9)
    npt.assert_allclose(results["population_estimate"], 0.5, atol=1e-3)


# noisy shots in closed form against full synthesis of every record

_SHOT_COUNTS = (1, experiments.SHOT_BLOCK - 1, experiments.SHOT_BLOCK,
                experiments.SHOT_BLOCK + 1, 2000)


def _noisy_pipeline(dev, gain=1.0, window=400e-9):
    return experiments.build_readout_pipeline(
        dev, heterodyne=readout.HeterodyneConfig(integration_window=window),
        noise=readout.ReadoutNoiseModel(noise_temperature=6.0,
                                        system_gain=gain))


@pytest.mark.parametrize("gain", [1.0, 2.0])
@pytest.mark.parametrize("window", [200e-9, 400e-9])
def test_closed_form_shots_match_full_synthesis(flagship, gain, window):
    pipe = _noisy_pipeline(flagship, gain, window)
    het = pipe.heterodyne
    for seed, p_e in enumerate((0.0, 0.3, 1.0)):
        alpha = pipe.mixture_field(p_e)
        p0 = readout.estimate_population(
            readout.synthesize_readout_waveform(alpha, het), pipe.ref_g,
            pipe.ref_e, het)
        # the reference: synthesise and estimate every record, keeping the
        # generator's state after each shot count under test
        ref_rng = np.random.default_rng(seed)
        want, states = [], {}
        for k in range(1, _SHOT_COUNTS[-1] + 1):
            trace = readout.synthesize_readout_waveform(alpha, het,
                                                        pipe.sigma, ref_rng)
            want.append(readout.estimate_population(trace, pipe.ref_g,
                                                    pipe.ref_e, het))
            if k in _SHOT_COUNTS:
                states[k] = ref_rng.bit_generator.state
        want = np.array(want)
        for m in _SHOT_COUNTS:
            shots = experiments._noisy_shots(pipe, p0,
                                             np.random.default_rng(seed), m)
            assert shots.shape == (m,)
            npt.assert_allclose(shots, want[:m], rtol=0, atol=1e-12)

            rng = np.random.default_rng(seed)
            mean, sem = experiments.measure_population(pipe, p_e, rng=rng,
                                                       averages=m)
            npt.assert_allclose(mean, want[:m].mean(), rtol=0, atol=1e-12)
            want_sem = want[:m].std(ddof=1) / np.sqrt(m) if m > 1 else 0.0
            npt.assert_allclose(sem, want_sem, rtol=0, atol=1e-12)
            # the generator has consumed exactly the per-shot draws
            ref_rng.bit_generator.state = states[m]
            assert rng.normal() == ref_rng.normal()


def test_noisy_shots_are_drawn_in_blocks(flagship):
    pipe = _noisy_pipeline(flagship)
    assert pipe.heterodyne.n_samples == 1000
    # a first noisy read builds the pipeline's noise kernel
    experiments.measure_population(pipe, 0.5, rng=np.random.default_rng(1))
    tracemalloc.start()
    try:
        experiments.measure_population(pipe, 0.5, rng=np.random.default_rng(2),
                                       averages=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole (2000, 1000) noise array would be 16 MB
    assert peak < 4 * 2**20


@pytest.mark.parametrize("averages, message", [
    (0, "must be >= 1"), (-1, "must be >= 1"), (2.7, "expected an integer")])
@pytest.mark.parametrize("temperature", [0.0, 6.0])
def test_measure_population_rejects_bad_averages(flagship, averages, message,
                                                 temperature):
    noise = readout.ReadoutNoiseModel(noise_temperature=temperature)
    pipe = experiments.build_readout_pipeline(flagship, noise=noise)
    with pytest.raises(ValueError, match=f"averages: {message}"):
        experiments.measure_population(pipe, 0.5, rng=np.random.default_rng(0),
                                       averages=averages)


# ac-Stark points: the displaced frame against the lab frame

# the wide-cavity device of the acceptance Stark check
_STARK_DEVICE = device.DeviceParams.from_dict(
    dict(_device_dict(), resonator={"bare_frequency_nu_r": 5.07e9,
                                    "kappa_ext": 80e6, "kappa_int": 20e6}))
_STARK_DEFAULT_CUTOFF = experiments._default(experiments.measure_stark_shift,
                                             "fock_cutoff")
# the lab frame holds the 4-photon coherent field itself; at cutoff 26 it is
# converged to ~1e-3 Hz, while cutoff 18 is ~430 Hz and 6e-5 photons off
_LAB_CUTOFF = 26


def _stark_amplitude(n):
    # holds n steady photons on either branch at the bare resonator frequency
    chi = device.dispersive_shift_of(_STARK_DEVICE)
    return float(np.sqrt(n) * np.hypot(chi, 0.5 * _STARK_DEVICE.resonator.kappa_tot))


def _lab_frame(eps, probe):
    res = _STARK_DEVICE.resonator
    space = qops.HilbertSpace(_LAB_CUTOFF)
    h = device.build_rotating_frame_hamiltonian(
        _STARK_DEVICE.dqd, res, _STARK_DEVICE.coupling, drive_frequency=probe,
        cavity_drive=eps, space=space)
    return space, h, dynamics.cavity_channels(res, space)


@pytest.mark.parametrize("probe_offset", [0.0, -30e6])
def test_displaced_steady_state_photons_match_the_lab_frame(probe_offset):
    eps = _stark_amplitude(4)
    probe = _STARK_DEVICE.resonator.bare_frequency_nu_r + probe_offset
    space, h, channels = _lab_frame(eps, probe)
    rho = dynamics.steady_state(h, channels, space)
    n_lab = qops.expectation(
        rho, qops.cavity_operator(qops.number_operator(_LAB_CUTOFF), space)).real

    space = qops.HilbertSpace(_STARK_DEFAULT_CUTOFF)
    h, alpha = experiments._displaced_frame(_STARK_DEVICE, eps, probe, space)
    rho = dynamics.steady_state(h, dynamics.cavity_channels(
        _STARK_DEVICE.resonator, space), space)
    a_op = qops.cavity_operator(qops.annihilation(space.fock_cutoff), space)
    n_disp = (qops.expectation(rho, a_op.conj().T @ a_op).real
              + 2.0 * np.real(np.conj(alpha) * qops.expectation(rho, a_op))
              + abs(alpha) ** 2)
    assert n_lab > 1.0
    assert abs(n_disp - n_lab) < 1e-9


def test_displaced_stark_point_matches_the_lab_frame():
    # a 30 ns precession keeps |<sigma+>| above the coherence floor, so the
    # reference fits the whole window after settle_time, as the measurement
    # does; tolerances are 100x and 70x the differences seen
    settle, precession, dt = 10e-9, 30e-9, 2e-11
    eps = _stark_amplitude(4)
    probe = _STARK_DEVICE.resonator.bare_frequency_nu_r
    space, h, channels = _lab_frame(eps, probe)
    c = np.sqrt(0.5)
    tip = qops.qubit_operator(np.array([[c, -c], [c, c]]), space)
    rho0 = tip @ dynamics.steady_state(h, channels, space) @ tip.conj().T
    traj = dynamics.evolve(
        rho0, h, channels, dynamics.SimulationGrid(0.0, precession, dt),
        space=space, e_ops={
            "sigma_plus": qops.qubit_operator(qops.sigma_plus(), space),
            "photons": qops.cavity_operator(
                qops.number_operator(_LAB_CUTOFF), space)})
    sel = traj.times >= settle
    coherence = traj.expectations["sigma_plus"][sel]
    assert np.all(np.abs(coherence) >= experiments.STARK_COHERENCE_FLOOR
                  * np.abs(coherence[0]))
    slope = np.polyfit(traj.times[sel], np.unwrap(np.angle(coherence)), 1)[0]
    nu_lab = probe + slope / (2.0 * np.pi)
    n_lab = float(np.mean(traj.expectations["photons"][sel].real))

    point = experiments.measure_stark_shift(
        _STARK_DEVICE, eps, settle_time=settle, precession_time=precession,
        dt=dt)
    assert n_lab > 3.5
    assert abs(point.qubit_frequency - nu_lab) < 0.1          # Hz
    assert abs(point.photon_number - n_lab) < 1e-8            # photons


def test_stark_default_cutoff_is_converged():
    # default + 2 Fock levels moves the 4-photon point by < 1 Hz, 1e-7 photons
    eps = _stark_amplitude(4)
    at, above = (experiments.measure_stark_shift(_STARK_DEVICE, eps,
                                                 fock_cutoff=n)
                 for n in (_STARK_DEFAULT_CUTOFF, _STARK_DEFAULT_CUTOFF + 2))
    assert at.photon_number > 3.5
    assert abs(at.qubit_frequency - above.qubit_frequency) < 1.0
    assert abs(at.photon_number - above.photon_number) < 1e-7


def test_stark_raises_when_coherence_decays_before_settle(tmp_path, capsys):
    # at 31 MHz drive on this device |<sigma+>| at 30 ns is 0.16 of its
    # value after the tip: a window opened there fitted the cavity-like
    # remnant of sigma+ and returned the resonator's 5.07 GHz
    params = dict(fock_cutoff=8, settle_time=30e-9, precession_time=60e-9)
    with pytest.raises(RuntimeError, match="coherence decayed"):
        experiments.measure_stark_shift(
            device.DeviceParams.from_dict(_device_dict()), 31e6, **params)
    cfg_path = tmp_path / "stark.json"
    cfg_path.write_text(json.dumps({
        "experiment": "stark", "device": _device_dict(), "seed": 7,
        "sweep": {"start": 11e6, "stop": 31e6, "points": 3},
        "params": params}))
    assert cli.main(["simulate", "stark", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 1
    assert "coherence decayed" in capsys.readouterr().err


def test_manifest_roundtrip_and_check(tmp_path):
    out = tmp_path / "s11"
    manifest = experiments.run_experiment(
        experiments.validate_config(_s11_config(out)))
    loaded = experiments.RunManifest.load(out)
    assert loaded.run_hash == manifest.run_hash
    loaded2 = experiments.RunManifest.load(out / "manifest.json")
    assert loaded2.config_sha256 == manifest.config_sha256

    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps({"quantities": {
        "kappa_tot_hz": {"expected": 30e6, "rtol": 0.02},
        "min_abs_s11": {"expected": 0.5333, "atol": 0.01},
    }}))
    report = experiments.compare_to_reference(out, ref)
    assert report.passed
    table = report.format_table()
    assert "kappa_tot_hz" in table and "pass" in table

    ref_bad = tmp_path / "reference_bad.json"
    ref_bad.write_text(json.dumps({"quantities": {
        "kappa_tot_hz": {"expected": 45e6, "rtol": 0.01},
        "no_such_quantity": {"expected": 1.0, "rtol": 0.1},
    }}))
    report = experiments.compare_to_reference(out, ref_bad)
    assert not report.passed
    assert "missing from results" in report.format_table()

    ref_empty = tmp_path / "reference_empty.json"
    ref_empty.write_text(json.dumps({"quantities": {}}))
    with pytest.raises(experiments.ConfigError, match="non-empty"):
        experiments.compare_to_reference(out, ref_empty)


def test_readme_example_prints_its_results(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme[readme.index("`s11.json`:"):]
    config = re.search(r"```json\n(.*?)```", example, re.S).group(1)
    shown = re.search(r"\$ dotqed simulate s11-sweep --config s11.json\n"
                      r"(.*?)```", example, re.S).group(1)
    cfg_path = tmp_path / "s11.json"
    cfg_path.write_text(config)

    assert cli.main(["simulate", "s11-sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 0

    def results(text):
        # the `name = value` lines; the run hash depends on library versions
        return re.findall(r"^  \w+ = .+$", text, re.M)

    assert results(capsys.readouterr().out) == results(shown) != []


# each kind with a sweep, at its fewest points: the fit's parameters plus
# one, or the two of a line.  case -> (kind, config, fewest points)
_FEWEST_POINTS = {
    "spectroscopy": ("spectroscopy", {"sweep": {"start": -50e6,
                                                "stop": 50e6}}, 5),
    "stark": ("stark", {"sweep": {"start": 0.5e6, "stop": 1e6},
                        "params": {"fock_cutoff": 6,
                                   "precession_time": 30e-9}}, 2),
    "rabi": ("rabi", {"sweep": {"start": 0.0, "stop": 2e9}}, 5),
    "ramsey": ("ramsey", {"sweep": {"start": 0.0, "stop": 10e-9}}, 6),
    "ramsey-no-envelope": ("ramsey", {"sweep": {"start": 0.0, "stop": 10e-9},
                                      "params": {"fit_envelope": "none"}}, 5),
    "ramsey-0Hz": ("ramsey", {"sweep": {"start": 0.0, "stop": 25e-9},
                              "params": {"drive_detuning": 0.0}}, 4),
    "t1": ("t1", {"sweep": {"start": 0.0, "stop": 100e-9}}, 4),
    "echo": ("echo", {"sweep": {"start": 0.0, "stop": 20e-9}}, 4),
    "s11-sweep": ("s11-sweep", {"sweep": {"start": 4.47e9,
                                          "stop": 5.67e9}}, 5),
}


@pytest.mark.parametrize("case", list(_FEWEST_POINTS))
def test_each_kind_runs_at_its_fewest_sweep_points(tmp_path, capsys, case):
    kind, raw, fewest = _FEWEST_POINTS[case]
    cfg_path = tmp_path / "cfg.json"
    # one point fewer stops at the config check, before anything is written
    for points, code in ((fewest - 1, 2), (fewest, 0)):
        cfg_path.write_text(json.dumps(dict(
            raw, experiment=kind, device=_device_dict(),
            sweep=dict(raw["sweep"], points=points))))
        out = tmp_path / f"run{points}"
        assert cli.main(["simulate", kind, "--config", str(cfg_path),
                         "--out", str(out)]) == code, capsys.readouterr()
        assert out.exists() == (code == 0)
    assert f"sweep.points: must be >= {fewest}" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "s11.json"
    out = tmp_path / "run"
    cfg_path.write_text(json.dumps(_s11_config(out)))

    assert cli.main(["simulate", "s11-sweep", "--config", str(cfg_path)]) == 0
    shown = capsys.readouterr().out
    assert "run hash" in shown

    bad_cfg = tmp_path / "bad.json"
    raw = _s11_config(tmp_path / "r2")
    raw["sweep"]["points"] = 1
    bad_cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "s11-sweep", "--config", str(bad_cfg)]) == 2
    assert "config error" in capsys.readouterr().err

    # a section the kind never reads is rejected, not folded into the hash
    raw = _s11_config(tmp_path / "r4")
    raw["averages"] = 4
    bad_cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "s11-sweep", "--config", str(bad_cfg)]) == 2
    assert "averages: not used by experiment 's11-sweep'" \
        in capsys.readouterr().err
    assert not (tmp_path / "r4").exists()

    # JSON NaN parses to a float; the device rejects it before any fit runs
    raw = _s11_config(tmp_path / "r3")
    raw["device"]["decoherence"]["gamma1"] = float("nan")
    bad_cfg.write_text(json.dumps(raw))
    assert "NaN" in bad_cfg.read_text()
    assert cli.main(["simulate", "s11-sweep", "--config", str(bad_cfg)]) == 2
    assert "gamma1 must be a finite number" in capsys.readouterr().err

    # a readout window inside the filter transient: a noiseless pulsed run
    # makes no estimate from a trace, so the config check is what stops it
    raw = _ramsey_config(tmp_path / "r5")
    raw["readout"] = {"integration_window": 40e-9}
    bad_cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "ramsey", "--config", str(bad_cfg)]) == 2
    assert "config error: readout: integration window" \
        in capsys.readouterr().err
    assert not (tmp_path / "r5").exists()

    ref_ok = tmp_path / "ref_ok.json"
    ref_ok.write_text(json.dumps({"quantities": {
        "kappa_tot_hz": {"expected": 30e6, "rtol": 0.02}}}))
    assert cli.main(["check", "--run", str(out),
                     "--reference", str(ref_ok)]) == 0

    ref_fail = tmp_path / "ref_fail.json"
    ref_fail.write_text(json.dumps({"quantities": {
        "kappa_tot_hz": {"expected": 10e6, "rtol": 0.01}}}))
    assert cli.main(["check", "--run", str(out),
                     "--reference", str(ref_fail)]) == 1
    assert "FAIL" in capsys.readouterr().out

    # unrecognized experiment kinds die in the argument parser
    with pytest.raises(SystemExit):
        cli.main(["simulate", "juggling", "--config", str(cfg_path)])


def test_check_fails_a_run_with_unhealthy_numerics(tmp_path, capsys):
    out = tmp_path / "run"
    experiments.run_experiment(experiments.validate_config(dict(
        _ROUND_TRIP["stark"], experiment="stark", device=_device_dict(),
        output_dir=str(out)), seed=5))
    results_path = out / "results.json"
    results = json.loads(results_path.read_text())
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"quantities": {
        "two_chi_hz": {"expected": results["two_chi_hz"], "rtol": 1e-12}}}))
    check = ["check", "--run", str(out), "--reference", str(ref)]
    # a healthy run adds no row, and neither does a value at its bound
    for name, bound in (("max_trace_deviation", dynamics.TRACE_TOL),
                        ("min_eigenvalue", -dynamics.POPULATION_TOL)):
        results_path.write_text(json.dumps(dict(results, **{name: bound})))
        assert len(experiments.compare_to_reference(out, ref).rows) == 1
    results_path.write_text(json.dumps(results))
    assert len(experiments.compare_to_reference(out, ref).rows) == 1
    assert cli.main(check) == 0

    for name, bad, note in (
            ("max_trace_deviation", 2.0 * dynamics.TRACE_TOL, "trace drifted"),
            ("min_eigenvalue", -2.0 * dynamics.POPULATION_TOL,
             "negative eigenvalue")):
        results_path.write_text(json.dumps(dict(results, **{name: bad})))
        report = experiments.compare_to_reference(out, ref)
        [row] = [r for r in report.rows if not r.passed]
        assert (row.name, row.actual) == (f"numerics {name}", bad)
        capsys.readouterr()
        assert cli.main(check) == 1
        table = capsys.readouterr().out
        assert f"numerics {name}" in table and f"({note})" in table


def test_check_fails_a_flagged_fit(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "s11.json"
    out = tmp_path / "run"
    cfg_path.write_text(json.dumps(_s11_config(out)))
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"quantities": {
        "kappa_tot_hz": {"expected": 30e6, "rtol": 0.02}}}))
    check = ["check", "--run", str(out), "--reference", str(ref)]
    assert cli.main(["simulate", "s11-sweep", "--config", str(cfg_path)]) == 0
    assert "flagged fit" not in capsys.readouterr().out
    assert cli.main(check) == 0

    fits_path = out / "fits.json"
    fits = json.loads(fits_path.read_text())
    fits["reflection_dip"]["flags"] = ["poor-fit"]
    fits_path.write_text(json.dumps(fits))
    capsys.readouterr()
    assert cli.main(check) == 1
    table = capsys.readouterr().out
    assert "fit reflection_dip" in table and "(poor-fit)" in table

    fits["reflection_dip"].update(flags=[], converged=False)
    fits_path.write_text(json.dumps(fits))
    assert cli.main(check) == 1
    assert "(not converged)" in capsys.readouterr().out

    # nested reports, such as spectroscopy's list of line fits, are walked
    assert experiments.flagged_fits({
        "lines": [{"converged": True, "flags": []},
                  {"converged": False, "flags": ["ill-conditioned"]}],
        "zero_power_extrapolation": {"mode": "squared", "slope": 1.0},
    }) == [("lines[1]", ["not converged", "ill-conditioned"])]

    # simulate names a flagged fit next to its results
    fit_lorentzian = experiments.fitting.fit_lorentzian

    def flagged(*args, **kwargs):
        fit = fit_lorentzian(*args, **kwargs)
        fit.flags.append("poor-fit")
        return fit

    monkeypatch.setattr(experiments.fitting, "fit_lorentzian", flagged)
    assert cli.main(["simulate", "s11-sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "flagged")]) == 0
    assert "flagged fit reflection_dip: poor-fit" in capsys.readouterr().out


_MALFORMED_CHECK_FILES = {
    "manifest-array": (
        "manifest.json", lambda p: p.write_text(f"[{p.read_text()}]")),
    "fits-without-flags": (
        "fits.json",
        lambda p: p.write_text('{"reflection_dip": {"converged": true}}')),
    "results-array": (
        "results.json",
        lambda p: p.write_text(
            json.dumps(list(json.loads(p.read_text()).values())))),
    "results-truncated": (
        "results.json", lambda p: p.write_text(p.read_text()[:-3])),
    **{f"{name.removesuffix('.json')}-{fault}": (name, damage)
       for name in ("manifest.json", "results.json", "fits.json",
                    "reference.json")
       for fault, (damage, _) in _JSON_FAULTS.items()},
}


@pytest.mark.parametrize("name, damage", list(_MALFORMED_CHECK_FILES.values()),
                         ids=list(_MALFORMED_CHECK_FILES))
def test_check_rejects_malformed_run_files(tmp_path, capsys, name, damage):
    # a run or reference file that cannot be read, is not UTF-8 JSON, or
    # parses but is not the shape dotqed writes, is a config error naming
    # the file, not a traceback
    out = tmp_path / "run"
    experiments.run_experiment(experiments.validate_config(_s11_config(out)))
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps({"quantities": {
        "kappa_tot_hz": {"expected": 30e6, "rtol": 0.02}}}))
    path = ref if name == ref.name else out / name
    damage(path)
    capsys.readouterr()
    assert cli.main(["check", "--run", str(out),
                     "--reference", str(ref)]) == 2
    assert str(path) in capsys.readouterr().err


def test_cli_seed_and_out_overrides(tmp_path):
    cfg_path = tmp_path / "s11.json"
    raw = _s11_config(tmp_path / "default_out")
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "cli_out"
    assert cli.main(["simulate", "s11-sweep", "--config", str(cfg_path),
                     "--seed", "99", "--out", str(out)]) == 0
    manifest = experiments.RunManifest.load(out)
    assert manifest.seed == 99
    assert not (tmp_path / "default_out").exists()


def test_dispersive_pull_factors_a_block_of_probes_at_a_time(flagship,
                                                             monkeypatch):
    # the 61 probe Hamiltonians are one stack, built in one call and shared
    # by the three branches; each branch is one steady_states call, solved
    # by charge sector in the pull's space
    calls = {"steady_states": [], "hamiltonian": []}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name].append((args, kwargs))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(dynamics, "steady_states",
                        counted("steady_states", dynamics.steady_states))
    monkeypatch.setattr(device, "build_rotating_frame_hamiltonian",
                        counted("hamiltonian",
                                device.build_rotating_frame_hamiltonian))
    pull = experiments.measure_dispersive_pull(flagship)
    probes = experiments.PULL_PROBE_POINTS
    assert probes == len(pull.probe_frequencies) == 61
    assert len(calls["hamiltonian"]) == 1
    assert len(calls["steady_states"]) == 3
    for (h_stack, _, space), _ in calls["steady_states"]:
        assert h_stack.shape == (probes, space.dim, space.dim)
        assert space.fock_cutoff == experiments.PULL_FOCK_CUTOFF
    assert not hasattr(dynamics, "splu")
    assert 0.0 < pull.max_residual < 1e-9


def test_dispersive_pull_peak_memory(flagship):
    # the sectors' row bands are built for all 61 probes and dropped once
    # solved; measured 5.2 MiB (1.5 MiB with SuperLU), and every member's
    # dense (144, 144) generator at once would take 20 MiB
    experiments.measure_dispersive_pull(flagship)
    tracemalloc.start()
    try:
        experiments.measure_dispersive_pull(flagship)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 6.0, peak
