import json
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from dotqed import cli, experiments, readout


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
    "sweep": {"start": 0.0, "stop": 25e-9, "points": 3},
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


def test_load_config_errors(tmp_path):
    with pytest.raises(experiments.ConfigError, match="cannot read"):
        experiments.load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(experiments.ConfigError, match="not valid JSON"):
        experiments.load_config(bad)


def test_config_hash_ignores_output_location(tmp_path):
    a = experiments.validate_config(_s11_config(tmp_path / "a"))
    b = experiments.validate_config(_s11_config(tmp_path / "b"))
    assert experiments.config_hash(a.effective) \
        == experiments.config_hash(b.effective)


def _bare_config(kind):
    raw = {"experiment": kind, "device": _device_dict()}
    if kind != "readout-trace":
        raw["sweep"] = {"start": 0.0, "stop": 25e-9, "points": 3}
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
        "fock_cutoff": 18, "settle_time": 10e-9, "precession_time": 100e-9,
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
    manifest = experiments.run_experiment(
        experiments.validate_config(_s11_config(out)))
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
    experiments.run_experiment(experiments.validate_config(raw))
    results = json.loads((out / "results.json").read_text())
    npt.assert_allclose(results["midpoint_noiseless"], 0.5, atol=1e-9)
    npt.assert_allclose(results["population_estimate"], 0.5, atol=1e-9)
    assert results["iq_separation"] > 0.1
    for name in ("iq_ground.csv", "iq_excited.csv", "iq_mixture.csv"):
        assert (out / name).exists()


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
