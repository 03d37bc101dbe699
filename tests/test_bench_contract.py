"""perfbench's span annotators against the dotqed calls they read.

`perfbench/spans.py` reads counts off the arguments and results of some
dotqed functions by name.  A rename there fails only in a traced benchmark
pass, where a raising annotator counts as a failed operation; this runs
one small call of each annotated function under the tracer.
"""

import importlib.util
from pathlib import Path

import numpy as np

import dotqed
from dotqed import device, dynamics, experiments, pulses

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_annotators_read_the_traced_api(flagship, flagship_dict, tmp_path):
    dec = flagship.decoherence
    seq = pulses.build_t1_sequence(
        5e-9, sigma=0.25e-9,
        pi_amplitude=pulses.calibrate_pi_amplitude(0.25e-9))
    cfg = experiments.validate_config(
        {"experiment": "t1", "device": flagship_dict,
         "sweep": {"start": 0.0, "stop": 20e-9, "points": 4},
         "seed": 1, "output_dir": str(tmp_path / "t1")})
    h_hz = 1e8 * np.array([[0.0, 1.0], [1.0, 0.0]])
    channels = dynamics.qubit_channels(
        device.DecoherenceParams(gamma1=1e6, gamma_phi=1e6))
    tracer = spans.Tracer()
    tracer.install(dotqed)
    try:
        dynamics.simulate_sequence(seq, dec)
        experiments.run_experiment(cfg)
        dynamics.steady_state(h_hz, channels)
        dynamics.evolve(np.diag([1.0, 0.0]), h_hz, channels,
                        dynamics.SimulationGrid(0.0, 1e-9, 1e-10))
    finally:
        tracer.uninstall()
    extras = {}
    for rec in tracer.spans:
        assert not (rec[spans.EXTRA] or {}).get("raised"), rec[spans.NAME]
        extras.setdefault(rec[spans.NAME], []).append(rec[spans.EXTRA])
    annotated = {"dynamics.compile_sequence": "steps",
                 "dynamics.evolve": "steps",
                 "dynamics.steady_state": "liouvillian_dim",
                 "experiments.RunManifest.build": "artifact_bytes"}
    for name, key in annotated.items():
        assert extras.get(name), f"no {name} span"
        assert all(extra[key] > 0 for extra in extras[name]), name
    # the sequence, then each of the four sweep points (the fewest a T1
    # fit takes)
    assert len(extras["dynamics.compile_sequence"]) == 5
    assert {"dynamics.simulate_sequence", "dynamics.simulate_sweep",
            "experiments.run_experiment"} <= set(extras)
