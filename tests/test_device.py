import json

import numpy as np
import numpy.testing as npt
import pytest

from dotqed import device, qops


def test_qubit_frequency_is_hypotenuse():
    dqd = device.DqdParams(tunnel_splitting_2t=4.2e9, detuning_delta=3.1e9)
    # sqrt(4.2^2 + 3.1^2) GHz, frozen independently
    npt.assert_allclose(device.qubit_frequency(dqd), 5220153254.455276,
                        rtol=1e-12)
    flat = device.DqdParams(tunnel_splitting_2t=5.68e9)
    assert device.qubit_frequency(flat) == 5.68e9


def test_coupling_projection_shrinks_off_sweet_spot():
    c = device.CouplingParams(g0=55e6)
    dqd = device.DqdParams(tunnel_splitting_2t=4.2e9, detuning_delta=3.1e9)
    npt.assert_allclose(device.coupling_at_detuning(c, dqd),
                        44251574.37721719, rtol=1e-12)
    # at delta = 0 the full dipole survives
    flat = device.DqdParams(tunnel_splitting_2t=4.2e9)
    assert device.coupling_at_detuning(c, flat) == 55e6


def test_dispersive_shift_value_and_sign():
    npt.assert_allclose(device.dispersive_shift(55e6, 610e6),
                        4959016.393442623, rtol=1e-12)
    assert device.dispersive_shift(55e6, -610e6) < 0
    with pytest.raises(ValueError):
        device.dispersive_shift(55e6, 0.0)


def test_device_params_roundtrip(flagship):
    d = flagship.to_dict()
    again = device.DeviceParams.from_dict(d)
    assert again == flagship
    # to_dict is plain JSON: the config's device section round-trips
    assert device.DeviceParams.from_dict(json.loads(json.dumps(d))) == flagship


def test_from_dict_error_messages():
    with pytest.raises(ValueError, match="missing section"):
        device.DeviceParams.from_dict({"dqd": {"tunnel_splitting_2t": 1e9}})
    bad = {"dqd": {"tunnel_splitting_2t": 1e9, "bogus": 3},
           "resonator": {"bare_frequency_nu_r": 5e9, "kappa_ext": 1e6,
                         "kappa_int": 1e6},
           "coupling": {"g0": 5e7},
           "decoherence": {"gamma1": 1e6, "gamma_phi": 1e6}}
    with pytest.raises(ValueError, match="malformed"):
        device.DeviceParams.from_dict(bad)


def test_parameter_guards():
    with pytest.raises(ValueError):
        device.DqdParams(tunnel_splitting_2t=-1e9)
    with pytest.raises(ValueError):
        device.ResonatorParams(bare_frequency_nu_r=5e9, kappa_ext=0.0,
                               kappa_int=1e6)
    with pytest.raises(ValueError):
        device.DecoherenceParams(gamma1=-1.0, gamma_phi=0.0)
    # non-finite and boolean values are rejected with the field named, so a
    # JSON NaN, Infinity or true never reaches the dynamics
    for field, make in [
            ("gamma1", lambda v: device.DecoherenceParams(gamma1=v,
                                                          gamma_phi=0.0)),
            ("gamma_phi", lambda v: device.DecoherenceParams(gamma1=1e6,
                                                             gamma_phi=v)),
            ("kappa_int", lambda v: device.ResonatorParams(
                bare_frequency_nu_r=5e9, kappa_ext=23e6, kappa_int=v)),
            ("kappa_ext", lambda v: device.ResonatorParams(
                bare_frequency_nu_r=5e9, kappa_ext=v, kappa_int=7e6)),
            ("g0", lambda v: device.CouplingParams(g0=v)),
            ("tunnel_splitting_2t",
             lambda v: device.DqdParams(tunnel_splitting_2t=v)),
            ("detuning_delta", lambda v: device.DqdParams(
                tunnel_splitting_2t=5e9, detuning_delta=v))]:
        for bad in (float("nan"), float("inf"), -float("inf"), True, "1e6"):
            with pytest.raises(ValueError, match=f"{field} must be a finite"):
                make(bad)
    res = device.ResonatorParams(bare_frequency_nu_r=5e9, kappa_ext=23e6,
                                 kappa_int=7e6)
    assert res.kappa_tot == 30e6
    dec = device.DecoherenceParams(gamma1=3.7625e6, gamma_phi=4.9203e6)
    npt.assert_allclose(dec.gamma2, 6801550.0, rtol=1e-15)


def test_rotating_frame_hamiltonian_elements(flagship):
    space = qops.HilbertSpace(4)
    drive = 5.6e9
    h = device.build_rotating_frame_hamiltonian(
        flagship.dqd, flagship.resonator, flagship.coupling, drive,
        space=space)
    assert h.shape == (8, 8)
    npt.assert_allclose(h, h.conj().T, atol=1e-6)
    nu_q = device.qubit_frequency(flagship.dqd)
    nu_r = flagship.resonator.bare_frequency_nu_r
    # |g,0> diagonal entry: -(nu_q - nu_d)/2 + 0 photons
    npt.assert_allclose(h[0, 0], -0.5 * (nu_q - drive), rtol=1e-12)
    # |e,1> entry: +(nu_q - nu_d)/2 + (nu_r - nu_d)
    npt.assert_allclose(h[5, 5], 0.5 * (nu_q - drive) + (nu_r - drive),
                        rtol=1e-12)
    # exchange element <e,0|H|g,1> = g
    npt.assert_allclose(h[4, 1], 55e6, rtol=1e-12)


def test_rwa_warning_for_far_detuned_drive(flagship):
    with pytest.warns(RuntimeWarning, match="rotating-wave"):
        device.build_rotating_frame_hamiltonian(
            flagship.dqd, flagship.resonator, flagship.coupling, 1.0e9,
            space=qops.HilbertSpace(3))


def test_rotating_frame_hamiltonian_stack_of_tones(flagship):
    # an array of tones is the stack of one-tone Hamiltonians, bit for bit
    space = qops.HilbertSpace(4)
    tones = np.linspace(5.0e9, 5.2e9, 5)
    args = (flagship.dqd, flagship.resonator, flagship.coupling)
    stack = device.build_rotating_frame_hamiltonian(
        *args, tones, cavity_drive=1.5e6, space=space)
    assert stack.shape == (5, 8, 8)
    npt.assert_array_equal(stack, [device.build_rotating_frame_hamiltonian(
        *args, f, cavity_drive=1.5e6, space=space) for f in tones])
    # the detunings are checked at the extremes: one far tone at either
    # end of the sweep strains the rotating-wave form
    for far in ([1.0e9], [20e9]):
        with pytest.warns(RuntimeWarning, match="rotating-wave") as caught:
            device.build_rotating_frame_hamiltonian(
                *args, np.concatenate([far, tones]), space=space)
        assert any(str(w.message).startswith("resonator-drive detuning")
                   for w in caught)


def test_vacuum_rabi_splitting_at_resonance():
    # qubit tuned onto the resonator: the one-excitation doublet is split
    # by exactly 2 g
    dqd = device.DqdParams(tunnel_splitting_2t=5.07e9, detuning_delta=0.0)
    res = device.ResonatorParams(bare_frequency_nu_r=5.07e9, kappa_ext=23e6,
                                 kappa_int=7e6)
    split = device.vacuum_rabi_splitting(dqd, res,
                                         device.CouplingParams(g0=37.5e6))
    npt.assert_allclose(split, 75e6, rtol=1e-9)


def test_vacuum_rabi_splitting_detuned_exceeds_2g():
    # off resonance the doublet gap is sqrt(Delta^2 + 4 g^2) > 2 g
    dqd = device.DqdParams(tunnel_splitting_2t=5.2e9, detuning_delta=0.0)
    res = device.ResonatorParams(bare_frequency_nu_r=5.07e9, kappa_ext=23e6,
                                 kappa_int=7e6)
    split = device.vacuum_rabi_splitting(dqd, res,
                                         device.CouplingParams(g0=37.5e6))
    npt.assert_allclose(split, np.hypot(130e6, 75e6), rtol=1e-6)
