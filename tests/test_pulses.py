import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import erf

from dotqed import pulses

DIGEST_CONFIGS = Path(__file__).with_name("digest_configs.json")


def test_envelope_peak_and_truncation():
    p = pulses.GaussianPulse(amplitude=10e6, t0=1e-9, sigma=0.25e-9)
    assert pulses.envelope_value(p, 1e-9) == 10e6
    # hard zero outside +/- k sigma
    assert pulses.envelope_value(p, p.end + 1e-15) == 0.0
    assert pulses.envelope_value(p, p.start - 1e-15) == 0.0
    # truncation edge keeps the e^{-k^2/2} shoulder
    npt.assert_allclose(pulses.envelope_value(p, p.end),
                        10e6 * np.exp(-2.0), rtol=1e-12)
    t = np.linspace(0.0, 2e-9, 11)
    out = pulses.envelope_value(p, t)
    assert out.shape == t.shape and out.max() == 10e6


def _area(pulse):
    """Numerical integral of the truncated envelope (rotation = 2 pi area)."""
    t = np.linspace(pulse.start, pulse.end, 400001)
    return np.trapezoid(pulses.envelope_value(pulse, t), t)


def test_pi_amplitude_pulse_area_by_quadrature():
    # quadrature as the second route to the closed-form erf amplitude: a pi
    # rotation needs envelope area 1/2, at any width and truncation
    for sigma, k in [(0.4e-9, 2.0), (0.25e-9, 3.0), (1.1e-9, 1.5)]:
        amp = pulses.calibrate_pi_amplitude(sigma, truncation_k=k)
        p = pulses.GaussianPulse(amplitude=amp, t0=k * sigma, sigma=sigma,
                                 truncation_k=k)
        npt.assert_allclose(_area(p), 0.5, rtol=1e-10)


def _truncations_in_use():
    """The default, every value the digest matrix sets, and the tests'."""
    configs = json.loads(DIGEST_CONFIGS.read_text())["configs"].values()
    return sorted({pulses.DEFAULT_TRUNCATION_K, 1.5, 3.0}
                  | {c["pulse"]["truncation_k"] for c in configs
                     if "truncation_k" in c.get("pulse", {})})


@pytest.mark.parametrize("k", _truncations_in_use())
@pytest.mark.parametrize("sigma", [0.25e-9, 0.4e-9, 1.1e-9])
def test_pi_amplitude_math_erf_is_scipy_erf_bit_for_bit(sigma, k):
    want = 1.0 / (2.0 * sigma * np.sqrt(2.0 * np.pi)
                  * float(erf(k / np.sqrt(2.0))))
    assert pulses.calibrate_pi_amplitude(sigma, truncation_k=k) == want


def test_pi_amplitude_frozen_value():
    # sigma = 0.25 ns, k = 2: A_pi = 1/(2 sigma sqrt(2 pi) erf(sqrt(2)))
    amp = pulses.calibrate_pi_amplitude(0.25e-9)
    npt.assert_allclose(amp, 835919100.4702692, rtol=1e-12)
    p = pulses.GaussianPulse(amplitude=amp, t0=0.5e-9, sigma=0.25e-9)
    npt.assert_allclose(2.0 * np.pi * _area(p), np.pi, rtol=1e-10)


def test_pi_amplitude_scale_invariance():
    # theta(A, sigma) = theta(2A, sigma/2): halving the width doubles the peak
    a1 = pulses.calibrate_pi_amplitude(0.25e-9)
    a2 = pulses.calibrate_pi_amplitude(0.125e-9)
    npt.assert_allclose(a2, 2.0 * a1, rtol=1e-12)


def test_drag_quadrature_is_odd_derivative():
    p = pulses.GaussianPulse(amplitude=1e8, t0=2e-9, sigma=0.3e-9,
                             drag_beta=0.2e-9)
    t = np.linspace(p.start, p.end, 200001)
    q = pulses.drag_quadrature_value(p, t)
    # antisymmetric about the center: integral vanishes
    assert abs(np.trapezoid(q, t)) < 1e-9 * np.max(np.abs(q)) * (p.end - p.start)
    # extrema sit at t0 +/- sigma
    tmax = t[np.argmax(q)]
    npt.assert_allclose(tmax, p.t0 - p.sigma, atol=2e-13)
    # plain Gaussian has no quadrature
    g = pulses.GaussianPulse(amplitude=1e8, t0=2e-9, sigma=0.3e-9)
    assert pulses.drag_quadrature_value(g, 2.1e-9) == 0.0


def test_ramsey_gap_is_support_to_support():
    seq = pulses.build_ramsey_sequence(7e-9, 100e6, sigma=0.25e-9,
                                       pi_amplitude=8e8)
    p1, p2 = (e.pulse for e in seq.entries)
    npt.assert_allclose(p2.start - p1.end, 7e-9, atol=1e-18)
    # both pulses run at half the pi amplitude on the detuned carrier
    assert all(e.pulse.amplitude == 4e8 for e in seq.entries)
    assert seq.carrier_frequencies == [100e6]
    npt.assert_allclose(seq.readout_window.start, p2.end, atol=1e-18)
    # delta_tau = 0 fuses the pair into a contiguous pi rotation
    fused = pulses.build_ramsey_sequence(0.0, 0.0, sigma=0.25e-9,
                                         pi_amplitude=8e8)
    q1, q2 = (e.pulse for e in fused.entries)
    npt.assert_allclose(q2.start, q1.end, atol=1e-18)


def test_echo_symmetric_halves_and_phase():
    seq = pulses.build_echo_sequence(12e-9, sigma=0.25e-9, pi_amplitude=8e8)
    p1, pp, p2 = (e.pulse for e in seq.entries)
    npt.assert_allclose(pp.start - p1.end, 6e-9, atol=1e-18)
    npt.assert_allclose(p2.start - pp.end, 6e-9, atol=1e-18)
    assert pp.amplitude == 8e8 and p1.amplitude == 4e8
    phases = [e.carrier_phase for e in seq.entries]
    npt.assert_allclose(phases, [0.0, np.pi / 2, 0.0])


def test_t1_sequence_delays_readout():
    seq = pulses.build_t1_sequence(50e-9, sigma=0.25e-9, pi_amplitude=8e8)
    p = seq.entries[0].pulse
    npt.assert_allclose(seq.readout_window.start - p.end, 50e-9, atol=1e-18)


def test_overlapping_pulses_rejected():
    p1 = pulses.GaussianPulse(1e8, 1e-9, 0.25e-9)
    p2 = pulses.GaussianPulse(1e8, 1.2e-9, 0.25e-9)
    with pytest.raises(ValueError, match="overlap"):
        pulses.PulseSequence(entries=(pulses.SequenceEntry(p1),
                                      pulses.SequenceEntry(p2)),
                             readout_window=pulses.ReadoutWindow(5e-9))
    with pytest.raises(ValueError, match="readout"):
        pulses.PulseSequence(entries=(pulses.SequenceEntry(p1),),
                             readout_window=pulses.ReadoutWindow(0.5e-9))


def test_pulse_before_time_zero_rejected():
    # support -0.4 to 0.6 ns: the simulated grid starts at t = 0, so its
    # early part would be dropped (a pi pulse gave P_e = 0.745, not 1)
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    early = pulses.GaussianPulse(a_pi, 0.1e-9, 0.25e-9)
    with pytest.raises(ValueError, match="starts at t = .* < 0"):
        pulses.PulseSequence(entries=(pulses.SequenceEntry(early),),
                             readout_window=pulses.ReadoutWindow(early.end))
    # the builders start their first pulse at exactly 0
    shape = dict(sigma=0.25e-9, pi_amplitude=a_pi)
    for seq in (pulses.build_rabi_sequence(a_pi, 0.25e-9),
                pulses.build_ramsey_sequence(5e-9, 0.0, **shape),
                pulses.build_t1_sequence(5e-9, **shape),
                pulses.build_echo_sequence(5e-9, **shape)):
        assert seq.entries[0].pulse.start == 0.0


def test_sequence_envelopes_sum_and_phase():
    seq = pulses.build_echo_sequence(10e-9, sigma=0.25e-9, pi_amplitude=8e8)
    pp = seq.entries[1].pulse
    i_env, q_env = pulses.sequence_envelopes(seq.entries, np.array([pp.t0]))
    # the pi/2-phased refocusing pulse lives entirely on the Q quadrature
    npt.assert_allclose(q_env[0], 8e8, rtol=1e-12)
    assert abs(i_env[0]) < 1e-3
    p1 = seq.entries[0].pulse
    i_env, q_env = pulses.sequence_envelopes(seq.entries, np.array([p1.t0]))
    npt.assert_allclose(i_env[0], 4e8, rtol=1e-12)
    assert abs(q_env[0]) < 1e-3
