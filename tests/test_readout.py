import numpy as np
import numpy.testing as npt
import pytest
import scipy.constants
from scipy.signal import firwin, lfilter

from dotqed import device, readout


RES = device.ResonatorParams(bare_frequency_nu_r=5.07e9, kappa_ext=23e6,
                             kappa_int=7e6)


def _constant_field(alpha, cfg):
    return np.full(cfg.n_samples, alpha, dtype=complex)


def test_dressed_resonance_shift_signs():
    assert readout.dressed_resonance_shift("g", 5e6) == -5e6
    assert readout.dressed_resonance_shift("e", 5e6) == +5e6
    assert readout.dressed_resonance_shift("mixed", 5e6) == 0.0
    with pytest.raises(ValueError, match="unknown qubit state"):
        readout.dressed_resonance_shift("f", 5e6)


def test_reflection_on_resonance_value():
    # overcoupled dip: S11 = -(kappa_ext - kappa_int)/kappa_tot = -16/30
    s11 = readout.reflection_coefficient(5.07e9, RES)
    npt.assert_allclose(s11, -0.5333333333333333 + 0j, atol=1e-12)
    # far off resonance the port reflects everything
    far = readout.reflection_coefficient(5.07e9 + 50e9, RES)
    npt.assert_allclose(abs(far), 1.0, rtol=1e-3)


def test_reflection_circle_geometry():
    # the resonance circle: S11 - 1 has constant phase slope; at
    # detuning +kappa_tot/2 the chord sits 45 degrees off the on-resonance one
    center = readout.reflection_coefficient(5.07e9, RES) - 1.0
    edge = readout.reflection_coefficient(5.07e9 + RES.kappa_tot / 2.0,
                                          RES) - 1.0
    rel = np.angle(edge / center)
    npt.assert_allclose(rel, -np.pi / 4.0, atol=1e-12)
    # shift tracking: displacing the resonance slides the dip with it
    shifted = readout.reflection_coefficient(5.07e9 + 5e6, RES,
                                             resonance_shift=5e6)
    npt.assert_allclose(shifted, -0.5333333333333333 + 0j, atol=1e-12)


def test_phase_winding_overcoupled_vs_undercoupled():
    freqs = np.linspace(5.07e9 - 20 * RES.kappa_tot,
                        5.07e9 + 20 * RES.kappa_tot, 40001)
    s11 = readout.reflection_coefficient(freqs, RES)
    assert readout.is_passive(s11)
    turns = readout.phase_winding(s11) / (2.0 * np.pi)
    # full encirclement of the origin, short of the 1.22% that lives
    # outside +/- 20 linewidths; sign follows ascending frequency
    npt.assert_allclose(abs(turns), 0.9878, atol=2e-3)

    under = device.ResonatorParams(bare_frequency_nu_r=5.07e9, kappa_ext=7e6,
                                   kappa_int=23e6)
    s11u = readout.reflection_coefficient(freqs, under)
    assert readout.is_passive(s11u)
    # undercoupled: the circle misses the origin, no net winding
    assert abs(readout.phase_winding(s11u)) / (2.0 * np.pi) < 0.05
    # and the dip stays positive: (7 - 23)/30 flips the sign
    dip = readout.reflection_coefficient(5.07e9, under)
    npt.assert_allclose(dip, +0.5333333333333333 + 0j, atol=1e-12)


def test_heterodyne_config_guards():
    with pytest.raises(ValueError, match="Nyquist"):
        readout.HeterodyneConfig(sample_rate=2.5e9,
                                 intermediate_frequency=1.3e9)
    with pytest.raises(ValueError, match="image"):
        readout.HeterodyneConfig(lowpass_cutoff=300e6)
    with pytest.raises(ValueError, match="odd"):
        readout.HeterodyneConfig(n_filter_taps=128)
    cfg = readout.HeterodyneConfig()
    assert cfg.n_samples == 1000
    assert cfg.filter_delay_samples == 63


def test_constants_are_scipys():
    assert readout.PLANCK_H == scipy.constants.h
    assert readout.BOLTZMANN_K == scipy.constants.k


def test_thermal_occupancy_value():
    # kB * 6 K / (h * 5.07 GHz), frozen
    npt.assert_allclose(readout.thermal_occupancy(6.0, 5.07e9),
                        24.658720856008966, rtol=1e-12)
    with pytest.raises(ValueError):
        readout.thermal_occupancy(-1.0, 5.07e9)
    noise = readout.ReadoutNoiseModel(noise_temperature=6.0, system_gain=2.0)
    npt.assert_allclose(noise.sigma_per_sample(5.07e9),
                        2.0 * np.sqrt(0.5 * 24.658720856008966), rtol=1e-12)


def test_demodulation_loopback_recovers_field():
    # a constant cavity field goes up to the IF carrier and comes back
    # unchanged after the filter transient
    alpha = 0.37 + 0.21j
    cfg = readout.HeterodyneConfig()
    trace = readout.synthesize_readout_waveform(_constant_field(alpha, cfg),
                                                cfg)
    settled = trace[2 * cfg.n_filter_taps:]
    npt.assert_allclose(settled.real, alpha.real, atol=1e-3)
    npt.assert_allclose(settled.imag, alpha.imag, atol=1e-3)


@pytest.mark.parametrize("taps, settings", [
    (127, {}),
    (3, {}),
    (63, {"lowpass_cutoff": 40e6}),
    (255, {"sample_rate": 1e9, "intermediate_frequency": 200e6,
           "lowpass_cutoff": 77e6}),
    (31, {"sample_rate": 3.3e9, "intermediate_frequency": 400e6,
          "lowpass_cutoff": 123.4e6}),
])
def test_filter_matches_scipy_signal_bit_for_bit(taps, settings):
    cfg = readout.HeterodyneConfig(n_filter_taps=taps, **settings)
    design = firwin(taps, cfg.lowpass_cutoff, fs=cfg.sample_rate)
    assert np.array_equal(cfg.filter_taps, design)

    # demodulating a noisy record equals scipy's FIR filter of the mixed
    # record, so the numpy chain keeps every artifact's bits
    raw = readout.heterodyne_record(_constant_field(0.6 - 0.3j, cfg), cfg,
                                    sigma=3.5, rng=taps)
    times = np.arange(cfg.n_samples) / cfg.sample_rate
    mixed = 2.0 * raw * np.exp(
        -1j * readout.TWO_PI * cfg.intermediate_frequency * times)
    want = lfilter(design, 1.0, mixed)
    assert np.array_equal(readout.demodulate(raw, cfg), want)


def test_heterodyne_record_needs_the_adc_grid():
    cfg = readout.HeterodyneConfig()
    for n in (cfg.n_samples - 1, cfg.n_samples + 1):
        with pytest.raises(ValueError, match="ADC grid"):
            readout.heterodyne_record(np.zeros(n, dtype=complex), cfg)
    with pytest.raises(ValueError, match="ADC grid"):
        readout.heterodyne_record(np.zeros((1, cfg.n_samples)), cfg)


def _mixture_trace(alpha_g, alpha_e, p, cfg):
    """Readout of the mixture's cavity field (1 - p) alpha_g + p alpha_e,
    synthesised through the full chain."""
    return readout.synthesize_readout_waveform(
        _constant_field((1.0 - p) * alpha_g + p * alpha_e, cfg), cfg)


def test_estimator_is_affine_exact_on_mixtures():
    cfg = readout.HeterodyneConfig()
    alpha_g, alpha_e = 1.0 + 0.0j, 0.2 - 0.9j
    ref_g = readout.synthesize_readout_waveform(
        _constant_field(alpha_g, cfg), cfg)
    ref_e = readout.synthesize_readout_waveform(
        _constant_field(alpha_e, cfg), cfg)
    # populations outside [0, 1] extrapolate linearly rather than clipping
    for p in (0.0, 0.37, 1.0, 1.3):
        est = readout.estimate_population(
            _mixture_trace(alpha_g, alpha_e, p, cfg), ref_g, ref_e, cfg)
        npt.assert_allclose(est, p, atol=1e-12)


def test_estimator_rotation_invariance():
    cfg = readout.HeterodyneConfig()
    alpha_g, alpha_e = 0.8 + 0.1j, -0.3 + 0.6j
    ref_g = readout.synthesize_readout_waveform(
        _constant_field(alpha_g, cfg), cfg)
    ref_e = readout.synthesize_readout_waveform(
        _constant_field(alpha_e, cfg), cfg)
    blend = _mixture_trace(alpha_g, alpha_e, 0.42, cfg)
    turn = np.exp(-1.234j)
    est = readout.estimate_population(blend * turn, ref_g * turn,
                                      ref_e * turn, cfg)
    npt.assert_allclose(est, 0.42, atol=1e-12)


def test_estimator_guards():
    cfg = readout.HeterodyneConfig()
    ref = readout.synthesize_readout_waveform(_constant_field(1.0, cfg), cfg)
    with pytest.raises(ValueError, match="identical"):
        readout.estimate_population(ref, ref, ref, cfg)
    with pytest.raises(ValueError, match="identical"):
        readout.shot_noise_kernel(ref, ref, cfg)
    # 100 samples at 2.5 GS/s against 127 taps: no sample outlasts the
    # transient, so the window is rejected with the config
    with pytest.raises(ValueError, match="filter transient"):
        readout.HeterodyneConfig(integration_window=40e-9)
    with pytest.raises(ValueError, match="filter transient"):
        readout.HeterodyneConfig(integration_window=127 / 2.5e9)
    assert readout.HeterodyneConfig(
        integration_window=128 / 2.5e9).n_samples == 128


def test_matched_filter_is_unbiased_under_noise():
    # references separate only late in the window (ring-up), where the
    # matched filter concentrates its weight
    cfg = readout.HeterodyneConfig(integration_window=300e-9)
    ramp = np.clip((cfg.adc_times - 100e-9) / 200e-9, 0.0, 1.0)
    alpha_e = (1.0 - 0.8 * ramp).astype(complex)
    ref_g = readout.synthesize_readout_waveform(_constant_field(1.0, cfg), cfg)
    ref_e = readout.synthesize_readout_waveform(alpha_e, cfg)

    sigma = readout.ReadoutNoiseModel(noise_temperature=6.0).sigma_per_sample(
        5.07e9)
    rng = np.random.default_rng(99)
    est = []
    for _ in range(300):
        noisy = readout.synthesize_readout_waveform(alpha_e, cfg, sigma, rng)
        est.append(readout.estimate_population(noisy, ref_g, ref_e, cfg))
    sd = np.std(est)
    npt.assert_allclose(np.mean(est), 1.0, atol=4 * sd / np.sqrt(300))


def test_averaging_follows_square_root_law():
    cfg = readout.HeterodyneConfig(integration_window=200e-9)
    ref_g = readout.synthesize_readout_waveform(
        _constant_field(1.0 + 0.0j, cfg), cfg)
    ref_e = readout.synthesize_readout_waveform(
        _constant_field(-1.0 + 0.0j, cfg), cfg)
    sigma = readout.ReadoutNoiseModel(noise_temperature=6.0).sigma_per_sample(
        5.07e9)
    rng = np.random.default_rng(5)
    singles = np.array([
        readout.estimate_population(
            readout.synthesize_readout_waveform(_constant_field(0.0, cfg),
                                                cfg, sigma, rng),
            ref_g, ref_e, cfg)
        for _ in range(1600)])
    sigma1 = singles.std()
    groups = singles.reshape(100, 16).mean(axis=1)
    ratio = sigma1 / groups.std()
    # 16-shot averages should be 4x tighter
    npt.assert_allclose(ratio, 4.0, rtol=0.25)

