"""Dispersive readout chain: reflection coefficient of the single-port
resonator, heterodyne waveform synthesis at the intermediate frequency,
digital demodulation, and population estimation against reference traces.

Sign conventions.  The reflection coefficient of a single-port resonator
with external linewidth kappa_ext and internal linewidth kappa_int is

    S11(nu_p) = 1 - 2 pi kappa_ext / (i 2 pi (nu_p - nu_res) + pi kappa_tot)

so an overcoupled port (kappa_ext > kappa_int) carries the full 2 pi phase
winding across resonance and |S11| dips to (kappa_ext - kappa_int)/kappa_tot
with inverted sign on resonance.  The dispersive interaction pulls the
resonance to nu_r - chi for the qubit ground state and nu_r + chi for the
excited state.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi
PLANCK_H = 6.62607015e-34       # J s, exact in the SI since 2019
BOLTZMANN_K = 1.380649e-23      # J / K, exact in the SI since 2019
PASSIVE_TOL = 1e-12             # rounding allowance of is_passive above 1


# ------------------------------------------------------------- reflection

def dressed_resonance_shift(qubit_state, chi):
    """Resonator pull for a fixed qubit state: -chi (g), +chi (e), 0 (mixed)."""
    shifts = {"g": -chi, "e": +chi, "mixed": 0.0}
    try:
        return shifts[qubit_state]
    except KeyError:
        raise ValueError(f"unknown qubit state {qubit_state!r}; "
                         "expected 'g', 'e', or 'mixed'") from None


def reflection_coefficient(probe_frequency, res, resonance_shift=0.0):
    """Single-port S11 at the probe frequency; vectorized over probe_frequency.

    resonance_shift displaces the resonance (e.g. the state-dependent pull),
    so the effective resonance sits at nu_r + resonance_shift.
    """
    if res.kappa_tot <= 0:
        raise ValueError("reflection needs kappa_tot > 0")
    detuning = np.asarray(probe_frequency, dtype=float) \
        - (res.bare_frequency_nu_r + resonance_shift)
    denom = 1j * TWO_PI * detuning + np.pi * res.kappa_tot
    return 1.0 - TWO_PI * res.kappa_ext / denom


def phase_winding(s11):
    """Signed total phase accumulated along a spectrum, via unwrapping."""
    phase = np.unwrap(np.angle(np.asarray(s11)))
    return float(phase[-1] - phase[0])


def is_passive(s11):
    """|S11| <= 1 everywhere (a passive port cannot amplify)."""
    return bool(np.all(np.abs(s11) <= 1.0 + PASSIVE_TOL))


# ------------------------------------------------------- heterodyne chain

@dataclass(frozen=True)
class HeterodyneConfig:
    """Digitizer and digital-downconversion settings."""
    sample_rate: float = 2.5e9            # S/s
    intermediate_frequency: float = 250e6  # Hz
    lowpass_cutoff: float = 100e6          # Hz
    integration_window: float = 400e-9     # s
    n_filter_taps: int = 127

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not 0 < self.intermediate_frequency < 0.5 * self.sample_rate:
            raise ValueError("intermediate frequency must sit below Nyquist")
        if not 0 < self.lowpass_cutoff < self.intermediate_frequency:
            raise ValueError("lowpass cutoff must sit below the intermediate "
                             "frequency to reject the image")
        if self.integration_window <= 0:
            raise ValueError("integration window must be positive")
        if self.n_filter_taps < 3 or self.n_filter_taps % 2 == 0:
            raise ValueError("n_filter_taps must be odd and >= 3")
        if self.n_samples <= self.n_filter_taps:
            raise ValueError("integration window must hold more samples than "
                             "the filter transient (n_filter_taps)")

    @property
    def n_samples(self):
        return int(round(self.integration_window * self.sample_rate))

    @property
    def filter_delay_samples(self):
        return (self.n_filter_taps - 1) // 2

    @cached_property
    def filter_taps(self):
        """Lowpass FIR taps, designed once per config and read-only.

        A Hamming-windowed sinc normalised to unit DC gain, written with the
        same expressions as scipy's `firwin`, so the taps equal its design
        bit for bit (0.46 or np.hamming for the window differ by 1e-17).
        """
        n = self.n_filter_taps
        c = self.lowpass_cutoff / (0.5 * self.sample_rate)
        m = np.arange(n) - 0.5 * (n - 1)
        window = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, n))
        taps = c * np.sinc(c * m) * window
        taps = taps / np.sum(taps)
        taps.flags.writeable = False
        return taps

    @cached_property
    def adc_times(self):
        """Sample times of the integration window from 0, read-only."""
        times = np.arange(self.n_samples) / self.sample_rate
        times.flags.writeable = False
        return times

    @cached_property
    def if_phasor(self):
        """The carrier exp(i 2 pi f_IF t) on the ADC grid, read-only."""
        phasor = np.exp(1j * TWO_PI * self.intermediate_frequency
                        * self.adc_times)
        phasor.flags.writeable = False
        return phasor


def thermal_occupancy(temperature, frequency):
    """Rayleigh-Jeans occupancy kB T / (h nu) of the detection band."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if frequency <= 0:
        raise ValueError("frequency must be positive")
    return BOLTZMANN_K * temperature / (PLANCK_H * frequency)


@dataclass(frozen=True)
class ReadoutNoiseModel:
    """Amplifier chain referred to the cavity field: gain plus added noise
    of noise_temperature kelvin in the detection band."""
    noise_temperature: float = 6.0
    system_gain: float = 1.0

    def __post_init__(self):
        if self.noise_temperature < 0:
            raise ValueError("noise_temperature must be >= 0")
        if self.system_gain <= 0:
            raise ValueError("system_gain must be positive")

    def sigma_per_sample(self, frequency):
        """Std of the additive Gaussian noise on each raw ADC sample, for a
        detection band at `frequency` (the probe)."""
        n_bar = thermal_occupancy(self.noise_temperature, frequency)
        return self.system_gain * np.sqrt(0.5 * n_bar)


def heterodyne_record(alpha, config, sigma=0.0, rng=None):
    """Raw ADC record of the cavity field beat against the local oscillator.

    alpha is the complex <a>, already at the chain's gain, sampled on the
    ADC grid config.adc_times; the record is Re[alpha exp(i 2 pi f_IF t)]
    plus Gaussian noise of std sigma per sample.
    """
    alpha = np.asarray(alpha)
    if alpha.shape != (config.n_samples,):
        raise ValueError(f"field has shape {alpha.shape}; the ADC grid has "
                         f"{config.n_samples} samples")
    raw = np.real(alpha * config.if_phasor)
    if sigma > 0:
        raw = raw + np.random.default_rng(rng).normal(0.0, sigma,
                                                      config.n_samples)
    return raw


def demodulate(samples, config):
    """Digital downconversion: mix to baseband, lowpass, return the complex
    envelope on the ADC grid.

    The factor 2 restores the envelope amplitude lost in taking the real
    part; the FIR filter is causal (a convolution truncated to the record),
    so the output lags by filter_delay_samples.
    """
    mixed = 2.0 * np.asarray(samples, dtype=float) * np.conj(config.if_phasor)
    return np.convolve(mixed, config.filter_taps)[:len(mixed)]


def synthesize_readout_waveform(alpha, config, sigma=0.0, rng=None):
    """Full chain: cavity field -> raw IF record -> demodulated envelope."""
    return demodulate(heterodyne_record(alpha, config, sigma, rng), config)


# ------------------------------------------------- population estimation

def _matched_filter(ref_g, ref_e, config):
    """w = e - g past the filter transient (the first n_filter_taps samples)
    and its norm <w, w>; raises if the references have no contrast."""
    skip = config.n_filter_taps
    w = ref_e[skip:] - ref_g[skip:]
    norm = np.real(np.vdot(w, w))
    if norm <= 0:
        raise ValueError("reference envelopes are identical; no contrast")
    return w, norm


def estimate_population(trace, ref_g, ref_e, config):
    """Project a demodulated envelope s onto the g/e reference envelopes:
    p_e = Re <w, s - g> / <w, w>, the matched filter w of _matched_filter.
    It is affine in s, so a noiseless mixture trace returns its population."""
    if not len(trace) == len(ref_g) == len(ref_e):
        raise ValueError("trace and references must share the ADC grid")
    w, norm = _matched_filter(ref_g, ref_e, config)
    signal = (trace - ref_g)[config.n_filter_taps:]
    return float(np.real(np.vdot(w, signal)) / norm)


def shot_noise_kernel(ref_g, ref_e, config):
    """Weights h, read-only: added record noise xi moves a shot's estimate by
    exactly h . xi.  They are the matched filter w (zero on the filter
    transient) pulled back through the FIR filter and the mixer,
    h_i = (2 / <w, w>) Re[conj(phasor_i) sum_j taps_j conj(w_{i+j})]."""
    w, norm = _matched_filter(ref_g, ref_e, config)
    skip = config.n_filter_taps
    pulled = np.convolve(np.conj(np.pad(w, (skip, 0))),
                         config.filter_taps[::-1])
    h = np.real(np.conj(config.if_phasor) * pulled[skip - 1:])
    h *= 2.0 / norm
    h.flags.writeable = False
    return h
