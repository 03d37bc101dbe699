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
from scipy.constants import h as PLANCK_H
from scipy.constants import k as BOLTZMANN_K

TWO_PI = 2.0 * np.pi

# Detection band center used to convert amplifier noise temperature into
# added quanta; matches the resonator band of the default device.
READOUT_BAND_HZ = 5.07e9


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


def is_passive(s11, tol=1e-12):
    """|S11| <= 1 everywhere (a passive port cannot amplify)."""
    return bool(np.all(np.abs(s11) <= 1.0 + tol))


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


def thermal_occupancy(temperature, frequency=READOUT_BAND_HZ):
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

    def sigma_per_sample(self, frequency=READOUT_BAND_HZ):
        """Std of the additive Gaussian noise on each raw ADC sample."""
        n_bar = thermal_occupancy(self.noise_temperature, frequency)
        return self.system_gain * np.sqrt(0.5 * n_bar)


@dataclass
class IqTrace:
    """Demodulated quadrature record on the ADC grid."""
    times: np.ndarray
    i: np.ndarray
    q: np.ndarray

    @property
    def envelope(self):
        return self.i + 1j * self.q

    def mean_iq(self, skip=0):
        env = self.envelope[skip:]
        return complex(env.mean())


def heterodyne_record(traj, config, noise=None, rng=None):
    """Raw ADC record of the cavity field beat against the local oscillator.

    The trajectory's complex <a> is resampled onto the ADC grid (samples
    beyond the trajectory hold its endpoint value) and recorded as
    gain * Re[alpha(t) exp(i 2 pi f_IF t)] plus additive Gaussian noise.
    Returns (times, samples).
    """
    if traj.cavity_alpha is None:
        raise ValueError("trajectory carries no cavity field")
    n = config.n_samples
    t0 = float(traj.times[0])
    times = t0 + np.arange(n) / config.sample_rate
    alpha = (np.interp(times, traj.times, np.real(traj.cavity_alpha))
             + 1j * np.interp(times, traj.times, np.imag(traj.cavity_alpha)))
    gain = noise.system_gain if noise is not None else 1.0
    raw = gain * np.real(alpha * np.exp(1j * TWO_PI
                                        * config.intermediate_frequency * times))
    if noise is not None and noise.noise_temperature > 0:
        raw = raw + np.random.default_rng(rng).normal(
            0.0, noise.sigma_per_sample(), n)
    return times, raw


def demodulate(times, samples, config):
    """Digital downconversion: mix to baseband, lowpass, return quadratures.

    The factor 2 restores the envelope amplitude lost in taking the real
    part; the FIR filter is causal (a convolution truncated to the record),
    so the output lags by filter_delay_samples.
    """
    times = np.asarray(times, dtype=float)
    mixed = 2.0 * np.asarray(samples, dtype=float) \
        * np.exp(-1j * TWO_PI * config.intermediate_frequency * times)
    env = np.convolve(mixed, config.filter_taps)[:len(mixed)]
    return IqTrace(times=times, i=np.real(env), q=np.imag(env))


def synthesize_readout_waveform(traj, config, noise=None, rng=None):
    """Full chain: cavity trajectory -> raw IF record -> demodulated IqTrace."""
    times, raw = heterodyne_record(traj, config, noise=noise, rng=rng)
    return demodulate(times, raw, config)


def rotate_reference_phase(trace, phi):
    """Rotate the IQ plane by -phi, e.g. to put the ground trace on +I."""
    env = trace.envelope * np.exp(-1j * phi)
    return IqTrace(times=trace.times, i=np.real(env), q=np.imag(env))


# ------------------------------------------------- population estimation

def estimate_population(trace, ref_g, ref_e, config):
    """Project a demodulated trace onto the g/e reference envelopes; return p_e.

    Matched filter: per-sample weights w = (e - g) and
    p = Re <w, s - g> / <w, w>.  This is affine in the signal envelope, so a
    noiseless mixture trace returns its population exactly.  The first
    n_filter_taps samples are excluded to drop the demodulation filter
    transient.
    """
    skip = config.n_filter_taps
    sig = trace.envelope[skip:]
    g = ref_g.envelope[skip:]
    e = ref_e.envelope[skip:]
    if not (len(sig) == len(g) == len(e)):
        raise ValueError("trace and references must share the ADC grid")
    if len(sig) == 0:
        raise ValueError("integration window shorter than the filter transient")

    w = e - g
    norm = np.real(np.vdot(w, w))
    if norm <= 0:
        raise ValueError("reference envelopes are identical; no contrast")
    return float(np.real(np.vdot(w, sig - g)) / norm)


# ------------------------------------------------------------ CSV output

def iq_trace_to_csv(trace, path):
    np.savetxt(path, np.column_stack([trace.times, trace.i, trace.q]),
               fmt="%.12e", delimiter=",", header="time_s,i,q", comments="")
    return path


def spectrum_to_csv(probe_frequencies, s11, path):
    s11 = np.asarray(s11)
    np.savetxt(path, np.column_stack([probe_frequencies, s11.real, s11.imag]),
               fmt="%.12e", delimiter=",",
               header="freq_hz,re_s11,im_s11", comments="")
    return path
