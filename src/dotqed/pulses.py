"""Gaussian microwave pulse envelopes and standard pulse sequences.

Amplitudes are peak Rabi rates in Hz, times in seconds.  Envelopes are
truncated at +/- k sigma (k = 2 by default) and defined to be exactly zero
outside that support, which is what the sequence assembly relies on.  The
rotation angle of a pulse is theta = 2*pi * integral(Omega(t) dt).
"""

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TRUNCATION_K = 2.0
DEFAULT_READOUT_DURATION = 400e-9


@dataclass(frozen=True)
class GaussianPulse:
    """A * exp(-(t-t0)^2 / 2 sigma^2) on [t0 - k sigma, t0 + k sigma], with a
    derivative (DRAG) quadrature of weight drag_beta (seconds)."""
    amplitude: float          # peak Rabi rate, Hz
    t0: float                 # center, s
    sigma: float              # width, s
    truncation_k: float = DEFAULT_TRUNCATION_K
    drag_beta: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.truncation_k <= 0:
            raise ValueError("truncation_k must be positive")

    @property
    def start(self):
        return self.t0 - self.truncation_k * self.sigma

    @property
    def end(self):
        return self.t0 + self.truncation_k * self.sigma


def envelope_value(pulse, t):
    """In-phase envelope, zero outside the truncated support."""
    t = np.asarray(t, dtype=float)
    inside = (t >= pulse.start) & (t <= pulse.end)
    x = (t - pulse.t0) / pulse.sigma
    out = np.where(inside, pulse.amplitude * np.exp(-0.5 * x * x), 0.0)
    return out if out.ndim else float(out)


def drag_quadrature_value(pulse, t):
    """Quadrature envelope beta * d/dt of the Gaussian, zero off support."""
    t = np.asarray(t, dtype=float)
    inside = (t >= pulse.start) & (t <= pulse.end)
    x = (t - pulse.t0) / pulse.sigma
    out = np.where(inside, -pulse.drag_beta * pulse.amplitude * x / pulse.sigma
                   * np.exp(-0.5 * x * x), 0.0)
    return out if out.ndim else float(out)


def calibrate_pi_amplitude(sigma, truncation_k=DEFAULT_TRUNCATION_K):
    """Peak amplitude (Hz) giving a pi rotation for a width-sigma pulse.

    A_pi = 1 / (2 sigma sqrt(2*pi) erf(k/sqrt(2))), so the truncated
    envelope has area 1/2.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return 1.0 / (2.0 * sigma * np.sqrt(2.0 * np.pi)
                  * math.erf(truncation_k / np.sqrt(2.0)))


@dataclass(frozen=True)
class SequenceEntry:
    pulse: GaussianPulse
    carrier_frequency: float = 0.0   # Hz, detuning from the qubit frequency
    carrier_phase: float = 0.0       # rad; 0 = +x rotation, pi/2 = +y


@dataclass(frozen=True)
class ReadoutWindow:
    start: float
    duration: float = DEFAULT_READOUT_DURATION

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("readout duration must be positive")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered control pulses plus the readout window that follows them."""
    entries: tuple
    readout_window: ReadoutWindow

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        supports = sorted((e.pulse.start, e.pulse.end) for e in entries)
        if supports and supports[0][0] < 0.0:
            raise ValueError(f"pulse starts at t = {supports[0][0]:.3e} < 0")
        for (s0, e0), (s1, e1) in zip(supports, supports[1:]):
            if s1 < e0 - 1e-15:
                raise ValueError(
                    f"pulse supports overlap: [{s0:.3e}, {e0:.3e}] and "
                    f"[{s1:.3e}, {e1:.3e}]")
        if supports and self.readout_window.start < supports[-1][1] - 1e-15:
            raise ValueError("readout window starts before the last pulse ends")

    @property
    def carrier_frequencies(self):
        return sorted({e.carrier_frequency for e in self.entries})


def _back_to_back(pulses, wait, sigma, truncation_k, drag_beta,
                  readout_duration):
    """Pulses of width sigma placed back to back from t = 0, then the
    readout a wait after the last one ends.  pulses holds (gap, amplitude,
    carrier frequency, carrier phase) per pulse, gap the idle time before
    it; its t0 is (previous end + gap) + k sigma."""
    k = truncation_k
    entries, end = [], 0.0
    for gap, amplitude, frequency, phase in pulses:
        p = GaussianPulse(amplitude, end + gap + k * sigma, sigma, k, drag_beta)
        entries.append(SequenceEntry(p, frequency, phase))
        end = p.end
    return PulseSequence(tuple(entries),
                         ReadoutWindow(end + wait, readout_duration))


def build_rabi_sequence(amplitude, sigma, *, truncation_k=DEFAULT_TRUNCATION_K,
                        drag_beta=0.0, readout_duration=DEFAULT_READOUT_DURATION):
    """Single drive pulse of the given peak amplitude, then readout."""
    return _back_to_back([(0.0, amplitude, 0.0, 0.0)], 0.0, sigma,
                         truncation_k, drag_beta, readout_duration)


def build_ramsey_sequence(delta_tau, drive_detuning, *, sigma, pi_amplitude,
                          truncation_k=DEFAULT_TRUNCATION_K, drag_beta=0.0,
                          readout_duration=DEFAULT_READOUT_DURATION):
    """pi/2 -- delta_tau -- pi/2, both about +x, carrier detuned by drive_detuning.

    delta_tau is the free gap between the truncated pulse supports, so
    delta_tau = 0 concatenates the two pi/2 pulses into a pi rotation.
    """
    if delta_tau < 0:
        raise ValueError("delta_tau must be >= 0")
    half_pi = 0.5 * pi_amplitude
    return _back_to_back([(0.0, half_pi, drive_detuning, 0.0),
                          (delta_tau, half_pi, drive_detuning, 0.0)],
                         0.0, sigma, truncation_k, drag_beta,
                         readout_duration)


def build_t1_sequence(delta_tau_w, *, sigma, pi_amplitude,
                      truncation_k=DEFAULT_TRUNCATION_K, drag_beta=0.0,
                      readout_duration=DEFAULT_READOUT_DURATION):
    """pi pulse, then readout delayed by delta_tau_w after the pulse ends."""
    if delta_tau_w < 0:
        raise ValueError("delta_tau_w must be >= 0")
    return _back_to_back([(0.0, pi_amplitude, 0.0, 0.0)], delta_tau_w, sigma,
                         truncation_k, drag_beta, readout_duration)


def build_echo_sequence(delta_tau, *, sigma, pi_amplitude, echo_phase=np.pi / 2,
                        truncation_k=DEFAULT_TRUNCATION_K, drag_beta=0.0,
                        readout_duration=DEFAULT_READOUT_DURATION):
    """pi/2_x -- delta_tau/2 -- pi_y -- delta_tau/2 -- pi/2_x.

    The refocusing pulse sits about +y by default (echo_phase = pi/2); the
    axis is exposed because the choice only matters once pulse errors do.
    """
    if delta_tau < 0:
        raise ValueError("delta_tau must be >= 0")
    half_pi = 0.5 * pi_amplitude
    half = 0.5 * delta_tau
    return _back_to_back([(0.0, half_pi, 0.0, 0.0),
                          (half, pi_amplitude, 0.0, echo_phase),
                          (half, half_pi, 0.0, 0.0)],
                         0.0, sigma, truncation_k, drag_beta,
                         readout_duration)


def sequence_envelopes(entries, t):
    """Summed (I, Q) drive envelopes of sequence entries on a time grid."""
    t = np.asarray(t, dtype=float)
    i_env = np.zeros(t.shape)
    q_env = np.zeros(t.shape)
    for entry in entries:
        base = envelope_value(entry.pulse, t)
        drag = drag_quadrature_value(entry.pulse, t) \
            if entry.pulse.drag_beta else 0.0
        c, s = np.cos(entry.carrier_phase), np.sin(entry.carrier_phase)
        # phase rotates the (I, Q) pair; DRAG rides 90 deg ahead of the carrier
        i_env += base * c - drag * s
        q_env += base * s + drag * c
    return i_env, q_env

