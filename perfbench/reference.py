"""A fixed reference computation that tracks the host's speed.

On a shared virtual machine, speed drifts by tens of percent over seconds
and minutes.  While a worker runs, `Sampler` times a small reference
computation every INTERVAL_S seconds, from a timer signal, so the samples
fall inside the dotqed calls they accompany.  run.py scales measured
seconds by NOMINAL_S over the samples' mean time: a drift of the host moves
both and cancels, while a change in dotqed moves only the measured seconds.

The reference uses numpy only and never dotqed, so no change to dotqed
changes it.  It has three parts, shaped like dotqed's three kinds of work:
a Python loop of tiny array operations (the two-level RK4 stepper), small
dense complex matrix products (the Jaynes-Cummings Lindblad right-hand
side) and filtering of a long vector (readout synthesis and demodulation).
"""

import signal
import time

import numpy as np

# seconds between samples, and seconds of one reference computation on an
# unloaded 2-vCPU Xeon VM at 2.0 GHz
INTERVAL_S = 0.05
NOMINAL_S = 0.001

_rng = np.random.default_rng(20171106)
_GEN = 0.01 * _rng.standard_normal((4, 4))
_HAM = _rng.standard_normal((36, 36)) + 1j * _rng.standard_normal((36, 36))
_RHO = _rng.standard_normal((36, 36)) + 1j * _rng.standard_normal((36, 36))
_SIGNAL = _rng.standard_normal(12000)
_TAPS = np.hanning(32) / np.hanning(32).sum()


def _stepper():
    y = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(30):
        k1 = _GEN @ y
        k2 = _GEN @ (y + 0.5 * k1)
        k3 = _GEN @ (y + 0.5 * k2)
        k4 = _GEN @ (y + k3)
        y = y + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return y


def _dense():
    rho = _RHO
    for _ in range(10):
        rho = -1j * (_HAM @ rho - rho @ _HAM)
        rho /= np.abs(rho).max()
    return rho


def _vector():
    return np.convolve(_SIGNAL * np.cos(0.01 * np.arange(_SIGNAL.size)),
                       _TAPS, mode="same").sum()


PARTS = (_stepper, _dense, _vector)


def reference():
    """Seconds of each part of one reference computation."""
    out = []
    for part in PARTS:
        t0 = time.perf_counter()
        part()
        out.append(time.perf_counter() - t0)
    return out


class Sampler:
    """Times reference() every INTERVAL_S seconds while started.

    `samples` holds the seconds of each part of each reference computation; `clock()` is
    perf_counter minus the time spent sampling, so that calls timed with it
    do not count the samples taken inside them.
    """

    def __init__(self):
        self.samples = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference())
        self._spent += time.perf_counter() - t0

    def clock(self):
        return time.perf_counter() - self._spent

    def take(self):
        """Samples and seconds spent sampling since the last take()."""
        out = (self.samples, self._spent)
        self.samples, self._spent = [], 0.0
        return out

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
