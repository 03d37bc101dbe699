"""The statistical reference for the two-level engine's OU dephasing: an
exact sampler of Ornstein-Uhlenbeck (OU) detuning paths, and a plain
Monte-Carlo stepper that runs each realization through
`dynamics._two_level_step` one step at a time.

The engine gives the exact ensemble mean of the scheme this stepper
samples: each pulse step runs at the path's value at its start, held
across it, and each idle gap is the noiseless exponential times the phase
of the path's exact integral over the gap.
"""

import numpy as np

from dotqed import dynamics


def ou_transition(dts, model):
    """(decay, kick scale) of the exact OU transition over each step of dts:
    x(t + dt) = x(t) decay + kick xi, xi standard normal."""
    decay = np.exp(-dts / model.tau_c)
    kick = model.sigma_delta * np.sqrt(np.maximum(0.0, 1.0 - decay ** 2))
    return decay, kick


def sample_ou_detuning(model, times, n, rng=None):
    """n exact-discretization OU paths at the given times, shape
    (n, n_times).

    x_{k+1} = x_k e^(-dt/tau) + sigma sqrt(1 - e^(-2 dt/tau)) xi_k from the
    stationary draw sigma * standard_normal(n) at times[0], as one
    `ou_block` over every step: the kicks are one (n_times - 1, n) draw,
    row k those of step k.  The exact transition makes non-uniform spacing
    free.
    """
    times = np.asarray(times, dtype=float)
    rng = np.random.default_rng(rng)
    out = np.empty((len(times), n))
    out[0] = model.sigma_delta * rng.standard_normal(n)
    ou_block(out, np.diff(times), model, rng)
    return out.T


def ou_block(path, dts, model, rng):
    """Fill path[1:m + 1] with the OU values after each step of dts, from
    the value in path[0] (`ou_transition`); the m kicks are one (m, n)
    draw, row k the kicks of step k."""
    m = len(dts)
    decay, kick = ou_transition(dts, model)
    rng.standard_normal(out=path[1:m + 1])
    path[1:m + 1] *= kick[:, None]
    for k in range(m):
        path[k + 1] += path[k] * decay[k]


def ou_gap(x, duration, model, rng):
    """(OU value at the end of a gap, integral of the path over the gap) for
    paths at x at its start, drawn jointly and exactly (Gillespie, Phys. Rev.
    E 54, 2084, 1996) from one (2, n) draw: row 0 gives the end value by the
    transition `ou_block` uses, row 1 the integral given both ends.  With
    u = duration / tau_c that integral has mean tau_c tanh(u/2) (x + x_end)
    and variance 2 sigma^2 tau_c^2 (u - 2 tanh(u/2)).  That difference is
    u^3 / 12 to leading order; below u = 0.05 its Taylor series (to u^9)
    replaces the cancelling subtraction, which keeps it to about 1e-13
    relative.
    """
    u = duration / model.tau_c
    decay, kick = ou_transition(duration, model)
    xi = rng.standard_normal((2, len(x)))
    x_end = decay * x + kick * xi[0]
    tanh = np.tanh(0.5 * u)
    if u < 0.05:
        u2 = u * u
        v = u * u2 / 12.0 * (1.0 - u2 / 10.0 * (1.0 - 17.0 * u2 / 168.0
                                                 * (1.0 - 31.0 * u2 / 306.0)))
    else:
        v = u - 2.0 * tanh
    integral = model.tau_c * (tanh * (x + x_end)
                              + model.sigma_delta * np.sqrt(2.0 * v) * xi[1])
    return x_end, integral


def monte_carlo(compiled, dec, model, n, seed):
    """(mean P_e, its standard error) at each run edge of compiled tables,
    over n realizations drawn from seed, each stepped alone from |g><g|.

    A pulse step is `dynamics._two_level_step` at detuning0 plus the
    path's value at the step's start, which then moves by the exact OU
    transition; an idle run is the exact decay and rotation at detuning0,
    its coherence turned by exp(2 pi i I), I the path's integral over the
    gap (`ou_gap`).
    """
    g1 = 2.0 * np.pi * dec.gamma1
    decay = 0.5 * g1 + 2.0 * np.pi * dec.gamma_phi
    rng = np.random.default_rng(seed)
    x = model.sigma_delta * rng.standard_normal(n)
    s = np.zeros((4, n))        # (p_g, Re rho_01, Im rho_01, p_e)
    s[0] = 1.0
    pe, sem = [0.0], [0.0]
    for lo, hi, key in compiled.runs:
        if key is None:
            elapsed = compiled.times[hi] - compiled.times[lo]
            x, integral = ou_gap(x, elapsed, model, rng)
            lost = s[3] * -np.expm1(-g1 * elapsed)
            coh = (s[1] + 1j * s[2]) * np.exp(
                elapsed * (2j * np.pi * compiled.detuning0 - decay)
                + 2j * np.pi * integral)
            s = np.array([s[0] + lost, coh.real, coh.imag, s[3] - lost])
        else:
            decays, kicks = ou_transition(compiled.dts[lo:hi], model)
            for k in range(lo, hi):
                s = dynamics._two_level_step(
                    s, compiled.u1[k], compiled.u2[k], compiled.u4[k],
                    np.pi * (compiled.detuning0 + x), compiled.dts[k], g1,
                    decay)
                x = x * decays[k - lo] + kicks[k - lo] * rng.standard_normal(n)
        pe.append(s[3].mean())
        sem.append(s[3].std(ddof=1) / np.sqrt(n))
    return np.array(pe), np.array(sem)
