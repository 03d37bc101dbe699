"""Least-squares extraction of coherence times and line parameters.

Thin wrappers around scipy's Levenberg-Marquardt: each fit owns its model,
initial-guess heuristic, and parameter naming, and returns a FitResult with
standard errors from the Jacobian at the solution.

Every fit runs in normalised units, so its answer does not depend on the
units of its axes.  The x axis is measured in units of max|x| and the data
in units of ptp(y); each fit declares, next to its parameter names, how a
parameter scales with the two: amplitude and offset as y, frequency as 1/x,
time constants, center and hwhm as x, phase not at all.  The solver sees
every parameter divided by its scale, and time constants (time_constant,
decay_time) as the log of that ratio, which keeps them positive.  Parameters
and standard errors are mapped back to the caller's units; a time constant T
fitted as log T reports the error T * sigma(log T).  A parameter with no
declaration is fitted as it stands.

Fits never silently return garbage: unresolvable inputs raise, and soft
trouble lands in FitResult.flags:

  "max-iterations"   the solver hit its evaluation cap;
  "ill-conditioned"  the normalised Jacobian has condition number above
                     MAX_JACOBIAN_CONDITION;
  "poor-fit"         the residual rms exceeds POOR_FIT_RESIDUAL_FRACTION
                     (0.1) of ptp(y): the model does not describe the data.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import least_squares

TWO_PI = 2.0 * np.pi

MAX_JACOBIAN_CONDITION = 1e8

# residual rms, as a fraction of the data's peak-to-peak, above which a fit
# is flagged "poor-fit"
POOR_FIT_RESIDUAL_FRACTION = 0.1


class _Scaling(NamedTuple):
    """A parameter's units: x_scale**x_power * y_scale**y_power."""
    x_power: int
    y_power: int
    log: bool = False       # fit log(parameter / scale); parameter > 0


_AS_Y = _Scaling(0, 1)                 # amplitude, offset
_AS_X = _Scaling(1, 0)                 # center, hwhm
_PER_X = _Scaling(-1, 0)               # frequency
_LOG_X = _Scaling(1, 0, log=True)      # time constants
_DIMENSIONLESS = _Scaling(0, 0)        # phase


@dataclass
class FitResult:
    params: dict
    std_errors: dict
    residual_rms: float
    converged: bool
    flags: list = field(default_factory=list)

    def to_dict(self):
        return {
            "params": {k: float(v) for k, v in self.params.items()},
            "std_errors": {k: float(v) for k, v in self.std_errors.items()},
            "residual_rms": float(self.residual_rms),
            "converged": bool(self.converged),
            "flags": list(self.flags),
        }


def _run_fit(model, names, p0, x, y):
    """Fit model(x, *params) to y starting from p0, in normalised units.

    names lists the parameters in model order; a dict maps each name to its
    _Scaling, and a name without one is dimensionless.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if len(x) < len(p0) + 1:
        raise ValueError(f"need at least {len(p0) + 1} points to fit "
                         f"{len(names)} parameters")

    scalings = [names.get(n, _DIMENSIONLESS) if isinstance(names, dict)
                else _DIMENSIONLESS for n in names]
    x_scale = float(np.max(np.abs(x))) or 1.0
    y_span = float(np.ptp(y))
    y_scale = y_span or float(np.max(np.abs(y))) or 1.0
    scale = np.array([x_scale ** s.x_power * y_scale ** s.y_power
                      for s in scalings])
    log = np.array([s.log for s in scalings], dtype=bool)

    q0 = np.asarray(p0, dtype=float) / scale
    if np.any(q0[log] <= 0):
        raise ValueError("time constants need a positive initial guess")
    q0[log] = np.log(q0[log])

    def params_of(q):
        p = q.copy()
        p[log] = np.exp(q[log])
        return p * scale

    def resid(q):
        return (model(x, *params_of(q)) - y) / y_scale

    res = least_squares(resid, q0, method="lm", xtol=1e-10, ftol=1e-10,
                        max_nfev=200 * (len(p0) + 1))
    flags = []
    if res.status == 0:
        flags.append("max-iterations")

    dof = max(1, len(x) - len(p0))
    s2 = float(np.sum(res.fun ** 2)) / dof
    jtj = res.jac.T @ res.jac
    try:
        cond = np.linalg.cond(jtj)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > MAX_JACOBIAN_CONDITION ** 2:
        # cond(J^T J) ~ cond(J)^2, hence the squared threshold
        flags.append("ill-conditioned")
    cov = s2 * np.linalg.pinv(jtj)
    params = params_of(res.x)
    # d p / d q is scale for a linear parameter and p for a log one
    errs = np.sqrt(np.maximum(0.0, np.diag(cov))) \
        * np.abs(np.where(log, params, scale))

    residual_rms = float(np.sqrt(np.mean(res.fun ** 2))) * y_scale
    if residual_rms > POOR_FIT_RESIDUAL_FRACTION * y_span:
        flags.append("poor-fit")

    return FitResult(
        params=dict(zip(names, (float(v) for v in params))),
        std_errors=dict(zip(names, (float(v) for v in errs))),
        residual_rms=residual_rms,
        converged=bool(res.success and res.status != 0),
        flags=flags,
    )


# ------------------------------------------------------------ decay fits

def _exp_decay(t, amplitude, time_constant, offset):
    return amplitude * np.exp(-t / time_constant) + offset


def fit_exponential_decay(t, y):
    """A exp(-t/T) + C; params amplitude, time_constant, offset."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    span = float(t.max() - t.min())
    if span <= 0:
        raise ValueError("time axis has no extent")
    a0 = float(y[0] - y[-1])
    if abs(a0) < 1e-300:
        a0 = float(np.ptp(y)) or 1.0
    p0 = [a0, span / 3.0, float(y[-1])]
    return _run_fit(_exp_decay, {"amplitude": _AS_Y, "time_constant": _LOG_X,
                                 "offset": _AS_Y}, p0, t, y)


def _spectral_peak_frequency(t, y):
    """Dominant nonzero frequency of y(t); assumes near-uniform sampling."""
    dt = float(np.mean(np.diff(t)))
    z = np.asarray(y, dtype=float) - np.mean(y)
    spec = np.abs(np.fft.rfft(z))
    if len(spec) < 2 or not np.any(spec[1:] > 0):
        return None
    k = 1 + int(np.argmax(spec[1:]))
    return float(np.fft.rfftfreq(len(z), dt)[k])


def _damped_cosine_factory(envelope):
    if envelope == "exp":
        def model(t, amplitude, decay_time, frequency, phase, offset):
            return amplitude * np.exp(-t / decay_time) \
                * np.cos(TWO_PI * frequency * t + phase) + offset
    elif envelope == "gauss":
        def model(t, amplitude, decay_time, frequency, phase, offset):
            return amplitude * np.exp(-(t / decay_time) ** 2) \
                * np.cos(TWO_PI * frequency * t + phase) + offset
    elif envelope == "none":
        def model(t, amplitude, frequency, phase, offset):
            return amplitude * np.cos(TWO_PI * frequency * t + phase) + offset
    else:
        raise ValueError(f"unknown envelope {envelope!r}")
    return model


def fit_damped_cosine(t, y, envelope="exp"):
    """A env(t/T) cos(2 pi f t + phi) + C.

    envelope: "exp" (exp(-t/T)), "gauss" (exp(-(t/T)^2)), or "none" (no
    decay parameter).  The frequency guess comes from the spectral peak;
    raises ValueError when the data are flat or carry no resolvable
    oscillation.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    span = float(t.max() - t.min())
    if span <= 0:
        raise ValueError("time axis has no extent")
    if np.ptp(y) < 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        raise ValueError("data are flat; no oscillation to fit")
    f0 = _spectral_peak_frequency(t, y)
    if f0 is None or f0 <= 0:
        raise ValueError("no resolvable oscillation frequency in the data")

    model = _damped_cosine_factory(envelope)
    a0 = 0.5 * float(np.ptp(y))
    c0 = float(np.mean(y))
    names = {"amplitude": _AS_Y, "decay_time": _LOG_X, "frequency": _PER_X,
             "phase": _DIMENSIONLESS, "offset": _AS_Y}
    p0 = [a0, span / 2.0, f0, 0.0, c0]
    if envelope == "none":
        del names["decay_time"]
        del p0[1]
    return _run_fit(model, names, p0, t, y)


# ------------------------------------------------------------- line fits

def _lorentzian(x, amplitude, center, hwhm, offset):
    return amplitude / (1.0 + ((x - center) / hwhm) ** 2) + offset


def fit_lorentzian(x, y):
    """A / (1 + ((x - x0)/w)^2) + C; w is the half width at half maximum."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c0 = float(np.median(y))
    k = int(np.argmax(np.abs(y - c0)))
    a0 = float(y[k] - c0)
    if a0 == 0:
        raise ValueError("data are flat; no line to fit")
    half = c0 + 0.5 * a0
    above = np.nonzero((y - half) * np.sign(a0) > 0)[0]
    if len(above) >= 2:
        w0 = 0.5 * abs(x[above[-1]] - x[above[0]])
    else:
        w0 = 0.1 * float(np.ptp(x))
    w0 = w0 or 0.1 * float(np.ptp(x)) or 1.0
    p0 = [a0, float(x[k]), w0, c0]
    res = _run_fit(_lorentzian, {"amplitude": _AS_Y, "center": _AS_X,
                                 "hwhm": _AS_X, "offset": _AS_Y}, p0, x, y)
    res.params["hwhm"] = abs(res.params["hwhm"])
    return res


# ------------------------------------------------- power extrapolations

@dataclass(frozen=True)
class LinewidthExtrapolation:
    gamma2: float             # Hz, zero-power half width
    t2: float                 # s, 1 / (2 pi gamma2)
    slope: float
    intercept: float
    mode: str


def extrapolate_zero_power_linewidth(drive_powers, linewidths, mode="squared"):
    """Zero-power qubit linewidth from a power sweep of spectroscopy HWHMs.

    mode "squared" fits hwhm^2 = a P + b, which is exact for saturation
    broadening (hwhm = gamma2 sqrt(1 + s), s proportional to power); mode
    "linear" fits hwhm = a P + b, adequate for s << 1.  Returns gamma2 and
    the matching T2 = 1/(2 pi gamma2).
    """
    p = np.asarray(drive_powers, dtype=float)
    w = np.asarray(linewidths, dtype=float)
    if len(p) < 2:
        raise ValueError("need at least two power points")
    if mode == "squared":
        slope, intercept = np.polyfit(p, w ** 2, 1)
        if intercept <= 0:
            raise ValueError("extrapolated squared linewidth is not positive; "
                             "sweep does not reach the low-power regime")
        gamma2 = float(np.sqrt(intercept))
    elif mode == "linear":
        slope, intercept = np.polyfit(p, w, 1)
        if intercept <= 0:
            raise ValueError("extrapolated linewidth is not positive; "
                             "sweep does not reach the low-power regime")
        gamma2 = float(intercept)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return LinewidthExtrapolation(gamma2=gamma2, t2=1.0 / (TWO_PI * gamma2),
                                  slope=float(slope), intercept=float(intercept),
                                  mode=mode)


def fit_rabi_sweep(amplitudes, populations):
    """Rotation-angle calibration from a drive-amplitude sweep.

    Fits an undamped cosine P(A) = C + B cos(2 pi r A + phi); r is the
    rotation rate in cycles per amplitude unit, so a pi pulse sits at
    A = 1/(2 r) when phi = 0.
    """
    return fit_damped_cosine(amplitudes, populations, envelope="none")
