"""Least-squares extraction of coherence times and line parameters.

Each fit owns its model, initial-guess heuristic, and parameter naming, and
returns a FitResult with standard errors from the Jacobian at the solution.
The solver is a numpy port of MINPACK's Levenberg-Marquardt `lmder` (More,
"The Levenberg-Marquardt algorithm: implementation and theory", Lecture
Notes in Mathematics 630, 1978): Householder QR with column pivoting
(_qrfac), the trust-region parameter (_lmpar, _qrsolv) and the step loop
(_lmder).  It takes the steps that scipy's least_squares(method="lm") takes
(the same forward-difference Jacobian, scaling from the Jacobian's column
norms, factor 100 and gtol 1e-8) but sums in numpy's order, not MINPACK's,
so its results agree with scipy's to rounding.

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

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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

    names is a dict that maps each parameter, in model order, to its
    _Scaling.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if len(x) < len(p0) + 1:
        raise ValueError(f"need at least {len(p0) + 1} points to fit "
                         f"{len(names)} parameters")

    scalings = list(names.values())
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

    res = _lmder(resid, q0, xtol=1e-10, ftol=1e-10,
                 max_nfev=200 * (len(p0) + 1))
    flags = []
    if res.info == 5:
        flags.append("max-iterations")

    dof = max(1, len(x) - len(p0))
    s2 = float(np.sum(res.fvec ** 2)) / dof
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

    residual_rms = float(np.sqrt(np.mean(res.fvec ** 2))) * y_scale
    if residual_rms > POOR_FIT_RESIDUAL_FRACTION * y_span:
        flags.append("poor-fit")

    return FitResult(
        params=dict(zip(names, (float(v) for v in params))),
        std_errors=dict(zip(names, (float(v) for v in errs))),
        residual_rms=residual_rms,
        converged=res.info <= 4,
        flags=flags,
    )


# ------------------------------------------- Levenberg-Marquardt (MINPACK)

_EPS = float(np.finfo(float).eps)
_DWARF = float(np.finfo(float).tiny)
_GTOL = 1e-8            # scipy's default gradient tolerance
_FACTOR = 100.0         # first trust radius, in units of the scaled |x0|


class _LMResult(NamedTuple):
    x: np.ndarray           # the solution
    fvec: np.ndarray        # residuals at x
    jac: np.ndarray         # forward-difference Jacobian at x
    info: int               # 1-4: converged, numbered as in MINPACK;
    #                         5: max_nfev residual evaluations reached
    nfev: int               # residual evaluations, Jacobian columns aside


def _jacobian(fun, x, f):
    """Forward differences at x, where fun(x) = f; returns the transpose.

    The step is sqrt(eps) sign(x) max(1, |x|), with sign(0) = +1, and each
    column is divided by the step as represented, (x + h) - x.
    """
    h = math.sqrt(_EPS) * np.where(x >= 0, 1.0, -1.0) \
        * np.maximum(1.0, np.abs(x))
    jt = np.empty((len(x), len(f)))
    for j in range(len(x)):
        xh = x.copy()
        xh[j] = x[j] + h[j]
        jt[j] = (fun(xh) - f) / ((x[j] + h[j]) - x[j])
    return jt


def _norm(v):
    return math.sqrt(float(v @ v))


def _qrfac(at):
    """Householder QR with column pivoting of A, given as at = A^T, in place.

    A is (m, n), and at's rows are its columns.  Returns (ipvt, rdiag,
    acnorm) as lists: A[:, ipvt] = Q R, R's diagonal and the column norms
    of A.  Row j of at then holds R[:j, j] and, from column j on, the
    Householder vector of step j.
    """
    n, m = at.shape
    acnorm = np.sqrt(np.einsum("ij,ij->i", at, at)).tolist()
    rdiag = list(acnorm)
    wa = list(acnorm)
    ipvt = list(range(n))
    for j in range(min(m, n)):
        # bring the column of largest remaining norm into the pivot
        kmax = max(range(j, n), key=rdiag.__getitem__)
        if kmax != j:
            at[[j, kmax]] = at[[kmax, j]]
            rdiag[kmax] = rdiag[j]
            wa[kmax] = wa[j]
            ipvt[j], ipvt[kmax] = ipvt[kmax], ipvt[j]
        v = at[j, j:]
        ajnorm = _norm(v)
        if ajnorm != 0.0:
            if v[0] < 0.0:
                ajnorm = -ajnorm
            v /= ajnorm
            v[0] += 1.0
            # reflect the remaining columns and downdate their norms
            rest = at[j + 1:, j:]
            rest -= ((rest @ v) / v[0])[:, None] * v
            for k in range(j + 1, n):
                if rdiag[k] != 0.0:
                    t = at[k, j] / rdiag[k]
                    rdiag[k] *= math.sqrt(max(0.0, 1.0 - t * t))
                    if 0.05 * (rdiag[k] / wa[k]) ** 2 <= _EPS:
                        rdiag[k] = wa[k] = _norm(at[k, j + 1:])
        rdiag[j] = -ajnorm
    return ipvt, rdiag, acnorm


def _qrsolv(r, ipvt, diag, qtb):
    """Least-squares solution z of J z = b, D z = 0, given J P = Q R.

    r is R as n lists, qtb the first n components of Q^T b, and diag the
    diagonal of D.  Givens rotations reduce (R; P^T D P) to S, with
    P^T (J^T J + D D) P = S^T S; r keeps R in its upper triangle and gets
    S's strict upper triangle, transposed, in its strict lower one.
    Returns (z, S's diagonal).
    """
    n = len(qtb)
    for j in range(n):
        for i in range(j + 1, n):
            r[i][j] = r[j][i]
    rdiag = [r[j][j] for j in range(n)]
    wa = list(qtb)
    sdiag = [0.0] * n
    for j in range(n):
        d = diag[ipvt[j]]
        if d != 0.0:
            sdiag[j + 1:] = [0.0] * (n - j - 1)
            sdiag[j] = d
            # the row of D modifies one element of (Q^T b, 0) past the
            # first n, which starts at zero
            qtbpj = 0.0
            for k in range(j, n):
                if sdiag[k] == 0.0:
                    continue
                if abs(r[k][k]) < abs(sdiag[k]):
                    cotan = r[k][k] / sdiag[k]
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * cotan ** 2)
                    cos = sin * cotan
                else:
                    tan = sdiag[k] / r[k][k]
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * tan ** 2)
                    sin = cos * tan
                r[k][k] = cos * r[k][k] + sin * sdiag[k]
                wa[k], qtbpj = (cos * wa[k] + sin * qtbpj,
                                -sin * wa[k] + cos * qtbpj)
                for i in range(k + 1, n):
                    r[i][k], sdiag[i] = (cos * r[i][k] + sin * sdiag[i],
                                         -sin * r[i][k] + cos * sdiag[i])
        sdiag[j] = r[j][j]
        r[j][j] = rdiag[j]
    # back-substitute; a singular S gives a least-squares solution
    nsing = next((j for j in range(n) if sdiag[j] == 0.0), n)
    wa[nsing:] = [0.0] * (n - nsing)
    for j in reversed(range(nsing)):
        s = sum(r[i][j] * wa[i] for i in range(j + 1, nsing))
        wa[j] = (wa[j] - s) / sdiag[j]
    z = [0.0] * n
    for j, l in enumerate(ipvt):
        z[l] = wa[j]
    return z, sdiag


def _lmpar(r, ipvt, diag, qtb, delta, par):
    """Levenberg-Marquardt parameter par and step z for trust radius delta.

    z solves J z = b, sqrt(par) D z = 0 in the least-squares sense, with
    |D z| within 10% of delta, or par = 0 and |D z| <= 1.1 delta.  r, ipvt
    and qtb are as for _qrsolv; par is the previous value, a first guess.
    """
    n = len(qtb)
    # the Gauss-Newton step; least squares if R is singular
    nsing = next((j for j in range(n) if r[j][j] == 0.0), n)
    wa1 = [qtb[j] if j < nsing else 0.0 for j in range(n)]
    for j in reversed(range(nsing)):
        wa1[j] /= r[j][j]
        for i in range(j):
            wa1[i] -= r[i][j] * wa1[j]
    z = [0.0] * n
    for j, l in enumerate(ipvt):
        z[l] = wa1[j]
    wa2 = [d * zj for d, zj in zip(diag, z)]
    dxnorm = math.hypot(*wa2)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, z

    # a lower bound parl (the Newton step at par = 0, if R has full rank)
    # and an upper bound paru for the zero of |D z(par)| - delta
    parl = 0.0
    if nsing == n:
        wa1 = [diag[l] * (wa2[l] / dxnorm) for l in ipvt]
        for j in range(n):
            s = sum(r[i][j] * wa1[i] for i in range(j))
            wa1[j] = (wa1[j] - s) / r[j][j]
        t = math.hypot(*wa1)
        parl = ((fp / delta) / t) / t
    wa1 = [sum(r[i][j] * qtb[i] for i in range(j + 1)) / diag[ipvt[j]]
           for j in range(n)]
    gnorm = math.hypot(*wa1)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm

    for iteration in range(1, 11):
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        root = math.sqrt(par)
        z, sdiag = _qrsolv(r, ipvt, [root * d for d in diag], qtb)
        wa2 = [d * zj for d, zj in zip(diag, z)]
        dxnorm = math.hypot(*wa2)
        fp_old, fp = fp, dxnorm - delta
        if (abs(fp) <= 0.1 * delta or iteration == 10
                or (parl == 0.0 and fp <= fp_old < 0.0)):
            break
        # Newton correction
        wa1 = [diag[l] * (wa2[l] / dxnorm) for l in ipvt]
        for j in range(n):
            wa1[j] /= sdiag[j]
            for i in range(j + 1, n):
                wa1[i] -= r[i][j] * wa1[j]
        t = math.hypot(*wa1)
        parc = ((fp / delta) / t) / t
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, z


def _lmder(fun, x0, *, ftol, xtol, max_nfev):
    """Minimise |fun(x)|^2 from x0 by Levenberg-Marquardt (MINPACK lmder).

    Converged means info 1: the actual and predicted relative reductions
    of the sum of squares are at most ftol; 2: the trust radius is at most
    xtol of the scaled |x|; 3: both; 4: no column of the Jacobian has a
    cosine above _GTOL with the residuals.  MINPACK's exits 6-8 stop on
    tolerances below machine epsilon; with ftol, xtol and _GTOL above it,
    exits 1, 2 and 4 come first, so they are left out.
    """
    x = np.array(x0, dtype=float)
    fvec = fun(x)
    if not np.all(np.isfinite(fvec)):
        raise ValueError("residuals are not finite at the initial guess")
    nfev = 1
    fnorm = _norm(fvec)
    n = len(x)

    def scaled_norm(v):
        return math.hypot(*(d * vj for d, vj in zip(diag, v)))

    par = 0.0
    first = True            # no step taken yet
    info = 0
    while not info:
        at = _jacobian(fun, x, fvec)
        ipvt, rdiag, acnorm = _qrfac(at)
        if first:
            diag = [c if c != 0.0 else 1.0 for c in acnorm]
            xnorm = scaled_norm(x.tolist())
            delta = _FACTOR * xnorm or _FACTOR
        # Q^T fvec from the Householder vectors; R with its diagonal
        qtf = fvec.copy()
        for j in range(n):
            if at[j, j] != 0.0:
                qtf[j:] += at[j, j:] * (-(at[j, j:] @ qtf[j:]) / at[j, j])
        qtf = qtf[:n].tolist()
        r = at[:, :n].T.tolist()
        for j in range(n):
            r[j][j] = rdiag[j]
        gnorm = 0.0
        if fnorm != 0.0:
            for j, l in enumerate(ipvt):
                if acnorm[l] != 0.0:
                    s = sum(r[i][j] * (qtf[i] / fnorm) for i in range(j + 1))
                    gnorm = max(gnorm, abs(s / acnorm[l]))
        if gnorm <= _GTOL:
            info = 4
            break
        diag = [max(d, c) for d, c in zip(diag, acnorm)]
        while True:
            par, z = _lmpar(r, ipvt, diag, qtf, delta, par)
            step = [-zj for zj in z]
            trial = x + np.array(step)
            pnorm = scaled_norm(step)
            if first:
                delta = min(delta, pnorm)
            ftrial = fun(trial)
            nfev += 1
            fnorm1 = _norm(ftrial)
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm \
                else -1.0
            # reductions of the sum of squares, actual and as the linear
            # model predicts; the model's directional derivative
            temp1 = math.hypot(*(sum(r[i][j] * step[ipvt[j]]
                                     for j in range(i, n))
                                 for i in range(n))) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1 ** 2 + temp2 ** 2 / 0.5
            dirder = -(temp1 ** 2 + temp2 ** 2)
            ratio = actred / prered if prered != 0.0 else 0.0
            # update the trust radius
            if ratio <= 0.25:
                t = 0.5 if actred >= 0.0 \
                    else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or t < 0.1:
                    t = 0.1
                delta = t * min(delta, pnorm / 0.1)
                par /= t
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            # a step that achieves 1e-4 of its predicted reduction is taken
            accepted = ratio >= 1e-4
            if accepted:
                x, fvec, fnorm = trial, ftrial, fnorm1
                xnorm = scaled_norm(x.tolist())
                first = False
            f_conv = (abs(actred) <= ftol and prered <= ftol
                      and 0.5 * ratio <= 1.0)
            x_conv = delta <= xtol * xnorm
            if f_conv or x_conv or nfev >= max_nfev:
                info = (3 if x_conv else 1) if f_conv else (2 if x_conv else 5)
                break
            if accepted:
                break
    return _LMResult(x, fvec, _jacobian(fun, x, fvec).T, info, nfev)


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
