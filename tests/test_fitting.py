import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import least_squares

from dotqed import fitting


def test_exponential_decay_exact_recovery():
    t = np.linspace(0.0, 200e-9, 60)
    y = 0.93 * np.exp(-t / 42.3e-9) + 0.04
    fit = fitting.fit_exponential_decay(t, y)
    assert fit.converged and not fit.flags
    npt.assert_allclose(fit.params["time_constant"], 42.3e-9, rtol=1e-9)
    npt.assert_allclose(fit.params["amplitude"], 0.93, rtol=1e-8)
    npt.assert_allclose(fit.params["offset"], 0.04, atol=1e-9)
    assert fit.residual_rms < 1e-10
    p = fit.params
    npt.assert_allclose(
        p["amplitude"] * np.exp(-t / p["time_constant"]) + p["offset"], y,
        atol=1e-9)


def test_exponential_decay_with_noise(rng):
    t = np.linspace(0.0, 150e-9, 200)
    y = np.exp(-t / 23.4e-9) + rng.normal(0.0, 0.01, len(t))
    fit = fitting.fit_exponential_decay(t, y)
    npt.assert_allclose(fit.params["time_constant"], 23.4e-9, rtol=0.03)
    # the reported standard error covers the actual miss
    miss = abs(fit.params["time_constant"] - 23.4e-9)
    assert miss < 5 * fit.std_errors["time_constant"]


def test_std_errors_shrink_with_sample_size(rng):
    def one(n):
        t = np.linspace(0.0, 150e-9, n)
        y = np.exp(-t / 23.4e-9) + rng.normal(0.0, 0.01, n)
        return fitting.fit_exponential_decay(t, y).std_errors["time_constant"]

    coarse = np.mean([one(50) for _ in range(8)])
    fine = np.mean([one(800) for _ in range(8)])
    npt.assert_allclose(coarse / fine, 4.0, rtol=0.3)


def test_damped_cosine_envelopes():
    t = np.linspace(0.0, 120e-9, 241)
    for envelope, env_vals in [
            ("exp", np.exp(-t / 30e-9)),
            ("gauss", np.exp(-((t / 30e-9) ** 2))),
    ]:
        y = 0.45 * env_vals * np.cos(2 * np.pi * 100e6 * t + 0.3) + 0.5
        fit = fitting.fit_damped_cosine(t, y, envelope=envelope)
        assert fit.converged
        npt.assert_allclose(fit.params["frequency"], 100e6, rtol=1e-7)
        npt.assert_allclose(fit.params["decay_time"], 30e-9, rtol=1e-6)
        npt.assert_allclose(fit.params["phase"], 0.3, atol=1e-6)
    with pytest.raises(ValueError, match="envelope"):
        fitting.fit_damped_cosine(t, np.cos(t * 1e8), envelope="lorentz")


def test_damped_cosine_rejects_flat_and_short_data():
    t = np.linspace(0.0, 100e-9, 101)
    with pytest.raises(ValueError, match="flat"):
        fitting.fit_damped_cosine(t, np.full(101, 0.5))
    # five envelope parameters cannot come out of three samples
    with pytest.raises(ValueError, match="at least"):
        fitting.fit_damped_cosine(t[:3], np.array([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("fit_fn", [fitting.fit_damped_cosine,
                                    fitting.fit_rabi_sweep])
def test_oscillation_fits_reject_zero_extent_axis(fit_fn):
    y = np.cos(np.linspace(0.0, 4.0 * np.pi, 20))
    with pytest.raises(ValueError, match="time axis has no extent"):
        fit_fn(np.zeros(20), y)


def test_lorentzian_peak_and_dip():
    x = np.linspace(5.0e9, 5.14e9, 141)
    peak = 0.4 / (1.0 + ((x - 5.07e9) / 8e6) ** 2) + 0.05
    fit = fitting.fit_lorentzian(x, peak)
    npt.assert_allclose(fit.params["center"], 5.07e9, rtol=1e-10)
    npt.assert_allclose(fit.params["hwhm"], 8e6, rtol=1e-8)
    npt.assert_allclose(fit.params["amplitude"], 0.4, rtol=1e-8)

    dip = 1.0 - 0.7 / (1.0 + ((x - 5.065e9) / 15e6) ** 2)
    fit = fitting.fit_lorentzian(x, dip)
    npt.assert_allclose(fit.params["center"], 5.065e9, rtol=1e-10)
    npt.assert_allclose(fit.params["amplitude"], -0.7, rtol=1e-8)
    # hwhm is reported positive regardless of the solver's sign choice
    assert fit.params["hwhm"] > 0
    with pytest.raises(ValueError, match="flat"):
        fitting.fit_lorentzian(x, np.full_like(x, 0.2))


def test_zero_power_extrapolation_squared_is_exact():
    gamma1, gamma2 = 3.7625e6, 6.80155e6
    omegas = np.sqrt(np.array([0.05, 0.1, 0.2, 0.3, 0.4])
                     * gamma1 * gamma2)
    powers = omegas ** 2
    widths = gamma2 * np.sqrt(1.0 + powers / (gamma1 * gamma2))
    out = fitting.extrapolate_zero_power_linewidth(powers, widths,
                                                   mode="squared")
    # hwhm^2 is exactly linear in drive power, so the intercept is exact
    npt.assert_allclose(out.gamma2, gamma2, rtol=1e-12)
    npt.assert_allclose(out.t2, 1.0 / (2 * np.pi * gamma2), rtol=1e-12)

    lin = fitting.extrapolate_zero_power_linewidth(powers, widths,
                                                   mode="linear")
    # the linear model overshoots on a saturating curve but lands close
    # at these low saturations
    npt.assert_allclose(lin.gamma2, gamma2, rtol=0.05)
    assert lin.gamma2 != out.gamma2

    with pytest.raises(ValueError, match="mode"):
        fitting.extrapolate_zero_power_linewidth(powers, widths, mode="cubic")
    with pytest.raises(ValueError, match="not positive"):
        fitting.extrapolate_zero_power_linewidth(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_rabi_sweep_pi_amplitude():
    amps = np.linspace(0.0, 2.0e9, 81)
    rate = 1.0 / 1.6718382e9          # cycles per Hz of drive amplitude
    pops = 0.5 * (1.0 - np.cos(2 * np.pi * rate * amps))
    fit = fitting.fit_rabi_sweep(amps, pops)
    npt.assert_allclose(abs(fit.params["frequency"]), rate, rtol=1e-9)
    a_pi = 0.5 / abs(fit.params["frequency"])
    npt.assert_allclose(a_pi, 0.8359191e9, rtol=1e-6)


def _unscaled(*names):
    """`_run_fit` names with every parameter dimensionless."""
    return dict.fromkeys(names, fitting._DIMENSIONLESS)


def test_ill_conditioned_fit_is_flagged():
    # two exactly redundant offset parameters: the Jacobian is singular
    def degenerate(x, a, b, c):
        return a * x + b + c

    fit = fitting._run_fit(degenerate, _unscaled("a", "b", "c"),
                           [1.0, 0.5, 0.5], np.linspace(0, 1, 20),
                           np.linspace(0, 1, 20) * 2.0 + 1.0)
    assert "ill-conditioned" in fit.flags
    # the pseudoinverse covariance still yields finite standard errors
    assert all(np.isfinite(v) for v in fit.std_errors.values())


def test_run_fit_input_guards():
    with pytest.raises(ValueError, match="equal length"):
        fitting._run_fit(lambda x, a: a * x, _unscaled("a"), [1.0],
                         np.arange(4), np.arange(5))
    with pytest.raises(ValueError, match="at least"):
        fitting.fit_exponential_decay(np.array([0.0, 1.0, 2.0]),
                                      np.array([1.0, 0.5, 0.2]))
    with pytest.raises(ValueError, match="extent"):
        fitting.fit_exponential_decay(np.zeros(10), np.ones(10))


def test_poor_fit_flag(rng):
    # an exponential decay cannot follow two periods of a cosine
    t = np.linspace(0.0, 100e-9, 101)
    cosine = 0.5 + 0.5 * np.cos(2 * np.pi * 20e6 * t)
    fit = fitting.fit_exponential_decay(t, cosine)
    assert "poor-fit" in fit.flags
    assert fit.residual_rms > (fitting.POOR_FIT_RESIDUAL_FRACTION
                               * np.ptp(cosine))

    # noisy data that the model does describe stay unflagged
    t = np.linspace(0.0, 150e-9, 200)
    decay = np.exp(-t / 23.4e-9) + rng.normal(0.0, 0.01, len(t))
    assert "poor-fit" not in fitting.fit_exponential_decay(t, decay).flags
    t = np.linspace(0.0, 120e-9, 241)
    fringe = (0.45 * np.exp(-t / 30e-9) * np.cos(2 * np.pi * 100e6 * t)
              + 0.5 + rng.normal(0.0, 0.02, len(t)))
    assert "poor-fit" not in fitting.fit_damped_cosine(t, fringe).flags


# how each fitted parameter maps under x -> c x
AXIS_POWER = {"amplitude": 0, "offset": 0, "phase": 0, "frequency": -1,
              "time_constant": 1, "decay_time": 1, "center": 1, "hwhm": 1}


# each public fit on noiseless data of its model
FIT_CASES = [
    (fitting.fit_exponential_decay, np.linspace(0.0, 200e-9, 60),
     lambda t: 0.93 * np.exp(-t / 42.3e-9) + 0.04),
    (lambda t, y: fitting.fit_damped_cosine(t, y, envelope="exp"),
     np.linspace(0.0, 120e-9, 241),
     lambda t: 0.45 * np.exp(-t / 30e-9) * np.cos(2 * np.pi * 1e8 * t + 0.3)
     + 0.5),
    (lambda t, y: fitting.fit_damped_cosine(t, y, envelope="gauss"),
     np.linspace(0.0, 120e-9, 241),
     lambda t: 0.45 * np.exp(-(t / 30e-9) ** 2)
     * np.cos(2 * np.pi * 1e8 * t + 0.3) + 0.5),
    (lambda t, y: fitting.fit_damped_cosine(t, y, envelope="none"),
     np.linspace(0.0, 120e-9, 241),
     lambda t: 0.45 * np.cos(2 * np.pi * 1e8 * t + 0.3) + 0.5),
    (fitting.fit_lorentzian, np.linspace(5.0e9, 5.14e9, 141),
     lambda f: 0.4 / (1.0 + ((f - 5.07e9) / 8e6) ** 2) + 0.05),
    (fitting.fit_rabi_sweep, np.linspace(0.0, 2.0e9, 81),
     lambda a: 0.5 * (1.0 - np.cos(2 * np.pi * a / 1.6718382e9))),
]
FIT_IDS = ["exp-decay", "cosine-exp", "cosine-gauss", "cosine-none",
           "lorentzian", "rabi"]


@pytest.mark.parametrize("fit_fn, x, y", FIT_CASES, ids=FIT_IDS)
def test_fits_are_invariant_under_axis_scaling(fit_fn, x, y):
    data = y(x)
    ref = fit_fn(x, data)
    assert ref.converged and not ref.flags
    for k in range(-12, 13):
        c = 10.0 ** k
        fit = fit_fn(c * x, data)
        assert fit.flags == ref.flags, f"c = {c:g}"
        for name, value in ref.params.items():
            power = AXIS_POWER[name]
            # absolute slack only for the axis-free parameters, whose
            # values can sit at zero (a phase of 1e-16 rad)
            npt.assert_allclose(fit.params[name] / c ** power, value,
                                rtol=1e-9, atol=1e-12 if power == 0 else 0,
                                err_msg=f"{name} at c = {c:g}")


# MINPACK's info from least_squares' status, which renumbers it
_MINPACK_INFO = {0: 5, 1: 4, 2: 1, 3: 2, 4: 3}


def _scipy_lmder(fun, x0, *, ftol, xtol, max_nfev):
    res = least_squares(fun, x0, method="lm", ftol=ftol, xtol=xtol,
                        max_nfev=max_nfev)
    return fitting._LMResult(res.x, res.fun, res.jac,
                             _MINPACK_INFO[res.status], res.nfev)


def _fit_with(monkeypatch, engine, fit):
    """fit() with engine in place of _lmder; (FitResult, engine results)."""
    seen = []

    def spy(fun, x0, **kw):
        seen.append(engine(fun, x0, **kw))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(fitting, "_lmder", spy)
        return fit(), seen


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("fit_fn, x, y", FIT_CASES + [
    (fitting.fit_exponential_decay, np.linspace(0.0, 150e-9, 200),
     lambda t: np.exp(-t / 23.4e-9)
     + np.random.default_rng(5).normal(0.0, 0.01, len(t)))],
    ids=FIT_IDS + ["exp-decay-noisy"])
def test_lm_port_takes_scipys_steps(monkeypatch, fit_fn, x, y, c):
    # the port against scipy's least_squares(method="lm"), whose MINPACK
    # lmder it follows: same evaluations, exit, and solution to rounding
    ours, [got] = _fit_with(monkeypatch, fitting._lmder,
                            lambda: fit_fn(c * x, y(x)))
    ref, [want] = _fit_with(monkeypatch, _scipy_lmder,
                            lambda: fit_fn(c * x, y(x)))
    assert got.nfev == want.nfev
    assert got.info < 5 and want.info < 5
    assert (ours.converged, ours.flags) == (ref.converged, ref.flags)
    npt.assert_allclose(got.x, want.x, rtol=0, atol=1e-9)


_T_POOR = np.linspace(0.0, 100e-9, 101)
_T_FRINGE = np.linspace(0.0, 120e-9, 241)
_F_LINE = np.linspace(5.0e9, 5.14e9, 141)
_FRINGE_NAMES = {"amplitude": fitting._AS_Y, "decay_time": fitting._LOG_X,
                 "frequency": fitting._PER_X, "phase": fitting._DIMENSIONLESS,
                 "offset": fitting._AS_Y}
_LINE_NAMES = {"amplitude": fitting._AS_Y, "center": fitting._AS_X,
               "hwhm": fitting._AS_X, "offset": fitting._AS_Y}


@pytest.mark.parametrize("fit", [
    # an exponential on a cosine: 27 evaluations, ending on ftol
    lambda: fitting.fit_exponential_decay(
        _T_POOR, 0.5 + 0.5 * np.cos(2 * np.pi * 20e6 * _T_POOR)),
    # a fringe from a 4% frequency miss and a wrong phase
    lambda: fitting._run_fit(
        fitting._damped_cosine_factory("exp"), _FRINGE_NAMES,
        [0.3, 60e-9, 1.04e8, -0.5, 0.4], _T_FRINGE,
        0.45 * np.exp(-_T_FRINGE / 30e-9)
        * np.cos(2 * np.pi * 1e8 * _T_FRINGE + 0.3) + 0.5),
    # a line from two widths off its center: 41 evaluations
    lambda: fitting._run_fit(
        fitting._lorentzian, _LINE_NAMES, [0.3, 5.085e9, 3e6, 0.0], _F_LINE,
        0.4 / (1.0 + ((_F_LINE - 5.07e9) / 8e6) ** 2) + 0.05),
], ids=["poor-fit", "fringe-off", "line-off"])
def test_lm_port_takes_scipys_steps_far_from_the_solution(monkeypatch, fit):
    # rejected steps, trust-radius updates and lmpar iterations; sums in
    # another order than MINPACK's round differently, which an
    # ill-determined end point (poor-fit) moves by up to ~1e-7
    ours, [got] = _fit_with(monkeypatch, fitting._lmder, fit)
    ref, [want] = _fit_with(monkeypatch, _scipy_lmder, fit)
    assert (got.nfev, got.info) == (want.nfev, want.info)
    assert (ours.converged, ours.flags) == (ref.converged, ref.flags)
    npt.assert_allclose(got.x, want.x, rtol=0, atol=1e-6)


def test_evaluation_cap_is_max_iterations(monkeypatch):
    t = np.linspace(0.0, 120e-9, 241)
    y = 0.45 * np.exp(-t / 30e-9) * np.cos(2 * np.pi * 1e8 * t + 0.3) + 0.5
    for engine in (fitting._lmder, _scipy_lmder):
        def capped(fun, x0, **kw):
            return engine(fun, x0, **dict(kw, max_nfev=2))
        fit, [res] = _fit_with(monkeypatch, capped,
                               lambda: fitting.fit_damped_cosine(t, y))
        assert res.info == 5 and res.nfev == 2
        assert not fit.converged
        assert "max-iterations" in fit.flags


def test_parameter_outside_the_model_is_ill_conditioned():
    # c never enters the model: its Jacobian column is exactly zero
    def line(x, a, b, c):
        return a * x + b

    x = np.linspace(0.0, 1.0, 20)
    fit = fitting._run_fit(line, _unscaled("a", "b", "c"), [1.0, 0.5, 0.25],
                           x, 2.0 * x + 1.0)
    assert fit.converged
    assert "ill-conditioned" in fit.flags
    npt.assert_allclose([fit.params["a"], fit.params["b"]], [2.0, 1.0],
                        rtol=1e-9)
    assert fit.params["c"] == 0.25
    assert all(np.isfinite(v) for v in fit.std_errors.values())
