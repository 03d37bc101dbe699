from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from dotqed import device, dynamics, fitting, pulses, qops

GAMMA1 = 3.7625e6
GAMMA_PHI = 4.9203e6
# T1 = 1/(2 pi gamma1), T2 = 1/(2 pi (gamma1/2 + gamma_phi)), frozen
T1_S = 4.230031710083597e-08
T2_S = 2.3399804910924032e-08

DEC = device.DecoherenceParams(gamma1=GAMMA1, gamma_phi=GAMMA_PHI)
NO_DEC = device.DecoherenceParams(gamma1=0.0, gamma_phi=0.0)


def _excited_dm():
    return qops.ket_to_dm(np.array([0.0, 1.0]))


def _plus_dm():
    return qops.ket_to_dm(np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_channel_rate_conventions():
    chans = dynamics.qubit_channels(DEC)
    by_label = {c.label: c for c in chans}
    npt.assert_allclose(by_label["qubit relaxation"].rate,
                        2.0 * np.pi * GAMMA1, rtol=1e-15)
    # sigma_z at pi*gamma_phi makes gamma2 = gamma1/2 + gamma_phi in Hz
    npt.assert_allclose(by_label["qubit dephasing"].rate,
                        np.pi * GAMMA_PHI, rtol=1e-15)
    assert dynamics.qubit_channels(NO_DEC) == []
    with pytest.raises(ValueError):
        dynamics.CollapseChannel(qops.sigma_minus(), -1.0)


def test_free_decay_matches_exponential():
    grid = dynamics.SimulationGrid(0.0, 40e-9, 2e-11)
    chans = dynamics.qubit_channels(
        device.DecoherenceParams(gamma1=GAMMA1, gamma_phi=0.0))
    traj = dynamics.evolve(_excited_dm(), np.zeros((2, 2)), chans, grid)
    expected = np.exp(-2.0 * np.pi * GAMMA1 * traj.times)
    npt.assert_allclose(traj.qubit_pe, expected, atol=1e-10)
    fit = fitting.fit_exponential_decay(traj.times, traj.qubit_pe)
    npt.assert_allclose(fit.params["time_constant"], T1_S, rtol=1e-6)


def test_adaptive_integrator_agrees_with_rk4():
    chans = dynamics.qubit_channels(DEC)
    h = 0.5 * 40e6 * qops.sigma_x()
    fixed = dynamics.evolve(_excited_dm(), h, chans,
                            dynamics.SimulationGrid(0.0, 30e-9, 1e-11))
    adaptive = dynamics.evolve(_excited_dm(), h, chans,
                               dynamics.SimulationGrid(0.0, 30e-9, 1e-9,
                                                       method="rk45"))
    # the coarse output grid is a stride-100 subset of the fine one
    npt.assert_allclose(fixed.qubit_pe[::100], adaptive.qubit_pe, atol=1e-7)


def test_coherence_decays_at_gamma2():
    grid = dynamics.SimulationGrid(0.0, 40e-9, 2e-11)
    traj = dynamics.evolve(_plus_dm(), np.zeros((2, 2)),
                           dynamics.qubit_channels(DEC), grid,
                           e_ops={"coh": qops.sigma_plus()})
    coh = np.abs(traj.expectations["coh"])
    gamma2 = 0.5 * GAMMA1 + GAMMA_PHI
    npt.assert_allclose(coh, 0.5 * np.exp(-2.0 * np.pi * gamma2 * traj.times),
                        atol=1e-10)
    npt.assert_allclose(1.0 / (2.0 * np.pi * gamma2), T2_S, rtol=1e-12)
    # the populations relax on T1 underneath the same evolution
    npt.assert_allclose(traj.qubit_pe,
                        0.5 * np.exp(-2.0 * np.pi * GAMMA1 * traj.times),
                        atol=1e-10)


def test_pulse_area_theorem():
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    for scale, pe_want in [(1.0, 1.0), (0.5, 0.5),
                           (0.37, np.sin(0.37 * np.pi / 2.0) ** 2)]:
        seq = pulses.build_rabi_sequence(scale * a_pi, 0.25e-9)
        traj = dynamics.simulate_sequence(seq, NO_DEC)
        npt.assert_allclose(traj.qubit_pe[-1], pe_want, atol=1e-8)
        assert traj.diagnostics.max_trace_deviation < 1e-10


def test_liouvillian_matches_rhs_elementwise():
    space = qops.HilbertSpace(3)
    rng = np.random.default_rng(11)
    rho = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = rng.normal(size=(6, 6))
    h = (h + h.T) * 1e7
    chans = [
        dynamics.CollapseChannel(qops.qubit_operator(qops.sigma_minus(), space),
                                 2.1e7),
        dynamics.CollapseChannel(qops.cavity_operator(qops.annihilation(3), space),
                                 0.9e8),
    ]
    direct = dynamics.lindblad_rhs(rho, 2.0 * np.pi * h, chans)
    tol = 1e-12 * np.abs(direct).max()
    gen = dynamics.liouvillian(h, chans)
    npt.assert_allclose(gen @ rho.ravel(), direct.ravel(), rtol=0, atol=tol)
    # evolve's right-hand side, built from the same effective Hamiltonian
    # and jumps
    heff, jumps = dynamics._jump_form(h, chans)
    jump_rhs = -1j * (heff @ rho - rho @ heff.conj().T)
    for j in jumps:
        jump_rhs += j @ rho @ j.conj().T
    npt.assert_allclose(jump_rhs, direct, rtol=0, atol=tol)


def test_trace_holds_over_a_long_cavity_run():
    # the jump term's rounding leaves rho slightly non-Hermitian; a rhs that
    # assumed Hermiticity (-i (X - X^dag), X = Heff rho) lets the top of the
    # Fock ladder amplify it, and the trace drifts past 1e-5 in this run
    a = qops.annihilation(24)
    h = 50e6 * (a.conj().T @ a + a + a.conj().T)
    rho0 = qops.ket_to_dm(np.eye(24)[0])
    traj = dynamics.evolve(rho0, h,
                           [dynamics.CollapseChannel(a, 2.0 * np.pi * 100e6)],
                           dynamics.SimulationGrid(0.0, 100e-9, 2e-11))
    assert traj.diagnostics.max_trace_deviation < 1e-12


def test_steady_state_driven_cavity_matches_input_output():
    # pure cavity: H/h = Delta a^dag a + eps (a + a^dag), loss kappa
    res = device.ResonatorParams(bare_frequency_nu_r=5.07e9, kappa_ext=23e6,
                                 kappa_int=7e6)
    n_fock = 14
    a = qops.annihilation(n_fock)
    num = qops.number_operator(n_fock)
    a_in = np.pi * res.kappa_tot / np.sqrt(2.0 * np.pi * res.kappa_ext)
    eps = np.sqrt(2.0 * np.pi * res.kappa_ext) * a_in / (2.0 * np.pi)
    chans = [dynamics.CollapseChannel(a, 2.0 * np.pi * res.kappa_ext),
             dynamics.CollapseChannel(a, 2.0 * np.pi * res.kappa_int)]
    for detuning in (0.0, 17e6, -8e6):
        h = detuning * num + eps * (a + a.conj().T)
        rho = dynamics.steady_state(h, chans)
        alpha = qops.expectation(rho, a)
        want = dynamics.semiclassical_steady_state(
            "mixed", res, 0.0, res.bare_frequency_nu_r - detuning,
            probe_amplitude=a_in)
        npt.assert_allclose(alpha, want, rtol=2e-4)
    assert abs(want) <= 1.001  # drive was normalized to one photon at most


def test_steady_state_rejects_degenerate_kernel():
    h = np.diag([-0.5e6, 0.5e6]).astype(complex)
    with pytest.raises(RuntimeError):
        dynamics.steady_state(h, [])


def test_ring_up_matches_closed_form():
    res = device.ResonatorParams(bare_frequency_nu_r=5.07e9, kappa_ext=23e6,
                                 kappa_int=7e6)
    probe = res.bare_frequency_nu_r - 10e6
    grid = dynamics.SimulationGrid(0.0, 120e-9, 1e-10)
    traj = dynamics.semiclassical_cavity_response("mixed", res, 0.0, probe,
                                                  1.0, grid)
    pole = 1j * 2.0 * np.pi * 10e6 + np.pi * res.kappa_tot
    a_ss = -1j * np.sqrt(2.0 * np.pi * res.kappa_ext) / pole
    expected = a_ss * (1.0 - np.exp(-pole * traj.times))
    npt.assert_allclose(traj.cavity_alpha, expected, atol=1e-8 * abs(a_ss))


def test_full_lindblad_tracks_semiclassical_in_dispersive_regime():
    # qubit parked in |g> far above the cavity (Delta = 10 g): the cavity
    # field from the full model follows the conditioned semiclassical one
    dqd = device.DqdParams(tunnel_splitting_2t=5.37e9)
    res = device.ResonatorParams(bare_frequency_nu_r=5.07e9, kappa_ext=16e6,
                                 kappa_int=4e6)
    coupling = device.CouplingParams(g0=30e6)
    chi = device.dispersive_shift(30e6, 300e6)
    probe = res.bare_frequency_nu_r - chi
    a_in = 0.6 * np.pi * res.kappa_tot / np.sqrt(2.0 * np.pi * res.kappa_ext)
    eps = np.sqrt(2.0 * np.pi * res.kappa_ext) * a_in / (2.0 * np.pi)

    space = qops.HilbertSpace(8)
    h = device.build_rotating_frame_hamiltonian(dqd, res, coupling, probe,
                                                cavity_drive=eps, space=space)
    chans = dynamics.cavity_channels(res, space)
    rho0 = qops.ket_to_dm(np.eye(space.dim)[0])
    grid = dynamics.SimulationGrid(0.0, 150e-9, 2e-11)
    full = dynamics.evolve(rho0, h, chans, grid, space=space)
    full.validate_populations()
    assert full.diagnostics.max_trace_deviation < 1e-7

    semi = dynamics.semiclassical_cavity_response(
        "g", res, chi, probe, a_in,
        dynamics.SimulationGrid(0.0, 150e-9, 2e-10))
    # the semiclassical grid is a stride-10 subset of the full one
    settled = semi.times > 10e-9
    err = (np.abs(full.cavity_alpha[::10][settled])
           / np.abs(semi.cavity_alpha[settled]) - 1.0)
    assert np.max(np.abs(err)) < 0.02


def test_truncation_warning_when_ladder_fills():
    space = qops.HilbertSpace(4)
    a = qops.cavity_operator(qops.annihilation(4), space)
    h = 20e6 * (a + a.conj().T)
    rho0 = qops.ket_to_dm(np.eye(space.dim)[0])
    with pytest.warns(dynamics.TruncationWarning):
        dynamics.evolve(rho0, h, [], dynamics.SimulationGrid(0.0, 10e-9, 1e-11),
                        space=space)


def test_trace_drift_warning_on_unstable_step():
    h = 5e8 * qops.sigma_x()
    with pytest.warns(RuntimeWarning, match="trace"):
        dynamics.evolve(_excited_dm(), h, [],
                        dynamics.SimulationGrid(0.0, 40e-9, 2e-9))


def test_spectroscopy_formula_matches_liouvillian():
    # dual route: closed-form saturation line against the steady state of
    # the driven-qubit Lindblad generator, point by point
    rabi = 12e6
    detunings = np.linspace(-60e6, 60e6, 21)
    line = dynamics.steady_state_spectroscopy(detunings, rabi, DEC)
    chans = dynamics.qubit_channels(DEC)
    sx = qops.sigma_x()
    sz = qops.sigma_z()
    for k, delta in enumerate(detunings):
        h = 0.5 * delta * sz + 0.5 * rabi * sx
        rho = dynamics.steady_state(h, chans)
        npt.assert_allclose(np.real(rho[1, 1]), line[k], rtol=1e-9,
                            atol=1e-12)
    # HWHM identity: the line crosses half its peak at gamma2 sqrt(1+s)
    s = rabi ** 2 / (DEC.gamma1 * DEC.gamma2)
    hwhm = DEC.gamma2 * np.sqrt(1.0 + s)
    half = dynamics.steady_state_spectroscopy(np.array([hwhm]), rabi, DEC)
    npt.assert_allclose(half, 0.5 * line.max(), rtol=1e-12)


def test_ou_sampler_statistics(rng):
    model = dynamics.OuNoiseModel(sigma_delta=5e6, tau_c=50e-9,
                                  n_realizations=4000)
    times = np.linspace(0.0, 1e-6, 1001)
    paths = dynamics.sample_ou_detuning(model, times, rng=rng)
    assert paths.shape == (4000, 1001)
    npt.assert_allclose(paths.std(), 5e6, rtol=0.03)
    assert abs(paths.mean()) < 4 * 5e6 / np.sqrt(4000)
    # normalized autocovariance at lag tau_c is e^-1
    lag = 50  # grid step is 1 ns
    corr = np.mean(paths[:, :-lag] * paths[:, lag:]) / 5e6 ** 2
    npt.assert_allclose(corr, np.exp(-1.0), atol=0.05)


def test_ou_sampler_exact_update_is_grid_independent():
    # the exact transition density keeps the stationary variance whatever
    # the step size; a naive Euler kick would inflate it on coarse grids
    model = dynamics.OuNoiseModel(sigma_delta=2e6, tau_c=10e-9)
    coarse = dynamics.sample_ou_detuning(
        replace(model, n_realizations=20000), np.linspace(0.0, 4e-7, 11),
        rng=1)
    fine = dynamics.sample_ou_detuning(
        replace(model, n_realizations=2000), np.linspace(0.0, 4e-7, 4001),
        rng=2)
    npt.assert_allclose(coarse[:, -1].std(), 2e6, rtol=0.03)
    npt.assert_allclose(fine[:, -1].std(), 2e6, rtol=0.05)
    # seeded reproducibility
    again = dynamics.sample_ou_detuning(
        replace(model, n_realizations=20000), np.linspace(0.0, 4e-7, 11),
        rng=1)
    npt.assert_array_equal(coarse, again)


def test_monte_carlo_zero_sigma_reduces_to_deterministic():
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    seq = pulses.build_ramsey_sequence(20e-9, 0.0, sigma=0.25e-9,
                                       pi_amplitude=a_pi)
    det = dynamics.simulate_sequence(seq, DEC)
    noise = dynamics.OuNoiseModel(sigma_delta=0.0, tau_c=1e-6,
                                  n_realizations=17)
    mc = dynamics.monte_carlo_dephasing(seq, noise, DEC, rng=3)
    npt.assert_array_equal(det.qubit_pe, mc.qubit_pe)
    assert np.all(mc.pe_stderr == 0.0)


def _stepwise_reference(compiled, dec, deltas):
    """Mean P_e, its sem and the trace deviation, one RK4 step at a time."""
    g1 = 2.0 * np.pi * dec.gamma1
    decay = 0.5 * g1 + 2.0 * np.pi * dec.gamma_phi
    n = deltas.shape[0]
    a, b, d = np.ones(n), np.zeros(n, dtype=complex), np.zeros(n)
    pe, sem = [0.0], [0.0]
    for k in range(len(compiled.dts)):
        w = np.pi * (compiled.detuning0 + deltas[:, k])
        a, b, d = dynamics._two_level_step(
            a, b, d, compiled.u1[k], compiled.u2[k], compiled.u4[k], w,
            compiled.dts[k], g1, decay)
        pe.append(d.mean())
        sem.append(d.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0)
    return np.array(pe), np.array(sem), float(np.abs(a + d - 1.0).max())


def _scan_case(case):
    """(compiled tables, sequence or None, extra detuning) of one scan case."""
    block = dynamics.SCAN_BLOCK
    synthetic = {"block-1": block - 1, "block": block, "block+1": block + 1,
                 "10-blocks": 10 * block + 37}
    if case in synthetic:
        n_steps = synthetic[case]
        rng = np.random.default_rng(n_steps)
        dts = rng.uniform(1e-12, 1e-11, n_steps)

        def drive():
            return np.pi * 2e8 * (rng.normal(size=n_steps)
                                  + 1j * rng.normal(size=n_steps))

        compiled = dynamics._CompiledSequence(
            times=np.concatenate([[0.0], np.cumsum(dts)]), dts=dts,
            u1=drive(), u2=drive(), u4=drive(), detuning0=3e7)
        return compiled, None, 0.0
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    seq, extra = {
        "rabi-drag": (pulses.build_rabi_sequence(1.3 * a_pi, 0.25e-9,
                                                 drag_beta=0.1e-9), 0.0),
        "ramsey-detuned": (pulses.build_ramsey_sequence(
            20e-9, 0.0, sigma=0.25e-9, pi_amplitude=a_pi), 5e6),
        "t1-150ns": (pulses.build_t1_sequence(
            150e-9, sigma=0.25e-9, pi_amplitude=a_pi), 0.0),
        "echo": (pulses.build_echo_sequence(
            40e-9, sigma=0.25e-9, pi_amplitude=a_pi), 0.0),
    }[case]
    return dynamics.compile_sequence(seq), seq, extra


@pytest.mark.parametrize("case", ["block-1", "block", "block+1", "10-blocks",
                                  "rabi-drag", "ramsey-detuned", "t1-150ns",
                                  "echo"])
def test_propagator_scan_matches_stepwise_reference(case):
    compiled, seq, extra = _scan_case(case)
    n_steps = len(compiled.dts)
    ref, _, _ = _stepwise_reference(compiled, DEC, np.full((1, n_steps), extra))
    if seq is None:
        pe, sem, trace_dev = dynamics._evolve_two_level(compiled, DEC)
        assert np.all(sem == 0.0)
    else:
        traj = dynamics.simulate_sequence(seq, DEC, extra_detuning=extra)
        pe, trace_dev = traj.qubit_pe, traj.diagnostics.max_trace_deviation
    assert pe.shape == ref.shape == (n_steps + 1,)
    npt.assert_allclose(pe, ref, rtol=0.0, atol=1e-12)
    assert trace_dev < 1e-12


# sigma = 2 gamma2 with tau_c = 4 us is the quasi-static noise of the echo
# acceptance check; 193 MHz at 0.1 ns is its white noise
_OU_SLOW = dict(sigma_delta=2.0 * 6.80155e6, tau_c=4e-6)
_OU_WHITE = dict(sigma_delta=193e6, tau_c=1e-10)


def _mc_case(case):
    """(compiled tables, deltas) of one Monte-Carlo case."""
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    shape = dict(sigma=0.25e-9, pi_amplitude=a_pi)
    echo = pulses.build_echo_sequence(10e-9, **shape)
    seq, noise, n = {
        "ou-n1": (echo, _OU_SLOW, 1),
        "ou-n2": (echo, _OU_SLOW, 2),
        "ou-n500": (pulses.build_ramsey_sequence(5e-9, 0.0, **shape),
                    _OU_SLOW, 500),
        "constant": (echo, None, 3),
        "white": (echo, _OU_WHITE, 200),
        "drag": (pulses.build_echo_sequence(10e-9, drag_beta=0.1e-9, **shape),
                 _OU_SLOW, 200),
        "ramsey-100MHz": (pulses.build_ramsey_sequence(5e-9, 100e6, **shape),
                          _OU_SLOW, 200),
        "zero-delay": (pulses.build_ramsey_sequence(0.0, 0.0, **shape),
                       _OU_WHITE, 200),
    }[case]
    compiled = dynamics.compile_sequence(seq)
    if noise is None:
        return compiled, np.full((n, len(compiled.dts)), 4e6)
    model = dynamics.OuNoiseModel(n_realizations=n, **noise)
    return compiled, dynamics.sample_ou_detuning(model, compiled.times[:-1],
                                                 rng=n)


@pytest.mark.parametrize("case", ["ou-n1", "ou-n2", "ou-n500", "constant",
                                  "white", "drag", "ramsey-100MHz",
                                  "zero-delay"])
def test_monte_carlo_matches_stepwise_reference(case):
    compiled, deltas = _mc_case(case)
    if case == "zero-delay":
        # the back-to-back pulse edges leave one idle step of rounding length
        assert compiled.dts.min() < 1e-20
    pe, sem, trace_dev = dynamics._evolve_two_level(compiled, DEC, deltas)
    ref_pe, ref_sem, ref_trace = _stepwise_reference(compiled, DEC, deltas)
    npt.assert_allclose(pe, ref_pe, rtol=0.0, atol=1e-12)
    npt.assert_allclose(sem, ref_sem, rtol=0.0, atol=1e-12)
    assert trace_dev < 1e-12 and ref_trace < 1e-12


def test_ou_sampler_matches_loop_reference():
    # more realizations than one block of draws
    n = 2 * dynamics.OU_DRAW_ROWS + 5
    model = dynamics.OuNoiseModel(sigma_delta=193e6, tau_c=1e-10,
                                  n_realizations=n)
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    times = dynamics.compile_sequence(pulses.build_echo_sequence(
        2e-9, sigma=0.25e-9, pi_amplitude=a_pi)).times
    rng = np.random.default_rng(9)
    ref = np.empty((n, len(times)))
    ref[:, 0] = model.sigma_delta * rng.standard_normal(n)
    decay = np.exp(-np.diff(times) / model.tau_c)
    kick = model.sigma_delta * np.sqrt(1.0 - decay ** 2)
    noise = rng.standard_normal((n, len(times) - 1))
    for k in range(len(times) - 1):
        ref[:, k + 1] = ref[:, k] * decay[k] + kick[k] * noise[:, k]
    npt.assert_array_equal(dynamics.sample_ou_detuning(model, times, rng=9),
                           ref)


def test_echo_refocuses_static_detuning():
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    delta = 5e6

    ramsey = pulses.build_ramsey_sequence(100e-9, 0.0, sigma=0.25e-9,
                                          pi_amplitude=a_pi)
    r0 = dynamics.simulate_sequence(ramsey, NO_DEC).qubit_pe[-1]
    r1 = dynamics.simulate_sequence(ramsey, NO_DEC,
                                    extra_detuning=delta).qubit_pe[-1]
    # 5 MHz over 100 ns winds half a fringe: the offset destroys the signal
    assert abs(r1 - r0) > 0.5

    echo = pulses.build_echo_sequence(100e-9, sigma=0.25e-9,
                                      pi_amplitude=a_pi)
    e0 = dynamics.simulate_sequence(echo, NO_DEC).qubit_pe[-1]
    e1 = dynamics.simulate_sequence(echo, NO_DEC,
                                    extra_detuning=delta).qubit_pe[-1]
    # the pi pulse refocuses it up to finite-pulse-duration corrections
    assert abs(e1 - e0) < 5e-3


def test_compile_sequence_rejects_mixed_carriers():
    p1 = pulses.GaussianPulse(1e8, 1e-9, 0.25e-9)
    p2 = pulses.GaussianPulse(1e8, 4e-9, 0.25e-9)
    seq = pulses.PulseSequence(
        entries=(pulses.SequenceEntry(p1, 0.0),
                 pulses.SequenceEntry(p2, 50e6)),
        readout_window=pulses.ReadoutWindow(6e-9))
    with pytest.raises(ValueError, match="carrier"):
        dynamics.compile_sequence(seq)


def test_simulation_grid_guards():
    with pytest.raises(ValueError):
        dynamics.SimulationGrid(0.0, 1e-9, -1e-12)
    with pytest.raises(ValueError):
        dynamics.SimulationGrid(1e-9, 1e-9, 1e-12)
    with pytest.raises(ValueError):
        dynamics.SimulationGrid(0.0, 1e-9, 1e-12, method="euler")
    grid = dynamics.SimulationGrid(0.0, 1e-9, 1e-10)
    assert grid.times[0] == 0.0 and grid.times[-1] == 1e-9

    traj = dynamics.Trajectory(times=np.array([0.0]), qubit_pe=np.array([1.2]))
    with pytest.raises(ValueError, match="populations"):
        traj.validate_populations()
