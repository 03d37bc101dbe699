import math
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import solve_ivp

from dotqed import device, dynamics, experiments, fitting, pulses, qops
from ou_reference import monte_carlo, ou_gap, sample_ou_detuning

GAMMA1 = 3.7625e6
GAMMA_PHI = 4.9203e6
# T1 = 1/(2 pi gamma1), T2 = 1/(2 pi (gamma1/2 + gamma_phi)), frozen
T1_S = 4.230031710083597e-08
T2_S = 2.3399804910924032e-08

DEC = device.DecoherenceParams(gamma1=GAMMA1, gamma_phi=GAMMA_PHI)
NO_DEC = device.DecoherenceParams(gamma1=0.0, gamma_phi=0.0)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


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
    h = 0.5 * 40e6 * SIGMA_X
    fixed = dynamics.evolve(_excited_dm(), h, chans,
                            dynamics.SimulationGrid(0.0, 30e-9, 1e-11))

    def rhs(t, v):
        rho = v.reshape(2, 2)
        return dynamics.lindblad_rhs(rho, 2.0 * np.pi * h, chans).ravel()

    # an independent adaptive RK45 over the reference rhs, sampled on a
    # stride-100 subset of the fixed grid
    times = fixed.times[::100]
    sol = solve_ivp(rhs, (times[0], times[-1]),
                    _excited_dm().astype(complex).ravel(), t_eval=times,
                    method="RK45", rtol=1e-9, atol=1e-9)
    assert sol.success
    npt.assert_allclose(fixed.qubit_pe[::100], sol.y[3].real, atol=1e-7)


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


def _kron_generator(h_hz, channels):
    """Dense Lindblad generator on rho.ravel(), from the effective
    Hamiltonian and jumps: vec(A rho B) = (A kron B^T) vec(rho)."""
    heff, jumps = dynamics._jump_form(h_hz, channels)
    ident = np.eye(heff.shape[0])
    gen = -1j * (np.kron(heff, ident) - np.kron(ident, heff.conj()))
    for l_op, rate in jumps:
        gen += rate * np.kron(l_op, l_op.conj())
    return gen


def _driven_jc(space):
    """Driven JC Hamiltonian (Hz) with qubit and cavity channels."""
    a = qops.cavity_operator(qops.annihilation(space.fock_cutoff), space)
    sm = qops.qubit_operator(qops.sigma_minus(), space)
    sz = qops.qubit_operator(qops.sigma_z(), space)
    h = (12e6 * a.conj().T @ a + 0.5 * 40e6 * sz
         + 25e6 * (a.conj().T @ sm + sm.conj().T @ a)
         + 3e6 * (a + a.conj().T))
    res = device.ResonatorParams(bare_frequency_nu_r=5.07e9, kappa_ext=23e6,
                                 kappa_int=7e6)
    return h, dynamics.qubit_channels(DEC, space) + dynamics.cavity_channels(
        res, space)


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
    rows, cols, vals, d = dynamics._generator_triplets(h, chans)
    gen = np.zeros((d * d, d * d), dtype=complex)
    np.add.at(gen, (rows, cols), vals)
    npt.assert_allclose(gen @ rho.ravel(), direct.ravel(), rtol=0, atol=tol)
    # the generator's triplets are the Kronecker form of the effective
    # Hamiltonian and jumps, entry for entry
    dense = _kron_generator(h, chans)
    npt.assert_allclose(gen, dense, rtol=0, atol=1e-15 * np.abs(dense).max())
    npt.assert_allclose(dense @ rho.ravel(), direct.ravel(), rtol=0, atol=tol)
    # evolve's real generator acts on the real coordinates of rho's
    # Hermitian part as lindblad_rhs acts on that part
    herm = 0.5 * (rho + rho.conj().T)
    re, im, sign = coords = dynamics._hermitian_coordinates(d)
    r = np.empty(d * d)
    r[re] = herm.real.ravel()
    r[im[sign > 0]] = herm.imag.ravel()[sign > 0]
    rate = dynamics._real_generator(h, chans, coords) @ r
    want = dynamics.lindblad_rhs(herm, 2.0 * np.pi * h, chans).ravel()
    npt.assert_allclose(rate[re] + 1j * sign * rate[im], want, rtol=0,
                        atol=tol)


def test_steady_state_matches_dense_bordered_solve():
    space = qops.HilbertSpace(4)
    h, (relaxation, _, loss) = _driven_jc(space)
    chans = [relaxation, loss]
    gen = _kron_generator(h, chans)
    d = space.dim
    gen[0, :] = 0.0
    gen[0, ::d + 1] = 1.0   # trace row
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    want = np.linalg.solve(gen, b).reshape(d, d)
    want = 0.5 * (want + want.conj().T)
    want /= np.trace(want).real
    npt.assert_allclose(dynamics.steady_state(h, chans), want, rtol=0,
                        atol=1e-12)


def test_charge_sectors_match_the_dense_bordered_solve():
    # the sectored solve of a driven JC stack, qubit drive as in the
    # displaced Stark frame included, against one dense solve per member
    space = qops.HilbertSpace(5)
    h, chans = _driven_jc(space)
    sp = qops.qubit_operator(qops.sigma_plus(), space)
    stack = np.array([h + s * 7e6 * (sp + sp.conj().T) for s in (0, 1, 2)])
    d = space.dim
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    want = []
    for member in stack:
        gen = _kron_generator(member, chans)
        gen[0, :] = 0.0
        gen[0, ::d + 1] = 1.0   # trace row
        rho = np.linalg.solve(gen, b).reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)
        want.append(rho / np.trace(rho).real)
    sectors = dynamics._charge_sectors(*dynamics._jump_form(stack, chans),
                                       space)
    assert [len(s) for s in sectors] == [1, 4, 8, 12, 16, 18, 16, 12, 8, 4, 1]
    npt.assert_allclose(dynamics.steady_states(stack, chans, space).states,
                        want, rtol=0, atol=1e-12)


def test_charge_sectors_reject_a_two_photon_drive():
    # a^2 + a^dag^2 moves the charge k by two, outside the block band
    space = qops.HilbertSpace(4)
    h, chans = _driven_jc(space)
    a = qops.cavity_operator(qops.annihilation(space.fock_cutoff), space)
    two_photon = h + 2e6 * (a @ a + a.conj().T @ a.conj().T)
    with pytest.raises(ValueError, match="charge sectors 2 apart"):
        dynamics.steady_state(two_photon, chans, space)
    # the same generator in one sector solves
    rho = dynamics.steady_state(two_photon, chans)
    npt.assert_allclose(np.trace(rho), 1.0, rtol=0, atol=1e-12)


def _lindblad_rk4(rho0, h_hz, channels, times):
    """States of an RK4 loop over lindblad_rhs on the given grid."""
    def rhs(stage, rho):
        return dynamics.lindblad_rhs(rho, 2.0 * np.pi * h_hz, channels)

    states = [rho0]
    for dt in np.diff(times):
        states.append(dynamics._rk4_step(states[-1], dt, rhs))
    return np.array(states)


def _tipped_state(space):
    """The qubit on the equator, the cavity in vacuum, with a 1e-5 share of
    the maximally mixed state: rho is full rank, so the minimum eigenvalue
    is a decaying value, not rounding noise about zero."""
    c = np.sqrt(0.5)
    tip = qops.qubit_operator(np.array([[c, -c], [c, c]]), space)
    d = space.dim
    return ((1.0 - 1e-5) * qops.ket_to_dm(tip @ np.eye(d)[0])
            + 1e-5 * np.eye(d) / d)


def _assert_evolve_matches_rk4(cutoff, t_end):
    """evolve on the driven JC model against `_lindblad_rk4` at 1e-12 on
    every sample; returns the number of steps."""
    space = qops.HilbertSpace(cutoff)
    h, chans = _driven_jc(space)
    sp = qops.qubit_operator(qops.sigma_plus(), space)
    rho0 = _tipped_state(space)
    grid = dynamics.SimulationGrid(0.0, t_end, 1e-11)
    traj = dynamics.evolve(rho0, h, chans, grid, space=space,
                           e_ops={"sigma_plus": sp})
    n_steps = len(traj.times) - 1
    states = _lindblad_rk4(rho0, h, chans, traj.times)
    pe = qops.qubit_operator(np.diag([0.0, 1.0]), space)
    a = qops.cavity_operator(qops.annihilation(space.fock_cutoff), space)
    for got, op in [(traj.qubit_pe, pe), (traj.cavity_alpha, a),
                    (traj.expectations["sigma_plus"], sp)]:
        want = np.einsum("ij,kji->k", op, states)
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)
    diag = traj.diagnostics
    assert diag.max_trace_deviation < 1e-12
    steps = np.arange(n_steps + 1)
    picked = (steps % max(1, n_steps // 128) == 0) | (steps == n_steps)
    herm = 0.5 * (states + states.conj().transpose(0, 2, 1))[picked]
    npt.assert_allclose(diag.min_eigenvalue, np.linalg.eigvalsh(herm).min(),
                        rtol=0, atol=1e-12)
    return n_steps


# one Fock cutoff on each side of the dense-propagator size rule, each on a
# single step and on 500 steps, a tail of 2 past the last giant step
@pytest.mark.parametrize("cutoff", [5, 12], ids=["dense", "sparse"])
@pytest.mark.parametrize("t_end", [1e-11, 5e-9], ids=["1-step", "500-steps"])
def test_evolve_matches_rk4_over_lindblad_rhs(cutoff, t_end):
    assert ((qops.HilbertSpace(cutoff).dim ** 2 <= dynamics.DENSE_MAX_DIM2)
            == (cutoff == 5))
    _assert_evolve_matches_rk4(cutoff, t_end)


# evolve reads every step's observables from the giant steps R^(ac) r0 and
# the baby steps obs^T R^b, b < c = n // 128: c = 1, c = 2 with no tail and
# a tail of c - 1 steps past the last giant step, a c of no power of two
# (5 = 101b squares twice and multiplies once) with each, exactly 128 c
# steps (c = 7), and the 5000 steps of a Stark point; each on the dense R
# of Fock cutoff 5 and on the sparse RK4 steps of cutoff 12
_BABY_GIANT_EDGES = {"c=1": (200, 1, 0), "c=2": (256, 2, 0),
                     "c=2-tail-1": (257, 2, 1), "c=5": (650, 5, 0),
                     "c=5-tail-4": (654, 5, 4), "128c": (896, 7, 0),
                     "stark": (5000, 39, 8)}


@pytest.mark.parametrize("cutoff, n_steps, c, tail", [
    pytest.param(cutoff, *case, id=name + suffix)
    for cutoff, suffix in [(5, ""), (12, "-sparse")]
    for name, case in _BABY_GIANT_EDGES.items()])
def test_evolve_matches_rk4_at_baby_giant_edges(cutoff, n_steps, c, tail):
    assert (max(1, n_steps // 128), n_steps % c) == (c, tail)
    assert _assert_evolve_matches_rk4(cutoff, n_steps * 1e-11) == n_steps


def test_sparse_steps_match_the_dense_propagator(monkeypatch):
    # Fock cutoff 8, d^2 = 256, sampled through R dense and, with the size
    # rule at 0, through RK4 steps of the sparse G and G^T: R, made from the
    # sparse identity, is then never built
    space = qops.HilbertSpace(8)
    h, chans = _driven_jc(space)
    rho0 = _tipped_state(space)
    grid = dynamics.SimulationGrid(0.0, 654e-11, 1e-11)    # c = 5, tail 4
    e_ops = {"sigma_plus": qops.qubit_operator(qops.sigma_plus(), space)}

    def run():
        return dynamics.evolve(rho0, h, chans, grid, space=space,
                               e_ops=e_ops)

    dense = run()

    def no_dense_step(*args, **kwargs):
        raise AssertionError("the dense propagator was built")

    monkeypatch.setattr(dynamics, "DENSE_MAX_DIM2", 0)
    monkeypatch.setattr(dynamics.sparse, "eye_array", no_dense_step)
    sparse = run()
    for got, want in [(sparse.qubit_pe, dense.qubit_pe),
                      (sparse.cavity_alpha, dense.cavity_alpha),
                      (sparse.expectations["sigma_plus"],
                       dense.expectations["sigma_plus"])]:
        npt.assert_allclose(got, want, rtol=0, atol=1e-13)
    assert abs(sparse.diagnostics.min_eigenvalue
               - dense.diagnostics.min_eigenvalue) <= 1e-13


def test_evolve_peak_memory_at_the_stark_size():
    # fock cutoff 8, d^2 = 256, and the 5000 steps of a Stark point: the
    # dense branch holds R and R^39 while it is squared, 0.5 MiB each, then
    # 129 kept states and one (256, 10) baby step at a time
    space = qops.HilbertSpace(8)
    assert space.dim ** 2 == dynamics.DENSE_MAX_DIM2
    h, chans = _driven_jc(space)
    rho0 = qops.ket_to_dm(np.eye(space.dim)[0])
    grid = dynamics.SimulationGrid(0.0, 100e-9, 2e-11)
    e_ops = {"sigma_plus": qops.qubit_operator(qops.sigma_plus(), space)}
    tracemalloc.start()
    try:
        dynamics.evolve(rho0, h, chans, grid, space=space, e_ops=e_ops)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    # measured 2.17 MiB, 1.5 of it R, R^39 and the next square; room for
    # two more dense (d^2, d^2) arrays beside them, not three
    assert peak < 3.4, peak


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
    # closed, and under pure dephasing, every diagonal state is stationary;
    # the dephasing jump cancels its share of Heff exactly, so the factor
    # is singular rather than nearly so
    for chans in ([], [dynamics.CollapseChannel(qops.sigma_z(), 1e7)]):
        with pytest.raises(RuntimeError, match="steady state 0"):
            dynamics.steady_state(h, chans)


def _pull_stacks(dev, monkeypatch):
    """The (Hamiltonian stack, channels, space) of each branch of a
    dispersive pull, captured from `steady_states` calls."""
    calls = []
    solve = dynamics.steady_states

    def record(h_stack, channels, space=None):
        calls.append((np.array(h_stack), list(channels), space))
        return solve(h_stack, channels, space)

    monkeypatch.setattr(dynamics, "steady_states", record)
    experiments.measure_dispersive_pull(dev)
    monkeypatch.undo()
    return calls


def test_steady_states_match_per_member_solves(flagship, monkeypatch):
    # all 61 probes of a branch at once, bit for bit as each alone
    branches = _pull_stacks(flagship, monkeypatch)
    assert len(branches) == 3
    for h_stack, chans, space in branches:
        assert len(h_stack) == 61 and space.dim == h_stack.shape[-1]
        solved = dynamics.steady_states(h_stack, chans, space)
        singles = [dynamics.steady_states(h[None], chans, space)
                   for h in h_stack]
        npt.assert_array_equal(solved.states,
                               [dynamics.steady_state(h, chans, space)
                                for h in h_stack])
        # each residual against its own generator's scale
        npt.assert_array_equal(solved.residuals,
                               [s.residuals[0] for s in singles])


def test_steady_states_residual_is_relative_to_its_own_generator():
    # the second member's Hamiltonian, and so its largest generator entry,
    # is 1e6 times the first's: a scale shared over the stack would shrink
    # the first member's residual
    space = qops.HilbertSpace(3)
    h, chans = _driven_jc(space)
    solved = dynamics.steady_states(np.stack([h, 1e6 * h]), chans)
    alone = [dynamics.steady_states(m[None], chans) for m in (h, 1e6 * h)]
    npt.assert_array_equal(solved.residuals, [a.residuals[0] for a in alone])
    assert solved.residuals.max() < 1e-12


def test_steady_states_stack_of_one_is_steady_state():
    space = qops.HilbertSpace(4)
    h, chans = _driven_jc(space)
    solved = dynamics.steady_states(h[None], chans)
    assert solved.states.shape == (1, space.dim, space.dim)
    npt.assert_array_equal(solved.states[0], dynamics.steady_state(h, chans))


@pytest.mark.parametrize("bad", [0, 2, 9])
def test_steady_states_name_the_degenerate_member(bad):
    # decay |1> -> |0>; the drive empties |2> into |1>, and the one member
    # without it keeps |2> as a second stationary state: the first, an
    # inner and the last of 10
    drive = np.zeros((3, 3), dtype=complex)
    drive[1, 2] = drive[2, 1] = 2e6
    stack = np.array([np.diag([0.0, 1e6, 2e6]) + drive * (k != bad)
                      for k in range(10)])
    decay = np.zeros((3, 3))
    decay[0, 1] = 1.0
    chans = [dynamics.CollapseChannel(decay, 1e7, "decay")]
    with pytest.raises(RuntimeError, match=rf"^steady state {bad} "):
        dynamics.steady_states(stack, chans)
    good = np.delete(stack, bad, axis=0)
    npt.assert_allclose(dynamics.steady_states(good, chans).states[:, 0, 0],
                        1.0, rtol=0, atol=1e-12)


def test_ring_up_matches_closed_form():
    # the closed form against RK4 steps of the ring-up ODE from vacuum,
    # d alpha/dt = -p alpha - i sqrt(2 pi kappa_ext) a_in, at a 20 ps step
    # over 240 ns, 23 field decay times
    res = device.ResonatorParams(bare_frequency_nu_r=5.07e9, kappa_ext=23e6,
                                 kappa_int=7e6)
    chi, probe, a_in = 3e6, res.bare_frequency_nu_r - 10e6, 0.7
    drive = -1j * np.sqrt(2.0 * np.pi * res.kappa_ext) * a_in
    dt, stride = 2e-11, 40
    times = dt * np.arange(0, 12001, stride)
    for state, shift in (("g", -chi), ("e", chi), ("mixed", 0.0)):
        pole = (1j * 2.0 * np.pi * (res.bare_frequency_nu_r + shift - probe)
                + np.pi * res.kappa_tot)
        stepped = [0j]
        for _ in range(12000):
            stepped.append(dynamics._rk4_step(
                stepped[-1], dt, lambda stage, x: -pole * x + drive))
        alpha = dynamics.semiclassical_cavity_response(state, res, chi, probe,
                                                       a_in, times)
        npt.assert_allclose(alpha, stepped[::stride],
                            atol=1e-9 * abs(drive / pole))
        assert alpha[0] == 0.0
        npt.assert_allclose(alpha[-1], dynamics.semiclassical_steady_state(
            state, res, chi, probe, a_in), rtol=1e-6)


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

    times = full.times[::10]
    semi = dynamics.semiclassical_cavity_response("g", res, chi, probe, a_in,
                                                  times)
    settled = times > 10e-9
    err = (np.abs(full.cavity_alpha[::10][settled])
           / np.abs(semi[settled]) - 1.0)
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
    h = 5e8 * SIGMA_X
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
    sx = SIGMA_X
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
    model = dynamics.OuNoiseModel(sigma_delta=5e6, tau_c=50e-9)
    times = np.linspace(0.0, 1e-6, 1001)
    paths = sample_ou_detuning(model, times, 4000, rng=rng)
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
    coarse = sample_ou_detuning(model, np.linspace(0.0, 4e-7, 11), 20000,
                                rng=1)
    fine = sample_ou_detuning(model, np.linspace(0.0, 4e-7, 4001), 2000,
                              rng=2)
    npt.assert_allclose(coarse[:, -1].std(), 2e6, rtol=0.03)
    npt.assert_allclose(fine[:, -1].std(), 2e6, rtol=0.05)
    # seeded reproducibility
    again = sample_ou_detuning(model, np.linspace(0.0, 4e-7, 11), 20000,
                               rng=1)
    npt.assert_array_equal(coarse, again)


def test_exact_mean_zero_sigma_reduces_to_deterministic():
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    seq = pulses.build_ramsey_sequence(20e-9, 0.0, sigma=0.25e-9,
                                       pi_amplitude=a_pi)
    det = dynamics.simulate_sequence(seq, DEC)
    noise = dynamics.OuNoiseModel(sigma_delta=0.0, tau_c=1e-6)
    mc = dynamics.simulate_sweep([seq], DEC, noise)[0]
    npt.assert_array_equal(det.qubit_pe, mc.qubit_pe)


def _evolve(compiled, dec, noise=None):
    """(P_e, max trace deviation) of compiled tables, run alone in a fresh
    two-level engine."""
    traj = dynamics._two_level_engine(dec, noise)(compiled)
    return traj.qubit_pe, traj.diagnostics.max_trace_deviation


def _runs(compiled):
    """(lo, hi, idle) of each compiled run of idle or pulse steps, in time
    order."""
    return [(lo, hi, key is None) for lo, hi, key in compiled.runs]


def _edges(compiled):
    """The step index of each run edge of compiled tables, 0 first: where
    the engine samples the state."""
    return [0] + [hi for _, hi, _ in compiled.runs]


def _cut(compiled, k):
    """compiled tables cut at step k, as if the readout began at times[k];
    a run cut short gets a key of its own."""
    runs = tuple((lo, min(hi, k), key if key is None or hi <= k else (key, k))
                 for lo, hi, key in compiled.runs if lo < k)
    return replace(compiled, times=compiled.times[:k + 1],
                   dts=compiled.dts[:k], u1=compiled.u1[:k],
                   u2=compiled.u2[:k], u4=compiled.u4[:k], runs=runs)


def _assert_cuts_match(compiled, ref_pe, cuts, atol=1e-12):
    """The final P_e of compiled tables cut at each step k of cuts, each
    run in a fresh engine, is the stepwise reference's P_e after step k."""
    for k in sorted(cuts):
        pe, trace_dev = _evolve(_cut(compiled, k), DEC)
        npt.assert_allclose(pe[-1], ref_pe[k], rtol=0.0, atol=atol,
                            err_msg=f"cut at step {k}")
        assert trace_dev < 1e-12, k


def _assert_pulses_touch(compiled):
    """Pulses that touch follow each other: no gap between them, and no
    step shorter than the pulse grid's own."""
    assert all(key is not None for _, _, key in compiled.runs)
    lo, hi, key = compiled.runs[0]
    own = np.diff(np.linspace(0.0, key.pulse.end, hi - lo + 1))
    assert compiled.dts.min() >= own.min()


def _stepwise_reference(compiled, dec, rk4_idle=False):
    """P_e and the trace deviation, one step at a time: an RK4 step under a
    pulse, the exact decay and rotation over an idle step (or an RK4 step,
    with rk4_idle)."""
    g1 = 2.0 * np.pi * dec.gamma1
    decay = 0.5 * g1 + 2.0 * np.pi * dec.gamma_phi
    s = np.eye(4, 1)            # (p_g, Re rho_01, Im rho_01, p_e)
    w = np.pi * compiled.detuning0
    pe = [0.0]
    for lo, hi, idle in _runs(compiled):
        for k in range(lo, hi):
            dt = compiled.dts[k]
            if idle and not rk4_idle:
                lost = s[3] * -np.expm1(-g1 * dt)
                coh = (s[1] + 1j * s[2]) * np.exp(dt * (2j * w - decay))
                s = np.array([s[0] + lost, coh.real, coh.imag, s[3] - lost])
            else:
                s = dynamics._two_level_step(
                    s, compiled.u1[k], compiled.u2[k], compiled.u4[k], w, dt,
                    g1, decay)
            pe.append(s[3, 0])
    return np.array(pe), float(abs(s[0, 0] + s[3, 0] - 1.0))


def _complex_two_level_step(a, b, d, u1, u2, u4, w, dt, g1, decay):
    """The RK4 step written on the complex components (p_g, rho_01, p_e),
    as an independent reference for `dynamics._two_level_step`."""
    def stage(u, av, bv, dv):
        ub = u * np.conj(bv)
        flow = 2.0 * ub.imag            # population flow driven by the pulse
        da = flow + g1 * dv
        dd = -flow - g1 * dv
        db = -1j * (u * (dv - av) - 2.0 * w * bv) - decay * bv
        return da, db, dd

    da1, db1, dd1 = stage(u1, a, b, d)
    da2, db2, dd2 = stage(u2, a + 0.5 * dt * da1, b + 0.5 * dt * db1,
                          d + 0.5 * dt * dd1)
    da3, db3, dd3 = stage(u2, a + 0.5 * dt * da2, b + 0.5 * dt * db2,
                          d + 0.5 * dt * dd2)
    da4, db4, dd4 = stage(u4, a + dt * da3, b + dt * db3, d + dt * dd3)
    return (a + (dt / 6.0) * (da1 + 2.0 * (da2 + da3) + da4),
            b + (dt / 6.0) * (db1 + 2.0 * (db2 + db3) + db4),
            d + (dt / 6.0) * (dd1 + 2.0 * (dd2 + dd3) + dd4))


@pytest.mark.parametrize("nodes", [None, 5], ids=["scan", "monte-carlo"])
def test_two_level_step_is_the_complex_form(nodes):
    # propagators at the engine's two shapes: (4, 4, m) for a pulse chunk,
    # (4, 4, m, 5) for a noisy chunk at the 5 detunings of its nodes
    m = 257
    rng = np.random.default_rng(27)

    def drive():
        return np.pi * 2e8 * (rng.normal(size=(m, 1))
                              + 1j * rng.normal(size=(m, 1)))

    u1, u2, u4 = drive(), drive(), drive()
    dts = rng.uniform(1e-12, 1e-11, (m, 1))
    w = np.pi * rng.normal(0.0, 5e7, (m, nodes or 1))
    if nodes is None:
        u1, u2, u4, dts, w = (v[:, 0] for v in (u1, u2, u4, dts, w))
    g1 = 2.0 * np.pi * DEC.gamma1
    decay = 0.5 * g1 + 2.0 * np.pi * DEC.gamma_phi
    unit = np.eye(4).reshape((4, 4) + (1,) * w.ndim)
    got = dynamics._two_level_step(unit, u1, u2, u4, w, dts, g1, decay)
    a, b, d = _complex_two_level_step(unit[0], unit[1] + 1j * unit[2],
                                      unit[3], u1, u2, u4, w, dts, g1, decay)
    want = np.stack(np.broadcast_arrays(a, b.real, b.imag, d))
    assert got.shape == want.shape == (4, 4) + w.shape
    npt.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def _scan_case(case):
    """(compiled tables, sequence or None) of one scan case."""
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
            u1=drive(), u2=drive(), u4=drive(), detuning0=3e7,
            runs=((0, n_steps, case),))
        return compiled, None
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    if case == "ramsey-detuned":
        seq = pulses.build_ramsey_sequence(20e-9, 0.0, sigma=0.25e-9,
                                           pi_amplitude=a_pi)
        return replace(dynamics.compile_sequence(seq), detuning0=5e6), None
    seq = {
        "rabi-drag": pulses.build_rabi_sequence(1.3 * a_pi, 0.25e-9,
                                                drag_beta=0.1e-9),
        "rabi-zero": pulses.build_rabi_sequence(0.0, 0.25e-9),
        "zero-delay": pulses.build_ramsey_sequence(0.0, 0.0, sigma=0.25e-9,
                                                   pi_amplitude=a_pi),
        "t1-150ns": pulses.build_t1_sequence(150e-9, sigma=0.25e-9,
                                             pi_amplitude=a_pi),
        "echo": pulses.build_echo_sequence(40e-9, sigma=0.25e-9,
                                           pi_amplitude=a_pi),
    }[case]
    return dynamics.compile_sequence(seq), seq


@pytest.mark.parametrize("case", ["block-1", "block", "block+1", "10-blocks",
                                  "rabi-drag", "ramsey-detuned", "t1-150ns",
                                  "echo", "zero-delay", "rabi-zero"])
def test_propagator_scan_matches_stepwise_reference(case):
    compiled, seq = _scan_case(case)
    n_steps = len(compiled.dts)
    if case == "zero-delay":
        _assert_pulses_touch(compiled)
    if case == "t1-150ns":
        # 1 ns of pi pulse at 1 ps, then the whole delay as one step
        assert n_steps == 1001
    if case == "rabi-zero":
        # no pulse run at all: the whole grid is one idle gap
        assert not (compiled.u1.any() or compiled.u2.any()
                    or compiled.u4.any())
    ref, _ = _stepwise_reference(compiled, DEC)
    assert ref.shape == (n_steps + 1,)
    if seq is None:
        pe, trace_dev = _evolve(compiled, DEC)
    else:
        traj = dynamics.simulate_sequence(seq, DEC)
        pe, trace_dev = traj.qubit_pe, traj.diagnostics.max_trace_deviation
    npt.assert_allclose(pe, ref[_edges(compiled)], rtol=0.0, atol=1e-12)
    assert trace_dev < 1e-12
    # inside the pulses: the readout at every 97th step, and on both sides
    # of each chunk edge of the propagator
    block = dynamics.SCAN_BLOCK
    chunk_edges = {j * block + d for j in range(1, n_steps // block + 1)
                   for d in (-1, 0, 1)}
    _assert_cuts_match(compiled, ref, set(range(1, n_steps + 1, 97))
                       | {k for k in chunk_edges if k <= n_steps})


def _count_steps(monkeypatch):
    """Wrap `_two_level_step`; returns the list of (steps, u1 bytes) of
    its calls."""
    calls = []
    step = dynamics._two_level_step

    def count(*args):
        calls.append((np.broadcast(*args).shape[-1], args[1].tobytes()))
        return step(*args)

    monkeypatch.setattr(dynamics, "_two_level_step", count)
    return calls


def _refine_idle(compiled, dt=1e-12):
    """(compiled tables with each idle step split into zero-drive steps of
    at most dt, its endpoints kept, and each pulse step as compiled; the
    index of each original sample in them)."""
    parts, dts, runs, keep = [compiled.times[:1]], [], [], [0]
    for lo, hi, key in compiled.runs:
        first = keep[-1]
        for k in range(lo, hi):
            a, b = compiled.times[k], compiled.times[k + 1]
            n = dynamics._step_count(b - a, dt) if key is None else 1
            grid = np.linspace(a, b, n + 1)
            parts.append(grid[1:])
            dts.append(np.diff(grid) if key is None else compiled.dts[k:k + 1])
            keep.append(keep[-1] + n)
        runs.append((first, keep[-1], key))
    step = np.repeat(np.arange(len(compiled.dts)), np.diff(keep))
    return replace(compiled, times=np.concatenate(parts),
                   dts=np.concatenate(dts), u1=compiled.u1[step],
                   u2=compiled.u2[step], u4=compiled.u4[step],
                   runs=tuple(runs)), np.array(keep)


@pytest.mark.parametrize("case", ["ramsey-100MHz", "t1", "echo"])
def test_exact_idle_gaps_match_rk4_on_a_fine_grid(case):
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    shape = dict(sigma=0.25e-9, pi_amplitude=a_pi)
    seq = {"ramsey-100MHz": pulses.build_ramsey_sequence(5e-9, 100e6, **shape),
           "t1": pulses.build_t1_sequence(5e-9, **shape),
           "echo": pulses.build_echo_sequence(5e-9, **shape)}[case]
    compiled = dynamics.compile_sequence(seq)
    fine, keep = _refine_idle(compiled)
    assert fine.dts.max() < 1.001e-12 < compiled.dts.max()
    pe = _evolve(fine, DEC)[0]
    rk4 = _stepwise_reference(fine, DEC, rk4_idle=True)[0]
    # RK4's own error at 1 ps idle steps is below 1e-14 here: 100 MHz turns
    # the coherence by 6e-4 rad per step, and the error per step goes as
    # that to the fifth power over 120
    npt.assert_allclose(pe, rk4[_edges(fine)], rtol=0.0, atol=1e-13)
    # inside the gaps: the readout at every 250th fine step
    idle = {k for lo, hi, key in fine.runs if key is None
            for k in range(lo + 1, hi, 250)}
    assert len(idle) >= 20
    _assert_cuts_match(fine, rk4, idle, atol=1e-13)
    # a gap is one exponential, so its inner steps change nothing
    assert _edges(fine) == list(keep[_edges(compiled)])
    for noise in (None, dynamics.OuNoiseModel(**_OU_SLOW)):
        coarse, refined = (dynamics._two_level_engine(DEC, noise)(c)
                           for c in (compiled, fine))
        for name in ("times", "qubit_pe"):
            assert (getattr(coarse, name).tobytes()
                    == getattr(refined, name).tobytes()), (noise, name)
        assert (coarse.diagnostics.max_trace_deviation
                == refined.diagnostics.max_trace_deviation), noise


@pytest.mark.parametrize("case", ["ramsey", "t1", "echo"])
def test_only_pulse_steps_reach_the_stepper(case, monkeypatch):
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    shape = dict(sigma=0.25e-9, pi_amplitude=a_pi)
    seq = {"ramsey": pulses.build_ramsey_sequence(30e-9, 0.0, **shape),
           "t1": pulses.build_t1_sequence(50e-9, **shape),
           "echo": pulses.build_echo_sequence(40e-9, **shape)}[case]
    compiled = dynamics.compile_sequence(seq)
    pulse = (compiled.u1 != 0) | (compiled.u2 != 0) | (compiled.u4 != 0)
    gaps = [hi - lo for lo, hi, key in compiled.runs if key is None]
    # each gap between pulses is one undriven step
    assert gaps == [1] * (2 if case == "echo" else 1)
    assert len(pulse) - pulse.sum() == len(gaps)
    # equal pulses are stepped once: the two pi/2 pulses of a Ramsey or
    # echo point share one propagator, and the echo's pi pulse has its own
    distinct = {key: hi - lo for lo, hi, key in compiled.runs
                if key is not None}
    assert len(distinct) == (2 if case == "echo" else 1)
    calls = _count_steps(monkeypatch)
    dynamics.simulate_sequence(seq, DEC)
    steps = sum(n for n, _ in calls)
    assert steps == sum(distinct.values()) == 1000 * len(distinct)


def _sweep_sequences(case, delays):
    """One sequence of the kind named by case per delay."""
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    shape = dict(sigma=0.25e-9, pi_amplitude=a_pi)
    build = {
        "ramsey-100MHz": lambda t: pulses.build_ramsey_sequence(t, 100e6,
                                                                **shape),
        "ramsey-0Hz": lambda t: pulses.build_ramsey_sequence(t, 0.0, **shape),
        "t1": lambda t: pulses.build_t1_sequence(t, **shape),
        "echo": lambda t: pulses.build_echo_sequence(t, **shape),
        "echo-phase0": lambda t: pulses.build_echo_sequence(
            t, echo_phase=0.0, **shape),
        "drag": lambda t: pulses.build_ramsey_sequence(
            t, 50e6, drag_beta=0.1e-9, **shape),
    }
    if case == "mixed-detuning":
        # the carrier does not enter the drive tables, only the detuning
        return [build["ramsey-0Hz" if i % 2 else "ramsey-100MHz"](t)
                for i, t in enumerate(delays)]
    return [build[case](t) for t in delays]


# sigma = 2 gamma2 with tau_c = 4 us is the quasi-static noise of the echo
# acceptance check; 193 MHz at 0.1 ns is its white noise
_OU_SLOW = dict(sigma_delta=2.0 * 6.80155e6, tau_c=4e-6)
_OU_WHITE = dict(sigma_delta=193e6, tau_c=1e-10)

# the ids "ou-n1" and "ou-n2" are stable test names for the quasi-static
# and the white noise
_SWEEP_NOISE = {
    "noiseless": None,
    "sigma-0": dict(sigma_delta=0.0, tau_c=1e-6),
    "ou-n1": _OU_SLOW,
    "ou-n2": _OU_WHITE,
}


@pytest.mark.parametrize("case, noise", [
    pytest.param(case, noise,
                 id=case if noise == "noiseless" else f"{case}-{noise}")
    for noise in _SWEEP_NOISE
    for case in ("ramsey-100MHz", "ramsey-0Hz", "t1", "echo", "drag",
                 "mixed-detuning")])
def test_sweep_is_per_sequence_simulation_bit_for_bit(case, noise,
                                                       monkeypatch):
    spec = _SWEEP_NOISE[noise]
    model = None if spec is None else dynamics.OuNoiseModel(**spec)
    noisy = model is not None and model.sigma_delta > 0
    delays = np.linspace(0.0, 20e-9, 6)
    # zero delay first: its pulses run back to back; with noise the longest
    # first, so later points run with fewer modes than the engine saw first
    seqs = _sweep_sequences(case, delays[::-1] if noisy else delays)
    calls = _count_steps(monkeypatch)
    sweep = dynamics.simulate_sweep(seqs, DEC, model)
    shared = sum(n for n, _ in calls)
    calls.clear()
    if noisy:
        # each point alone, in a fresh engine
        alone = [dynamics.simulate_sweep([seq], DEC, model)[0]
                 for seq in seqs]
        # every point makes its own step coefficients, so no step is shared
        assert shared == sum(n for n, _ in calls)
    else:
        alone = [dynamics.simulate_sequence(seq, DEC) for seq in seqs]
        # some pulses are shared, so some points read a stored propagator
        assert shared < sum(n for n, _ in calls)
    assert len(sweep) == len(seqs)
    for got, want in zip(sweep, alone):
        assert got.times.tobytes() == want.times.tobytes()
        assert got.qubit_pe.tobytes() == want.qubit_pe.tobytes()
        assert (np.float64(got.diagnostics.max_trace_deviation).tobytes()
                == np.float64(want.diagnostics.max_trace_deviation).tobytes())


@pytest.mark.parametrize("case", ["ramsey-100MHz", "ramsey-0Hz", "echo",
                                  "echo-phase0", "drag"])
def test_equal_pulses_compile_to_equal_runs(case):
    delays = np.linspace(0.0, 20e-9, 6)
    tables = {}
    for delay, seq in zip(delays, _sweep_sequences(case, delays)):
        compiled = dynamics.compile_sequence(seq)
        assert np.all(np.diff(compiled.times) >= 0.0)
        assert compiled.times[-1] == seq.readout_window.start
        if delay == 0.0:
            _assert_pulses_touch(compiled)
        for lo, hi, key in compiled.runs:
            if key is not None:
                got = tuple(getattr(compiled, name)[lo:hi].tobytes()
                            for name in ("u1", "u2", "u4", "dts"))
                # equal keys, at any position, have byte-equal steps
                assert tables.setdefault(key, got) == got, (delay, lo)
    # the pi/2 pulses share one key; an echo's pi pulse has its own
    assert len(tables) == (2 if case.startswith("echo") else 1)


def test_sweep_scans_the_first_pulse_once(monkeypatch):
    n_points = 7
    seqs = _sweep_sequences("ramsey-100MHz",
                            np.linspace(2e-9, 20e-9, n_points))
    compiled = dynamics.compile_sequence(seqs[0])
    lo, hi, idle = _runs(compiled)[0]
    assert lo == 0 and not idle and hi <= dynamics.SCAN_BLOCK
    first = compiled.u1[:hi].tobytes()
    calls = _count_steps(monkeypatch)
    dynamics.simulate_sweep(seqs, DEC)
    assert [n for n, u1 in calls if u1 == first] == [hi]
    calls.clear()
    for seq in seqs:
        dynamics.simulate_sequence(seq, DEC)
    assert [n for n, u1 in calls if u1 == first] == [hi] * n_points


def _mc_case(case):
    """(compiled tables, noise model, seed) of one Monte-Carlo case, on a
    20 ps pulse grid: the exact mean and the reference sample the same
    scheme on any grid, and the coarse one keeps 20,000 realizations
    cheap.  ou-n1 and ou-n2 are one case at two seeds."""
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    shape = dict(sigma=0.25e-9, pi_amplitude=a_pi)
    echo = pulses.build_echo_sequence(10e-9, **shape)
    # a 4 MHz offset with the noise all but frozen
    constant = dict(sigma_delta=1e-3, tau_c=1.0)
    seq, noise, seed = {
        "ou-n1": (echo, _OU_SLOW, 1),
        "ou-n2": (echo, _OU_SLOW, 2),
        "ou-n500": (pulses.build_ramsey_sequence(5e-9, 0.0, **shape),
                    _OU_SLOW, 500),
        "constant": (echo, constant, 3),
        "white": (echo, _OU_WHITE, 4),
        "drag": (pulses.build_echo_sequence(10e-9, drag_beta=0.1e-9, **shape),
                 _OU_SLOW, 5),
        "ramsey-100MHz": (pulses.build_ramsey_sequence(5e-9, 100e6, **shape),
                          _OU_SLOW, 6),
        "zero-delay": (pulses.build_ramsey_sequence(0.0, 0.0, **shape),
                       _OU_WHITE, 7),
    }[case]
    compiled = _coarse(seq)
    if case == "constant":
        compiled = replace(compiled, detuning0=4e6)
    return compiled, dynamics.OuNoiseModel(**noise), seed


def _coarse(seq, dt=2e-11):
    """The compiled tables of seq on a pulse grid of dt."""
    dt_pulse = dynamics.DEFAULT_DT_PULSE
    dynamics.DEFAULT_DT_PULSE = dt
    try:
        return dynamics.compile_sequence(seq)
    finally:
        dynamics.DEFAULT_DT_PULSE = dt_pulse


def _assert_monte_carlo_agrees(compiled, noise, seed, n=20_000):
    """The exact mean P_e at every run edge within 4 standard errors of
    `monte_carlo` over n realizations (plus 1e-12 of rounding, for noise
    that moves no realization)."""
    traj = dynamics._two_level_engine(DEC, noise)(compiled)
    assert traj.diagnostics.max_trace_deviation < 1e-12
    mean, sem = monte_carlo(compiled, DEC, noise, n, seed)
    npt.assert_array_less(abs(traj.qubit_pe - mean), 4.0 * sem + 1e-12)


@pytest.mark.parametrize("case", ["ou-n1", "ou-n2", "ou-n500", "constant",
                                  "white", "drag", "ramsey-100MHz",
                                  "zero-delay"])
def test_monte_carlo_matches_stepwise_reference(case):
    compiled, noise, seed = _mc_case(case)
    if case == "zero-delay":
        _assert_pulses_touch(compiled)
    _assert_monte_carlo_agrees(compiled, noise, seed)


# sigma = 2 gamma2 over tau_c = 4 us and 20 ns, and the white 193 MHz
# over 0.1 ns
_REGIMES = {"quasi-static": _OU_SLOW,
            "intermediate": dict(_OU_SLOW, tau_c=20e-9),
            "white": _OU_WHITE}


@pytest.mark.parametrize("regime", list(_REGIMES))
def test_exact_mean_matches_monte_carlo_on_sweeps(regime):
    noise = dynamics.OuNoiseModel(**_REGIMES[regime])
    delays = [0.0, 10e-9, 20e-9]
    for i, case in enumerate(("ramsey-0Hz", "echo")):
        for j, seq in enumerate(_sweep_sequences(case, delays)):
            _assert_monte_carlo_agrees(_coarse(seq), noise, 10 * i + j)


def test_exact_mean_is_the_static_average_for_frozen_noise():
    # tau_c of 1e9 s freezes each path over the sequence, so the mean is a
    # Gaussian average over static detunings: Gauss-Hermite quadrature of
    # noiseless runs.  2 pi sigma T = 2.7 over the 25 ns Ramsey point
    noise = dynamics.OuNoiseModel(sigma_delta=17e6, tau_c=1e9)
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    weights /= weights.sum()
    for seq in _sweep_sequences("ramsey-100MHz", [25e-9]) + \
            _sweep_sequences("echo", [25e-9]):
        compiled = dynamics.compile_sequence(seq)
        exact = dynamics._two_level_engine(DEC, noise)(compiled).qubit_pe
        static = sum(w * _evolve(replace(
            compiled, detuning0=compiled.detuning0 + x * 17e6), DEC)[0]
                     for x, w in zip(nodes, weights))
        npt.assert_allclose(exact, static, rtol=0.0, atol=1e-12)


# sigma = 13.6 and 27.2 MHz over tau_c = 4 us, 20 ns and 0.1 ns
_MODE_GRID = [dict(sigma_delta=sigma, tau_c=tau)
              for sigma in (13.6e6, 27.2e6) for tau in (4e-6, 20e-9, 1e-10)]


@pytest.mark.parametrize("spec", _MODE_GRID,
                         ids=lambda spec: f"{spec['sigma_delta'] / 1e6:g}MHz-"
                                          f"{spec['tau_c']:g}s")
def test_more_modes_move_the_final_pe_below_the_budget(spec, monkeypatch):
    noise = dynamics.OuNoiseModel(**spec)
    seqs = (_sweep_sequences("ramsey-0Hz", [40e-9])
            + _sweep_sequences("echo", [40e-9]))
    count = dynamics._mode_count
    budget = [dynamics.simulate_sweep(seqs, DEC, noise)]
    monkeypatch.setattr(dynamics, "_mode_count",
                        lambda *args: count(*args) + dynamics.MODES_PAD)
    budget.append(dynamics.simulate_sweep(seqs, DEC, noise))
    for got, more in zip(*budget):
        assert abs(got.qubit_pe[-1] - more.qubit_pe[-1]) <= 1e-13
        assert got.diagnostics.max_trace_deviation < 1e-12


def test_a_one_hertz_noise_is_the_noiseless_run():
    noise = dynamics.OuNoiseModel(sigma_delta=1.0, tau_c=4e-6)
    for case in ("ramsey-100MHz", "echo", "t1"):
        seqs = _sweep_sequences(case, [5e-9, 40e-9])
        for seq, got in zip(seqs, dynamics.simulate_sweep(seqs, DEC, noise)):
            want = dynamics.simulate_sequence(seq, DEC)
            npt.assert_allclose(got.qubit_pe, want.qubit_pe, rtol=0.0,
                                atol=1e-12)


def test_noise_that_needs_too_many_modes_raises():
    # 2 pi sigma T = 50 over a 40 ns Ramsey point
    noise = dynamics.OuNoiseModel(sigma_delta=200e6, tau_c=4e-6)
    seq = _sweep_sequences("ramsey-0Hz", [40e-9])
    with pytest.raises(ValueError, match="Hermite modes"):
        dynamics.simulate_sweep(seq, DEC, noise)


def test_the_trace_is_checked_on_every_mode(monkeypatch):
    # a trace defect linear in the noise lands in mode 1 only: mode 0's
    # trace stays 1, so a check on the mean alone would miss it
    step = dynamics._two_level_step

    def leaky(s, u1, u2, u4, w, dt, g1, decay):
        out = step(s, u1, u2, u4, w, dt, g1, decay)
        out[3, 0] += 1e-9 * w / (np.pi * _OU_SLOW["sigma_delta"])   # 1e-9 xi
        return out

    monkeypatch.setattr(dynamics, "_two_level_step", leaky)
    seq = _sweep_sequences("ramsey-0Hz", [5e-9])
    traj = dynamics.simulate_sweep(seq, DEC, dynamics.OuNoiseModel(
        **_OU_SLOW))[0]
    assert traj.diagnostics.max_trace_deviation > 1e-7


def _gap_moments(u, model, x0=0.0, var0=0.0):
    """Means, variances and covariance of (x_end, integral) over a gap of
    u tau_c, not conditioned on the end value, from starts of mean x0 and
    variance var0."""
    sigma, tau = model.sigma_delta, model.tau_c
    if u < 1.0:
        # 2u - 3 + 4 e^-u - e^-2u, summed without its cancellation
        g = sum((-1) ** k * (4.0 - 2.0 ** k) * u ** k / math.factorial(k)
                for k in range(3, 30))
    else:
        g = 2.0 * u - 3.0 + 4.0 * np.exp(-u) - np.exp(-2.0 * u)
    a, b = np.exp(-u), -np.expm1(-u)
    return (x0 * a, x0 * tau * b,
            var0 * a ** 2 + sigma ** 2 * -np.expm1(-2.0 * u),
            var0 * (tau * b) ** 2 + sigma ** 2 * tau ** 2 * g,
            var0 * a * tau * b + sigma ** 2 * tau * b ** 2)


def _assert_moments(x_end, integral, expected, n_se=5.0):
    """Sample moments of (x_end, integral) within n_se standard errors of
    the expected ones."""
    mean_x, mean_i, var_x, var_i, cov = expected
    n = len(x_end)
    assert abs(x_end.mean() - mean_x) < n_se * np.sqrt(var_x / n)
    assert abs(integral.mean() - mean_i) < n_se * np.sqrt(var_i / n)
    npt.assert_allclose(x_end.var(), var_x, rtol=n_se * np.sqrt(2.0 / n))
    npt.assert_allclose(integral.var(), var_i, rtol=n_se * np.sqrt(2.0 / n))
    corr = np.cov(x_end, integral)[0, 1] / np.sqrt(x_end.var(ddof=1)
                                                  * integral.var(ddof=1))
    assert abs(corr - cov / np.sqrt(var_x * var_i)) < n_se / np.sqrt(n)


@pytest.mark.parametrize("u", [1e-6, 1e-2, 1.0, 30.0])
def test_ou_gap_draw_has_the_closed_form_moments(u, rng):
    model = dynamics.OuNoiseModel(sigma_delta=5e6, tau_c=20e-9)
    x0 = np.full(200_000, 0.8 * model.sigma_delta)
    x_end, integral = ou_gap(x0, u * model.tau_c, model, rng)
    _assert_moments(x_end, integral, _gap_moments(u, model, x0=x0[0]))


def test_ou_gap_draw_matches_riemann_sums_of_sampled_paths(rng):
    # stationary starts: the fine-grid reference draws its own
    model = dynamics.OuNoiseModel(sigma_delta=5e6, tau_c=20e-9)
    times = np.linspace(0.0, model.tau_c, 201)
    paths = sample_ou_detuning(model, times, 10_000, rng=rng)
    riemann = np.diff(times)[0] * (paths[:, :-1] + paths[:, 1:]).sum(1) / 2
    x0 = model.sigma_delta * rng.standard_normal(40_000)
    x_end, integral = ou_gap(x0, model.tau_c, model, rng)
    moments = _gap_moments(1.0, model, var0=model.sigma_delta ** 2)
    _assert_moments(x_end, integral, moments)
    _assert_moments(paths[:, -1], riemann, moments)
    # two-sample: the variances agree to the spread of both samples
    for ours, ref in ((x_end, paths[:, -1]), (integral, riemann)):
        se = np.sqrt(2.0 / len(ours) + 2.0 / len(ref))
        npt.assert_allclose(ours.var(), ref.var(), rtol=5.0 * se)


def test_exact_mean_peak_memory_does_not_grow_with_the_sequence():
    noise = dynamics.OuNoiseModel(**_OU_SLOW)
    peak = {}
    # an idle gap is one step, so the pulses set the length: wider pulses
    # give 3002, 6002 and 12002 steps
    for sigma in (0.25e-9, 0.5e-9, 1e-9):
        seq = pulses.build_echo_sequence(
            40e-9, sigma=sigma,
            pi_amplitude=pulses.calibrate_pi_amplitude(sigma))
        tracemalloc.start()
        try:
            dynamics.simulate_sweep([seq], DEC, noise)
            peak[sigma] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    # the step coefficients are made a chunk at a time: a stack of every
    # step's, kept per pulse, grew the peak by 14 MiB from 3002 to 12002
    assert peak[0.5e-9] < 12.0, peak
    assert peak[1e-9] - peak[0.25e-9] < 3.0, peak


def test_sweep_peak_memory_is_one_points():
    # an idle gap is one step, so a wide pulse sizes the tables: 20,001
    # steps, 1.1 MiB per point
    a_pi = pulses.calibrate_pi_amplitude(5e-9)
    seqs = [pulses.build_t1_sequence(t, sigma=5e-9, pi_amplitude=a_pi)
            for t in np.linspace(0.0, 150e-9, 4)]

    def excess(batch):
        """tracemalloc peak of a sweep, less the bytes it returns (KiB)."""
        tracemalloc.start()
        try:
            trajs = dynamics.simulate_sweep(batch, DEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - sum(a.nbytes for t in trajs
                           for a in (t.times, t.qubit_pe))) / 1024

    excess(seqs[:1])
    longest = excess(seqs[-1:])
    # each point's compiled tables die before the next point compiles: an
    # engine that kept them until its next run (as a suspended generator's
    # locals do) measured 1154 KiB over the longest point, a sweep that
    # compiled every point first 2781 KiB, and this one 59 KiB
    sweep = excess(seqs)
    assert sweep < longest + 256, (sweep, longest)


def test_a_sweep_scans_each_distinct_pulse_once(monkeypatch):
    calls = _count_steps(monkeypatch)
    for case, n_distinct in (("ramsey-0Hz", 1), ("echo", 2)):
        dynamics.simulate_sweep(
            _sweep_sequences(case, np.linspace(0.0, 20e-9, 6)), DEC)
        # a sigma = 0.25 ns pulse is 1000 steps, one chunk
        assert [n for n, _ in calls] == [1000] * n_distinct, case
        calls.clear()
    # the wide pulse of the test above, 20,001 steps: 20 chunks, and one
    # stored propagator
    a_pi = pulses.calibrate_pi_amplitude(5e-9)
    seq = pulses.build_t1_sequence(150e-9, sigma=5e-9, pi_amplitude=a_pi)
    run = dynamics._two_level_engine(DEC)
    compiled = dynamics.compile_sequence(seq)
    assert len(compiled.dts) == 20_001
    first = run(compiled)
    cells = dict(zip(run.__code__.co_freevars, run.__closure__))
    props = cells["props"].cell_contents
    assert len(props) == 1 and len(calls) == 20
    assert max(n for n, _ in calls) == dynamics.SCAN_BLOCK
    # a rerun finds the pulse in the store, and gives the same bits
    assert run(compiled).qubit_pe.tobytes() == first.qubit_pe.tobytes()
    assert len(props) == 1 and len(calls) == 20


@pytest.mark.parametrize("sigma_mhz", [None, 20])
def test_a_trajectory_is_sampled_at_the_run_edges(sigma_mhz):
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    seq = pulses.build_echo_sequence(10e-9, sigma=0.25e-9, pi_amplitude=a_pi)
    noise = sigma_mhz and dynamics.OuNoiseModel(sigma_mhz * 1e6, 4e-6)
    traj = dynamics.simulate_sweep([seq], DEC, noise)[0]
    # t = 0, each pulse's start and end, and the readout's start: the
    # first pulse starts at 0 and the readout at the last one's end
    edges = np.unique([0.0, seq.readout_window.start]
                      + [t for e in seq.entries
                         for t in (e.pulse.start, e.pulse.end)])
    assert len(edges) == 6
    assert traj.times.tobytes() == edges.tobytes()
    assert traj.qubit_pe.shape == edges.shape and traj.qubit_pe[0] == 0.0
    traj.validate_populations()


@pytest.mark.parametrize("sigma_mhz", [None, 3])
def test_a_diverging_pulse_is_reported_unhealthy(sigma_mhz):
    # 1e13 Hz is 31 rad per 1 ps step, far past where RK4 is stable
    seq = pulses.build_rabi_sequence(1e13, 0.25e-9)
    noise = sigma_mhz and dynamics.OuNoiseModel(sigma_mhz * 1e6, 4e-6)
    # the overflow warnings are expected
    with pytest.warns(RuntimeWarning):
        traj = dynamics.simulate_sweep([seq], DEC, noise)[0]
    assert not np.isfinite(traj.qubit_pe[-1])
    assert not np.isfinite(traj.diagnostics.max_trace_deviation)
    with pytest.raises(ValueError, match="populations leave"):
        traj.validate_populations()


def test_each_point_counts_the_defect_of_the_propagators_it_applies(
        monkeypatch):
    # a stored propagator, built for the first point, counts for all three
    build = dynamics._pulse_propagator
    monkeypatch.setattr(dynamics, "_pulse_propagator",
                        lambda *args: (build(*args)[0], 1e-3))
    trajs = dynamics.simulate_sweep(
        _sweep_sequences("ramsey-0Hz", np.linspace(0.0, 20e-9, 3)), DEC)
    assert [t.diagnostics.max_trace_deviation for t in trajs] == [1e-3] * 3


def test_a_replaced_detuning_is_not_served_stale_scans():
    # compile_sequence fixes a pulse's tables, not the detuning the step
    # reads; a sequence run at the compiled detuning and then with
    # detuning0 replaced, through one engine, gives each fresh engine's bits
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    seq = pulses.build_ramsey_sequence(20e-9, 0.0, sigma=0.25e-9,
                                       pi_amplitude=a_pi)
    original = dynamics.compile_sequence(seq)
    moved = replace(original, detuning0=5e6)
    assert moved.runs == original.runs
    run = dynamics._two_level_engine(DEC)
    for compiled in (original, moved, original):
        fresh = dynamics._two_level_engine(DEC)(compiled)
        assert run(compiled).qubit_pe.tobytes() == fresh.qubit_pe.tobytes()
    # the two detunings are 4.3e-2 apart in the final P_e
    assert abs(fresh.qubit_pe[-1] - run(moved).qubit_pe[-1]) > 1e-2


def test_ou_sampler_matches_loop_reference():
    n = 69
    model = dynamics.OuNoiseModel(sigma_delta=193e6, tau_c=1e-10)
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    times = dynamics.compile_sequence(pulses.build_echo_sequence(
        2e-9, sigma=0.25e-9, pi_amplitude=a_pi)).times
    rng = np.random.default_rng(9)
    ref = np.empty((n, len(times)))
    ref[:, 0] = model.sigma_delta * rng.standard_normal(n)
    decay = np.exp(-np.diff(times) / model.tau_c)
    kick = model.sigma_delta * np.sqrt(1.0 - decay ** 2)
    noise = rng.standard_normal((len(times) - 1, n))   # row k: step k
    for k in range(len(times) - 1):
        ref[:, k + 1] = ref[:, k] * decay[k] + kick[k] * noise[k]
    npt.assert_array_equal(sample_ou_detuning(model, times, n, rng=9), ref)


def _final_pe_detuned(seq, detuning):
    """P_e at the readout of a sequence run with the qubit offset by
    `detuning` (Hz) from its carrier frame, without dephasing."""
    compiled = replace(dynamics.compile_sequence(seq), detuning0=detuning)
    return _evolve(compiled, NO_DEC)[0][-1]


def test_echo_refocuses_static_detuning():
    a_pi = pulses.calibrate_pi_amplitude(0.25e-9)
    delta = 5e6

    ramsey = pulses.build_ramsey_sequence(100e-9, 0.0, sigma=0.25e-9,
                                          pi_amplitude=a_pi)
    r0 = dynamics.simulate_sequence(ramsey, NO_DEC).qubit_pe[-1]
    r1 = _final_pe_detuned(ramsey, delta)
    # 5 MHz over 100 ns winds half a fringe: the offset destroys the signal
    assert abs(r1 - r0) > 0.5

    echo = pulses.build_echo_sequence(100e-9, sigma=0.25e-9,
                                      pi_amplitude=a_pi)
    e0 = dynamics.simulate_sequence(echo, NO_DEC).qubit_pe[-1]
    e1 = _final_pe_detuned(echo, delta)
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
    grid = dynamics.SimulationGrid(0.0, 1e-9, 1e-10)
    assert grid.times[0] == 0.0 and grid.times[-1] == 1e-9

    traj = dynamics.Trajectory(times=np.array([0.0]), qubit_pe=np.array([1.2]))
    with pytest.raises(ValueError, match="populations"):
        traj.validate_populations()
