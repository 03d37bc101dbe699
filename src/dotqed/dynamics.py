"""Time evolution engines: Lindblad master equation, semiclassical cavity
response, steady-state spectroscopy, and Monte-Carlo dephasing under
Ornstein-Uhlenbeck detuning noise.

Unit rules (easy to get wrong, so spelled out): Hamiltonians handed to
`evolve` and the sequence simulators are H/h in ordinary Hz; `lindblad_rhs`
is the one low-level entry point that works in angular units (rad/s), and
CollapseChannel rates are angular rates 1/s.  A relaxation channel built
from gamma1 in Hz therefore carries rate 2*pi*gamma1, giving
P_e(t) = exp(-2*pi*gamma1*t).
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from . import qops
from .pulses import sequence_envelopes
from .readout import dressed_resonance_shift

TWO_PI = 2.0 * np.pi

TRACE_TOL = 1e-7
TRUNCATION_POP_TOL = 1e-4
ADAPTIVE_TOL = 1e-9

DEFAULT_DT_PULSE = 1e-12
DEFAULT_DT_IDLE = 1e-11

# Steps per prefix-scan block: bounds the (block, 4, 4) propagator stacks.
SCAN_BLOCK = 1024
# Steps per Monte-Carlo block: bounds the (block, n_realizations) buffers of
# the stepper; its trace check runs at least this often.
MC_BLOCK = 128
# Realizations per block of OU kicks: bounds the sampler's draw buffer.
OU_DRAW_ROWS = 32


class TruncationWarning(UserWarning):
    """Cavity population reached the top of the Fock ladder."""


@dataclass(frozen=True)
class CollapseChannel:
    """Lindblad operator with an angular rate (1/s)."""
    operator: np.ndarray
    rate: float
    label: str = ""

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"collapse rate must be >= 0, got {self.rate!r}")


def qubit_channels(dec, space=None):
    """Relaxation sigma_- at 2*pi*gamma1 and dephasing sigma_z at 2*pi*gamma_phi/2.

    The sigma_z rate convention makes gamma2 = gamma1/2 + gamma_phi hold in Hz.
    """
    sm = qops.sigma_minus()
    sz = qops.sigma_z()
    if space is not None:
        sm = qops.qubit_operator(sm, space)
        sz = qops.qubit_operator(sz, space)
    chans = []
    if dec.gamma1 > 0:
        chans.append(CollapseChannel(sm, TWO_PI * dec.gamma1, "qubit relaxation"))
    if dec.gamma_phi > 0:
        chans.append(CollapseChannel(sz, np.pi * dec.gamma_phi, "qubit dephasing"))
    return chans


def cavity_channels(res, space):
    """Photon loss at 2*pi*kappa_tot, through the port and internally."""
    a = qops.cavity_operator(qops.annihilation(space.fock_cutoff), space)
    return [CollapseChannel(a, TWO_PI * res.kappa_tot, "cavity loss")]


def lindblad_rhs(rho, h_angular, channels):
    """drho/dt for H in angular units (rad/s) and channels with angular rates.

    -i[H, rho] + sum_k r_k (L rho L^dag - 1/2 {L^dag L, rho})
    """
    out = -1j * (h_angular @ rho - rho @ h_angular)
    for ch in channels:
        l_op = ch.operator
        ldl = l_op.conj().T @ l_op
        out = out + ch.rate * (l_op @ rho @ l_op.conj().T
                               - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def _jump_form(h_hz, channels):
    """The Lindblad generator as an effective Hamiltonian plus jumps.

    Returns Heff = 2 pi H - (i/2) sum_k r_k L_k^dag L_k (rad/s) and the jump
    operators J_k = sqrt(r_k) L_k, so that
    drho/dt = -i (Heff rho - rho Heff^dag) + sum_k J_k rho J_k^dag: the
    quantum-jump split of Dalibard, Castin and Molmer, PRL 68, 580 (1992).
    """
    heff = TWO_PI * np.asarray(h_hz, dtype=complex)
    dim = heff.shape[0]
    jumps = []
    for c in channels:
        l_op = np.asarray(c.operator, dtype=complex)
        if l_op.shape != (dim, dim):
            raise ValueError(f"channel {c.label!r} has shape {l_op.shape}, "
                             f"state is {dim}x{dim}")
        heff -= 0.5j * c.rate * (l_op.conj().T @ l_op)
        jumps.append(np.sqrt(c.rate) * l_op)
    return heff, jumps


@dataclass(frozen=True)
class SimulationGrid:
    """Uniform output grid; dt is an upper bound on the actual step."""
    t_start: float
    t_end: float
    dt: float
    method: str = "rk4"      # "rk4" (fixed step) or "rk45" (adaptive)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def times(self):
        n = max(1, int(np.ceil((self.t_end - self.t_start) / self.dt - 1e-9)))
        return np.linspace(self.t_start, self.t_end, n + 1)


@dataclass
class EvolveDiagnostics:
    max_trace_deviation: float = 0.0
    max_hermiticity_defect: float = 0.0
    min_eigenvalue: float = 0.0


@dataclass
class Trajectory:
    """Observables sampled on the integration grid."""
    times: np.ndarray
    qubit_pe: np.ndarray
    cavity_alpha: np.ndarray | None = None
    pe_stderr: np.ndarray | None = None
    expectations: dict | None = None
    diagnostics: EvolveDiagnostics | None = None

    def validate_populations(self, tol=1e-6):
        pe = np.asarray(self.qubit_pe)
        if pe.min() < -tol or pe.max() > 1.0 + tol:
            raise ValueError(
                f"populations leave [0, 1]: min {pe.min():.3e}, max {pe.max():.3e}")
        return True


def _rk4_step(rho, t, dt, rhs):
    k1 = rhs(t, rho)
    k2 = rhs(t + 0.5 * dt, rho + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, rho + (0.5 * dt) * k2)
    k4 = rhs(t + dt, rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def evolve(rho0, h_hz, channels, grid, space=None, e_ops=None):
    """Integrate the Lindblad equation for a constant H/h supplied in Hz.

    Returns a Trajectory sampled at every grid point with the qubit excited
    population (reduced over the cavity when `space` is given), <a> when
    `space` is given, optional extra expectations (e_ops: name -> operator),
    and numerical-hygiene diagnostics.  Warns (TruncationWarning) when the top
    two Fock levels accumulate more than 1e-4 population; warns when the
    trace drifts beyond 1e-7.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    qops.validate_density_matrix(rho0, "initial state")
    dim = rho0.shape[0]
    if space is not None and dim != space.dim:
        raise ValueError(f"state dim {dim} does not match {space!r}")

    heff, jumps = _jump_form(h_hz, channels)
    heff_dag = heff.conj().T
    jumps = [(j, j.conj().T) for j in jumps]

    def rhs(t, rho):
        # not -i (X - X^dag) with X = Heff rho: that assumes rho exactly
        # Hermitian, the jump term's rounding breaks it, and the error grows
        out = -1j * (heff @ rho - rho @ heff_dag)
        for j, j_dag in jumps:
            out += j @ rho @ j_dag
        return out

    times = grid.times
    n_steps = len(times) - 1
    e_ops = e_ops or {}
    # tr(A rho) = A^T.ravel() @ rho.ravel(); rows: trace, P_e, population of
    # the top two Fock levels, then <a> when space is given, then e_ops
    if space is not None:
        n = space.fock_cutoff
        top = np.zeros((n, n))
        top[n - 2, n - 2] = top[n - 1, n - 1] = 1.0
        ops = [qops.qubit_operator(np.diag([0.0, 1.0]), space),
               qops.cavity_operator(top, space),
               qops.cavity_operator(qops.annihilation(n), space)]
    else:
        ops = [np.zeros((dim, dim)), np.zeros((dim, dim))]
        ops[0][1, 1] = 1.0
    ops = [np.eye(dim)] + ops + [np.asarray(e_ops[k]) for k in e_ops]
    obs = np.array([op.T.ravel() for op in ops], dtype=complex)
    vals = np.empty((len(times), len(ops)), dtype=complex)
    diag = EvolveDiagnostics(min_eigenvalue=np.inf)
    eig_stride = max(1, n_steps // 128)

    if grid.method == "rk4":
        rho_iter = _rk4_state_iter(rho0, times, rhs)
    else:
        rho_iter = _adaptive_state_iter(rho0, times, rhs, dim)

    for k, rho in enumerate(rho_iter):
        vals[k] = obs @ rho.ravel()
        diag.max_hermiticity_defect = max(
            diag.max_hermiticity_defect, float(np.max(np.abs(rho - rho.conj().T))))
        if k % eig_stride == 0 or k == n_steps:
            w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
            diag.min_eigenvalue = min(diag.min_eigenvalue, float(w.min()))

    diag.max_trace_deviation = float(np.abs(vals[:, 0] - 1.0).max())
    max_top = float(vals[:, 2].real.max())
    if diag.max_trace_deviation > TRACE_TOL:
        warnings.warn(
            f"trace drifted by {diag.max_trace_deviation:.2e} (> {TRACE_TOL:g}); "
            "reduce dt", RuntimeWarning, stacklevel=2)
    if space is not None and max_top > TRUNCATION_POP_TOL:
        warnings.warn(
            f"top two Fock levels reached population {max_top:.2e} "
            f"(> {TRUNCATION_POP_TOL:g}); raise the cutoff",
            TruncationWarning, stacklevel=2)

    n_fixed = 3 + (space is not None)
    extra = {name: vals[:, n_fixed + i] for i, name in enumerate(e_ops)} or None
    return Trajectory(times=times, qubit_pe=vals[:, 1].real,
                      cavity_alpha=vals[:, 3] if space is not None else None,
                      expectations=extra, diagnostics=diag)


def _rk4_state_iter(rho0, times, rhs):
    rho = rho0.copy()
    yield rho
    for k in range(len(times) - 1):
        rho = _rk4_step(rho, times[k], times[k + 1] - times[k], rhs)
        yield rho


def _adaptive_state_iter(rho0, times, rhs, dim):
    def flat_rhs(t, y):
        return rhs(t, y.reshape(dim, dim)).ravel()

    sol = solve_ivp(flat_rhs, (times[0], times[-1]), rho0.ravel().astype(complex),
                    t_eval=times, method="RK45",
                    rtol=ADAPTIVE_TOL, atol=ADAPTIVE_TOL)
    if not sol.success:
        raise RuntimeError(f"adaptive integration failed: {sol.message}")
    for k in range(sol.y.shape[1]):
        yield sol.y[:, k].reshape(dim, dim)


def liouvillian(h_hz, channels):
    """Matrix of the Lindblad generator acting on row-major vectorized states.

    H is supplied in Hz, channels carry angular rates; the result L satisfies
    vec(drho/dt) = L @ vec(rho) with vec = ndarray.ravel() (C order), using
    vec(A rho B) = (A kron B^T) vec(rho).
    """
    heff, jumps = _jump_form(h_hz, channels)
    ident = np.eye(heff.shape[0])
    gen = -1j * (np.kron(heff, ident) - np.kron(ident, heff.conj()))
    for j in jumps:
        gen += np.kron(j, j.conj())
    return gen


def steady_state(h_hz, channels, residual_tol=1e-6):
    """Unique stationary state of the Lindblad generator; H in Hz.

    Solves L rho = 0 with the trace condition replacing one row.  Raises
    when the linear solve fails or the residual is large, both symptoms of
    a degenerate steady-state manifold (e.g. an undamped conserved quantity).
    """
    gen = liouvillian(h_hz, channels)
    d2 = gen.shape[0]
    d = int(round(np.sqrt(d2)))
    a_mat = gen.copy()
    a_mat[0, :] = 0.0
    a_mat[0, ::d + 1] = 1.0       # trace row over vec indices i*d + i
    b = np.zeros(d2, dtype=complex)
    b[0] = 1.0
    try:
        x = np.linalg.solve(a_mat, b)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("steady state is not unique or the generator is "
                           f"singular: {exc}") from None
    scale = float(np.max(np.abs(gen))) or 1.0
    residual = float(np.max(np.abs(gen @ x))) / scale
    if residual > residual_tol:
        raise RuntimeError(f"steady-state residual {residual:.2e} exceeds "
                           f"{residual_tol:g}; generator likely has a "
                           "degenerate kernel")
    rho = x.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return rho


# ----------------------------------------------------- semiclassical cavity

_STATE_PE = {"g": 0.0, "e": 1.0, "mixed": 0.5}


def semiclassical_steady_state(qubit_state, res, chi, probe_frequency,
                               probe_amplitude=1.0):
    """alpha_ss = -i sqrt(2 pi kappa_ext) a_in / (i 2 pi Delta + pi kappa_tot)."""
    shift = dressed_resonance_shift(qubit_state, chi)
    detuning = res.bare_frequency_nu_r + shift - probe_frequency
    return (-1j * np.sqrt(TWO_PI * res.kappa_ext) * probe_amplitude
            / (1j * TWO_PI * detuning + np.pi * res.kappa_tot))


def semiclassical_cavity_response(qubit_state, res, chi, probe_frequency,
                                  probe_amplitude, grid):
    """Ring up the driven-cavity field from vacuum, conditioned on a fixed
    qubit state.

    d alpha/dt = -[i 2 pi (nu_r + shift - nu_p) + pi kappa_tot] alpha
                 - i sqrt(2 pi kappa_ext) a_in

    with shift = -chi, +chi, 0 for g, e, mixed.  The constant probe_amplitude
    a_in is normalized so the steady state matches semiclassical_steady_state.
    """
    if qubit_state not in _STATE_PE:
        raise ValueError(f"unknown qubit state {qubit_state!r}")
    shift = dressed_resonance_shift(qubit_state, chi)
    detuning = res.bare_frequency_nu_r + shift - probe_frequency
    pole = 1j * TWO_PI * detuning + np.pi * res.kappa_tot
    drive = -1j * np.sqrt(TWO_PI * res.kappa_ext) * probe_amplitude

    times = grid.times
    alpha = np.fromiter(
        _rk4_state_iter(np.array(0j), times, lambda t, x: -pole * x + drive),
        dtype=complex, count=len(times))
    pe = np.full(len(times), _STATE_PE[qubit_state])
    return Trajectory(times=times, qubit_pe=pe, cavity_alpha=alpha)


# -------------------------------------------------- steady-state spectroscopy

def steady_state_spectroscopy(detunings, rabi_amplitude, dec):
    """Saturation line shape of the continuously driven qubit.

    P_e(Delta) = s / (2 (1 + (Delta/gamma2)^2 + s)) with the saturation
    parameter s = Omega^2 / (gamma1 gamma2).  All inputs in Hz; the 2 pi
    factors cancel inside both ratios.
    """
    if dec.gamma1 <= 0 or dec.gamma2 <= 0:
        raise ValueError("spectroscopy needs gamma1 > 0 and gamma2 > 0")
    detunings = np.asarray(detunings, dtype=float)
    s = rabi_amplitude ** 2 / (dec.gamma1 * dec.gamma2)
    return s / (2.0 * (1.0 + (detunings / dec.gamma2) ** 2 + s))


# ------------------------------------------------------------------ OU noise

@dataclass(frozen=True)
class OuNoiseModel:
    """Stationary Gaussian detuning noise with autocovariance
    sigma_delta^2 exp(-|dt| / tau_c)."""
    sigma_delta: float        # Hz, standard deviation
    tau_c: float              # s, correlation time
    n_realizations: int = 1000

    def __post_init__(self):
        if self.sigma_delta < 0:
            raise ValueError("sigma_delta must be >= 0")
        if self.tau_c <= 0:
            raise ValueError("tau_c must be positive")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")


def sample_ou_detuning(model, times, rng=None):
    """Exact-discretization OU paths at the given times, shape (n, n_times).

    x_{k+1} = x_k e^(-dt/tau) + sigma sqrt(1 - e^(-2 dt/tau)) xi_k, with the
    first sample drawn from the stationary distribution.  The update uses the
    exact transition density, so non-uniform spacing costs nothing.

    The paths are a transposed view of a time-major buffer, so the recurrence
    updates one contiguous row of realizations per step.  The kicks xi_k are
    drawn OU_DRAW_ROWS realizations at a time, in the order of one
    (n, n_times - 1) draw, straight into that buffer; the values equal those
    of the step-by-step loop bit for bit.
    """
    times = np.asarray(times, dtype=float)
    rng = np.random.default_rng(rng)
    n = model.n_realizations
    out = np.empty((len(times), n))
    out[0] = model.sigma_delta * rng.standard_normal(n)
    if len(times) > 1:
        decay = np.exp(-np.diff(times) / model.tau_c)
        kick = model.sigma_delta * np.sqrt(np.maximum(0.0, 1.0 - decay ** 2))
        draws = np.empty((min(OU_DRAW_ROWS, n), len(times) - 1))
        for lo in range(0, n, OU_DRAW_ROWS):
            rows = draws[:min(OU_DRAW_ROWS, n - lo)]
            rng.standard_normal(out=rows)
            np.multiply(rows.T, kick[:, None], out=out[1:, lo:lo + len(rows)])
        for k in range(len(decay)):
            out[k + 1] += out[k] * decay[k]
    return out.T


# ------------------------------------------------------- sequence simulation

@dataclass(frozen=True)
class _CompiledSequence:
    """Per-step drive tables for the two-level stepper.

    u1/u2/u4 hold pi*(h_x - i h_y) in rad/s at each step's start, midpoint,
    and end, evaluated one-sidedly per segment: pulse supports are truncated,
    hence discontinuous at their edges, but the edges always coincide with
    step boundaries, so every RK4 stage sees a smooth integrand.
    """
    times: np.ndarray
    dts: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u4: np.ndarray
    detuning0: float


def _field_table(entries, t):
    i_env, q_env = sequence_envelopes(entries, t)
    return np.pi * (i_env - 1j * q_env)


def compile_sequence(sequence):
    """Build the step grid and drive tables for a pulse sequence.

    The grid runs from t = 0 to the readout-window start, split at every
    pulse-support edge; segments under a pulse use DEFAULT_DT_PULSE, idle
    gaps DEFAULT_DT_IDLE.  All entries must share one carrier, given as a
    detuning from the qubit frequency; the frame rotates at that carrier, so
    the static z coefficient is -carrier.
    """
    carriers = sequence.carrier_frequencies
    if len(carriers) > 1:
        raise ValueError("sequence mixes carrier frequencies; the two-level "
                         "simulator supports a single carrier")
    carrier = carriers[0] if carriers else 0.0
    detuning0 = 0.0 - carrier     # not -carrier, which turns 0.0 into -0.0

    t_end = sequence.readout_window.start
    if t_end <= 0.0:
        times = np.array([0.0, 0.0])
        zero = np.zeros(1, dtype=complex)
        return _CompiledSequence(times, np.zeros(1), zero, zero, zero, detuning0)

    edges = {0.0, t_end}
    for entry in sequence.entries:
        for edge in (entry.pulse.start, entry.pulse.end):
            if 0.0 < edge < t_end:
                edges.add(edge)
    edges = sorted(edges)

    all_times = [np.array([0.0])]
    u1_parts, u2_parts, u4_parts = [], [], []
    for a, b in zip(edges, edges[1:]):
        mid = 0.5 * (a + b)
        active = [e for e in sequence.entries
                  if e.pulse.start <= mid <= e.pulse.end]
        dt = DEFAULT_DT_PULSE if active else DEFAULT_DT_IDLE
        n = max(1, int(np.ceil((b - a) / dt - 1e-9)))
        seg = np.linspace(a, b, n + 1)
        all_times.append(seg[1:])
        u1_parts.append(_field_table(active, seg[:-1]))
        u2_parts.append(_field_table(active, 0.5 * (seg[:-1] + seg[1:])))
        u4_parts.append(_field_table(active, seg[1:]))

    times = np.concatenate(all_times)
    return _CompiledSequence(times=times, dts=np.diff(times),
                             u1=np.concatenate(u1_parts),
                             u2=np.concatenate(u2_parts),
                             u4=np.concatenate(u4_parts),
                             detuning0=detuning0)


def _two_level_step(a, b, d, u1, u2, u4, w, dt, g1, decay):
    """One fixed RK4 step of the two-level Lindblad equation.

    State components are (p_g, rho_01, p_e); u1/u2/u4 are the drive at the
    step's start, midpoint and end, w = pi * detuning (rad/s), g1 and decay
    the population and coherence decay rates.  Every argument broadcasts, so
    one call steps a batch of realizations or a batch of steps.
    """
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


# The real basis states (p_g, Re rho_01, Im rho_01, p_e) as columns.
_BASIS_A = np.array([[1.0], [0.0], [0.0], [0.0]])
_BASIS_B = np.array([[0.0], [1.0], [1j], [0.0]])
_BASIS_D = np.array([[0.0], [0.0], [0.0], [1.0]])

# Chebyshev nodes on [-1, 1], and the coefficients of their Lagrange basis
# polynomials: l_m(x) = sum_j _LAGRANGE[j, m] x^j.
_NODES = np.cos((2 * np.arange(5) + 1) * np.pi / 10)
_LAGRANGE = np.array([np.poly(np.delete(_NODES, m))[::-1]
                      / np.prod(xm - np.delete(_NODES, m))
                      for m, xm in enumerate(_NODES)]).T


def _exp_series(z, degree=4):
    """1 + z + z^2/2 + ... + z^degree/degree!, the exponential series cut at
    `degree`.  Degree 4 is R, the RK4 stability polynomial: one RK4 step of
    dy/dt = (z/dt) y multiplies y by R(z); its j-th derivative is degree 4 - j.
    """
    out = 1.0
    for k in range(degree, 0, -1):
        out = 1.0 + z / k * out
    return out


def _evolve_two_level(compiled, dec, deltas=None):
    """Fixed-RK4 integration of the 2x2 Lindblad state from |g><g|.

    Works on matrix components (p_g, rho_01, p_e) with rho_10 = conj(rho_01),
    so Hermiticity is exact and the trace is preserved to rounding.  Every
    step under a pulse comes from the one RK4 formula, `_two_level_step`,
    applied to the four real basis states (p_g, Re rho_01, Im rho_01, p_e):
    the step is linear in that state, so this gives its 4x4 propagator.
    Returns (mean population, sem, max trace deviation) at every grid time.

    deltas is None: one deterministic trajectory.  The basis states are
    stepped through a block of SCAN_BLOCK steps at once; an inclusive prefix
    product (P[s:] = P[s:] @ P[:-s] for s = 1, 2, 4, ...) composes the
    propagators, and applied to the state carried in from the previous block
    it yields the state after every step of the block.  The trace deviation
    is checked at every step.

    deltas (n_realizations, n_steps): per-step z detunings in Hz, held
    constant within each step; all realizations advance together, in blocks
    of MC_BLOCK steps.
    - Steps under a pulse: the RK4 step is a polynomial of degree 4 in the
      detuning w, so `_two_level_step` gives each step's propagator P at 5
      Chebyshev nodes w_m spanning that step's realized w range (half-width
      at least 1 urad of phase per step, so that one realization or constant
      noise still has distinct nodes).  Every realization advances by
      s += sum_m l_m(x) (P(w_m) - I) s, with l_m the Lagrange weights of the
      nodes at x = (w - centre) / half-width, summed in powers of x:
      sum_j x^j C_j s with C_j = sum_m _LAGRANGE[j, m] (P(w_m) - I).  That
      is the exact RK4 step up to rounding; interpolating the increments
      P - I rather than P keeps that rounding relative to the increment.
    - Idle gaps (no drive) in closed form: each component evolves alone.
      p_e is multiplied by R(-g1 dt) per step in every realization, with R
      the RK4 stability polynomial, so the gap's mean and sem are their entry
      values times a cumulative product; rho_01 is multiplied by
      R(dt (2i w - decay)), one product per block of steps; p_g gains what
      p_e loses.
    Mean and sem are reduced per block; the trace deviation is checked at
    every block end and every gap end.
    """
    g1 = TWO_PI * dec.gamma1
    decay = 0.5 * g1 + TWO_PI * dec.gamma_phi
    n_steps = len(compiled.dts)
    pe_mean = np.zeros(n_steps + 1)
    pe_sem = np.zeros(n_steps + 1)
    trace_dev = 0.0

    if deltas is None:
        w = np.pi * compiled.detuning0
        state = np.array([1.0, 0.0, 0.0, 0.0])
        # Two stacks allocated once and ping-ponged, since matmul's out must
        # not overlap its inputs.  Each is stored basis-major, (in, step,
        # out), the layout the propagators are built in; matmul picks its
        # kernel, and so its rounding, by the operands' strides.
        stacks = np.empty((2, 4, min(SCAN_BLOCK, n_steps), 4))
        for lo in range(0, n_steps, SCAN_BLOCK):
            blk = slice(lo, lo + SCAN_BLOCK)
            a, b, d = _two_level_step(_BASIS_A, _BASIS_B, _BASIS_D,
                                      compiled.u1[blk], compiled.u2[blk],
                                      compiled.u4[blk], w, compiled.dts[blk],
                                      g1, decay)
            m = a.shape[1]
            np.stack([a, b.real, b.imag, d], axis=-1, out=stacks[0, :, :m])
            cur, nxt = stacks[:, :, :m].transpose(0, 2, 3, 1)
            shift = 1
            while shift < m:
                nxt[:shift] = cur[:shift]
                np.matmul(cur[shift:], cur[:-shift], out=nxt[shift:])
                cur, nxt = nxt, cur
                shift *= 2
            states = cur @ state
            pe_mean[lo + 1:lo + 1 + m] = states[:, 3]
            trace_dev = max(trace_dev, float(
                np.abs(states[:, 0] + states[:, 3] - 1.0).max()))
            state = states[-1]
        return pe_mean, pe_sem, trace_dev

    n_batch = deltas.shape[0]
    root_n = np.sqrt(n_batch)
    state = np.zeros((MC_BLOCK + 1, 4, n_batch))   # after each step of a block
    state[0, 0] = 1.0
    powers = np.ones((5, MC_BLOCK, n_batch))        # x^j per step and realization
    terms = np.empty((5, 4, n_batch))               # x^j s_l of one step
    flat = terms.reshape(20, n_batch)
    idle = (compiled.u1 == 0) & (compiled.u2 == 0) & (compiled.u4 == 0)
    runs = np.concatenate([[0], np.flatnonzero(np.diff(idle)) + 1, [n_steps]])

    for lo, hi in zip(runs[:-1], runs[1:]):
        if idle[lo]:
            s = state[0]
            p0 = s[3].copy()
            relax = np.cumprod(_exp_series(-g1 * compiled.dts[lo:hi]))
            pe_mean[lo + 1:hi + 1] = p0.mean() * relax
            if n_batch > 1:
                pe_sem[lo + 1:hi + 1] = p0.std(ddof=1) / root_n * relax
            coh = s[1] + 1j * s[2]
            for blo in range(lo, hi, MC_BLOCK):
                bhi = min(blo + MC_BLOCK, hi)
                # R(alpha + i beta) for z = dt (2i w - decay), in real
                # arithmetic: sum_j R^(j)(alpha) (i beta)^j / j!
                dt = compiled.dts[blo:bhi, None]
                alpha = -decay * dt
                beta = TWO_PI * dt * (compiled.detuning0 + deltas[:, blo:bhi].T)
                q = beta * beta
                factor = np.empty(beta.shape, dtype=complex)
                factor.real = _exp_series(alpha) - q * (
                    _exp_series(alpha, 2) / 2.0 - q / 24.0)
                factor.imag = beta * (_exp_series(alpha, 3)
                                      - q * _exp_series(alpha, 1) / 6.0)
                coh *= np.prod(factor, axis=0)
            s[1], s[2] = coh.real, coh.imag
            s[3] = p0 * relax[-1]
            s[0] += p0 - s[3]
            trace_dev = max(trace_dev, float(np.abs(s[0] + s[3] - 1.0).max()))
            continue
        for blo in range(lo, hi, MC_BLOCK):
            bhi = min(blo + MC_BLOCK, hi)
            m = bhi - blo
            blk = slice(blo, bhi)
            w = np.pi * (compiled.detuning0 + deltas[:, blk].T)   # (m, n)
            w_lo, w_hi = w.min(axis=1), w.max(axis=1)
            centre = 0.5 * (w_lo + w_hi)
            half = np.maximum(0.5 * (w_hi - w_lo), 1e-6 / compiled.dts[blk])
            a, b, d = _two_level_step(
                _BASIS_A[..., None], _BASIS_B[..., None], _BASIS_D[..., None],
                compiled.u1[blk, None], compiled.u2[blk, None],
                compiled.u4[blk, None], centre[:, None] + half[:, None] * _NODES,
                compiled.dts[blk, None], g1, decay)
            # incr[i, l, k, q] = (P(w_q) - I)[i, l] at step k and node q
            incr = np.stack([a, b.real, b.imag, d])
            incr[range(4), range(4)] -= 1.0
            coef = np.einsum("jq,ilkq->kijl", _LAGRANGE, incr).reshape(m, 4, 20)
            x = powers[1, :m]
            np.subtract(w, centre[:, None], out=x)
            x /= half[:, None]
            for j in range(2, 5):
                np.multiply(powers[j - 1, :m], x, out=powers[j, :m])
            for k in range(m):
                np.multiply(powers[:, k, None], state[k], out=terms)
                np.matmul(coef[k], flat, out=state[k + 1])
                state[k + 1] += state[k]
            pe = state[1:m + 1, 3]
            pe_mean[blo + 1:bhi + 1] = pe.mean(axis=1)
            if n_batch > 1:
                pe_sem[blo + 1:bhi + 1] = pe.std(axis=1, ddof=1) / root_n
            state[0] = state[m]
            trace_dev = max(trace_dev, float(
                np.abs(state[0, 0] + state[0, 3] - 1.0).max()))
    return pe_mean, pe_sem, trace_dev


def simulate_sequence(sequence, dec, *, extra_detuning=0.0):
    """Deterministic two-level simulation of a control sequence.

    Evolves |g><g| through the pulses up to the readout-window start, in the
    frame rotating at the sequence carrier.  extra_detuning adds a constant
    offset to the qubit frequency (useful for fringe scans).  The returned
    Trajectory's final sample is the population handed to the readout chain.
    """
    compiled = compile_sequence(sequence)
    compiled = replace(compiled,
                       detuning0=compiled.detuning0 + float(extra_detuning))
    pe, _, trace_dev = _evolve_two_level(compiled, dec)
    diag = EvolveDiagnostics(max_trace_deviation=trace_dev)
    return Trajectory(times=compiled.times, qubit_pe=pe, diagnostics=diag)


def monte_carlo_dephasing(sequence, noise, dec, *, rng=None):
    """Average the sequence simulation over OU detuning realizations.

    Every realization rides its own noise path, sampled once per step and
    held across it (the step grids resolve tau_c in any regime we simulate).
    All realizations advance together: each step under a pulse through its
    RK4 propagator interpolated in the detuning from 5 nodes, each idle gap
    in closed form through the RK4 stability polynomial (see
    `_evolve_two_level`); both agree with stepping every realization one RK4
    step at a time to rounding.  Returns the mean population with per-point
    standard error.  With sigma_delta = 0 this reduces exactly to
    simulate_sequence: same propagator scan, same grid, no noise term.
    """
    compiled = compile_sequence(sequence)

    deltas = None
    if noise.sigma_delta != 0.0:
        deltas = sample_ou_detuning(noise, compiled.times[:-1], rng=rng)
    pe, sem, trace_dev = _evolve_two_level(compiled, dec, deltas=deltas)
    diag = EvolveDiagnostics(max_trace_deviation=trace_dev)
    return Trajectory(times=compiled.times, qubit_pe=pe, pe_stderr=sem,
                      diagnostics=diag)

