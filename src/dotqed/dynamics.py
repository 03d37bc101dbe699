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
from typing import NamedTuple

import numpy as np
from scipy import sparse

from . import qops
from .pulses import sequence_envelopes
from .readout import dressed_resonance_shift

TWO_PI = 2.0 * np.pi

TRACE_TOL = 1e-7
TRUNCATION_POP_TOL = 1e-4
POPULATION_TOL = 1e-6       # slack outside [0, 1] of validate_populations
RESIDUAL_TOL = 1e-6         # largest relative steady-state residual

DEFAULT_DT_PULSE = 1e-12

# Steps per prefix-scan block: bounds the (block, 4, 4) propagator stacks.
SCAN_BLOCK = 1024
# Steps per Monte-Carlo block: bounds the (block, n_realizations) buffers of
# the stepper; its trace check runs at least this often.
MC_BLOCK = 128
# Largest d^2 that `evolve` steps with a dense one-step propagator R: dense
# beats sparse RK4 at every d^2 measured, to 576, but R and R^c while it is
# squared take 24 d^4 bytes, 1.5 MiB at 256 and 7.6 MiB at 576.
DENSE_MAX_DIM2 = 256
# Steps per bookkeeping block of `evolve`: bounds its (block + 1, d^2) buffer.
EVOLVE_BLOCK = 64


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

    Returns Heff = 2 pi H - (i/2) sum_k r_k L_k^dag L_k (rad/s) and each
    channel's (L_k, r_k), not sqrt(r_k) L_k, whose square is not r_k exactly:
    drho/dt = -i (Heff rho - rho Heff^dag) + sum_k r_k L_k rho L_k^dag, the
    quantum-jump split of Dalibard, Castin and Molmer, PRL 68, 580 (1992).
    A stack of Hamiltonians (m, d, d) gives a stack of Heff.
    """
    heff = TWO_PI * np.asarray(h_hz, dtype=complex)
    dim = heff.shape[-1]
    jumps = []
    for c in channels:
        l_op = np.asarray(c.operator, dtype=complex)
        if l_op.shape != (dim, dim):
            raise ValueError(f"channel {c.label!r} has shape {l_op.shape}, "
                             f"state is {dim}x{dim}")
        heff -= 0.5j * c.rate * (l_op.conj().T @ l_op)
        jumps.append((l_op, c.rate))
    return heff, jumps


def _step_count(length, dt):
    """The fewest steps of at most dt that span length, and at least one."""
    return max(1, int(np.ceil(length / dt - 1e-9)))


@dataclass(frozen=True)
class SimulationGrid:
    """Uniform grid of n + 1 points, n the fewest steps of at most dt; it
    steps at the uniform (t_end - t_start) / n."""
    t_start: float
    t_end: float
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def times(self):
        return np.linspace(self.t_start, self.t_end,
                           _step_count(self.t_end - self.t_start, self.dt) + 1)


@dataclass
class EvolveDiagnostics:
    max_trace_deviation: float = 0.0
    min_eigenvalue: float = 0.0


@dataclass
class Trajectory:
    """Observables sampled on the integration grid; pe_stderr is the final
    sample's standard error (0.0 without noise, None from `evolve`)."""
    times: np.ndarray
    qubit_pe: np.ndarray
    cavity_alpha: np.ndarray | None = None
    pe_stderr: float | None = None
    expectations: dict | None = None
    diagnostics: EvolveDiagnostics | None = None

    def validate_populations(self):
        pe = np.asarray(self.qubit_pe)
        if pe.min() < -POPULATION_TOL or pe.max() > 1.0 + POPULATION_TOL:
            raise ValueError(
                f"populations leave [0, 1]: min {pe.min():.3e}, max {pe.max():.3e}")
        return True


def _rk4_step(y, dt, f):
    """One classical RK4 step of dy/dt = f(t, y).  f is called as
    f(stage, y) with stage 0, 1, 1, 2: the step's start, its midpoint
    (twice) and its end."""
    k1 = f(0, y)
    k2 = f(1, y + (0.5 * dt) * k1)
    k3 = f(1, y + (0.5 * dt) * k2)
    k4 = f(2, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def evolve(rho0, h_hz, channels, grid, space=None, e_ops=None):
    """Integrate the Lindblad equation for a constant H/h supplied in Hz.

    Returns a Trajectory sampled at every grid point with the qubit excited
    population (reduced over the cavity when `space` is given), <a> when
    `space` is given, optional extra expectations (e_ops: name -> operator),
    and numerical-hygiene diagnostics.  Warns (TruncationWarning) when the top
    two Fock levels accumulate more than 1e-4 population; warns when the
    trace drifts beyond 1e-7.

    The state is the Hermitian part of rho0 in d^2 real coordinates
    (`_hermitian_coordinates`), stepped under the real generator G
    (`_real_generator`), so every state is Hermitian exactly and no
    Hermiticity defect is reported.  Every step is one RK4 step of G at the
    grid's uniform dt = (t_end - t_start) / n.  G and the step are
    constant, so the step is the linear map r -> R r with R the RK4
    stability polynomial of dt G (Hairer, Norsett and Wanner, Solving ODEs
    I, IV.2).  The states at every c-th step, c = max(1, n // 128), and
    the last are kept, and after the run rebuilt as matrices for one
    batched eigvalsh, the minimum eigenvalue.  The expectations are real
    products with the observables' coefficients on the coordinates, real
    and imaginary parts as separate columns.  For d^2 <= DENSE_MAX_DIM2 R
    is dense, and they come by baby and giant steps (`_baby_giant_samples`).
    Above that each step is `_rk4_step` with the sparse G (`_state_blocks`).
    Per step of a 5000-step run, R included, on a 2-vCPU Xeon, in us
    (medians over 2-4 runs; one 2-thread dense run took 28 at d^2 = 144):

        d^2                  144    256      324      400      576
        dense, 2 threads     0.8    1.7-2.1  2.8-3.0  4.0-4.7  9.6-11.5
        dense, 1 thread      0.8    2.1      3.6-4.0  5.9      16-18
        sparse RK4           24-37  27-32    29-35    32-39    38-49

    """
    rho0 = np.asarray(rho0, dtype=complex)
    qops.validate_density_matrix(rho0, "initial state")
    dim = rho0.shape[0]
    if space is not None and dim != space.dim:
        raise ValueError(f"state dim {dim} does not match {space!r}")

    re, im, sign = coords = _hermitian_coordinates(dim)
    gen = _real_generator(h_hz, channels, coords)

    times = grid.times
    n_steps = len(times) - 1
    dt = (grid.t_end - grid.t_start) / n_steps
    e_ops = e_ops or {}
    # tr(A rho) = A^T.ravel() @ vec(rho); rows: trace, P_e, population of
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
    obs_vec = np.array([op.T.ravel() for op in ops], dtype=complex).T
    # the same functionals on the coordinates, vec(rho) = r[re] + i sign r[im]
    obs = np.zeros_like(obs_vec)
    np.add.at(obs, re, obs_vec)
    np.add.at(obs, im, 1j * sign[:, None] * obs_vec)
    n_ops = len(ops)
    obs = np.concatenate([obs.real, obs.imag], axis=1)

    herm = (0.5 * (rho0 + rho0.conj().T)).ravel()
    r0 = np.empty(dim * dim)
    r0[re] = herm.real
    r0[im[sign > 0]] = herm.imag[sign > 0]
    c = max(1, n_steps // 128)      # spacing of the states kept for eigvalsh
    if len(r0) <= DENSE_MAX_DIM2:
        vals, kept = _baby_giant_samples(gen, dt, r0, n_steps, c, obs)
    else:
        vals = np.empty((len(times), 2 * n_ops))
        checked = np.union1d(np.arange(0, n_steps + 1, c), n_steps)
        kept = np.empty((len(checked), dim * dim))    # states at those steps
        for k0, rows in _state_blocks(gen, dt, r0, n_steps):
            k1 = k0 + len(rows)
            np.matmul(rows, obs, out=vals[k0:k1])
            a, b = np.searchsorted(checked, [k0, k1])
            kept[a:b] = rows[checked[a:b] - k0]
    vals = vals[:, :n_ops] + 1j * vals[:, n_ops:]
    rho = (kept[:, re] + 1j * (sign * kept[:, im])).reshape(-1, dim, dim)

    diag = EvolveDiagnostics(
        max_trace_deviation=float(np.abs(vals[:, 0] - 1.0).max()),
        min_eigenvalue=float(np.linalg.eigvalsh(rho).min()))
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


def _baby_giant_samples(gen, dt, r0, n_steps, c, obs):
    """`evolve`'s dense branch: the rows obs^T r_k of its n_steps RK4 steps
    r_(k+1) = R r_k from r0 (R `_rk4_step` of the sparse identity, made
    dense), and the kept r_k, k a multiple of c or n_steps, by baby and
    giant steps (Paterson and Stockmeyer, SIAM J. Comput. 2, 60, 1973): R^c
    by square and multiply; the giant steps X_a = R^(ac) r0, the kept
    states; with R^c dropped, each baby step W_b = obs^T R^b, b < c, read on
    every X_a by one matrix product, vals[ac + b] = W_b X_a; and the last
    n_steps mod c steps one R at a time.  No other state is formed.
    """
    step = _rk4_step(sparse.eye_array(len(r0), format="csr"), dt,
                     lambda stage, x: gen @ x).toarray()
    n_giant, tail = divmod(n_steps, c)
    kept = np.empty((n_giant + 1 + (tail > 0), len(r0)))
    kept[0] = r0
    power = step
    for bit in bin(c)[3:]:
        power = power @ power
        if bit == "1":
            power = power @ step
    for a in range(n_giant):
        np.matmul(power, kept[a], out=kept[a + 1])
    del power
    vals = np.empty((n_giant + 1, c, obs.shape[1]))
    baby = obs                              # W_b^T = (R^b)^T obs
    for b in range(c):
        baby = step.T @ baby if b else baby
        np.matmul(kept[:n_giant + 1], baby, out=vals[:, b])
    x = kept[n_giant]
    for _ in range(tail):
        x = step @ x
    kept[-1] = x
    return vals.reshape(-1, obs.shape[1])[:n_steps + 1], kept


def _state_blocks(gen, dt, r0, n_steps):
    """The states of `evolve`'s n_steps RK4 steps of dr/dt = gen r from r0,
    a block at a time, for d^2 > DENSE_MAX_DIM2: yields (k0, rows), rows[i]
    the state after step k0 + i, from k0 = 0 (r0 itself) up to n_steps.
    rows is a view of one (EVOLVE_BLOCK + 1, d^2) buffer, valid until the
    next block.  Each state is one `_rk4_step` of the sparse gen.
    """
    buf = np.empty((EVOLVE_BLOCK + 1, len(r0)))
    buf[0] = r0
    for lo in range(0, n_steps, EVOLVE_BLOCK):
        m = min(EVOLVE_BLOCK, n_steps - lo)
        for j in range(m):
            buf[j + 1] = _rk4_step(buf[j], dt, lambda stage, x: gen @ x)
        first = 0 if lo == 0 else 1     # row 0 was the previous block's last
        yield lo + first, buf[first:m + 1]
        buf[0] = buf[m]


def _hermitian_coordinates(d):
    """Where each entry of a d x d Hermitian rho sits among its d^2 real
    coordinates r: rho_ii at i, then Re rho_ij and Im rho_ij of the p-th
    pair i < j (np.triu_indices order) at d + 2p and d + 2p + 1.  Returns
    (re, im, sign) over vec(rho) = rho.ravel(), with
    vec(rho) = r[re] + 1j * sign * r[im]: sign is +1 above the diagonal,
    -1 below it (rho_ji = rho_ij^*) and 0 on it."""
    iu, ju = np.triu_indices(d, 1)
    pair = d + 2 * np.arange(len(iu))
    re = np.zeros((d, d), dtype=np.intp)
    im = np.zeros((d, d), dtype=np.intp)
    sign = np.zeros((d, d))
    re[np.diag_indices(d)] = np.arange(d)
    re[iu, ju] = re[ju, iu] = pair
    im[iu, ju] = im[ju, iu] = pair + 1
    sign[iu, ju], sign[ju, iu] = 1.0, -1.0
    return re.ravel(), im.ravel(), sign.ravel()


def _real_generator(h_hz, channels, coords):
    """Sparse (CSR) real generator G of the Lindblad equation on the real
    coordinates of `_hermitian_coordinates` (coords = its (re, im, sign)):
    dr/dt = G r.  H is in Hz, channels carry angular rates.

    Built from `_generator_triplets` through the index map.  A column of
    vec index (k, l) feeds the coordinate of Re rho_kl with its entry L
    and, off the diagonal, that of Im rho_kl with i sign L.  A row (i, j)
    with i <= j gives the real part of what it receives to Re rho_ij's row
    and, for i < j, the imaginary part to Im rho_ij's.  The rows i > j are
    the conjugates of those kept (L(rho^dag) = L(rho)^dag, the conjugation
    symmetry of the Kronecker form), and on the diagonal the imaginary
    parts cancel, so nothing real is dropped.
    """
    re, im, sign = coords
    rows, cols, vals, d = _generator_triplets(h_hz, channels)
    keep = sign[rows] >= 0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    off = sign[cols] != 0
    rows = np.concatenate([rows, rows[off]])
    vals = np.concatenate([vals, 1j * sign[cols[off]] * vals[off]])
    cols = np.concatenate([re[cols], im[cols[off]]])
    upper = sign[rows] > 0
    rows = np.concatenate([re[rows], im[rows[upper]]])
    cols = np.concatenate([cols, cols[upper]])
    vals = np.concatenate([vals.real, vals[upper].imag])
    nz = vals != 0.0
    return sparse.csr_array((vals[nz], (rows[nz], cols[nz])),
                            shape=(d * d, d * d))


def _kron_triplets(a, b):
    """(row, col, value) of A kron B for (d, d) a and b, each product taken
    from the nonzeros of its two factors, A's outer and B's inner, in C
    order."""
    d = a.shape[-1]
    ai, aj = np.nonzero(a)
    bi, bj = np.nonzero(b)
    ia = np.repeat(np.arange(len(ai)), len(bi))
    ib = np.tile(np.arange(len(bi)), len(ai))
    return (ai[ia] * d + bi[ib], aj[ia] * d + bj[ib],
            a[ai, aj][ia] * b[bi, bj][ib])


def _generator_triplets(h_hz, channels):
    """(row, col, value) of the Lindblad generator of H (d, d) in Hz on
    vec(rho) = rho.ravel().

    vec(A rho B) = (A kron B^T) vec(rho), so the generator is
    -i Heff kron I + i I kron Heff^* + sum_k r_k L_k kron L_k^*, the terms in
    this order; duplicates are left for the sparse constructor to sum.
    Also returns d.
    """
    heff, jumps = _jump_form(h_hz, channels)
    ident = np.eye(heff.shape[-1])
    pairs = [(-1j * heff, ident), (ident, 1j * heff.conj())]
    pairs += [(rate * l_op, l_op.conj()) for l_op, rate in jumps]
    rows, cols, vals = zip(*(_kron_triplets(a, b) for a, b in pairs))
    return (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
            heff.shape[-1])


class SteadyStates(NamedTuple):
    """Stationary states (m, d, d) and their relative residuals (m,)."""
    states: np.ndarray
    residuals: np.ndarray


def steady_state(h_hz, channels, space=None):
    """Unique stationary state of the Lindblad generator; H in Hz.  A stack
    of one for `steady_states`."""
    return steady_states(np.asarray(h_hz)[None], channels, space).states[0]


def steady_states(h_stack, channels, space=None):
    """Unique stationary states of a stack of Lindblad generators, H in Hz.

    h_stack is (m, d, d); every member shares `channels`.  Each member
    solves L rho = 0 with the trace condition replacing its row 0, on
    vec(rho) = rho.ravel().  With `space`, the layout of `evolve`, vec(rho)
    is ordered by the charge k = N_i - N_j of N = a^dag a + sigma_z / 2
    (`_charge_sectors`): the cavity loss, the qubit channels and the
    Jaynes-Cummings term keep k and a coherent drive moves it by one, so
    the system is block-tridiagonal in k (the Lindblad symmetry sectors of
    Buca and Prosen, NJP 14, 073007 (2012), and Albert and Jiang, PRA 89,
    022118 (2014)), and the trace row lies in the k = 0 block.  A
    generator that couples sectors further apart raises ValueError.
    Without `space` the whole system is one block.  The blocks are solved
    for every member at once by block elimination (`_block_thomas`).

    A member's residual max |L rho| is relative to its own largest
    generator entry.  Raises, naming the member, when its system is
    singular or its residual exceeds RESIDUAL_TOL, both symptoms of a
    degenerate steady-state manifold (e.g. an undamped conserved
    quantity).  Returns SteadyStates: the Hermitized, unit-trace states and
    their residuals.

    Per branch of `measure_dispersive_pull` (61 members, d^2 = 144 in 13
    sectors of at most 22) on a 2-vCPU Xeon, numpy 2.4.6, in ms, the range
    over five runs and three branches of medians of 15 calls:

        sparse LU (SuperLU), 8 members per factorization    30-41
        charge sectors, all 61 members at once              12-21
    """
    h_stack = np.asarray(h_stack, dtype=complex)
    if (h_stack.ndim != 3 or h_stack.shape[1] != h_stack.shape[2]
            or not len(h_stack)):
        raise ValueError("expected a non-empty (m, d, d) stack, got shape "
                         f"{h_stack.shape}")
    heff, jumps = _jump_form(h_stack, channels)
    sectors = _charge_sectors(heff, jumps, space)
    x, scale = _solve_members(heff, jumps, sectors, 0)
    rho = x.reshape(h_stack.shape)
    residuals = (np.abs(lindblad_rhs(rho, TWO_PI * h_stack, channels))
                 .max(axis=(1, 2)) / scale)
    bad = np.flatnonzero(residuals > RESIDUAL_TOL)
    if bad.size:
        raise RuntimeError(f"steady state {bad[0]}: residual "
                           f"{residuals[bad[0]]:.2e} exceeds {RESIDUAL_TOL:g}"
                           "; generator likely has a degenerate kernel")
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return SteadyStates(rho, residuals)


def _charge_sectors(heff, jumps, space):
    """The vec(rho) indices of each charge sector, k increasing.

    In `space`'s layout index q n + c holds N = c + q - 1/2, so vec index
    (i, j) has k = N_i - N_j.  -i Heff rho moves k by N_i - N_l of an entry
    Heff_il, and r L rho L^dag by the difference of two such shifts of L:
    raises ValueError unless each moves it by at most one.  Without space,
    one sector holds every index.
    """
    d = heff.shape[-1]
    if space is None:
        return [np.arange(d * d)]
    if d != space.dim:
        raise ValueError(f"generator dim {d} does not match {space!r}")
    level = np.add.outer(np.arange(2), np.arange(space.fock_cutoff)).ravel()
    shift = np.subtract.outer(level, level)
    reach = [np.abs(shift[np.any(heff != 0, axis=0)]).max(initial=0)]
    reach += [np.ptp(s) if s.size else 0
              for s in (shift[l_op != 0] for l_op, _ in jumps)]
    if max(reach) > 1:
        raise ValueError("the generator couples charge sectors "
                         f"{max(reach)} apart (k = N_i - N_j, "
                         "N = a^dag a + sigma_z / 2); solve without space")
    charge = shift.ravel()
    order = np.argsort(charge, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(charge[order])) + 1)


def _solve_members(heff, jumps, sectors, first):
    """`_block_thomas` of the members first, first + 1, ...; when a block
    of some member is singular each member is solved alone, so the error
    names the member."""
    try:
        return _block_thomas(heff, jumps, sectors)
    except np.linalg.LinAlgError as exc:
        if len(heff) == 1:
            raise RuntimeError(f"steady state {first} is not unique or its "
                               f"generator is singular: {exc}") from None
    return tuple(map(np.concatenate, zip(*(
        _solve_members(heff[i:i + 1], jumps, sectors, first + i)
        for i in range(len(heff))))))


def _block_thomas(heff, jumps, sectors):
    """Solutions x (m, d^2) on vec(rho) of the members' bordered systems,
    and each member's largest |generator entry| (m,).

    The rows of sector k meet the columns of sectors k - 1, k and k + 1
    only: blocks L_k, A_k and U_k of a row band that is built for all m
    members at once, entry for entry in the Kronecker form of
    `_generator_triplets`, and dropped once used.  Forward elimination
    S_k = A_k - L_k S_(k-1)^-1 U_(k-1), y_k = b_k - L_k S_(k-1)^-1 y_(k-1)
    is one batched LU solve per sector, S_k^-1 [U_k | y_k], pivoting
    within the block; back substitution x_k = S_k^-1 y_k - S_k^-1 U_k
    x_(k+1) keeps those solves only.
    """
    m, d = heff.shape[0], heff.shape[-1]
    scale = np.zeros(m)
    solved = []                 # S_k^-1 [U_k | y_k], (m, s_k, s_(k+1) + 1)
    for k, rows in enumerate(sectors):
        cols = np.concatenate(sectors[max(k - 1, 0):k + 2])
        i, j = np.divmod(rows, d)
        p, q = np.divmod(cols, d)
        band = np.zeros((m, len(rows), len(cols)), dtype=complex)
        r, c = np.nonzero(j[:, None] == q)          # -i Heff kron I
        band[:, r, c] = -1j * heff[:, i[r], p[c]]
        r, c = np.nonzero(i[:, None] == p)          # i I kron Heff^*
        band[:, r, c] += 1j * heff[:, j[r], q[c]].conj()
        for l_op, rate in jumps:                    # r L kron L^*
            band += rate * l_op[np.ix_(i, p)] * l_op[np.ix_(j, q)].conj()
        np.maximum(scale, np.abs(band).max(axis=(1, 2)), out=scale)
        y = np.zeros((m, len(rows), 1), dtype=complex)
        if rows[0] == 0:              # row 0 becomes the trace row
            band[:, 0] = p == q
            y[:, 0] = 1.0
        lo = len(sectors[k - 1]) if k else 0
        hi = lo + len(rows)
        block = band[:, :, lo:hi]
        if k:
            fill = band[:, :, :lo] @ solved[-1]
            block = block - fill[..., :-1]
            y -= fill[..., -1:]
        solved.append(np.linalg.solve(
            block, np.concatenate([band[:, :, hi:], y], axis=2)))
    x = [solved[-1][..., 0]]
    for sol in reversed(solved[:-1]):
        x.append(sol[..., -1] - (sol[..., :-1] @ x[-1][..., None])[..., 0])
    out = np.empty((m, d * d), dtype=complex)
    out[:, np.concatenate(sectors)] = np.concatenate(x[::-1], axis=1)
    scale[scale == 0.0] = 1.0
    return out, scale


# ----------------------------------------------------- semiclassical cavity

def _cavity_pole(qubit_state, res, chi, probe_frequency):
    """p = i 2 pi (nu_r + shift - nu_p) + pi kappa_tot, with shift = -chi,
    +chi, 0 for g, e, mixed: the undriven field decays as exp(-p t)."""
    shift = dressed_resonance_shift(qubit_state, chi)
    detuning = res.bare_frequency_nu_r + shift - probe_frequency
    return 1j * TWO_PI * detuning + np.pi * res.kappa_tot


def semiclassical_steady_state(qubit_state, res, chi, probe_frequency,
                               probe_amplitude):
    """alpha_ss = -i sqrt(2 pi kappa_ext) a_in / (i 2 pi Delta + pi kappa_tot)."""
    return (-1j * np.sqrt(TWO_PI * res.kappa_ext) * probe_amplitude
            / _cavity_pole(qubit_state, res, chi, probe_frequency))


def semiclassical_cavity_response(qubit_state, res, chi, probe_frequency,
                                  probe_amplitude, times):
    """Complex cavity field at the given times, rung up from vacuum at t = 0
    under a constant probe, conditioned on a fixed qubit state.

    d alpha/dt = -p alpha - i sqrt(2 pi kappa_ext) a_in is linear, so
    alpha(t) = alpha_ss (1 - exp(-p t)) in closed form (Blais et al.,
    RMP 93, 025005, 2021), with p from `_cavity_pole` and alpha_ss from
    `semiclassical_steady_state`.
    """
    pole = _cavity_pole(qubit_state, res, chi, probe_frequency)
    alpha_ss = semiclassical_steady_state(qubit_state, res, chi,
                                          probe_frequency, probe_amplitude)
    return alpha_ss * -np.expm1(-pole * np.asarray(times, dtype=float))


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


def _ou_transition(dts, model):
    """(decay, kick scale) of the exact OU transition over each step of dts:
    x(t + dt) = x(t) decay + kick xi, xi standard normal."""
    decay = np.exp(-dts / model.tau_c)
    return decay, model.sigma_delta * np.sqrt(np.maximum(0.0, 1.0 - decay ** 2))


def sample_ou_detuning(model, times, rng=None):
    """Exact-discretization OU paths at the given times, shape (n, n_times).

    x_{k+1} = x_k e^(-dt/tau) + sigma sqrt(1 - e^(-2 dt/tau)) xi_k from the
    stationary draw sigma * standard_normal(n) at times[0], as one
    `_ou_block` over every step: the kicks are one (n_times - 1, n) draw,
    row k those of step k.  The exact transition makes non-uniform spacing
    free.  A noisy `simulate_sweep` draws the same recurrence block by block
    while it steps; this is the whole-path reference its statistics are
    checked against.
    """
    times = np.asarray(times, dtype=float)
    rng = np.random.default_rng(rng)
    out = np.empty((len(times), model.n_realizations))
    out[0] = model.sigma_delta * rng.standard_normal(model.n_realizations)
    _ou_block(out, np.diff(times), model, rng)
    return out.T


def _ou_block(path, dts, model, rng):
    """Fill path[1:m + 1] with the OU values after each step of dts, from
    the value in path[0] (`_ou_transition`); the m kicks are one (m, n)
    draw, row k the kicks of step k."""
    m = len(dts)
    decay, kick = _ou_transition(dts, model)
    rng.standard_normal(out=path[1:m + 1])
    path[1:m + 1] *= kick[:, None]
    for k in range(m):
        path[k + 1] += path[k] * decay[k]


def _ou_gap(x, duration, model, rng):
    """(OU value at the end of a gap, integral of the path over the gap) for
    paths at x at its start, drawn jointly and exactly (Gillespie, Phys. Rev.
    E 54, 2084, 1996) from one (2, n) draw: row 0 gives the end value by the
    transition `_ou_block` uses, row 1 the integral given both ends.  With
    u = duration / tau_c that integral has mean tau_c tanh(u/2) (x + x_end)
    and variance 2 sigma^2 tau_c^2 (u - 2 tanh(u/2)).  That difference is
    u^3 / 12 to leading order; below u = 0.05 its Taylor series (to u^9)
    replaces the cancelling subtraction, which keeps it to about 1e-13
    relative.
    """
    u = duration / model.tau_c
    decay, kick = _ou_transition(duration, model)
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


# ------------------------------------------------------- sequence simulation

@dataclass(frozen=True)
class _CompiledSequence:
    """Per-step drive tables for the two-level stepper, and its runs.

    u1/u2/u4 hold pi*(h_x - i h_y) in rad/s at each step's start, midpoint,
    and end.  runs are (lo, hi, key) over steps lo to hi - 1, in time order:
    an idle gap, key None and no drive, or a pulse, key its entry moved to
    start at t = 0.  Equal keys have byte-equal steps.
    """
    times: np.ndarray
    dts: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u4: np.ndarray
    detuning0: float
    runs: tuple


def _field_table(entries, t, out):
    """Write pi (I - i Q) on the grid t into out, part by part, so that no
    complex temporary is made; 0 - Q, not -Q, keeps +0.0 where Q is 0."""
    i_env, q_env = sequence_envelopes(entries, t)
    np.multiply(i_env, np.pi, out=out.real)
    np.subtract(0.0, q_env, out=q_env)
    np.multiply(q_env, np.pi, out=out.imag)


def compile_sequence(sequence):
    """Build the step grid, drive tables and runs of a pulse sequence.

    Walks the pulses in time order up to the readout-window start.  A pulse
    of zero amplitude adds no steps.  Every other pulse is the pulse moved
    to start at t = 0, stepped on linspace(0, 2 k sigma, n + 1), n the
    fewest steps of at most DEFAULT_DT_PULSE, so its truncated edges are
    step boundaries and equal pulses give byte-equal tables; its times are
    its start plus that grid.  The time before a pulse, or before the
    readout, is one idle step, taken whole as an exact exponential
    (`_two_level_engine`): its p_e = p0 e^(-g1 t) is monotone, so its two
    samples bound it.  All entries must share one carrier, a detuning from
    the qubit frequency; the frame rotates at it, so the static z
    coefficient is -carrier.
    """
    carriers = sequence.carrier_frequencies
    if len(carriers) > 1:
        raise ValueError("sequence mixes carrier frequencies; the two-level "
                         "simulator supports a single carrier")
    carrier = carriers[0] if carriers else 0.0
    detuning0 = 0.0 - carrier     # not -carrier, which turns 0.0 into -0.0

    # (steps, start, end, key) of each gap and driven pulse; a gap shorter
    # than a billionth of a pulse step is rounding, as in `_step_count`
    pieces, t = [], 0.0
    for entry in sorted(sequence.entries, key=lambda e: e.pulse.start):
        p = entry.pulse
        if p.amplitude == 0.0:
            continue
        if p.start - t > 1e-9 * DEFAULT_DT_PULSE:
            pieces.append((1, t, p.start, None))
        moved = replace(entry, pulse=replace(p, t0=p.truncation_k * p.sigma))
        pieces.append((_step_count(moved.pulse.end, DEFAULT_DT_PULSE),
                       p.start, p.end, moved))
        t = p.end
    t_end = sequence.readout_window.start
    if t_end - t > 1e-9 * DEFAULT_DT_PULSE:
        pieces.append((1, t, t_end, None))

    # the tables are made once and filled in place, so compiling a sweep's
    # next point holds no second copy of them beside the stored scans
    n_steps = sum(piece[0] for piece in pieces)
    times = np.zeros(n_steps + 1)
    dts = np.empty(n_steps)
    u1, u2, u4 = np.zeros((3, n_steps), dtype=complex)
    runs, lo = [], 0
    for n, start, end, key in pieces:
        hi = lo + n
        seg = times[lo:hi + 1]      # seg[0] is the previous run's end
        if key is None:
            dts[lo] = end - start
        else:
            # the pulse's own grid in seg and its midpoints in dts, then
            # its steps in dts and its times in seg
            entry, step, last = [key], dts[lo:hi], seg[0]
            seg[:] = np.linspace(0.0, key.pulse.end, n + 1)
            _field_table(entry, seg[:-1], u1[lo:hi])
            np.add(seg[:-1], seg[1:], out=step)
            step *= 0.5
            _field_table(entry, step, u2[lo:hi])
            _field_table(entry, seg[1:], u4[lo:hi])
            np.subtract(seg[1:], seg[:-1], out=step)
            seg += start
            seg[0] = last
        seg[-1] = end
        runs.append((lo, hi, key))
        lo = hi
    return _CompiledSequence(times, dts, u1, u2, u4, detuning0, tuple(runs))


def _two_level_step(s, u1, u2, u4, w, dt, g1, decay):
    """One fixed RK4 step (`_rk4_step`) of the two-level Lindblad equation.

    The state s holds (p_g, x, y, p_e) on its first axis, rho_01 = x + i y;
    u1/u2/u4 are the drive at the step's start, midpoint and end,
    w = pi * detuning (rad/s), g1 and decay the population and coherence
    decay rates.  Every argument broadcasts, so one call steps a batch of
    realizations or a batch of steps; the step is linear in s, so stepping
    np.eye(4) gives its propagator, P[i, l] in the first two axes.
    """
    w2 = 2.0 * w

    def rate(stage, s):
        u = (u1, u2, u4)[stage]
        p_g, x, y, p_e = s
        pop = p_e - p_g
        flow = 2.0 * (u.imag * x - u.real * y)  # population flow of the pulse
        out = np.empty((4,) + np.broadcast_shapes(flow.shape, np.shape(w)))
        np.add(flow, g1 * p_e, out=out[0])
        np.negative(out[0], out=out[3])
        np.subtract(u.imag * pop, w2 * y, out=out[1])
        out[1] -= decay * x
        np.subtract(w2 * x, u.real * pop, out=out[2])
        out[2] -= decay * y
        return out

    return _rk4_step(s, dt, rate)


# Chebyshev nodes on [-1, 1], and the coefficients of their Lagrange basis
# polynomials: l_m(x) = sum_j _LAGRANGE[j, m] x^j.
_NODES = np.cos((2 * np.arange(5) + 1) * np.pi / 10)
_LAGRANGE = np.array([np.poly(np.delete(_NODES, m))[::-1]
                      / np.prod(xm - np.delete(_NODES, m))
                      for m, xm in enumerate(_NODES)]).T


def _scan_block(compiled, blk, g1, decay, stacks):
    """Inclusive prefix products of the propagators of the m pulse steps blk
    (a slice) of compiled tables: P[s:] = P[s:] @ P[:-s] for
    s = 1, 2, 4, ..., ping-ponged through the C-ordered `stacks`
    (2, >= m, 4, 4), as matmul's out must not overlap its inputs.  Returns
    one of them, (m, 4, 4), its k-th matrix the map from the state
    (p_g, x, y, p_e) before the block to the state after step k."""
    dts = compiled.dts[blk]
    cur, nxt = stacks[:, :len(dts)]
    cur[...] = np.moveaxis(_two_level_step(
        np.eye(4)[..., None], compiled.u1[blk], compiled.u2[blk],
        compiled.u4[blk], np.pi * compiled.detuning0, dts, g1, decay), -1, 0)
    shift = 1
    while shift < len(dts):
        nxt[:shift] = cur[:shift]
        np.matmul(cur[shift:], cur[:-shift], out=nxt[shift:])
        cur, nxt = nxt, cur
        shift *= 2
    return cur


def _two_level_engine(dec, noise=None):
    """The two-level engine of one sweep: returns run(compiled, rng=None),
    the Trajectory of a compiled sequence from |g><g|, fixed RK4 under the
    pulses and exact exponentials over the idle gaps, with its mean
    population at every grid time, the max trace deviation over them, and
    in `pe_stderr` the standard error of the final sample's mean.

    Works on the real state (p_g, x, y, p_e), rho_01 = x + i y and
    rho_10 = x - i y, so Hermiticity is exact and the trace is preserved to
    rounding.  Every step under a pulse is `_two_level_step` (the package's
    one RK4 formula, `_rk4_step`) of np.eye(4): the step is linear in the
    state, so this gives its 4x4 propagator.

    noise (OuNoiseModel): the z detuning is detuning0 plus an OU path per
    realization, drawn while the realizations advance together; None, or
    sigma_delta = 0, is one noiseless realization at detuning0, and a
    `pe_stderr` of 0.0.  Its path's buffers are made once here and reused
    by every run: the scan stacks and stored scans without noise, block
    buffers with it.  The state is carried through compiled.runs, the
    idle gaps and the pulses of `compile_sequence`.
    - Idle runs [lo, hi] in closed form, each component alone, with
      elapsed = times[lo + 1:hi + 1] - times[lo]: p_e's mean is its entry
      value times exp(-g1 elapsed); rho_01 is multiplied once by
      exp(elapsed[-1] (2 pi i detuning0 - decay)), and with noise by
      exp(2 pi i I), I the integral of the path over the gap; p_g gains
      what p_e loses.  The trace deviation is checked at the run's end.
    - Pulse runs `block` steps at a time (SCAN_BLOCK without noise,
      MC_BLOCK with it), from row 0 of one (block + 1, 4, n) state buffer
      into its rows 1 to m; per block the mean p_e is recorded, the trace
      deviation checked at every step, and row m carried to row 0.
      Without noise an inclusive prefix product (`_scan_block`) composes
      the block's propagators, applied to the carried state.  A copy of
      each stack is stored under (the run's key, detuning0, the block's
      offset in the run), and every later block of those, as in each
      equal pulse of a sweep, applies it: they fix its tables and detuning,
      and the engine its rates.  With noise each step runs at
      the path's value at its start, held across it: the RK4 step is a
      polynomial of degree 4 in the detuning w, so `_two_level_step`
      gives each step's propagator P at 5 Chebyshev nodes w_m spanning
      that step's realized w range (half-width at least 1 urad of phase
      per step, so that one realization or constant noise still has
      distinct nodes).  Every realization advances by
      s += sum_m l_m(x) (P(w_m) - I) s, with l_m the Lagrange weights of
      the nodes at x = (w - centre) / half-width, summed in powers of x:
      sum_j x^j C_j s with C_j = sum_m _LAGRANGE[j, m] (P(w_m) - I).  That is the exact RK4 step
      up to rounding; interpolating the increments P - I rather than P
      keeps that rounding relative to the increment.

    Draw order from rng (np.random.default_rng(rng)), which fixes the bytes
    of a seeded run: first the path's stationary values at t = 0,
    sigma * standard_normal(n); then, run by run in time order, for each
    block of m pulse steps one (m, n) block of kicks, row k those of step k
    (`_ou_block`; a pulse run's kicks are thus those of one (steps, n)
    draw), and for each idle run one (2, n) block (`_ou_gap`).  No array of
    n realizations by n steps is built.
    """
    if noise is not None and noise.sigma_delta == 0.0:
        noise = None
    g1 = TWO_PI * dec.gamma1
    decay = 0.5 * g1 + TWO_PI * dec.gamma_phi
    n_batch = 1 if noise is None else noise.n_realizations
    block = SCAN_BLOCK if noise is None else MC_BLOCK
    state = np.empty((block + 1, 4, n_batch))   # after each step of a block
    if noise is None:
        stacks = np.empty((2, SCAN_BLOCK, 4, 4))
        scans = {}
    else:
        powers = np.ones((5, MC_BLOCK, n_batch))    # x^j per step, realization
        terms = np.empty((5, 4, n_batch))           # x^j s_l of one step
        flat = terms.reshape(20, n_batch)
        # The OU path at each step boundary of a block; row 0 carries its
        # value from one block or gap to the next.
        path = np.empty((MC_BLOCK + 1, n_batch))

    def run(compiled, rng=None):
        pe_mean = np.zeros(len(compiled.dts) + 1)
        trace_dev = 0.0
        state[0] = 0.0
        state[0, 0] = 1.0
        if noise is not None:
            rng = np.random.default_rng(rng)
            path[0] = noise.sigma_delta * rng.standard_normal(n_batch)
        for lo, hi, key in compiled.runs:
            if key is None:
                s = state[0]
                p0 = s[3].copy()
                elapsed = compiled.times[lo + 1:hi + 1] - compiled.times[lo]
                relax = np.exp(-g1 * elapsed)
                pe_mean[lo + 1:hi + 1] = p0.mean() * relax
                coh = (s[1] + 1j * s[2]) * np.exp(
                    elapsed[-1] * (1j * TWO_PI * compiled.detuning0 - decay))
                if noise is not None:
                    path[0], integral = _ou_gap(path[0], elapsed[-1], noise,
                                                rng)
                    coh *= np.exp(1j * TWO_PI * integral)
                s[1], s[2] = coh.real, coh.imag
                s[3] = p0 * relax[-1]
                s[0] += p0 - s[3]
                trace_dev = max(trace_dev,
                                float(np.abs(s[0] + s[3] - 1.0).max()))
                continue
            for blo in range(lo, hi, block):
                bhi = min(blo + block, hi)
                m = bhi - blo
                blk = slice(blo, bhi)
                if noise is None:
                    at = (key, compiled.detuning0, blo - lo)
                    prefix = scans.get(at)
                    if prefix is None:
                        prefix = scans[at] = _scan_block(
                            compiled, blk, g1, decay, stacks).copy()
                    state[1:m + 1, :, 0] = prefix @ state[0, :, 0]
                else:
                    _ou_block(path[:m + 1], compiled.dts[blk], noise, rng)
                    w = np.pi * (compiled.detuning0 + path[:m])      # (m, n)
                    path[0] = path[m]
                    w_lo, w_hi = w.min(axis=1), w.max(axis=1)
                    centre = 0.5 * (w_lo + w_hi)
                    half = np.maximum(0.5 * (w_hi - w_lo),
                                      1e-6 / compiled.dts[blk])
                    # incr[i, l, k, q] = (P(w_q) - I)[i, l] at step k, node q
                    incr = _two_level_step(
                        np.eye(4)[..., None, None], compiled.u1[blk, None],
                        compiled.u2[blk, None], compiled.u4[blk, None],
                        centre[:, None] + half[:, None] * _NODES,
                        compiled.dts[blk, None], g1, decay)
                    incr[range(4), range(4)] -= 1.0
                    coef = np.einsum("jq,ilkq->kijl", _LAGRANGE,
                                     incr).reshape(m, 4, 20)
                    x = powers[1, :m]
                    np.subtract(w, centre[:, None], out=x)
                    x /= half[:, None]
                    for j in range(2, 5):
                        np.multiply(powers[j - 1, :m], x, out=powers[j, :m])
                    for k in range(m):
                        np.multiply(powers[:, k, None], state[k], out=terms)
                        np.matmul(coef[k], flat, out=state[k + 1])
                        state[k + 1] += state[k]
                pe_mean[blo + 1:bhi + 1] = state[1:m + 1, 3].mean(axis=1)
                # abs() of a temporary reuses it (numpy's temporary elision)
                trace_dev = max(trace_dev, float(abs(
                    state[1:m + 1, 0] + state[1:m + 1, 3] - 1.0).max()))
                state[0] = state[m]
        pe_stderr = (float(state[0, 3].std(ddof=1) / np.sqrt(n_batch))
                     if n_batch > 1 else 0.0)
        return Trajectory(
            times=compiled.times, qubit_pe=pe_mean, pe_stderr=pe_stderr,
            diagnostics=EvolveDiagnostics(max_trace_deviation=trace_dev))

    return run


def simulate_sequence(sequence, dec):
    """Deterministic two-level simulation of a control sequence.

    Evolves |g><g| up to the readout-window start, in the frame rotating at
    the sequence carrier: pulses through the RK4 propagator scan, idle gaps
    as exact exponentials (`_two_level_engine`).  The returned Trajectory's
    final sample is the population handed to the readout chain.
    `simulate_sweep` gives the same bits for each of many sequences.
    """
    return _two_level_engine(dec)(compile_sequence(sequence))


def simulate_sweep(sequences, dec, noise=None, rngs=None):
    """One Trajectory per sequence, in order, from one two-level engine
    (`_two_level_engine`), so its buffers, and the propagator scan of each
    distinct pulse (a run key of `compile_sequence`), serve the whole sweep.
    Each sequence is compiled when it is simulated.

    Without noise (or with sigma_delta = 0) each Trajectory is
    `simulate_sequence`'s, bit for bit, with a `pe_stderr` of 0.0.  With an
    OuNoiseModel the population is the mean over its realizations, and
    `pe_stderr` the standard error of the final sample's mean, the one the
    readout chain reads.  Each realization rides its own OU detuning path,
    drawn from the sequence's entry of rngs (seeds or Generators, one per
    sequence; None draws fresh entropy): each pulse step sees the path at
    its start, held across it (the pulse grid resolves tau_c in any regime
    we simulate), and each idle gap is the noiseless exponential times the
    phase of the path's exact integral over the gap.  A sequence's result
    depends only on it, dec, noise and its rng, not on the other points.
    """
    run = _two_level_engine(dec, noise)
    if rngs is None:
        rngs = [None] * len(sequences)
    return [run(compile_sequence(seq), rng)
            for seq, rng in zip(sequences, rngs, strict=True)]
