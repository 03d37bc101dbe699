"""Dense operators and states on small qubit (x) cavity Hilbert spaces.

Conventions used throughout the package:

* qubit ground state |g> is index 0, excited state |e> is index 1, so
  sigma_z = |e><e| - |g><g| = diag(-1, +1) and <sigma_z> = +1 for |e>;
* composite spaces are ordered qubit (x) cavity, i.e. basis index i*N + n
  for qubit level i and Fock level n with cutoff N;
* everything is a plain complex numpy array, dense (dimensions stay <= 64
  in practice, sparse structures buy nothing here; only the d^2-wide
  Lindblad generator in `dynamics` is sparse).
"""

import numpy as np

# Guard against a mis-set Fock cutoff blowing up a kron product.
MAX_TENSOR_DIM = 1024

# density-matrix validity tolerances
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
EIG_FLOOR = -1e-8


class HilbertSpace:
    """Qubit (x) cavity space bookkeeping: dimensions and index layout."""

    def __init__(self, fock_cutoff):
        if int(fock_cutoff) != fock_cutoff or fock_cutoff < 2:
            raise ValueError("fock_cutoff must be an integer >= 2")
        self.fock_cutoff = int(fock_cutoff)

    @property
    def dim(self):
        return 2 * self.fock_cutoff

    def __repr__(self):
        return f"HilbertSpace(fock_cutoff={self.fock_cutoff})"


def identity(dim):
    return np.eye(dim, dtype=complex)


def sigma_z():
    # |e><e| - |g><g| with |g> = index 0
    return np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def sigma_minus():
    # |g><e|, lowers the qubit
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def sigma_plus():
    return np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def annihilation(fock_cutoff):
    """Cavity lowering operator a with a|n> = sqrt(n)|n-1>, truncated at N."""
    if fock_cutoff < 2:
        raise ValueError("fock_cutoff must be >= 2")
    return np.diag(np.sqrt(np.arange(1, fock_cutoff, dtype=float)), 1).astype(complex)


def number_operator(fock_cutoff):
    return np.diag(np.arange(fock_cutoff, dtype=float)).astype(complex)


def tensor_product(a, b):
    """Kronecker product with the (A x B)[(i*dB + k), (j*dB + l)] = A_ij B_kl layout."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > MAX_TENSOR_DIM:
        raise ValueError(
            f"tensor product dimension {out_dim} exceeds {MAX_TENSOR_DIM}; "
            "check the Fock cutoff")
    return np.kron(a, b)


def qubit_operator(op, space):
    """Lift a 2x2 qubit operator into the composite space."""
    return tensor_product(op, identity(space.fock_cutoff))


def cavity_operator(op, space):
    """Lift an NxN cavity operator into the composite space."""
    return tensor_product(identity(2), op)


def ket_to_dm(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def expectation(rho, op):
    """tr(rho @ op)."""
    return complex(np.einsum("ij,ji->", rho, op))


def validate_density_matrix(rho, context=""):
    """Raise ValueError unless rho is Hermitian, unit trace and positive.

    Tolerances: Hermiticity 1e-10, trace 1e-9, eigenvalues >= -1e-8.
    """
    rho = np.asarray(rho)
    label = f" ({context})" if context else ""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square{label}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian to {HERMITICITY_TOL:g}: "
                         f"defect {herm:.3e}{label}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr:.12f} != 1{label}")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < EIG_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {w.min():.3e} < {EIG_FLOOR:g}{label}")
    return True

