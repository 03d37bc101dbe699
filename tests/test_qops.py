import numpy as np
import numpy.testing as npt
import pytest

from dotqed import qops

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_hilbert_space_dim():
    assert qops.HilbertSpace(10).dim == 20


def test_pauli_algebra():
    # ground-first ordering puts sigma_z = diag(-1, +1), which flips the
    # handedness of the commutator and the sigma_pm combinations relative
    # to the spin-up-first textbook basis
    sx, sz = SIGMA_X, qops.sigma_z()
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    npt.assert_allclose(sx @ sy - sy @ sx, -2j * sz, atol=1e-15)
    npt.assert_allclose(qops.sigma_plus(), 0.5 * (sx - 1j * sy), atol=1e-15)
    npt.assert_allclose(qops.sigma_minus(),
                        qops.sigma_plus().conj().T, atol=1e-15)
    # sigma_plus still raises the sigma_z eigenvalue by 2
    sp = qops.sigma_plus()
    npt.assert_allclose(sz @ sp - sp @ sz, 2.0 * sp, atol=1e-15)


def test_sigma_plus_raises_ground_to_excited():
    # |g> = (1, 0); sigma_z |g> = -|g> so the ground state is index 0
    g = np.array([1.0, 0.0])
    e = qops.sigma_plus() @ g
    npt.assert_allclose(e, [0.0, 1.0], atol=1e-15)
    npt.assert_allclose(qops.sigma_z() @ g, -g, atol=1e-15)


def test_annihilation_matrix_elements():
    a = qops.annihilation(6)
    for n in range(1, 6):
        ket = np.zeros(6)
        ket[n] = 1.0
        out = a @ ket
        npt.assert_allclose(out[n - 1], np.sqrt(n), rtol=1e-15)
    # canonical commutator holds except in the truncation corner
    comm = a @ a.conj().T - a.conj().T @ a
    npt.assert_allclose(np.diag(comm)[:-1], np.ones(5), rtol=1e-15)
    assert np.isclose(comm[-1, -1], -5.0)


def test_number_operator():
    npt.assert_allclose(qops.number_operator(4), np.diag([0.0, 1, 2, 3]))


def test_tensor_product_matches_kron():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    npt.assert_allclose(qops.tensor_product(a, b), np.kron(a, b))


def test_embedding_order_is_qubit_tensor_cavity():
    space = qops.HilbertSpace(3)
    sz = qops.qubit_operator(qops.sigma_z(), space)
    # qubit factor comes first: the ground block occupies the leading rows
    npt.assert_allclose(np.diag(sz), [-1, -1, -1, 1, 1, 1])
    num = qops.cavity_operator(qops.number_operator(3), space)
    npt.assert_allclose(np.diag(num), [0, 1, 2, 0, 1, 2])
    # embedded factors commute
    comm = sz @ num - num @ sz
    npt.assert_allclose(comm, np.zeros_like(comm), atol=1e-15)


def test_tensor_dimension_guard():
    with pytest.raises(ValueError):
        qops.tensor_product(np.eye(300), np.eye(300))


def test_expectation_and_dm_roundtrip():
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = qops.ket_to_dm(psi)
    npt.assert_allclose(np.trace(rho), 1.0, rtol=1e-15)
    assert np.isclose(qops.expectation(rho, SIGMA_X), 1.0)
    assert np.isclose(qops.expectation(rho, qops.sigma_z()), 0.0)


def test_validate_density_matrix_rejects_bad_input():
    good = np.diag([0.5, 0.5]).astype(complex)
    qops.validate_density_matrix(good)

    with pytest.raises(ValueError, match="trace"):
        qops.validate_density_matrix(2.0 * good)
    skew = good + np.array([[0, 0.1j], [0.1j, 0]])
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        qops.validate_density_matrix(skew)
    neg = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        qops.validate_density_matrix(neg)
    # the context string surfaces in the message
    with pytest.raises(ValueError, match="after step 3"):
        qops.validate_density_matrix(2.0 * good, context="after step 3")
