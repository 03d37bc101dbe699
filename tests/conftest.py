import numpy as np
import pytest

from digest_matrix import run_matrix
from dotqed import device


@pytest.fixture
def flagship():
    """5.68 GHz charge qubit over a 5.07 GHz resonator, g0 = 55 MHz.

    Decoherence rates are chosen so T1 = 42.3 ns and T2 = 23.4 ns exactly
    (gamma2 = gamma1/2 + gamma_phi = 6.80155 MHz).
    """
    return device.DeviceParams(
        dqd=device.DqdParams(tunnel_splitting_2t=5.68e9, detuning_delta=0.0),
        resonator=device.ResonatorParams(bare_frequency_nu_r=5.07e9,
                                         kappa_ext=23e6, kappa_int=7e6),
        coupling=device.CouplingParams(g0=55e6),
        decoherence=device.DecoherenceParams(gamma1=3.7625e6,
                                             gamma_phi=4.9203e6),
    )


@pytest.fixture
def flagship_dict(flagship):
    return flagship.to_dict()


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


@pytest.fixture(scope="session")
def digest_runs(tmp_path_factory):
    """(root, {run name: manifest}) of the digest matrix, run once."""
    root = tmp_path_factory.mktemp("digest-matrix")
    return root, run_matrix(root)
