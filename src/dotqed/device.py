"""Device parameters and closed-form circuit-QED relations.

The device is a two-level charge qubit (tunnel splitting 2t, detuning delta)
coupled with strength g to a high-impedance resonator that is probed in
reflection.

Unit conventions: every stored frequency, rate and linewidth is an ordinary
frequency in Hz (angular quantity / 2pi); times are seconds.  Factors of 2pi
enter only inside the dynamics engines.  Hamiltonians built here are H/h,
i.e. in Hz.
"""

import numbers
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from . import qops

# drive detunings and couplings above this fraction of nu_q + nu_r make the
# rotating-wave form unreliable
RWA_RATIO = 0.1
SPLITTING_SPACE = qops.HilbertSpace(4)  # the space vacuum_rabi_splitting uses


def _require_finite(name, value):
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not np.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _require_positive(name, value):
    _require_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _require_non_negative(name, value):
    _require_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class DqdParams:
    """Charge qubit: inter-dot tunnel splitting 2t and detuning delta, Hz."""
    tunnel_splitting_2t: float
    detuning_delta: float = 0.0

    def __post_init__(self):
        _require_positive("tunnel_splitting_2t", self.tunnel_splitting_2t)
        _require_finite("detuning_delta", self.detuning_delta)


@dataclass(frozen=True)
class ResonatorParams:
    """Resonator frequency and reflection linewidths."""
    bare_frequency_nu_r: float
    kappa_ext: float
    kappa_int: float

    def __post_init__(self):
        _require_positive("bare_frequency_nu_r", self.bare_frequency_nu_r)
        _require_positive("kappa_ext", self.kappa_ext)
        _require_non_negative("kappa_int", self.kappa_int)

    @property
    def kappa_tot(self):
        return self.kappa_ext + self.kappa_int


@dataclass(frozen=True)
class CouplingParams:
    """Bare qubit-resonator coupling g0 at delta = 0, Hz."""
    g0: float

    def __post_init__(self):
        _require_positive("g0", self.g0)


@dataclass(frozen=True)
class DecoherenceParams:
    """Qubit relaxation gamma1 and pure dephasing gamma_phi, ordinary Hz.

    The decay laws are P_e(t) = exp(-2*pi*gamma1*t) and coherence
    |rho_ge(t)| = exp(-2*pi*gamma2*t) with gamma2 = gamma1/2 + gamma_phi.
    """
    gamma1: float
    gamma_phi: float

    def __post_init__(self):
        _require_non_negative("gamma1", self.gamma1)
        _require_non_negative("gamma_phi", self.gamma_phi)

    @property
    def gamma2(self):
        return 0.5 * self.gamma1 + self.gamma_phi


@dataclass(frozen=True)
class DeviceParams:
    """Bundle of everything the experiment runners need."""
    dqd: DqdParams
    resonator: ResonatorParams
    coupling: CouplingParams
    decoherence: DecoherenceParams

    def to_dict(self):
        return {"dqd": asdict(self.dqd), "resonator": asdict(self.resonator),
                "coupling": asdict(self.coupling),
                "decoherence": asdict(self.decoherence)}

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(dqd=DqdParams(**d["dqd"]),
                       resonator=ResonatorParams(**d["resonator"]),
                       coupling=CouplingParams(**d["coupling"]),
                       decoherence=DecoherenceParams(**d["decoherence"]))
        except KeyError as exc:
            raise ValueError(f"device parameters missing section {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"device parameters malformed: {exc}") from exc


# ---------------------------------------------------------------- formulas

def qubit_frequency(dqd):
    """nu_q = sqrt((2t)^2 + delta^2)."""
    return float(np.hypot(dqd.tunnel_splitting_2t, dqd.detuning_delta))


def coupling_at_detuning(coupling, dqd):
    """g(delta) = g0 * 2t / nu_q, the charge-dipole projection."""
    return coupling.g0 * dqd.tunnel_splitting_2t / qubit_frequency(dqd)


def dispersive_shift(g, delta_rq):
    """chi = g^2 / Delta with Delta = nu_q - nu_r (signed), Hz."""
    if delta_rq == 0:
        raise ValueError("dispersive shift undefined at zero qubit-resonator detuning")
    return g * g / delta_rq


def dispersive_shift_of(params):
    """chi of a DeviceParams at its operating point, Hz."""
    nu_q = qubit_frequency(params.dqd)
    g = coupling_at_detuning(params.coupling, params.dqd)
    return dispersive_shift(g, nu_q - params.resonator.bare_frequency_nu_r)


# ------------------------------------------------------------- Hamiltonian

def build_rotating_frame_hamiltonian(dqd, res, coupling, drive_frequency,
                                     cavity_drive=None, *, space):
    """Jaynes-Cummings Hamiltonian H/h (Hz) in the frame of one drive tone.

    H/h = (nu_q - nu_dr)/2 sigma_z + (nu_r - nu_dr) a^dag a
          + g(delta) (sigma_+ a + sigma_- a^dag) + eps (a + a^dag)

    drive_frequency is one tone, giving H as (d, d), or an array of tones
    of shape (m,), giving the stack (m, d, d), one frame per tone.
    cavity_drive eps is a constant in Hz; None or 0 leaves the term out.
    space (qops.HilbertSpace) sets the Fock cutoff.  Warns when the
    rotating-wave approximation is strained (g or detunings not
    << nu_q + nu_r); the detunings are linear in the tone, so the lowest
    and highest tones are checked.
    """
    nu_q = qubit_frequency(dqd)
    nu_r = res.bare_frequency_nu_r
    g = coupling_at_detuning(coupling, dqd)
    drive = np.asarray(drive_frequency, dtype=float)

    scale = nu_q + nu_r
    ends = (drive.min(), drive.max())
    for label, detunings in [("qubit-drive detuning", [nu_q - f for f in ends]),
                             ("resonator-drive detuning",
                              [nu_r - f for f in ends]),
                             ("coupling g", [g])]:
        detuning = max(detunings, key=abs)
        if abs(detuning) > RWA_RATIO * scale:
            warnings.warn(
                f"{label} = {detuning:.3e} Hz is not small against "
                f"nu_q + nu_r = {scale:.3e} Hz; rotating-wave form is strained",
                RuntimeWarning, stacklevel=2)

    sz = qops.qubit_operator(qops.sigma_z(), space)
    a = qops.cavity_operator(qops.annihilation(space.fock_cutoff), space)
    num = a.conj().T @ a
    sp_a = qops.qubit_operator(qops.sigma_plus(), space) @ a
    jc = sp_a + sp_a.conj().T

    drive = drive[..., None, None]
    h = (0.5 * (nu_q - drive) * sz + (nu_r - drive) * num + g * jc)
    if cavity_drive:
        h = h + cavity_drive * (a + a.conj().T)
    return h


def vacuum_rabi_splitting(dqd, res, coupling):
    """Frequency gap of the single-excitation doublet, from diagonalization.

    Identifies the two eigenstates with the largest weight in
    span{|e,0>, |g,1>} and returns their energy difference (Hz).  At
    resonance (nu_q = nu_r) this is the vacuum Rabi splitting 2 g.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        h = build_rotating_frame_hamiltonian(
            dqd, res, coupling, drive_frequency=res.bare_frequency_nu_r,
            space=SPLITTING_SPACE)
    evals, evecs = np.linalg.eigh(h)
    idx_e0 = SPLITTING_SPACE.fock_cutoff    # |e, 0>
    idx_g1 = 1          # |g, 1>
    weight = np.abs(evecs[idx_e0, :]) ** 2 + np.abs(evecs[idx_g1, :]) ** 2
    pair = np.argsort(weight)[-2:]
    return float(abs(evals[pair[0]] - evals[pair[1]]))
