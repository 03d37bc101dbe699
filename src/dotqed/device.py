"""Device parameters and closed-form circuit-QED relations.

The device is a two-level charge qubit (tunnel splitting 2t, detuning delta)
coupled with strength g to a flux-tunable high-impedance resonator that is
probed in reflection through a coupling capacitance.

Unit conventions: every stored frequency, rate and linewidth is an ordinary
frequency in Hz (angular quantity / 2pi); times are seconds, capacitances
Farad, impedances Ohm.  Factors of 2pi enter only inside the dynamics
engines.  Hamiltonians built here are H/h, i.e. in Hz.
"""

import json
import warnings
from dataclasses import dataclass, asdict, field

import numpy as np

from . import qops

# drive detunings and couplings above this fraction of nu_q + nu_r make the
# rotating-wave form unreliable
RWA_RATIO = 0.1


def _require_positive(name, value):
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class DqdParams:
    """Charge qubit: inter-dot tunnel splitting 2t and detuning delta, Hz."""
    tunnel_splitting_2t: float
    detuning_delta: float = 0.0

    def __post_init__(self):
        _require_positive("tunnel_splitting_2t", self.tunnel_splitting_2t)
        if not np.isfinite(self.detuning_delta):
            raise ValueError("detuning_delta must be finite")


@dataclass(frozen=True)
class ResonatorParams:
    """Resonator frequency, reflection linewidths and circuit parameters."""
    bare_frequency_nu_r: float
    kappa_ext: float
    kappa_int: float
    coupling_capacitance_Cc: float | None = None
    impedance_Zr: float | None = None
    line_impedance_Ztl: float = 50.0

    def __post_init__(self):
        _require_positive("bare_frequency_nu_r", self.bare_frequency_nu_r)
        _require_positive("kappa_ext", self.kappa_ext)
        if self.kappa_int < 0:
            raise ValueError("kappa_int must be >= 0")
        _require_positive("line_impedance_Ztl", self.line_impedance_Ztl)

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
        if self.gamma1 < 0 or self.gamma_phi < 0:
            raise ValueError("decoherence rates must be >= 0")

    @property
    def gamma2(self):
        return 0.5 * self.gamma1 + self.gamma_phi


@dataclass(frozen=True)
class FluxMap:
    """SQUID-array tuning curve: nu_r(Phi) = nu_r0 * sqrt(|cos(pi Phi/Phi0)|)."""
    max_frequency_nu_r0: float
    flux: float = 0.0  # in units of Phi0

    def __post_init__(self):
        _require_positive("max_frequency_nu_r0", self.max_frequency_nu_r0)


@dataclass(frozen=True)
class DeviceParams:
    """Bundle of everything the experiment runners need."""
    dqd: DqdParams
    resonator: ResonatorParams
    coupling: CouplingParams
    decoherence: DecoherenceParams
    flux_map: FluxMap | None = None

    def to_dict(self):
        d = {"dqd": asdict(self.dqd), "resonator": asdict(self.resonator),
             "coupling": asdict(self.coupling), "decoherence": asdict(self.decoherence)}
        if self.flux_map is not None:
            d["flux_map"] = asdict(self.flux_map)
        return d

    @classmethod
    def from_dict(cls, d):
        try:
            flux = FluxMap(**d["flux_map"]) if "flux_map" in d else None
            return cls(dqd=DqdParams(**d["dqd"]),
                       resonator=ResonatorParams(**d["resonator"]),
                       coupling=CouplingParams(**d["coupling"]),
                       decoherence=DecoherenceParams(**d["decoherence"]),
                       flux_map=flux)
        except KeyError as exc:
            raise ValueError(f"device parameters missing section {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"device parameters malformed: {exc}") from exc


def load_device_params(path):
    with open(path) as fh:
        return DeviceParams.from_dict(json.load(fh))


def save_device_params(params, path):
    with open(path, "w") as fh:
        json.dump(params.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def ac_stark_frequency(nu_q, n_r, g, delta_rq):
    """Dressed qubit frequency nu_q + (1 + 2 n_r) g^2/Delta."""
    return nu_q + (1.0 + 2.0 * n_r) * dispersive_shift(g, delta_rq)


def dispersive_phase_shift(g, kappa_tot, delta_rq):
    """Reflection phase contrast between qubit states, atan(2g^2/(kappa Delta)).

    The 2pi factors cancel in the ratio, so plain-Hz inputs are fine.
    """
    if kappa_tot <= 0:
        raise ValueError("kappa_tot must be positive")
    if delta_rq == 0:
        raise ValueError("phase shift undefined at zero qubit-resonator detuning")
    return float(np.arctan(2.0 * g * g / (kappa_tot * delta_rq)))


def external_linewidth(coupling_capacitance, omega_r, line_impedance, impedance):
    """kappa_ext (angular, 1/s) = Cc^2 omega_r^3 Z_TL Z_r / 4.

    Takes the angular resonator frequency omega_r = 2*pi*nu_r.
    """
    for name, v in [("coupling_capacitance", coupling_capacitance),
                    ("omega_r", omega_r), ("line_impedance", line_impedance),
                    ("impedance", impedance)]:
        _require_positive(name, v)
    return coupling_capacitance ** 2 * omega_r ** 3 * line_impedance * impedance / 4.0


def resonator_impedance_from_linewidth(kappa_ext_hz, coupling_capacitance,
                                       omega_r, line_impedance):
    """Invert external_linewidth for Z_r given kappa_ext as an ordinary Hz rate."""
    _require_positive("kappa_ext_hz", kappa_ext_hz)
    return 4.0 * (2.0 * np.pi * kappa_ext_hz) / (
        coupling_capacitance ** 2 * omega_r ** 3 * line_impedance)


def squid_resonator_frequency(flux_map):
    """nu_r(Phi) = nu_r0 sqrt(|cos(pi Phi/Phi0)|); rejects Phi near Phi0/2."""
    c = np.cos(np.pi * flux_map.flux)
    if abs(c) <= 0.01:
        raise ValueError(
            f"flux {flux_map.flux} Phi0 too close to half a flux quantum "
            "(|cos| <= 0.01); the sqrt(|cos|) map is unreliable there")
    return flux_map.max_frequency_nu_r0 * float(np.sqrt(abs(c)))


def flux_map_from_anchor(frequency, flux):
    """Build a FluxMap whose curve passes through (flux, frequency)."""
    c = np.cos(np.pi * flux)
    if abs(c) <= 0.01:
        raise ValueError("anchor flux too close to half a flux quantum")
    return FluxMap(max_frequency_nu_r0=frequency / float(np.sqrt(abs(c))), flux=flux)


# ------------------------------------------------------------- Hamiltonian

def build_rotating_frame_hamiltonian(dqd, res, coupling, drive_frequency,
                                     qubit_rabi=None, cavity_drive=None,
                                     space=None):
    """Jaynes-Cummings Hamiltonian H/h (Hz) in the frame of one drive tone.

    H/h = (nu_q - nu_dr)/2 sigma_z + (nu_r - nu_dr) a^dag a
          + g(delta) (sigma_+ a + sigma_- a^dag)
          + Omega(t)/2 sigma_x + eps(t) (a + a^dag)

    qubit_rabi and cavity_drive may be None, constants (Hz), or callables
    of time.  Returns a constant matrix when nothing is time dependent,
    otherwise a callable t -> matrix.  Warns when the rotating-wave
    approximation is strained (g or detunings not << nu_q + nu_r).
    """
    if space is None:
        space = qops.HilbertSpace(10)
    nu_q = qubit_frequency(dqd)
    nu_r = res.bare_frequency_nu_r
    g = coupling_at_detuning(coupling, dqd)

    scale = nu_q + nu_r
    for label, detuning in [("qubit-drive detuning", nu_q - drive_frequency),
                            ("resonator-drive detuning", nu_r - drive_frequency),
                            ("coupling g", g)]:
        if abs(detuning) > RWA_RATIO * scale:
            warnings.warn(
                f"{label} = {detuning:.3e} Hz is not small against "
                f"nu_q + nu_r = {scale:.3e} Hz; rotating-wave form is strained",
                RuntimeWarning, stacklevel=2)

    sz = qops.qubit_operator(qops.sigma_z(), space)
    sx = qops.qubit_operator(qops.sigma_x(), space)
    a = qops.cavity_operator(qops.annihilation(space.fock_cutoff), space)
    num = a.conj().T @ a
    sp_a = qops.qubit_operator(qops.sigma_plus(), space) @ a
    jc = sp_a + sp_a.conj().T
    x = a + a.conj().T

    h0 = (0.5 * (nu_q - drive_frequency) * sz
          + (nu_r - drive_frequency) * num + g * jc)

    def as_term(amp, op, prefactor):
        if amp is None:
            return None
        if callable(amp):
            return lambda t: (prefactor * amp(t)) * op
        if amp == 0:
            return None
        return (prefactor * amp) * op

    rabi_term = as_term(qubit_rabi, sx, 0.5)
    drive_term = as_term(cavity_drive, x, 1.0)

    static = h0.copy()
    dynamic = []
    for term in (rabi_term, drive_term):
        if term is None:
            continue
        if callable(term):
            dynamic.append(term)
        else:
            static = static + term
    if not dynamic:
        return static

    def h_of_t(t):
        h = static
        for term in dynamic:
            h = h + term(t)
        return h
    return h_of_t


def vacuum_rabi_splitting(dqd, res, coupling, space=None):
    """Frequency gap of the single-excitation doublet, from diagonalization.

    Identifies the two eigenstates with the largest weight in
    span{|e,0>, |g,1>} and returns their energy difference (Hz).  At
    resonance (nu_q = nu_r) this is the vacuum Rabi splitting 2 g.
    """
    if space is None:
        space = qops.HilbertSpace(4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        h = build_rotating_frame_hamiltonian(
            dqd, res, coupling, drive_frequency=res.bare_frequency_nu_r,
            space=space)
    evals, evecs = np.linalg.eigh(h)
    n = space.fock_cutoff
    idx_e0 = n          # |e, 0>
    idx_g1 = 1          # |g, 1>
    weight = np.abs(evecs[idx_e0, :]) ** 2 + np.abs(evecs[idx_g1, :]) ** 2
    pair = np.argsort(weight)[-2:]
    return float(abs(evals[pair[0]] - evals[pair[1]]))
