"""Deterministic atom-cavity formulas.

Everything in this module is a pure function of its inputs.  All angular
frequencies are in rad/s; atom counts are real-valued (the simulator works
at the Gaussian-moment level, so fractional atoms are meaningful).  The
formulas are plain numpy code: they take a number or an array of atom
counts, one per trial, and give numpy numbers or arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULTS, check_fields

TWO_PI = 2.0 * math.pi
_CAV, _ENS = DEFAULTS["cavity"], DEFAULTS["ensemble"]


@dataclass(frozen=True)
class CavityParams:
    """Fixed physical constants of the cavity-atom system.

    Defaults are the nominal operating values of the system this model
    describes, from :mod:`squeezesim.defaults`.  ``g`` is the effective
    single-atom coupling (half the effective single-photon Rabi frequency
    2g = 2pi x 894 kHz).  Note some write-ups quote g in MHz; the kHz scale
    is the physically consistent one -- it is what yields ~140 MHz dressed
    shifts at N_up = 2.4e5.

    Attributes:
        g: effective single-atom coupling, rad/s.
        kappa: total cavity power decay rate, rad/s.
        kappa0: mirror-transmission-only decay rate, rad/s.
        delta: cavity-atom detuning omega_c - omega_a (> 0, blue), rad/s.
        gamma: excited-state radiative decay rate, rad/s.
        omega_ax: axial trap frequency, rad/s.
        omega_hf: ground-state hyperfine splitting, rad/s.
        recoil_shift_per_photon: mean dressed-frequency shift magnitude per
            free-space scattered photon due to recoil heating, ordinary Hz.
        c1_coupling: coupling-strength ratio of the auxiliary ground state
            |1> relative to |up> (sigma+ probing); exposed as a knob because
            only the combined effect is constrained by measurement.
    """

    g: float = TWO_PI * _CAV["g_hz"]
    kappa: float = TWO_PI * _CAV["kappa_hz"]
    kappa0: float = TWO_PI * _CAV["kappa0_hz"]
    delta: float = TWO_PI * _CAV["delta_hz"]
    gamma: float = TWO_PI * _CAV["gamma_hz"]
    omega_ax: float = TWO_PI * _CAV["omega_ax_hz"]
    omega_hf: float = TWO_PI * _CAV["omega_hf_hz"]
    recoil_shift_per_photon: float = _CAV["recoil_hz_per_photon"]
    c1_coupling: float = _CAV["c1_coupling"]

    def __post_init__(self) -> None:
        check_fields(self, "cavity",
                     recoil_shift_per_photon="recoil_hz_per_photon")
        if self.kappa0 > self.kappa:
            raise ValueError("cavity.kappa0 must not exceed cavity.kappa")


@dataclass(frozen=True)
class EnsembleParams:
    """Atom-number bookkeeping for the trapped ensemble.

    ``n_effective`` is the uniformly-coupled equivalent atom number N that
    reproduces the observed projection noise; the raw trapped number N0,
    ``n_loaded``, follows from it through ``coupling_fraction``.
    """

    n_effective: float = _ENS["n_effective"]
    coupling_fraction: float = _ENS["coupling_fraction"]
    initial_contrast: float = _ENS["initial_contrast"]

    def __post_init__(self) -> None:
        check_fields(self, "ensemble")

    @property
    def n_loaded(self) -> float:
        return self.n_effective / self.coupling_fraction


def dressed_shift(n_up: float, cav: CavityParams) -> float:
    """Dressed-cavity resonance shift for ``n_up`` atoms in the up state.

    Returns (sqrt(delta^2 + 4 g^2 N_up) - delta) / 2 in rad/s, evaluated in
    the cancellation-free form x / (2 (sqrt(delta^2 + x) + delta)) so that
    small-N_up values keep full double precision.  Monotone increasing and
    concave in ``n_up``; the slope at the origin is g^2/delta.
    """
    if np.any(n_up < 0):
        raise ValueError("n_up must be non-negative")
    x = 4.0 * cav.g * cav.g * n_up
    return x / (2.0 * (np.sqrt(cav.delta * cav.delta + x) + cav.delta))


def invert_dressed_shift(shift: float, cav: CavityParams) -> float:
    """Inverse of :func:`dressed_shift`: the apparent N_up for a shift.

    Negative inputs (possible for noisy readings near an empty cavity) are
    inverted through the same algebra, which keeps the estimator linear and
    unbiased around N_up = 0.
    """
    return shift * (shift + cav.delta) / (cav.g * cav.g)


def alpha_per_atom(state_label: str, n_up: float, cav: CavityParams) -> float:
    """Dressed-cavity shift per atom added to a ground state, rad/s.

    ``up``   -> exact derivative of the dressed shift, g^2/sqrt(delta^2+4g^2 N_up)
    ``down`` -> far-detuned dispersive pull at detuning delta + omega_hf
    ``one``  -> c1_coupling times the up-state value
    """
    if np.any(n_up < 0):
        raise ValueError("n_up must be non-negative")
    if state_label == "up":
        return cav.g * cav.g / np.sqrt(
            cav.delta * cav.delta + 4.0 * cav.g * cav.g * n_up)
    if state_label == "down":
        return cav.g * cav.g / (cav.delta + cav.omega_hf)
    if state_label == "one":
        return cav.c1_coupling * alpha_per_atom("up", n_up, cav)
    raise ValueError(f"unknown state label {state_label!r}")


def qpn_frequency_fluctuation(n: float, cav: CavityParams) -> float:
    """Dressed-frequency std. dev. caused by CSS projection noise, rad/s.

    For an N-atom CSS the up population fluctuates by sqrt(N)/2, producing
    frequency fluctuations alpha_up(N/2) * sqrt(N)/2.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return alpha_per_atom("up", n / 2.0, cav) * math.sqrt(n) / 2.0


def scattered_ratio(n_up: float, cav: CavityParams) -> float:
    """Free-space scattered photons per transmitted probe photon, M_s/M_t.

    (2 Gamma / kappa0) * 4 g^2 N_up / (4 (delta + dressed_shift)^2).
    Monotone increasing in ``n_up`` and bounded above by 2 Gamma / kappa0.
    """
    if np.any(n_up < 0):
        raise ValueError("n_up must be non-negative")
    probe_det = cav.delta + dressed_shift(n_up, cav)
    return (2.0 * cav.gamma / cav.kappa0) * (4.0 * cav.g * cav.g * n_up) / (
        4.0 * probe_det * probe_det)


def effective_atom_number(n_loaded: float, ens: EnsembleParams) -> float:
    """Uniform-coupling equivalent atom number for ``n_loaded`` trapped atoms."""
    if n_loaded < 0:
        raise ValueError("n_loaded must be non-negative")
    return ens.coupling_fraction * n_loaded
