"""Analytic spin-noise model, the entry point of its fit, and the budget.

The measured spin-noise reduction follows a four-term model in the probe
strength M_t (mean transmitted photons per window):

    R(M_t) = r_psn / M_t  +  r_tf  +  r_q * M_t  +  r_c * M_t**2

All R values here are variances of the differenced pre/final population
measurement normalized to the CSS projection noise N/4.  Budget terms that
the model attributes to specific physics (population diffusion, recoil
heating, optomechanical ringing) are evaluated from first principles below;
frequency-unit quantities are converted to atom units by dividing by the
up-state shift per atom before normalizing.  The Raman channels are one
table, ``RAMAN_CHANNELS``, which the engine reads as well.  The classical
back-action has three terms, because one common probe-power draw scales
both the Raman counts and the recoil photons: population change, recoil,
and their cross term.  The fit's solver and interval rule are in ``stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .defaults import DEFAULTS, check_fields
from .physics import (
    TWO_PI,
    CavityParams,
    _out,
    alpha_per_atom,
    check_arg,
    scattered_ratio,
)
from .stats import _bootstrap, _bootstrap_interval

if TYPE_CHECKING:  # annotations only: state imports this module
    from .state import SimParams

# Fraction of a transition's variance that survives the unweighted time
# averaging of the two measurement windows forming the differenced record.
BETA_TIME_AVERAGE = 2.0 / 3.0

_NOISE, _TRANSITION = DEFAULTS["noise"], DEFAULTS["transition"]


@dataclass(frozen=True)
class NoiseCoeffs:
    """Fitted coefficients of the R(M_t) model plus calibration anchors.

    Defaults are calibrated so that at the reference operating point
    (N = 4.8e5, M_t = 4.1e4) the photon-shot-noise term is 1/32, the
    technical floor 1/73 and the total classical back-action 1/67.
    ``n_reference``/``m_reference`` record the operating point the
    coefficients were fitted at; the simulator rescales noise injections
    away from that point.  ``laser_linewidth_rinv`` is a reported
    pass-through constant, not a modeled term.
    """

    r_psn: float = _NOISE["r_psn"]
    r_tf: float = _NOISE["r_tf"]
    r_q: float = _NOISE["r_q"]
    r_c: float = _NOISE["r_c"]
    n_reference: float = _NOISE["n_reference"]
    m_reference: float = _NOISE["m_reference"]
    laser_linewidth_rinv: float = _NOISE["laser_linewidth_rinv"]

    def __post_init__(self) -> None:
        check_fields(self, "noise")


@dataclass(frozen=True)
class Alphas:
    """Per-atom dressed-cavity shifts for the three ground states, rad/s."""

    up: float
    down: float
    one: float


def alphas_for_ensemble(n: float, cav: CavityParams) -> Alphas:
    """Per-atom shifts evaluated at the half-polarized operating point."""
    return Alphas(up=alpha_per_atom("up", n / 2.0, cav),
                  down=alpha_per_atom("down", n / 2.0, cav),
                  one=alpha_per_atom("one", n / 2.0, cav))


def model_r(m_t: float, c: NoiseCoeffs) -> float:
    """Evaluate the four-term spin-noise model at probe strength ``m_t``."""
    check_arg(m_t > 0, "m_t", m_t, "positive")
    return c.r_psn / m_t + c.r_tf + c.r_q * m_t + c.r_c * m_t * m_t


@dataclass(frozen=True)
class FitResult:
    coeffs: NoiseCoeffs
    intervals: dict = field(default_factory=dict)  # name -> (lo, hi), 95%
    n_boot: int = 0


def fit_r(points, n_boot: int = 1000, rng=None) -> FitResult:
    """Nonnegativity-constrained least squares fit of the R(M_t) model.

    ``points`` is a sequence of (m_t, R) or (m_t, R, weight) tuples; omitted
    weights default to 1/R^2 (constant fractional error).  ``n_boot`` (an
    integer >= 0) pair resamples give 95 % intervals by
    ``stats._bootstrap_interval``; for 12 points with 10 % errors they
    cover about 92 %, not 95 % (ROADMAP item 4).  ``stats._bootstrap``
    solves the point estimate and every resample in one stacked call.
    """
    if (isinstance(n_boot, bool) or not isinstance(n_boot, (int, np.integer))
            or n_boot < 0):
        raise ValueError(f"n_boot must be an integer >= 0 (got {n_boot!r})")
    pts = [tuple(p) for p in points]
    if len(pts) < 4:
        raise ValueError("fit_r needs at least 4 points")
    for k, pt in enumerate(pts):
        for name, value in zip(("m_t", "R", "weight"), pt):
            if not (value > 0 and math.isfinite(value)):  # NaN fails too
                raise ValueError(f"fit_r point {k} {pt!r}: {name} must be "
                                 f"finite and > 0 (got {value!r})")
    m = np.array([p[0] for p in pts], dtype=float)
    r = np.array([p[1] for p in pts], dtype=float)
    if m.max() / m.min() < 10.0:
        raise ValueError("fit_r points must span at least a decade in m_t")
    w = np.array([p[2] if len(p) > 2 else 1.0 / (p[1] ** 2) for p in pts])

    # the weighted problem; a resample's is its rows, bit for bit
    sw = np.sqrt(w)
    design = np.column_stack([1.0 / m, np.ones_like(m), m, m * m])
    design = design * sw[:, None]
    sol, samples = _bootstrap(m, design, r * sw, n_boot, rng)
    if not np.any(sol > 0):
        raise ValueError("degenerate design: fit collapsed to zero")
    names = ("r_psn", "r_tf", "r_q", "r_c")

    intervals: dict = {}
    if n_boot > 0:
        lo, hi = _bootstrap_interval(samples, len(m))
        intervals = dict(zip(names, zip(lo.tolist(), hi.tolist())))

    coeffs = NoiseCoeffs(**dict(zip(names, sol.tolist())))
    return FitResult(coeffs=coeffs, intervals=intervals, n_boot=n_boot)


# ---------------------------------------------------------------------------
# population (Raman) back-action


@dataclass(frozen=True)
class TransitionProbs:
    """Raman transition probabilities per free-space scattered photon, one
    for each channel of ``RAMAN_CHANNELS``."""

    p_ud: float = _TRANSITION["p_ud"]
    p_du: float = _TRANSITION["p_du"]
    p_u1: float = _TRANSITION["p_u1"]
    p_d1: float = _TRANSITION["p_d1"]

    def __post_init__(self) -> None:
        check_fields(self, "transition")


# The Raman channels, one row each: the ``TransitionProbs`` field of its
# probability per free-space scattered photon, its source population, and
# the moves of (up, down, one) one event makes.
RAMAN_CHANNELS = (("p_ud", "pop_up", (-1, 1, 0)),
                  ("p_du", "pop_down", (1, -1, 0)),
                  ("p_u1", "pop_up", (-1, 0, 1)),
                  ("p_d1", "pop_down", (0, -1, 1)))
_MOVES = np.array([row[2] for row in RAMAN_CHANNELS], dtype=float)
# the calibration's: an atom reaching |1> goes straight back to up
_REPUMPED_MOVES = _MOVES @ [[1, 0, 0], [0, 1, 0], [1, 0, 0]]


def _channel_shifts(moves: np.ndarray, au, ad, a1):
    """Per channel (row of ``moves``): offset ad dDown + a1 dOne and jump
    au dUp + ad dDown + a1 dOne, exact (no row moves 3 populations)."""
    alphas = np.empty((3, np.size(au)))
    alphas[0], alphas[1], alphas[2] = au, ad, a1
    return moves[:, 1:] @ alphas[1:], moves @ alphas


@lru_cache(maxsize=32)
def _bracket(tp: TransitionProbs, alphas: Alphas, power: int) -> float:
    """sum p jump**power, power 1 or 2, over the four channels in table
    order; cached, as the budget asks at every call."""
    jumps = _channel_shifts(_MOVES, alphas.up, alphas.down, alphas.one)[1]
    return sum(getattr(tp, row[0]) * j ** power
               for row, j in zip(RAMAN_CHANNELS, jumps.ravel().tolist()))


def pop_noise_quantum(m_s: float, n: float, tp, alphas: Alphas) -> float:
    """Spin-noise term from quantum fluctuations of the transition counts.

    Each channel contributes a Poisson variance p * beta * m_s (beta is
    ``BETA_TIME_AVERAGE``) weighted by the squared frequency jump of one
    transition, converted to atom units through alpha_up.
    """
    check_arg(m_s >= 0, "m_s", m_s, "non-negative")
    return _out(BETA_TIME_AVERAGE * m_s / (n / 4.0) * _bracket(
        tp, alphas, 2) / (alphas.up * alphas.up))


def pop_noise_classical(m_s: float, frac: float, n: float, tp,
                        alphas: Alphas) -> float:
    """Spin-noise term from classical probe-power fluctuations.

    A common fractional fluctuation of the scattered photon number shifts
    every channel's mean transition count coherently, so the channel terms
    add with their signs inside the square; opposite-sign shift differences
    partially cancel.
    """
    check_arg(m_s >= 0, "m_s", m_s, "non-negative")
    check_arg(frac >= 0, "frac", frac, "non-negative")
    signed, f_m = _bracket(tp, alphas, 1), frac * m_s
    return _out(f_m * f_m / (n / 4.0) * (signed / alphas.up) ** 2)


def recoil_noise(m_s: float, frac: float, n: float, eps: float,
                 alpha_up: float) -> tuple[float, float]:
    """Quantum and classical spin-noise terms from recoil heating.

    Every free-space scattered photon shifts the dressed frequency by
    ``eps``; Poisson photon-number fluctuations, time-averaged by
    ``BETA_TIME_AVERAGE``, give the quantum term and the common fractional
    power fluctuation ``frac`` the classical one.
    ``eps`` and ``alpha_up`` must share units (only their ratio enters).
    """
    check_arg(m_s >= 0, "m_s", m_s, "non-negative")
    per_photon_atoms = eps / alpha_up
    quantum = BETA_TIME_AVERAGE * m_s * per_photon_atoms ** 2 / (n / 4.0)
    f_atoms = frac * m_s * per_photon_atoms
    classical = f_atoms * f_atoms / (n / 4.0)
    return _out(quantum), _out(classical)


def legacy_diffusion_limit(m_s: float, n: float, alphas: Alphas,
                           p_clock: float = 2.0 / 3.0) -> float:
    """Diffusion-limited R for a legacy clock-state probe.

    In a clock-state system the per-scattered-photon transition probability
    applies to scattering out of either spin state, and each window's
    diffusion variance enters the differenced record independently, so R
    is twice :func:`pop_noise_quantum` at p_ud = p_du = ``p_clock`` and
    p_u1 = p_d1 = 0:

        R = 2 * beta * (M_s / (N/4)) * p * [(a_d-a_u)^2 + (a_u-a_d)^2] / a_u^2

    with beta = ``BETA_TIME_AVERAGE``.
    """
    return 2.0 * pop_noise_quantum(
        m_s, n, TransitionProbs(p_clock, p_clock, 0.0, 0.0), alphas)


# ---------------------------------------------------------------------------
# optomechanical terms


def opto_ringing_trace(delta_p: float, t_grid, cav: CavityParams,
                       amp: float, tau0: float = 10e-6) -> np.ndarray:
    """Damped dressed-frequency oscillation following probe turn-on.

    A * exp(-t/tau) * cos(omega_ax t) with a damping time
    tau = tau0 (1 + delta_p / kappa), which lengthens when the probe sits
    above the dressed resonance (delta_p > 0, anti-damping) and shortens
    below it.  ``amp`` in the caller's frequency units, ``tau0`` the
    on-resonance decay time.
    """
    check_arg(math.isfinite(delta_p), "delta_p", delta_p, "finite")
    check_arg(math.isfinite(amp), "amp", amp, "finite")
    check_arg(tau0 > 0, "tau0", tau0, "positive")
    t = np.asarray(t_grid, dtype=float)
    tau = tau0 * (1.0 + delta_p / cav.kappa)
    tau = max(tau, 1e-3 * tau0)
    return amp * np.exp(-t / tau) * np.cos(cav.omega_ax * t)


def opto_noise_term(m_t: float, n: float, cav: CavityParams) -> float:
    """Variable-damping ringing contribution to R, scaling as M_t^2.

    Calibrated so the term limits 1/R to 620 at the default reference
    operating point.  Across atom number the underlying collective
    frequency-noise amplitude scales as M_t * N (see
    :func:`classical_scale`).
    """
    check_arg(m_t >= 0, "m_t", m_t, "non-negative")
    m = m_t / _NOISE["m_reference"]
    return _out((1.0 / 620.0) * (m * m)
                * classical_scale(n, _NOISE["n_reference"], cav))


def spectroscopic_enhancement(r: float, contrast: float,
                              initial_contrast: float) -> float:
    """Phase-variance improvement over the SQL, 1/W = (1/R) C^2 / C_i.

    ``r`` and ``contrast`` may be arrays of one shape."""
    check_arg(r > 0, "R", r, "positive")
    check_arg(0.0 < initial_contrast <= 1.0, "initial_contrast",
              initial_contrast, "in (0, 1]")
    check_arg((contrast > 0.0) & (contrast <= initial_contrast), "contrast",
              contrast, f"in (0, initial_contrast = {initial_contrast!r}]")
    return _out((1.0 / r) * contrast * contrast / initial_contrast)


# ---------------------------------------------------------------------------
# scaling conventions and per-window noise injections
#
# The fitted coefficients are anchored at (n_reference, m_reference).  Moving
# to a different atom number requires a convention for each term:
#   - read noise is constant in frequency units (photon shot noise of the
#     probe), so its atom-unit variance picks up readout_scale(N);
#   - the technical floor is a constant atom-number variance, so its R
#     contribution scales as 1/N;
#   - injected classical back-action has a frequency amplitude ~ M_t * N
#     (collective ringing grows with the ensemble), giving classical_scale.


def readout_scale(n: float, n_ref: float, cav: CavityParams) -> float:
    """Atom-unit rescaling of a frequency-constant noise: g(N)."""
    au_ref = alpha_per_atom("up", n_ref / 2.0, cav)
    au = alpha_per_atom("up", n / 2.0, cav)
    return (au_ref / au) ** 2 * (n_ref / n)


def classical_scale(n: float, n_ref: float, cav: CavityParams) -> float:
    """R-unit rescaling of the injected classical term across atom number."""
    d2 = cav.delta * cav.delta
    gg = 2.0 * cav.g * cav.g
    return (n / n_ref) * (d2 + gg * n) / (d2 + gg * n_ref)


def read_noise_freq(m_t: float, coeffs: NoiseCoeffs,
                    cav: CavityParams) -> float:
    """Per-window frequency read noise std. dev., rad/s.

    Calibrated so two independent windows reproduce the fitted photon-shot
    noise r_psn/M_t at the reference ensemble.
    """
    check_arg(m_t > 0, "m_t", m_t, "positive")
    au_ref = alpha_per_atom("up", coeffs.n_reference / 2.0, cav)
    sigma_atoms = np.sqrt(
        (coeffs.n_reference / 4.0) * coeffs.r_psn / (2.0 * m_t))
    return au_ref * sigma_atoms


def floor_noise_atoms(coeffs: NoiseCoeffs) -> float:
    """Per-window technical-floor noise std. dev. in atoms (N-independent)."""
    return math.sqrt(coeffs.r_tf * (coeffs.n_reference / 4.0) / 2.0)


def _back_action(n: float, m_t: float, cav: CavityParams, tp,
                 frac: float) -> dict[str, float]:
    """The mechanistic back-action terms of :class:`BudgetTerms`."""
    alphas = alphas_for_ensemble(n, cav)
    m_s = m_t * scattered_ratio(n / 2.0, cav)
    eps = TWO_PI * cav.recoil_shift_per_photon
    ext_q, ext_c = recoil_noise(m_s, frac, n, eps, alphas.up)
    f_m = frac * m_s
    # one power draw scales the Raman counts and the recoil photons, so
    # their classical responses add in amplitude: the cross term of the two
    cross_c = (2.0 * (f_m * f_m) / (n / 4.0) * _bracket(
        tp, alphas, 1) * -eps / (alphas.up * alphas.up))
    return {"pop_q": pop_noise_quantum(m_s, n, tp, alphas), "ext_q": ext_q,
            "pop_c": pop_noise_classical(m_s, frac, n, tp, alphas),
            "ext_c": ext_c, "cross_c": _out(cross_c)}


@lru_cache(maxsize=16)
def classical_injection_coeff(coeffs: NoiseCoeffs, frac: float,
                              cav: CavityParams, tp) -> float:
    """Residual classical back-action to inject, per M_t^2, at the anchor.

    The fitted r_c already contains the classical terms that the simulator
    produces mechanistically (recoil and population response to common
    probe-power fluctuations); those are subtracted here so the simulated
    total matches the fit.  The remainder (variable damping plus the
    unexplained residual) is injected as window frequency noise.  Cached
    for the engine and the budget, which both ask at every evaluation.
    """
    m_ref = coeffs.m_reference
    mech = _back_action(coeffs.n_reference, m_ref, cav, tp, frac)
    return max(0.0, coeffs.r_c - (mech["ext_c"] + mech["pop_c"]
                                  + mech["cross_c"]) / m_ref ** 2)


def injected_classical_freq(m_t: float, n: float, r_c_inj: float,
                            coeffs: NoiseCoeffs, cav: CavityParams) -> float:
    """Per-window injected classical frequency noise std. dev., rad/s."""
    check_arg(r_c_inj >= 0, "r_c_inj", r_c_inj, "non-negative")
    au = alpha_per_atom("up", n / 2.0, cav)
    var_atoms = 0.5 * r_c_inj * m_t * m_t * (n / 4.0) * classical_scale(
        n, coeffs.n_reference, cav)
    return au * np.sqrt(var_atoms)


# ---------------------------------------------------------------------------
# budget terms and report


@dataclass(frozen=True)
class BudgetTerms:
    """The simulated spin noise at one operating point, split into R terms.

    Read noise ``psn``, technical floor ``tf``, injected classical noise,
    the quantum (q) and classical (c) back-action of population diffusion
    (pop) and recoil heating (ext), and ``cross_c``, the cross term of the
    two classical responses to the one common probe-power draw.
    """

    psn: float
    tf: float
    injected: float
    pop_q: float
    ext_q: float
    pop_c: float
    ext_c: float
    cross_c: float

    @property
    def quantum(self) -> float:
        return self.pop_q + self.ext_q

    @property
    def classical(self) -> float:
        return self.injected + self.pop_c + self.ext_c + self.cross_c

    @property
    def total(self) -> float:
        # one fixed summation order, so R is reproducible to the last bit
        return (self.psn + self.tf + self.injected + self.pop_q + self.ext_q
                + self.pop_c + self.ext_c + self.cross_c)


def budget_terms(params: SimParams, m_t: float) -> BudgetTerms:
    """Every R term the simulator generates at probe strength ``m_t`` with
    the engine's ``params``.

    The fitted terms follow the atom-number scaling conventions above; the
    back-action terms are evaluated from first principles with the common
    probe-power fluctuation ``params.probe.ms_classical_frac``.  A float
    ``m_t`` gives float terms; an array gives terms of its shape, each
    element the float its own ``m_t`` gives.
    """
    check_arg(m_t > 0, "m_t", m_t, "positive")
    n, frac = params.ensemble.n_effective, params.probe.ms_classical_frac
    coeffs, cav, tp = params.coeffs, params.cavity, params.transitions
    n_ref = coeffs.n_reference
    terms = dict(
        psn=coeffs.r_psn * readout_scale(n, n_ref, cav) / m_t,
        tf=coeffs.r_tf * n_ref / n,
        injected=classical_injection_coeff(coeffs, frac, cav, tp)
        * m_t * m_t * classical_scale(n, n_ref, cav),
        **_back_action(n, m_t, cav, tp, frac))
    if isinstance(m_t, np.ndarray):
        return BudgetTerms(**{k: np.broadcast_to(v, m_t.shape)
                              for k, v in terms.items()})
    return BudgetTerms(**{k: float(v) for k, v in terms.items()})


@dataclass(frozen=True)
class BudgetReport:
    """Labelled 1/R values at a stated probe strength, in table order."""

    m_t: float
    terms: tuple[tuple[str, float], ...]

    def to_table(self) -> str:
        lines = ["term,R_inv"]
        for label, value in self.terms:
            lines.append(f"{label},{value:.6g}")
        return "\n".join(lines) + "\n"


def budget_report(params: SimParams, m_t: float) -> BudgetReport:
    """Evaluate every budget term at probe strength ``m_t`` with ``params``.

    The unindented rows are the fitted R(M_t) model at face value; the
    back-action rows come from :func:`budget_terms`.
    """
    terms = budget_terms(params, m_t)
    n, coeffs, cav = params.ensemble.n_effective, params.coeffs, params.cavity

    def inv(x: float) -> float:
        return 1.0 / x if x > 0 else math.inf

    return BudgetReport(m_t, (
        ("Observed Optimum", inv(model_r(m_t, coeffs))),
        ("Photon Shot Noise r_PSN", inv(coeffs.r_psn / m_t)),
        ("Technical Noise Floor R_t", inv(coeffs.r_tf)),
        ("  Laser Linewidth", coeffs.laser_linewidth_rinv),
        ("Classical Noise r_c", inv(coeffs.r_c * m_t * m_t)),
        ("  Variable Damping R_o", inv(opto_noise_term(m_t, n, cav))),
        ("  Photon Recoil R_ext,c", inv(terms.ext_c)),
        ("  Population Change R_pop,c", inv(terms.pop_c)),
        ("Quantum Noise r_q", inv(terms.quantum)),
        ("  Photon Recoil R_ext,q", inv(terms.ext_q)),
        ("  Population Diffusion R_pop,q", inv(terms.pop_q)),
    ))
