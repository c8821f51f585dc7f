"""Analytic spin-noise model, its fit, and the individual budget terms.

The measured spin-noise reduction follows a four-term model in the probe
strength M_t (mean transmitted photons per window):

    R(M_t) = r_psn / M_t  +  r_tf  +  r_q * M_t  +  r_c * M_t**2

All R values here are variances of the differenced pre/final population
measurement normalized to the CSS projection noise N/4.  Budget terms that
the model attributes to specific physics (population diffusion, recoil
heating, optomechanical ringing) are evaluated from first principles below;
frequency-unit quantities are converted to atom units by dividing by the
up-state shift per atom before normalizing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .defaults import DEFAULTS, check_fields
from .physics import (
    TWO_PI,
    CavityParams,
    alpha_per_atom,
    check_arg,
    scattered_ratio,
)

if TYPE_CHECKING:  # annotations only: state imports this module
    from .state import SimParams

# Fraction of a transition's variance that survives the unweighted time
# averaging of the two measurement windows forming the differenced record.
BETA_TIME_AVERAGE = 2.0 / 3.0

_NOISE = DEFAULTS["noise"]


def _out(x):
    """A model result: an array as it is, a number as a Python float (the
    repr of a numpy float reads ``np.float64(...)``)."""
    return x if isinstance(x, np.ndarray) else float(x)


def _square(x):
    """x ** 2, by the C library's pow for an array too.

    A number's ``** 2`` calls pow, and numpy's ``** 2`` on an array
    multiplies; the two differ in the last bit on about 1 input in 1000,
    so an M_t-dependent square goes through here and an array of M_t gives
    what each of its numbers gives, to the bit.
    """
    return np.float_power(x, 2) if isinstance(x, np.ndarray) else x ** 2


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
    weights default to 1/R^2 (constant fractional error).  Bootstrap pair
    resampling yields 95% confidence intervals, with expanded percentile
    levels (the usual small-sample correction) so nominal coverage holds at
    realistic point counts.  The point estimate is scipy's ``nnls``; the
    resamples are solved exactly in blocks (:func:`_bootstrap`).
    """
    # loaded here, not on import: they cost most of the package's start
    from scipy.optimize import nnls
    from scipy.special import ndtr, stdtrit

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
    rhs = r * sw
    sol = nnls(design, rhs)[0]
    if not np.any(sol > 0):
        raise ValueError("degenerate design: fit collapsed to zero")
    names = ("r_psn", "r_tf", "r_q", "r_c")

    intervals: dict = {}
    if n_boot > 0:
        samples = _bootstrap(m, design, rhs, sol, n_boot, rng)
        n_pts = len(m)
        alpha = float(ndtr(
            stdtrit(n_pts - 1, 0.025) * math.sqrt(n_pts / (n_pts - 1))))
        lo = np.percentile(samples, 100.0 * alpha, axis=0)
        hi = np.percentile(samples, 100.0 * (1.0 - alpha), axis=0)
        intervals = {nm: (float(lo[i]), float(hi[i]))
                     for i, nm in enumerate(names)}

    coeffs = NoiseCoeffs(r_psn=float(sol[0]), r_tf=float(sol[1]),
                         r_q=float(sol[2]), r_c=float(sol[3]))
    return FitResult(coeffs=coeffs, intervals=intervals, n_boot=n_boot)


def _bootstrap(m: np.ndarray, design: np.ndarray, rhs: np.ndarray,
               sol: np.ndarray, n_boot: int, rng) -> np.ndarray:
    """The ``n_boot`` pair-resampled NNLS solutions of :func:`fit_r`.

    A resample takes rows of the weighted problem (``design``, ``rhs``) at
    the probe strengths ``m``; the indices of a block of ``_BOOT_BLOCK``
    resamples come from one ``integers`` call, and are the indices, and
    leave the generator in the state, that one ``choice`` call per
    resample gives.  A resample of four or more distinct M_t, a full-rank
    problem, is solved by :func:`_nnls_batch` with the others of its
    block; one of fewer, or one the batch leaves unsettled, by scipy's
    ``nnls``; and one whose M_t are all equal keeps the full fit ``sol``.
    Each row is what scipy's ``nnls`` gives for that resample, to
    roundoff, with the same zero coefficients (unless the points fit the
    model exactly with a zero coefficient, which is then roundoff in both).
    """
    from scipy.optimize import nnls

    gen, n = np.random.default_rng(rng), len(m)
    # a resample's distinct M_t, counted by the first point of each M_t
    # (np.unique would sort, and numpy's sort code, which nothing else in
    # a fit touches, grows the process by about 0.3 MB on first use)
    first = np.argmax(m[:, None] == m, axis=1)
    samples = np.full((n_boot, 4), np.nan)
    for lo in range(0, n_boot, _BOOT_BLOCK):
        out = samples[lo:lo + _BOOT_BLOCK]
        take = gen.integers(0, n, size=(len(out), n))
        seen = np.zeros(take.shape, dtype=bool)
        seen[np.arange(len(take))[:, None], first[take]] = True
        distinct = np.count_nonzero(seen, axis=1)
        full = distinct >= 4
        out[full] = _nnls_batch(design[take[full]], rhs[take[full]])
        out[distinct == 1] = sol
        for b in np.flatnonzero(np.isnan(out[:, 0])):
            out[b] = nnls(design[take[b]], rhs[take[b]])[0]
    return samples


# Bootstrap resamples drawn and solved together; bounds the working set
# (a block of 128 resamples of 24 points holds about 0.1 MB per array).
_BOOT_BLOCK = 128

# A problem whose unit-norm columns leave a diagonal entry of R below
# _RANK_TOL is too close to rank-deficient to solve here and is left to
# scipy; _GRADIENT_TOL, times |Q^T b| over that least entry, is the
# roundoff the KKT test forgives.
_RANK_TOL = 1e-8
_GRADIENT_TOL = 1e-13

# every support of the four coefficients, largest first
_SUPPORTS = tuple(list(s) for k in (4, 3, 2, 1)
                  for s in itertools.combinations(range(4), k))


def _nnls_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact solutions of a stack of full-rank, four-column NNLS problems.

    Row i of the result minimizes |a[i] x - b[i]| over x >= 0.  Each problem
    is reduced by a QR factorization to a 4 x 4 triangular one, its
    columns scaled to unit norm; the 15 supports are then tried, largest
    first, and the first whose least-squares coefficients are all > 0 and
    whose gradient is >= 0 on every dropped column (the KKT conditions,
    which a full-rank problem's one optimum alone meets) is kept.  Rows
    that are near rank-deficient, or that no support settles, are NaN.
    """
    t, c = _qr(a, b)
    # R of a's unit-norm columns: R's columns over their norms, a's norms
    scale = np.sqrt((t * t).sum(axis=1))
    t = t / scale[:, None, :]
    least = np.abs(np.diagonal(t, axis1=1, axis2=2)).min(axis=1)
    todo = np.flatnonzero(least > _RANK_TOL)
    tol = _GRADIENT_TOL * np.sqrt((c * c).sum(axis=1)) / np.maximum(
        least, _RANK_TOL)
    out = np.full((len(b), 4), np.nan)
    for support in _SUPPORTS:
        if todo.size == 0:
            break
        tk, ck = t[todo], c[todo]
        x = np.zeros((todo.size, 4))
        x[:, support] = _back_substitute(*_qr(tk[:, :, support], ck))
        res = (tk * x[:, None, :]).sum(axis=2) - ck
        grad = (tk * res[:, :, None]).sum(axis=1)
        dropped = [j for j in range(4) if j not in support]
        ok = np.all(x[:, support] > 0, axis=1) & np.all(
            grad[:, dropped] >= -tol[todo, None], axis=1)
        out[todo[ok]] = x[ok] / scale[todo[ok]]
        todo = todo[~ok]
    return out


def _qr(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R and Q^T b of the QR factorization of each problem of a stack.

    Modified Gram-Schmidt on the columns of [a | b], which is backward
    stable for least squares, in numpy's own loops: numpy's LAPACK, which
    nothing else in the package calls, grows the process by about 0.7 MB
    of resident memory on its first call.
    """
    k = a.shape[2]
    cols = [a[:, :, j] for j in range(k)]
    rest = b
    r = np.zeros((len(b), k, k))
    z = np.empty((len(b), k))
    for j in range(k):
        r[:, j, j] = np.sqrt((cols[j] * cols[j]).sum(axis=1))
        q = cols[j] / r[:, j, j, None]
        for i in range(j + 1, k):
            r[:, j, i] = (q * cols[i]).sum(axis=1)
            cols[i] = cols[i] - r[:, j, i, None] * q
        z[:, j] = (q * rest).sum(axis=1)
        rest = rest - z[:, j, None] * q
    return r, z


def _back_substitute(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """y with r[i] y[i] = z[i], for a stack of upper-triangular r."""
    y = np.zeros_like(z)
    for j in reversed(range(z.shape[1])):
        y[:, j] = (z[:, j] - (r[:, j, j + 1:] * y[:, j + 1:]).sum(axis=1)
                   ) / r[:, j, j]
    return y


# ---------------------------------------------------------------------------
# population (Raman) back-action


def pop_noise_quantum(m_s: float, n: float, tp, alphas: Alphas) -> float:
    """Spin-noise term from quantum fluctuations of the transition counts.

    Each channel contributes a Poisson variance p * beta * m_s (beta is
    ``BETA_TIME_AVERAGE``) weighted by the squared frequency jump of one
    transition, converted to atom units through alpha_up.
    """
    check_arg(m_s >= 0, "m_s", m_s, "non-negative")
    au, ad, a1 = alphas.up, alphas.down, alphas.one
    bracket = (tp.p_ud * (ad - au) ** 2 + tp.p_u1 * (a1 - au) ** 2
               + tp.p_du * (au - ad) ** 2 + tp.p_d1 * (a1 - ad) ** 2)
    return _out(BETA_TIME_AVERAGE * m_s / (n / 4.0) * bracket / (au * au))


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
    au, ad, a1 = alphas.up, alphas.down, alphas.one
    signed = (tp.p_ud * (ad - au) + tp.p_u1 * (a1 - au)
              + tp.p_du * (au - ad) + tp.p_d1 * (a1 - ad))
    return _out(_square(frac * m_s) / (n / 4.0) * (signed / au) ** 2)


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
    classical = _square(frac * m_s * per_photon_atoms) / (n / 4.0)
    return _out(quantum), _out(classical)


def legacy_diffusion_limit(m_s: float, n: float, alphas: Alphas,
                           p_clock: float = 2.0 / 3.0) -> float:
    """Diffusion-limited R for a legacy clock-state probe.

    In a clock-state system the per-scattered-photon transition probability
    applies to scattering out of either spin state, and each window's
    diffusion variance enters the differenced record independently:

        R = 2 * beta * (M_s / (N/4)) * p * [(a_d-a_u)^2 + (a_u-a_d)^2] / a_u^2

    with beta = ``BETA_TIME_AVERAGE``.
    """
    check_arg(m_s >= 0, "m_s", m_s, "non-negative")
    au, ad = alphas.up, alphas.down
    bracket = p_clock * 2.0 * (au - ad) ** 2 / (au * au)
    return _out(2.0 * BETA_TIME_AVERAGE * m_s / (n / 4.0) * bracket)


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
    if tau0 <= 0:
        raise ValueError("tau0 must be positive")
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
    return _out((1.0 / 620.0) * _square(m_t / _NOISE["m_reference"])
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
    if coeffs.r_psn == 0.0:
        return 0.0
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
    return {"pop_q": pop_noise_quantum(m_s, n, tp, alphas), "ext_q": ext_q,
            "pop_c": pop_noise_classical(m_s, frac, n, tp, alphas),
            "ext_c": ext_c}


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
    return max(0.0, coeffs.r_c - (mech["ext_c"] + mech["pop_c"]) / m_ref ** 2)


def injected_classical_freq(m_t: float, n: float, r_c_inj: float,
                            coeffs: NoiseCoeffs, cav: CavityParams) -> float:
    """Per-window injected classical frequency noise std. dev., rad/s."""
    if r_c_inj <= 0.0:
        return 0.0
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
    and the quantum (q) and classical (c) back-action of population
    diffusion (pop) and recoil heating (ext).
    """

    psn: float
    tf: float
    injected: float
    pop_q: float
    ext_q: float
    pop_c: float
    ext_c: float

    @property
    def quantum(self) -> float:
        return self.pop_q + self.ext_q

    @property
    def classical(self) -> float:
        return self.injected + self.pop_c + self.ext_c

    @property
    def total(self) -> float:
        # one fixed summation order, so R is reproducible to the last bit
        return (self.psn + self.tf + self.injected + self.pop_q + self.ext_q
                + self.pop_c + self.ext_c)


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
