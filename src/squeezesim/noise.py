"""Analytic spin-noise model, its fit, and the individual budget terms.

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
and their cross term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import NormalDist
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
    weights default to 1/R^2 (constant fractional error).  ``n_boot`` (an
    integer >= 0) pair resamples give 95 % intervals at expanded percentile
    levels, a small-sample correction; for 12 points with 10 % errors they
    cover about 92 %, not 95 % (ROADMAP item 4).  :func:`_nnls_batch`
    solves the point estimate and every resample (:func:`_bootstrap`).
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
    rhs = r * sw
    sol = _nnls_batch(design[None], rhs[None])[0]
    if not np.any(sol > 0):
        raise ValueError("degenerate design: fit collapsed to zero")
    names = ("r_psn", "r_tf", "r_q", "r_c")

    intervals: dict = {}
    if n_boot > 0:
        samples = _bootstrap(m, design, rhs, sol, n_boot, rng)
        n_pts = len(m)
        alpha = NormalDist().cdf(
            _t_quantile(0.025, n_pts - 1) * math.sqrt(n_pts / (n_pts - 1)))
        lo = np.percentile(samples, 100.0 * alpha, axis=0)
        hi = np.percentile(samples, 100.0 * (1.0 - alpha), axis=0)
        intervals = dict(zip(names, zip(lo.tolist(), hi.tolist())))

    coeffs = NoiseCoeffs(**dict(zip(names, sol.tolist())))
    return FitResult(coeffs=coeffs, intervals=intervals, n_boot=n_boot)


def _t_quantile(p: float, dof: int) -> float:
    """The p-quantile of Student's t with an integer ``dof``: bisects
    theta = atan(t / sqrt(dof)) in (0, pi/2) to the last bit on the closed
    form of P(|T| <= t), Abramowitz and Stegun 26.7.3 (odd dof) and 26.7.4.
    """
    lo, mid, hi = 0.0, math.pi / 4.0, math.pi / 2.0
    while lo < mid < hi:
        cos, sin, odd = math.cos(mid), math.sin(mid), dof % 2
        s = float(dof > 1)  # 1 + a_1 cos**2 + a_2 cos**4 + ..., by Horner
        for k in range((dof - 2 - odd) // 2, 0, -1):
            s = 1.0 + cos * cos * s * (2 * k - 1 + odd) / (2 * k + odd)
        central = (mid + sin * cos * s) * 2 / math.pi if odd else sin * s
        lo, hi = (mid, hi) if central < abs(1.0 - 2.0 * p) else (lo, mid)
        mid = 0.5 * (lo + hi)
    return math.copysign(math.sqrt(dof) * math.tan(mid), p - 0.5)


def _bootstrap(m: np.ndarray, design: np.ndarray, rhs: np.ndarray,
               sol: np.ndarray, n_boot: int, rng) -> np.ndarray:
    """The ``n_boot`` pair-resampled NNLS solutions of :func:`fit_r`.

    A resample takes rows of the weighted problem (``design``, ``rhs``) at
    the probe strengths ``m``; the indices of a block of ``_BOOT_BLOCK``
    resamples come from one ``integers`` call, and are the indices, and
    leave the generator in the state, that one ``choice`` call per
    resample gives.  :func:`_qr` reduces a block at once to 4 x 4
    problems, and :func:`_solve` runs the support search once over all
    of them; a resample whose M_t are all equal keeps the full fit ``sol``.
    """
    gen, n = np.random.default_rng(rng), len(m)
    t, c = np.empty((n_boot, 4, 4)), np.empty((n_boot, 4))
    flat = np.empty(n_boot, dtype=bool)
    for lo in range(0, n_boot, _BOOT_BLOCK):
        hi = min(lo + _BOOT_BLOCK, n_boot)
        take = gen.integers(0, n, size=(hi - lo, n))
        t[lo:hi], c[lo:hi] = _qr(design[take], rhs[take])
        flat[lo:hi] = np.ptp(m[take], axis=1) == 0
    samples = _solve(t, c)
    samples[flat] = sol
    return samples


# Bootstrap resamples drawn and QR-reduced together; bounds the working set
# (a block of 128 resamples of 24 points holds about 0.1 MB per array,
# its reduced problems 20 floats per resample).
_BOOT_BLOCK = 128

# A support whose unit-norm columns leave a diagonal entry of their R
# <= _RANK_TOL is skipped as rank-deficient; _GRADIENT_TOL, times |Q^T b|
# over the support's least entry, is the roundoff the KKT test forgives.
_RANK_TOL = 1e-8
_GRADIENT_TOL = 1e-13

# every support of the four coefficients, largest first
_SUPPORTS = tuple(list(s) for k in (4, 3, 2, 1)
                  for s in itertools.combinations(range(4), k))


def _nnls_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact solutions of a stack of four-column NNLS problems: row i of
    the result minimizes |a[i] x - b[i]| over x >= 0."""
    return _solve(*_qr(a, b))


def _solve(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The NNLS solutions of a stack of problems reduced by :func:`_qr`.

    Row i of the result minimizes |t[i] x - c[i]| over x >= 0, which has
    the optimum of the problem that the triangular ``t[i]`` reduces.  Its
    columns are scaled to unit norm; the 15 supports are then tried,
    largest first.  A support settles a problem when its columns are
    independent (see ``_RANK_TOL``), its least-squares coefficients are
    all > 0 and the gradient is >= 0 on every dropped column: the KKT
    conditions, which only an optimum meets.  A full-rank problem has one optimum; a
    rank-deficient one has many, and gets the first in support order.
    """
    # R of the unit-norm columns: R's columns over their norms, which are
    # the norms of the columns R reduces
    scale = np.sqrt((t * t).sum(axis=1))
    t = t / scale[:, None, :]
    norm_c = np.sqrt((c * c).sum(axis=1))
    out = np.full((len(c), 4), np.nan)
    todo = np.arange(len(c))
    # the rank test masks what a rank-deficient support's 0/0 gives
    with np.errstate(divide="ignore", invalid="ignore"):
        for support in _SUPPORTS:
            if todo.size == 0:
                break
            tk, ck = t[todo], c[todo]
            rk, zk = _qr(tk[:, :, support], ck)
            least = np.diagonal(rk, axis1=1, axis2=2).min(axis=1)
            x = np.zeros((todo.size, 4))
            x[:, support] = _back_substitute(rk, zk)
            res = (tk * x[:, None, :]).sum(axis=2) - ck
            grad = (tk * res[:, :, None]).sum(axis=1)
            dropped = [j for j in range(4) if j not in support]
            tol = _GRADIENT_TOL * norm_c[todo] / least
            ok = ((least > _RANK_TOL) & np.all(x[:, support] > 0, axis=1)
                  & np.all(grad[:, dropped] >= -tol[:, None], axis=1))
            out[todo[ok]] = x[ok] / scale[todo[ok]]
            todo = todo[~ok]
    return out


def _qr(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R and Q^T b of the QR factorization of each problem of a stack.

    Modified Gram-Schmidt on the columns of [a | b], which is backward
    stable for least squares, in numpy's own loops, so that ``fit_r`` and
    its bootstrap never load numpy's LAPACK, which grows the process by
    about 0.7 MB of resident memory on its first call.  (The fringe fit,
    the N-scaling slopes and the Raman calibration's lines do call it,
    through ``np.linalg`` and ``np.polyfit``.)  A column that depends exactly
    on the ones before it gets q = 0.  The columns are read from one
    contiguous copy, not as strided views of ``a``.
    """
    k = a.shape[2]
    cols = [*np.moveaxis(a, 2, 0).copy(), b]
    r = np.zeros((len(b), k + 1, k + 1))
    for j in range(k):
        r[:, j, j] = np.sqrt((cols[j] * cols[j]).sum(axis=1))
        q = cols[j] / np.where(r[:, j, j] > 0, r[:, j, j], 1.0)[:, None]
        for i in range(j + 1, k + 1):
            r[:, j, i] = (q * cols[i]).sum(axis=1)
            cols[i] = cols[i] - r[:, j, i, None] * q
    return r[:, :k, :k], r[:, :k, k]


def _back_substitute(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """y with r[i] y[i] = z[i], for a stack of upper-triangular r."""
    y = np.zeros_like(z)
    for j in reversed(range(z.shape[1])):
        y[:, j] = (z[:, j] - (r[:, j, j + 1:] * y[:, j + 1:]).sum(axis=1)
                   ) / r[:, j, j]
    return y


# ---------------------------------------------------------------------------
# population (Raman) back-action

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


@lru_cache(maxsize=16)
def _brackets(probs: tuple, au, ad, a1) -> tuple[float, float]:
    """sum p jump**2 and sum p jump over the channels of ``probs``, (field,
    p) pairs, in table order; cached, as the budget asks at every call."""
    p, jumps = dict(probs), _channel_shifts(_MOVES, au, ad, a1)[1].ravel()
    pj = [(p[row[0]], j) for row, j in zip(RAMAN_CHANNELS, jumps.tolist())
          if row[0] in p]
    return sum(q * j ** 2 for q, j in pj), sum(q * j for q, j in pj)


def _bracket(probs: dict, alphas: Alphas, power: int) -> float:
    """sum p jump**power, power 1 or 2, over the channels of ``probs``."""
    return _brackets(tuple(probs.items()), alphas.up, alphas.down,
                     alphas.one)[2 - power]


def pop_noise_quantum(m_s: float, n: float, tp, alphas: Alphas) -> float:
    """Spin-noise term from quantum fluctuations of the transition counts.

    Each channel contributes a Poisson variance p * beta * m_s (beta is
    ``BETA_TIME_AVERAGE``) weighted by the squared frequency jump of one
    transition, converted to atom units through alpha_up.
    """
    check_arg(m_s >= 0, "m_s", m_s, "non-negative")
    return _out(BETA_TIME_AVERAGE * m_s / (n / 4.0) * _bracket(
        vars(tp), alphas, 2) / (alphas.up * alphas.up))


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
    signed = _bracket(vars(tp), alphas, 1)
    return _out(_square(frac * m_s) / (n / 4.0) * (signed / alphas.up) ** 2)


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
    bracket = (_bracket({"p_ud": p_clock, "p_du": p_clock}, alphas, 2)
               / (alphas.up * alphas.up))
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
    # one power draw scales the Raman counts and the recoil photons, so
    # their classical responses add in amplitude: the cross term of the two
    cross_c = (2.0 * _square(frac * m_s) / (n / 4.0) * _bracket(
        vars(tp), alphas, 1) * -eps / (alphas.up * alphas.up))
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
