"""Scripted experiment reproductions built on the sequence engine.

Each operation returns a plain-data result object with a ``to_csv`` method;
figure rendering is out of scope, the CSVs are plot-ready.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import noise as _noise
from .defaults import check_value
from .physics import TWO_PI, contrast_decay, dressed_shift, scattered_ratio
from .sequence import (
    Protocol,
    SimParams,
    parse_protocol,
    run_grid,
    run_trials,
    spin_noise_reduction,
    trial_seed,
)
from .state import (apply_raman_diffusion, gaussian_counts, polarized_state,
                    rotate)

SQUEEZING_PROTOCOL_TEXT = """\
prealign
pump down
pulse 90 0
probe Nd
pulse 180 0
probe Np
probe Nf
"""


def standard_protocol() -> Protocol:
    """Pre-alignment, CSS preparation, echo pair, pre- and final measurement."""
    return parse_protocol(SQUEEZING_PROTOCOL_TEXT)


def _sub_seed(master_seed: int, index: int) -> int:
    # keep experiment-level seed derivation distinct from trial derivation
    return trial_seed(master_seed, 100_000 + index)


def _csv(header: str, rows) -> str:
    """A result's CSV text: the header, then each row's values by repr, a
    numpy float as the Python float it equals."""
    lines = [header] + [",".join(
        repr(float(v)) if isinstance(v, float) else repr(v) for v in row)
        for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# analytic expectations (used to bracket optimizers and for sweep columns)


def contrast_model(params: SimParams, m_t: float, windows: int = 1) -> float:
    """Expected contrast after ``windows`` probe windows of strength m_t,
    a float or an array like ``m_t`` (see ``physics.contrast_decay``)."""
    n = params.ensemble.n_effective
    return params.ensemble.initial_contrast * contrast_decay(
        m_t * scattered_ratio(n / 2.0, params.cavity), n,
        params.contrast_excess, windows)


def expected_r(params: SimParams, m_t: float) -> float:
    """Analytic expectation of the simulated spin-noise reduction, a float
    or an array like ``m_t``."""
    return _noise.budget_terms(params, m_t).total


def expected_w_inverse(params: SimParams, m_t: float,
                       contrast_windows: int = 1) -> float:
    """Model spectroscopic enhancement at probe strength ``m_t``, a float
    or an array like it.

    ``contrast_windows = 1`` is the sweep/fringe observable; use 2 for the
    enhancement a phase applied between the pre- and final measurements
    actually realizes (the state has then scattered through both the echo
    and the pre-measurement windows).
    """
    c = contrast_model(params, m_t, windows=contrast_windows)
    return _noise.spectroscopic_enhancement(
        expected_r(params, m_t), c, params.ensemble.initial_contrast)


def tune_mt_for_w_inverse(params: SimParams, target: float,
                          contrast_windows: int = 1) -> float:
    """Probe strength at which the model predicts 1/W = target.

    Searches the rising (photon-shot-noise limited) branch below the model
    optimum, between 1e3 and 3e5 photons; raises if the target exceeds the
    reachable maximum.  The grid is evaluated as one array; the bisection
    runs on floats, and stops once the midpoint is one of the bounds: their
    geometric mean, the result, cannot change after that.
    """
    check_value("cli", "target_winv", target, "target")
    m_lo, m_hi = 1e3, 3e5
    grid = np.logspace(math.log10(m_lo), math.log10(m_hi), 200)
    w = expected_w_inverse(params, grid, contrast_windows)
    peak = int(np.argmax(w))
    if w[peak] < target:
        raise ValueError(
            f"target 1/W = {target} unreachable (model max {w[peak]:.2f})")
    lo, hi = m_lo, float(grid[peak])
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        if expected_w_inverse(params, mid, contrast_windows) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


# ---------------------------------------------------------------------------
# Bloch-vector contrast from a rotation-phase fringe


@dataclass(frozen=True)
class FringeResult:
    contrast: float
    contrast_err: float
    m_t: float
    theta_grid: tuple[float, ...]
    mean_n_up: tuple[float, ...]

    def to_csv(self) -> str:
        return _csv("theta_rad,mean_n_up", zip(self.theta_grid,
                                                self.mean_n_up))


def fit_fringe(theta: np.ndarray,
               n_up: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit of offset + amplitude * cos(theta - phase).

    Returns (offset, amplitude, amplitude standard error); linear in the
    {1, cos, sin} basis so it cannot fail to converge.  Its error projects
    the covariance sigma^2 (X^T X)^-1 on the amplitude's direction (cos at 0).
    """
    design = np.column_stack([np.ones_like(theta), np.cos(theta),
                              np.sin(theta)])
    coef, _, rank, _ = np.linalg.lstsq(design, n_up, rcond=None)
    if rank < 3:
        raise ValueError("degenerate fringe fit: need >= 3 distinct phases")
    amp = math.hypot(coef[1], coef[2])
    resid = n_up - design @ coef
    cov = (np.linalg.inv(design.T @ design)[1:, 1:]
           * float(resid @ resid) / max(len(theta) - 3, 1))
    unit = coef[1:] / amp if amp else np.array([1.0, 0.0])
    return float(coef[0]), amp, math.sqrt(float(unit @ cov @ unit))


def contrast_fringe(params: SimParams, m_t: float, theta_grid,
                    trials: int, master_seed: int = 0) -> FringeResult:
    """Pre-measure at strength ``m_t``, sweep the final pulse phase, fit.

    ``m_t = 0`` skips the pre-measurement probe entirely (the no-probe
    reference that measures the initial contrast); the readout window keeps
    the configured default strength.
    """
    check_value("probe", "m_t", m_t, "m_t")
    theta = np.asarray(list(theta_grid), dtype=float)
    if len(theta) < 6 or np.ptp(theta) < math.pi:
        raise ValueError("need >= 6 phase points spanning at least pi")
    head = ["prealign", "pump down", "pulse 90 0"]
    if m_t > 0:
        head.append(f"probe Np mt={float(m_t)!r}")
    points = [(parse_protocol("\n".join(
        head + [f"pulse 90 {math.degrees(th)!r}", "probe Nf"])), params,
        _sub_seed(master_seed, i)) for i, th in enumerate(theta)]
    mean_n = np.array([float(np.mean(rs.column("Nf")))
                       for rs in run_grid(points, trials)])
    _, amp, amp_err = fit_fringe(theta, mean_n)
    half_n = params.ensemble.n_effective / 2.0
    return FringeResult(contrast=amp / half_n, contrast_err=amp_err / half_n,
                        m_t=m_t, theta_grid=tuple(float(t) for t in theta),
                        mean_n_up=tuple(float(m) for m in mean_n))


# ---------------------------------------------------------------------------
# spin-noise / enhancement sweep


@dataclass(frozen=True)
class SweepRow:
    m_t: float
    r: float
    contrast: float
    w_inv: float
    terms: _noise.BudgetTerms  # the model R that r estimates, term by term


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    n_effective: float
    trials_per_point: int
    master_seed: int

    def best(self) -> SweepRow:
        return max(self.rows, key=lambda row: row.w_inv)

    def best_r(self) -> SweepRow:
        return min(self.rows, key=lambda row: row.r)

    def to_csv(self) -> str:
        return _csv("mt,R,C,Winv,R_psn,R_tf,R_q,R_c", (
            (r.m_t, r.r, r.contrast, r.w_inv, r.terms.psn, r.terms.tf,
             r.terms.quantum, r.terms.classical) for r in self.rows))


def squeezing_sweep(params: SimParams, m_t_list, trials_per_point: int,
                    master_seed: int = 0) -> SweepResult:
    """Spin-noise reduction, contrast and enhancement versus probe strength.

    Point i runs ``trials_per_point`` trials at the seed ``_sub_seed(
    master_seed, i)``; every point's trials run together (``run_grid``).
    """
    m_ts = sorted(float(m) for m in m_t_list)
    if not m_ts:
        raise ValueError("m_t_list must be non-empty")
    proto = standard_protocol()
    runs = run_grid([(proto, params.with_mt(m), _sub_seed(master_seed, i))
                     for i, m in enumerate(m_ts)], trials_per_point)
    rows = []
    for m_t, rs in zip(m_ts, runs):
        r = spin_noise_reduction(rs, "Nf", "Np")
        c = contrast_model(params, m_t)
        w_inv = _noise.spectroscopic_enhancement(
            r, c, params.ensemble.initial_contrast)
        rows.append(SweepRow(m_t=m_t, r=r, contrast=c, w_inv=w_inv,
                             terms=_noise.budget_terms(params, m_t)))
    return SweepResult(rows=tuple(rows),
                       n_effective=params.ensemble.n_effective,
                       trials_per_point=trials_per_point,
                       master_seed=master_seed)


# ---------------------------------------------------------------------------
# single-shot phase detection


@dataclass(frozen=True)
class PhaseDetectionResult:
    psi: float
    premeasure: bool
    m_t: float
    error_rate: float
    threshold: float
    hist_edges: tuple[float, ...]
    hist_applied: tuple[int, ...]
    hist_null: tuple[int, ...]
    trials: int

    def to_csv(self) -> str:
        e = self.hist_edges
        return _csv("bin_left,bin_right,applied,null",
                    zip(e, e[1:], self.hist_applied, self.hist_null))


def _detection_protocol(psi: float, premeasure: bool) -> Protocol:
    if premeasure:
        lines = ["prealign", "pump down", "pulse 90 0", "probe Nd",
                 "pulse 180 0", "probe Np"]
        if psi != 0.0:
            lines.append(f"pulse {math.degrees(psi)!r} 180")
        lines.append("probe Nf")
    else:
        lines = ["prealign", "pump down", "pulse 90 0"]
        if psi != 0.0:
            lines.append(f"pulse {math.degrees(psi)!r} 0")
        lines.append("probe Nf")
    return parse_protocol("\n".join(lines))


def phase_detection(params: SimParams, psi: float, premeasure: bool,
                    trials: int, master_seed: int = 0,
                    m_t: float | None = None,
                    target_w_inv: float | None = None) -> PhaseDetectionResult:
    """Single-shot discrimination of an applied polar rotation.

    Two trial populations are simulated, with and without the rotation; a
    threshold at the midpoint of the two empirical means classifies each
    shot and the pooled misclassification fraction is reported.  With
    ``premeasure`` the discriminating quantity is the squeezed difference
    N_f - N_p, otherwise the CSS population difference 2 N_f - N.
    """
    check_value("cli", "n_trials", trials, "trials")
    check_value("cli", "psi", psi, "psi")
    if trials < 1000:
        raise ValueError("phase detection needs >= 1e3 trials per arm")
    if m_t is None:
        m_t = (tune_mt_for_w_inverse(params, target_w_inv,
                                     contrast_windows=2)
               if target_w_inv is not None else params.probe.m_t)
    p = params.with_mt(m_t)
    n = p.ensemble.n_effective

    def quantity(rs) -> np.ndarray:
        if premeasure:
            return rs.column("Nf") - rs.column("Np")
        return 2.0 * rs.column("Nf") - n

    # each arm's records are reduced before the next arm runs
    q_applied, q_null = map(quantity, run_grid(
        [(_detection_protocol(phase, premeasure), p,
          _sub_seed(master_seed, i)) for i, phase in ((1, psi), (2, 0.0))],
        trials))

    threshold = 0.5 * (float(np.mean(q_applied)) + float(np.mean(q_null)))
    sign = 1.0 if np.mean(q_applied) >= np.mean(q_null) else -1.0
    wrong = (np.sum(sign * (q_applied - threshold) < 0)
             + np.sum(sign * (q_null - threshold) > 0))
    error_rate = float(wrong) / (2.0 * trials)

    lo = min(q_applied.min(), q_null.min())
    hi = max(q_applied.max(), q_null.max())
    edges = np.linspace(lo, hi, 41)
    h_app, _ = np.histogram(q_applied, bins=edges)
    h_null, _ = np.histogram(q_null, bins=edges)
    return PhaseDetectionResult(
        psi=psi, premeasure=premeasure, m_t=m_t, error_rate=error_rate,
        threshold=threshold, hist_edges=tuple(float(x) for x in edges),
        hist_applied=tuple(int(x) for x in h_app),
        hist_null=tuple(int(x) for x in h_null), trials=trials)


# ---------------------------------------------------------------------------
# atom-number scaling


@dataclass(frozen=True)
class ScalingRow:
    n: float
    m_opt: float
    w_inv: float
    dtheta2: float
    sql_dtheta: float


@dataclass(frozen=True)
class ScalingResult:
    rows: tuple[ScalingRow, ...]
    slope_squeezed: float  # d log(dtheta^2) / d log N
    slope_sql: float       # d log(sql dtheta) / d log N

    def to_csv(self) -> str:
        return _csv("n,m_opt,Winv,dtheta2,sql_dtheta", (
            (r.n, r.m_opt, r.w_inv, r.dtheta2, r.sql_dtheta)
            for r in self.rows))


def optimize_w_inverse(params: SimParams, trials_per_point: int,
                       master_seed: int = 0, scan_trials: int = 2000,
                       points_per_decade: int = 20) -> ScalingRow:
    """Monte Carlo optimum of the enhancement over probe strength.

    Brackets the model optimum, scans a log grid of probe strengths with
    ``squeezing_sweep`` at ``scan_trials`` trials a point, then refines
    the first point of the greatest enhancement with ``trials_per_point``
    trials.  The refined record set also yields the measured SQL angle
    std(Nd - Np)/N.
    """
    proto = standard_protocol()
    n = params.ensemble.n_effective
    ci = params.ensemble.initial_contrast
    coarse = np.logspace(3.0, 5.5, 60)
    m_star = coarse[int(np.argmax(expected_w_inverse(params, coarse)))]
    span = math.log10(9.0)
    n_pts = max(int(math.ceil(points_per_decade * span)), 8)
    grid = np.logspace(math.log10(m_star / 3.0),
                       math.log10(m_star * 3.0), n_pts)

    best_m = squeezing_sweep(params, grid, scan_trials, master_seed).best().m_t
    rs = run_trials(proto, params.with_mt(best_m), trials_per_point,
                    _sub_seed(master_seed, 999))
    r = spin_noise_reduction(rs, "Nf", "Np")
    w_inv = _noise.spectroscopic_enhancement(
        r, contrast_model(params, best_m), ci)
    sql = float(np.std(rs.column("Nd") - rs.column("Np"), ddof=1)) / n
    return ScalingRow(n=n, m_opt=best_m, w_inv=w_inv,
                      dtheta2=1.0 / (w_inv * n), sql_dtheta=sql)


def n_scaling(params: SimParams, n_list, trials_per_point: int,
              master_seed: int = 0, scan_trials: int = 2000,
              points_per_decade: int = 20) -> ScalingResult:
    """Optimized phase variance and measured SQL versus atom number.

    Per atom number the enhancement is optimized over probe strength
    (:func:`optimize_w_inverse`); the absolute phase variance W/N and the
    measured SQL angle then get log-log slope fits across ``n_list``.
    """
    ns = sorted(float(n) for n in n_list)
    if len(ns) < 3:
        raise ValueError("n_scaling needs >= 3 atom numbers for slope fits")
    if max(ns) / min(ns) < 8.0:
        raise ValueError("n_list should span close to a decade")
    rows = []
    for j, n in enumerate(ns):
        rows.append(optimize_w_inverse(
            params.with_n(n), trials_per_point,
            master_seed=_sub_seed(master_seed, 5000 + j),
            scan_trials=scan_trials, points_per_decade=points_per_decade))

    log_n = np.log([r.n for r in rows])
    slope_sq = float(np.polyfit(log_n, np.log([r.dtheta2 for r in rows]), 1)[0])
    slope_sql = float(np.polyfit(log_n,
                                 np.log([r.sql_dtheta for r in rows]), 1)[0])
    return ScalingResult(rows=tuple(rows), slope_squeezed=slope_sq,
                         slope_sql=slope_sql)


# ---------------------------------------------------------------------------
# Raman transition-probability calibration


@dataclass(frozen=True)
class CalibrationResult:
    slope_down_hz: float   # pump-to-down preparation, Hz per transmitted photon
    slope_up_hz: float     # pump-to-up-with-swap preparation
    m_t_grid: tuple[float, ...]
    mean_freq_down_hz: tuple[float, ...]
    mean_freq_up_hz: tuple[float, ...]

    def to_csv(self) -> str:
        return _csv("mt,freq_down_hz,freq_up_hz", zip(
            self.m_t_grid, self.mean_freq_down_hz, self.mean_freq_up_hz))


def _calibration_reading(state, params: SimParams, rng) -> np.ndarray:
    """Dressed-frequency readout of (nearly) polarized ensembles, rad/s."""
    read_sig = _noise.read_noise_freq(params.probe.m_t, params.coeffs,
                                      params.cavity)
    return (dressed_shift(np.maximum(state.pop_up, 0.0), params.cavity)
            + state.freq_offset
            + read_sig * rng.standard_normal(state.pop_up.size))


def raman_calibration(params: SimParams, m_t_grid, trials: int,
                      master_seed: int = 0,
                      n_atoms: float = 2.1e5) -> CalibrationResult:
    """Mean dressed-frequency change per transmitted scattering photon.

    Two preparations: all atoms pumped to down (the reading counts atoms
    scattered out of down), and pumped to up with a population swap before
    readout (the reading counts atoms scattered out of up).  Scattering is
    driven at the half-polarized reference flux: transitions for source
    state s scale as p * M_s(N/2) * N_s/(N/2), and atoms reaching |1> are
    treated as instantly recycled to up.  Linear fits of the mean reading
    versus M_t give the two slopes, so the grid needs two distinct M_t
    values at least one photon apart.  Each M_t point runs its trials as one
    batch, drawing from one generator,
    ``default_rng(_sub_seed(master_seed, point))``.
    """
    check_value("cli", "n_trials", trials, "trials")
    grid = sorted(float(m) for m in m_t_grid)
    check_value("cli", "calibration_points", len(set(grid)),
                "the number of distinct M_t values in m_t_grid")
    check_value("cli", "calibration_span", grid[-1] - grid[0],
                "the M_t span of m_t_grid")
    p = params.with_n(n_atoms)
    cav = p.cavity
    n = p.ensemble.n_effective
    flux_ref = scattered_ratio(n / 2.0, cav)  # photons scattered per M_t
    eps = TWO_PI * cav.recoil_shift_per_photon

    def drive(state, m_t: float, rng):
        m_s_ref = m_t * flux_ref
        new = apply_raman_diffusion(state, m_s_ref, p, rng, repump_to_up=True)
        recoil = eps * gaussian_counts(
            m_s_ref * np.maximum(new.pop_up, 0.0) / (n / 2.0),
            rng.standard_normal(trials))
        return replace(new, freq_offset=new.freq_offset - recoil)

    def mean_hz(state, rng) -> float:
        return float(np.mean(_calibration_reading(state, p, rng))) / TWO_PI

    means_down, means_up = [], []
    for i, m_t in enumerate(grid):
        rng = np.random.default_rng(_sub_seed(master_seed, i))
        pumped = polarized_state(n, p.ensemble, "down").tile(trials)
        means_down.append(mean_hz(drive(pumped, m_t, rng), rng))
        swapped = rotate(drive(rotate(pumped, math.pi, 0.0), m_t, rng),
                         math.pi, 0.0)
        means_up.append(mean_hz(swapped, rng))

    slope_down = float(np.polyfit(grid, means_down, 1)[0])
    slope_up = float(np.polyfit(grid, means_up, 1)[0])
    return CalibrationResult(
        slope_down_hz=slope_down, slope_up_hz=slope_up,
        m_t_grid=tuple(grid), mean_freq_down_hz=tuple(means_down),
        mean_freq_up_hz=tuple(means_up))
