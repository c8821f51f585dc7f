"""The estimators: R from a run's records, a fringe's amplitude, and the
R(M_t) fit's point estimate, pair resamples and 95 % intervals, which
``noise.fit_r`` asks for.  A leaf module: it imports only numpy and the
standard library.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from statistics import NormalDist

import numpy as np


def spin_noise_reduction(rs, final_label: str, pre_label: str) -> float:
    """Sample variance of (N_final - N_pre) over CSS projection noise N/4,
    from a ``sequence.RecordSet`` ``rs``."""
    if len(rs) < 2:
        raise ValueError("need at least 2 trials to estimate a variance")
    diff = rs.column(final_label) - rs.column(pre_label)
    n = rs.params["ensemble.n_effective"]
    return float(np.var(diff, ddof=1) / (n / 4.0))


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


def _bootstrap_interval(samples: np.ndarray,
                        n_pts: int) -> tuple[np.ndarray, np.ndarray]:
    """The 95 % interval of each column of ``samples``, resamples of a fit
    to ``n_pts`` points: percentiles at levels expanded by Student's t over
    the normal, a small-sample correction."""
    alpha = NormalDist().cdf(
        _t_quantile(0.025, n_pts - 1) * math.sqrt(n_pts / (n_pts - 1)))
    return (np.percentile(samples, 100.0 * alpha, axis=0),
            np.percentile(samples, 100.0 * (1.0 - alpha), axis=0))


@cache
def _t_quantile(p: float, dof: int) -> float:
    """The p-quantile of Student's t with an integer ``dof``: bisects
    theta = atan(t / sqrt(dof)) in (0, pi/2) to the last bit on the closed
    form of P(|T| <= t), Abramowitz and Stegun 26.7.3 (odd dof) and 26.7.4;
    cached, as every fit of as many points asks for the same quantile.
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
               n_boot: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The NNLS point estimate of ``noise.fit_r`` and its ``n_boot``
    pair-resampled solutions.

    Each row of one stack takes rows of the weighted problem (``design``,
    ``rhs``) at the probe strengths ``m``.  Row 0, the point estimate,
    takes each of them once and draws nothing.  The indices of a block of
    ``_BOOT_BLOCK`` resamples come from one ``integers`` call, and are the
    indices, and leave the generator in the state, that one ``choice``
    call per resample gives.  :func:`_qr` reduces a block at once to 4 x 4
    problems, and :func:`_solve` runs the support search once over the
    whole stack; a resample whose M_t are all equal keeps the point
    estimate.
    """
    gen, n = np.random.default_rng(rng), len(m)
    takes = itertools.chain([np.arange(n)[None]], (
        gen.integers(0, n, size=(min(_BOOT_BLOCK, n_boot - lo), n))
        for lo in range(0, n_boot, _BOOT_BLOCK)))
    t, c, flat = map(np.concatenate, zip(*[
        (*_qr(design[k], rhs[k]), np.ptp(m[k], axis=1) == 0) for k in takes]))
    samples = _solve(t, c)
    samples[flat] = samples[0]
    return samples[0], samples[1:]


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


def _solve(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The NNLS solutions of a stack of problems reduced by :func:`_qr`.

    Row i of the result minimizes |t[i] x - c[i]| over x >= 0, which has
    the optimum of the problem that the triangular ``t[i]`` reduces.  Its
    columns are scaled to unit norm; the 15 supports are then tried,
    largest first.  A support settles a problem when its columns are
    independent (see ``_RANK_TOL``), its least-squares coefficients are
    all > 0 and the gradient is >= 0 on every dropped column: the KKT
    conditions, which only an optimum meets.  A full-rank problem has one
    optimum; a rank-deficient one has many, and gets the first in support
    order.
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
    about 0.7 MB of resident memory on its first call.  (``fit_fringe``
    calls it through ``np.linalg``, and the slopes of ``experiments``
    through ``np.polyfit``.)  A column that depends exactly on the ones
    before it gets q = 0.  The columns are read from one contiguous copy,
    not as strided views of ``a``.
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
