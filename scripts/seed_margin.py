#!/usr/bin/env python3
"""Seed margins of the Monte Carlo acceptance gates.

Reruns, at their test sizes and over K master seeds, criterion 4
(probe-strength sweep: best 1/R, its M_t, best 1/W), criterion 5
(single-shot phase detection: CSS and squeezed error rates), criterion 6
(atom-number scaling: phase-variance and SQL slopes) and the fit of
``tests/test_experiments.py::test_simulated_sweep_fit_rq_consistent_with_zero``
(r_q's lower 95 % bound, its share r_q M_t / R at M_t = 4.1e4, r_psn and
r_c against their calibration values), and the Monte Carlo oracles of
``tests/test_budget_additivity.py`` and ``tests/test_state.py`` (each
simulated variance or mean over its analytic value; the ideal probe's R
at successive M_t over the one before), and the moment comparisons of
``tests/test_engine.py`` and ``tests/test_draws.py`` (the largest
difference, in standard errors, between the engine's and the scalar
engine's column means and variances over every case; a seed outside the
band is a false alarm of those tests), and the bootstrap coverage of
``tests/test_noise.py::TestFitR::test_bootstrap_coverage`` (how many of
100 noisy fits cover each true coefficient with their 95 % interval,
against the test's 90).  It prints each measured value's
minimum, median and maximum next to its tolerance band, the least
distance of any seed's value to an edge of the band (negative outside),
and how many seeds land inside the band.  For criteria 4 to 6 seed k is
20260810 + 2k, so k = 0 repeats the acceptance tests exactly; the
phase-detection CSS arm uses seed + 1, as the tests do.  The r_q fit's
sweep uses seed 77 + k (k = 0 is the test) with the test's bootstrap
seed 5, each oracle its test's seed + k, each moment comparison its
test's engine seed + 2k, and the bootstrap coverage seed 1234 + k.  Per
seed, on one core of a 2-core Xeon (Python 3.11, numpy 2.4): c4 and c5
about 0.1 s each, c6 about 1 s, rq under 0.1 s (its first seed about
0.5 s more, for the scipy import), oracles about 1 s, moments about 5 s,
boot about 0.5 s; ``--only`` picks some of them,
and ``--rq-trials`` sets the r_q fit's trials per point (800, the test's
size, by default):

    PYTHONPATH=src python scripts/seed_margin.py --seeds 8
    PYTHONPATH=src python scripts/seed_margin.py --seeds 32 --only rq
    PYTHONPATH=src python scripts/seed_margin.py --seeds 32 --only rq \\
        --rq-trials 3200
    PYTHONPATH=src python scripts/seed_margin.py --seeds 8 --only oracles
    PYTHONPATH=src python scripts/seed_margin.py --seeds 32 --only boot
"""

import argparse
import math
import statistics
import sys
import time
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np

import squeezesim as sq
from squeezesim import experiments as exp
from squeezesim import noise
from squeezesim.physics import TWO_PI

BASE_SEED = 20260810

# group -> name -> (lower, upper) tolerance band of the tests
BANDS = {
    "c4": {"c4 best 1/R": (13.0, 19.0),
           "c4 M_t at best 1/R": (2e4, 8e4),
           "c4 best 1/W": (9.0, 13.5)},
    "c5": {"c5 CSS error rate": (0.20, 0.30),
           "c5 squeezed error rate": (0.012, 0.032)},
    "c6": {"c6 phase-variance slope": (-2.2, -1.7),
           "c6 SQL slope": (-0.55, -0.45)},
    "rq": {"rq lower bound of r_q": (0.0, 0.0),
           "rq share r_q M_t / R": (-math.inf, 0.1),
           "rq r_psn / 1281.25": (0.9, 1.1),
           "rq r_c / calibration": (0.75, 1.25)},
    "oracles": {
        **{f"budget {name}": (0.95, 1.05) for name in (
            "all_channels", "read_only", "read_plus_diffusion",
            "read_plus_floor_and_injection", "read_plus_recoil")},
        "two-window variance": (0.95, 1.05),
        "Raman net change variance": (0.95, 1.05),
        "Raman net mean offset / tolerance": (-1.0, 1.0),
        "source weighting mean": (0.95, 1.05),
        "ideal R(1e4) / R(1e3)": (-math.inf, 1.0),
        "ideal R(1e5) / R(1e4)": (-math.inf, 1.0)},
    # the upper edge is test_engine.K_SE
    "moments": {"moments largest z, every case": (0.0, 5.0)},
    # hits of 100 fits; the lower edge is the test's 90 % of its reps
    "boot": {f"boot {name} hits of 100": (90.0, 100.0)
             for name in ("r_psn", "r_tf", "r_c")},
}
ORACLE_TRIALS = 100_000


def oracles(k: int) -> dict[str, float]:
    """The oracles of tests/test_budget_additivity.py and the
    TestRamanDiffusion / TestProbeMeasure oracles of tests/test_state.py,
    each at its test's seed + k and size."""
    base = sq.SimParams()
    ideal = replace(
        base, transitions=base.transitions.zeroed(),
        cavity=replace(base.cavity, recoil_shift_per_photon=0.0),
        probe=replace(base.probe, ms_classical_frac=0.0, detuning_spread=0.0),
        coeffs=replace(base.coeffs, r_tf=0.0, r_c=0.0))
    cases = {
        "read_only": ideal,
        "read_plus_diffusion": replace(ideal, transitions=base.transitions),
        "read_plus_recoil": replace(ideal, cavity=base.cavity),
        "read_plus_floor_and_injection": replace(ideal, coeffs=base.coeffs),
        "all_channels": replace(base, probe=replace(base.probe,
                                                    detuning_spread=0.0))}
    pair = sq.parse_protocol("pump down\npulse 90 0\nprobe Np\nprobe Nf\n")
    out = {}
    for name, params in cases.items():
        rs = sq.run_trials(pair, params, ORACLE_TRIALS,
                           zlib.crc32(name.encode()) + k)
        out[f"budget {name}"] = (sq.spin_noise_reduction(rs, "Nf", "Np")
                                 / exp.expected_r(params, 4.1e4))

    cav, tp, ens, n = base.cavity, base.transitions, base.ensemble, 4.8e5
    coeffs = replace(base.coeffs, r_tf=0.0, r_q=0.0, r_c=0.0)
    probe = sq.ProbeConfig(ms_classical_frac=0.0, detuning_spread=0.0)
    window = replace(base, probe=probe, coeffs=coeffs)

    def diffs(state, params, rng):
        a, state = sq.probe_measure(state, params, rng)
        b, state = sq.probe_measure(state, params, rng)
        return np.var(b.n_up - a.n_up, ddof=1) / (n / 4.0)

    rng = np.random.default_rng(9 + k)
    al = noise.alphas_for_ensemble(n, cav)
    m_s = probe.m_t * sq.scattered_ratio(n / 2.0, cav)
    expected = (coeffs.r_psn / probe.m_t
                + noise.pop_noise_quantum(m_s, n, tp, al)
                + noise.recoil_noise(m_s, 0.0, n, TWO_PI * 1.3, al.up)[0])
    out["two-window variance"] = diffs(
        sq.prepare_css(n, ens).tile(ORACLE_TRIALS), window, rng) / expected

    m_s = 4.1e4
    lam = (tp.p_ud + tp.p_du + tp.p_u1) * m_s
    css = sq.prepare_css(n, ens)
    nets = sq.apply_raman_diffusion(
        css.tile(ORACLE_TRIALS), m_s, base,
        np.random.default_rng(2 + k)).pop_up - n / 2
    out["Raman net change variance"] = np.var(nets, ddof=1) / lam
    out["Raman net mean offset / tolerance"] = (
        (np.mean(nets) - (tp.p_du - tp.p_ud - tp.p_u1) * m_s)
        / (0.05 * lam ** 0.5))

    trials = 20_000
    moved = sq.apply_raman_diffusion(
        sq.polarized_state(2e5, ens, "down").tile(trials), 1e4, base,
        np.random.default_rng(3 + k), repump_to_up=True).pop_up
    out["source weighting mean"] = np.mean(moved) / (
        (tp.p_du + tp.p_d1) * 1e4 * 2.0)

    rng, trials, r = np.random.default_rng(12 + k), 4000, []
    ideal_window = replace(
        window, cavity=replace(cav, recoil_shift_per_photon=0.0),
        transitions=tp.zeroed())
    for m_t in (1e3, 1e4, 1e5):
        r.append(diffs(sq.prepare_css(n, ens).tile(trials),
                       ideal_window.with_mt(m_t), rng))
    out["ideal R(1e4) / R(1e3)"] = r[1] / r[0]
    out["ideal R(1e5) / R(1e4)"] = r[2] / r[1]
    return {name: float(v) for name, v in out.items()}


def moments(k: int) -> dict[str, float]:
    """The largest moment z-score of the test_engine cases (engine seed
    11 + 2k) and of test_draws' draw-path protocol (21 + 2k)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from test_draws import DRAW_PATHS
    from test_engine import CASES, moment_z_scores

    runs = [(protocol, params, 11 + 2 * k)
            for protocol, params, _ in CASES.values()]
    runs.append((DRAW_PATHS, replace(sq.SimParams(), contrast_excess=1.9),
                 21 + 2 * k))
    return {"moments largest z, every case": max(
        max(moment_z_scores(*run).values()) for run in runs)}


def boot(k: int) -> dict[str, float]:
    """The coverage of tests/test_noise.py::TestFitR::test_bootstrap_coverage
    at seed 1234 + k."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from test_noise import bootstrap_hits

    return {f"boot {name} hits of 100": float(hits)
            for name, hits in bootstrap_hits(1234 + k).items()}


def measure(group: str, k: int, rq_trials: int) -> dict[str, float]:
    params = sq.SimParams()
    calibrated = replace(params,
                         contrast_excess=sq.CALIBRATED_CONTRAST_EXCESS)
    seed = BASE_SEED + 2 * k
    if group == "oracles":
        return oracles(k)
    if group == "moments":
        return moments(k)
    if group == "boot":
        return boot(k)
    if group == "c4":
        sweep = exp.squeezing_sweep(calibrated, np.logspace(3.0, 5.0, 15),
                                    trials_per_point=2000, master_seed=seed)
        return {"c4 best 1/R": 1.0 / sweep.best_r().r,
                "c4 M_t at best 1/R": sweep.best_r().m_t,
                "c4 best 1/W": sweep.best().w_inv}
    if group == "c5":
        par = params.with_n(4.3e5)
        squeezed = exp.phase_detection(par, 2.3e-3, premeasure=True,
                                       trials=10_000, master_seed=seed,
                                       target_w_inv=7.5)
        css = exp.phase_detection(par, 2.3e-3, premeasure=False,
                                  trials=10_000, master_seed=seed + 1,
                                  m_t=squeezed.m_t)
        return {"c5 CSS error rate": css.error_rate,
                "c5 squeezed error rate": squeezed.error_rate}
    if group == "c6":
        res = exp.n_scaling(calibrated, [6e4, 1.2e5, 2.4e5, 4.8e5],
                            trials_per_point=30_000, master_seed=seed,
                            scan_trials=2000)
        return {"c6 phase-variance slope": res.slope_squeezed,
                "c6 SQL slope": res.slope_sql}
    sweep = exp.squeezing_sweep(calibrated, np.logspace(3, 5, 12),
                                trials_per_point=rq_trials,
                                master_seed=77 + k)
    fit = sq.fit_r([(row.m_t, row.r) for row in sweep.rows], n_boot=400,
                   rng=5)
    return {"rq lower bound of r_q": fit.intervals["r_q"][0],
            "rq share r_q M_t / R": (fit.coeffs.r_q * 4.1e4
                                     / sq.model_r(4.1e4, fit.coeffs)),
            "rq r_psn / 1281.25": fit.coeffs.r_psn / 1281.25,
            "rq r_c / calibration": fit.coeffs.r_c / params.coeffs.r_c}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=8, metavar="K",
                    help="number of master seeds (default 8)")
    ap.add_argument("--only", default=",".join(BANDS), metavar="GROUPS",
                    help="comma-separated groups to run, of "
                         f"{', '.join(BANDS)} (default all)")
    ap.add_argument("--rq-trials", type=int, default=800, metavar="T",
                    help="trials per M_t point of the r_q fit's sweep "
                         "(default 800, the test's size)")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")
    if args.rq_trials < 2:
        ap.error("--rq-trials must be >= 2")
    groups = args.only.split(",")
    unknown = [g for g in groups if g not in BANDS]
    if unknown:
        ap.error(f"unknown group {unknown[0]!r}; choose from "
                 f"{', '.join(BANDS)}")

    values: dict[str, list[float]] = {
        name: [] for g in groups for name in BANDS[g]}
    for k in range(args.seeds):
        t0 = time.perf_counter()
        for group in groups:
            for name, value in measure(group, k, args.rq_trials).items():
                values[name].append(value)
        print(f"seed k = {k}: {time.perf_counter() - t0:.1f} s", flush=True)

    print(f"\n{'value':36s} {'min':>10s} {'median':>10s} {'max':>10s}  "
          f"{'band':>20s} {'margin':>10s}  inside")
    for group in groups:
        passed = [True] * args.seeds
        for name, (lo, hi) in BANDS[group].items():
            v = values[name]
            ok = [lo <= x <= hi for x in v]
            passed = [a and b for a, b in zip(passed, ok)]
            margin = min(min(x - lo, hi - x) for x in v)
            print(f"{name:36s} {min(v):10.4g} {statistics.median(v):10.4g} "
                  f"{max(v):10.4g}  [{lo:8.4g}, {hi:8.4g}] {margin:10.4g}  "
                  f"{sum(ok)}/{len(v)}")
        print(f"{group + ' every value inside':36s} {'':67s}"
              f"{sum(passed)}/{args.seeds}")


if __name__ == "__main__":
    main()
