#!/usr/bin/env python3
"""Seed margins of the Monte Carlo acceptance criteria 4 and 5.

Reruns criterion 4 (probe-strength sweep: best 1/R, its M_t, best 1/W) and
criterion 5 (single-shot phase detection: CSS and squeezed error rates) at
their acceptance sizes over K master seeds, and prints each measured
value's minimum, median and maximum next to its tolerance band, with how
many seeds land inside the band.  Seed k is 20260810 + 2k, so k = 0
repeats the acceptance tests exactly; the phase-detection CSS arm uses
seed + 1, as the tests do.  Takes about 10 s per seed on one core:

    PYTHONPATH=src python scripts/seed_margin.py --seeds 8
"""

import argparse
import statistics
import time
from dataclasses import replace

import numpy as np

import squeezesim as sq
from squeezesim import experiments as exp

BASE_SEED = 20260810

# name -> (lower, upper) tolerance band of tests/test_acceptance.py
BANDS = {
    "c4 best 1/R": (13.0, 19.0),
    "c4 M_t at best 1/R": (2e4, 8e4),
    "c4 best 1/W": (9.0, 13.5),
    "c5 CSS error rate": (0.20, 0.30),
    "c5 squeezed error rate": (0.012, 0.032),
}


def measure(seed: int) -> dict[str, float]:
    params = sq.SimParams()
    calibrated = replace(params,
                         contrast_excess=sq.CALIBRATED_CONTRAST_EXCESS)
    sweep = exp.squeezing_sweep(calibrated, np.logspace(3.0, 5.0, 15),
                                trials_per_point=2000, master_seed=seed)
    par = params.with_n(4.3e5)
    squeezed = exp.phase_detection(par, 2.3e-3, premeasure=True,
                                   trials=10_000, master_seed=seed,
                                   target_w_inv=7.5)
    css = exp.phase_detection(par, 2.3e-3, premeasure=False,
                              trials=10_000, master_seed=seed + 1,
                              m_t=squeezed.m_t)
    return {
        "c4 best 1/R": 1.0 / sweep.best_r().r,
        "c4 M_t at best 1/R": sweep.best_r().m_t,
        "c4 best 1/W": sweep.best().w_inv,
        "c5 CSS error rate": css.error_rate,
        "c5 squeezed error rate": squeezed.error_rate,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=8, metavar="K",
                    help="number of master seeds (default 8)")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")

    values: dict[str, list[float]] = {name: [] for name in BANDS}
    for k in range(args.seeds):
        seed = BASE_SEED + 2 * k
        t0 = time.perf_counter()
        for name, value in measure(seed).items():
            values[name].append(value)
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s", flush=True)

    print(f"\n{'value':24s} {'min':>10s} {'median':>10s} {'max':>10s}  "
          f"{'band':>20s}  inside")
    for name, (lo, hi) in BANDS.items():
        v = values[name]
        inside = sum(lo <= x <= hi for x in v)
        print(f"{name:24s} {min(v):10.4g} {statistics.median(v):10.4g} "
              f"{max(v):10.4g}  [{lo:8.4g}, {hi:8.4g}]  "
              f"{inside}/{len(v)}")


if __name__ == "__main__":
    main()
