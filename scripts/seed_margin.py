#!/usr/bin/env python3
"""Seed margins of the Monte Carlo acceptance gates.

Each gate is defined once, in its test module (see ``tests/gates.py``):
a measuring function of the seed index k, k = 0 being the test's own
seed, and the bands of the values it gates.  This script imports both
and runs each group over K seed indices: criteria 4, 5 and 6 (c4, c5,
c6), the r_q fit (rq), the oracles of the budget and state tests
(oracles), the largest z-score of the engine's moment comparisons with
the scalar engine (moments; a seed outside the band is a false alarm of
those tests), the bootstrap coverage (boot) and the Raman calibration's
slopes (calib).  It prints each value's
minimum, median and maximum next to its band, the least distance of any
seed's value to an edge of the band (negative outside), and how many
seeds land inside the band.  Per seed, on one core of a 2-core Xeon
(Python 3.11, numpy 2.4): c4 and c5 about 0.1 s each, c6 about 1 s, rq
under 0.1 s, oracles about 1 s, moments about 5 s, boot about 0.5 s,
calib about 0.05 s;
``--only`` picks some of them, and ``--rq-trials`` sets the r_q fit's
trials per point (800, the test's size, by default):

    PYTHONPATH=src python scripts/seed_margin.py --seeds 8
    PYTHONPATH=src python scripts/seed_margin.py --seeds 32 --only rq
    PYTHONPATH=src python scripts/seed_margin.py --seeds 32 --only rq \\
        --rq-trials 3200
    PYTHONPATH=src python scripts/seed_margin.py --seeds 8 --only oracles
    PYTHONPATH=src python scripts/seed_margin.py --seeds 32 --only boot
    PYTHONPATH=src python scripts/seed_margin.py --seeds 32 --only calib
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import test_acceptance  # noqa: E402
import test_budget_additivity  # noqa: E402
import test_draws  # noqa: E402
import test_experiments  # noqa: E402
import test_noise  # noqa: E402
import test_state  # noqa: E402

# group -> its gates: (measuring function of the seed index k, bands)
GROUPS = {
    "c4": [(test_acceptance.criterion_4, test_acceptance.C4_BANDS)],
    "c5": [(test_acceptance.criterion_5, test_acceptance.C5_BANDS)],
    "c6": [(test_acceptance.criterion_6, test_acceptance.C6_BANDS)],
    "rq": [(test_experiments.rq_fit, test_experiments.RQ_BANDS)],
    "oracles": [
        (test_budget_additivity.budget_ratios, test_budget_additivity.BANDS),
        (test_state.two_window_variance, test_state.TWO_WINDOW_BANDS),
        (test_state.raman_net_change, test_state.RAMAN_NET_BANDS),
        (test_state.source_weighting, test_state.SOURCE_BANDS),
        (test_state.ideal_r_steps, test_state.IDEAL_R_BANDS)],
    "moments": [(test_draws.largest_moment_z, test_draws.MOMENT_BANDS)],
    "boot": [(test_noise.bootstrap_hits, test_noise.BOOT_BANDS)],
    "calib": [
        (test_experiments.calibration_slopes, test_experiments.CALIB_BANDS),
        (test_experiments.zero_probability_slopes,
         test_experiments.ZERO_P_BANDS)],
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=8, metavar="K",
                    help="number of master seeds (default 8)")
    ap.add_argument("--only", default=",".join(GROUPS), metavar="GROUPS",
                    help="comma-separated groups to run, of "
                         f"{', '.join(GROUPS)} (default all)")
    ap.add_argument("--rq-trials", type=int, default=800, metavar="T",
                    help="trials per M_t point of the r_q fit's sweep "
                         "(default 800, the test's size)")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")
    if args.rq_trials < 2:
        ap.error("--rq-trials must be >= 2")
    groups = args.only.split(",")
    unknown = [g for g in groups if g not in GROUPS]
    if unknown:
        ap.error(f"unknown group {unknown[0]!r}; choose from "
                 f"{', '.join(GROUPS)}")

    bands = {g: {name: band for _, gate in GROUPS[g]
                 for name, band in gate.items()} for g in groups}
    values: dict[str, list[float]] = {
        name: [] for g in groups for name in bands[g]}
    for k in range(args.seeds):
        t0 = time.perf_counter()
        for group in groups:
            for measure, gate in GROUPS[group]:
                out = (measure(k, args.rq_trials) if group == "rq"
                       else measure(k))
                for name in gate:
                    values[name].append(out[name])
        print(f"seed k = {k}: {time.perf_counter() - t0:.1f} s", flush=True)

    print(f"\n{'value':36s} {'min':>10s} {'median':>10s} {'max':>10s}  "
          f"{'band':>20s} {'margin':>10s}  inside")
    for group in groups:
        passed = [True] * args.seeds
        for name, (lo, hi) in bands[group].items():
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
