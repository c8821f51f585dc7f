#!/usr/bin/env python3
"""Reproduce the headline metrology numbers at desk scale.

Runs the noise-budget table, the probe-strength sweep around the optimum,
and the single-shot phase-detection comparison, printing the summary
values.  Takes about a second on one core; --fast quarters the trials.
"""

import argparse
import time
from dataclasses import replace

import numpy as np

import squeezesim as sq
from squeezesim import experiments as exp


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--fast", action="store_true",
                    help="quarter trial counts for a quick preview")
    args = ap.parse_args()
    trials = 500 if args.fast else 2000
    det_trials = 2500 if args.fast else 10_000

    params = sq.SimParams()
    calibrated = replace(params,
                         contrast_excess=sq.CALIBRATED_CONTRAST_EXCESS)

    print("== noise budget at the reference operating point ==")
    report = sq.budget_report(params, 4.1e4)
    for label, value in report.terms:
        print(f"  {label:34s} {value:12.4g}")

    print("\n== probe-strength sweep (calibrated contrast decay) ==")
    t0 = time.perf_counter()
    sweep = exp.squeezing_sweep(calibrated, np.logspace(3, 5, 15), trials,
                                master_seed=args.seed)
    best_r, best_w = sweep.best_r(), sweep.best()
    print(f"  max 1/R = {1 / best_r.r:.2f} at M_t = {best_r.m_t:.3g}")
    print(f"  max 1/W = {best_w.w_inv:.2f} at M_t = {best_w.m_t:.3g} "
          f"(contrast {best_w.contrast:.3f})")
    print(f"  [{time.perf_counter() - t0:.2f} s]")

    print("\n== single-shot phase detection, psi = 2.3 mrad ==")
    t0 = time.perf_counter()
    par43 = params.with_n(4.3e5)
    squeezed = exp.phase_detection(par43, 2.3e-3, premeasure=True,
                                   trials=det_trials, master_seed=args.seed,
                                   target_w_inv=7.5)
    css = exp.phase_detection(par43, 2.3e-3, premeasure=False,
                              trials=det_trials, master_seed=args.seed + 1,
                              m_t=squeezed.m_t)
    print(f"  CSS error rate:      {css.error_rate:.3f}")
    print(f"  squeezed error rate: {squeezed.error_rate:.4f} "
          f"(M_t = {squeezed.m_t:.3g})")
    print(f"  [{time.perf_counter() - t0:.2f} s]")


if __name__ == "__main__":
    main()
