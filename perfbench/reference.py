#!/usr/bin/env python3
"""Reference figures quoted in perfbench/README.md.

    python3 perfbench/reference.py

Times, each as the median of five repeats: 2000 standard-protocol trials
with ``workers=1`` and ``workers=2``, the per-trial seed derivation
``trial_seed``, and a 20000-row records round trip (write, then read).
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from squeezesim import experiments, records, sequence  # noqa: E402

REPEATS = 5


def median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    proto = experiments.standard_protocol()
    params = sequence.SimParams()
    for workers in (1, 2):
        t = median_time(lambda: sequence.run_trials(proto, params, 2000, 1,
                                                    workers=workers))
        print(f"2000 standard-protocol trials, workers={workers}: {t:.3f} s")
    t = median_time(lambda: [sequence.trial_seed(1, i)
                             for i in range(10_000)])
    print(f"trial_seed: {t / 10_000 * 1e6:.1f} us per trial")
    rs = sequence.run_trials(proto, params, 1000, 1)
    big = sequence.RecordSet(trials=rs.trials * 20, params=rs.params,
                             master_seed=rs.master_seed)
    path = ROOT / ".perfbench" / "reference" / "records.csv"
    write = median_time(lambda: records.write_records(big, path))
    read = median_time(lambda: records.read_records(path))
    shutil.rmtree(path.parent)
    print(f"{len(big.trials)}-row records round trip: write {write:.3f} s, "
          f"read {read:.3f} s")


if __name__ == "__main__":
    main()
