#!/usr/bin/env python3
"""Benchmark of squeezesim: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from any directory; the program is imported from the ``src/`` next to
this directory.  With ``--trace 0`` the run sets the workload up several
times in fresh interpreters (set-up time includes the import), then repeats
the workload's rounds of passes until ``--seconds`` have gone by, checking
the outputs of every pass, and reports the end-to-end metrics of
BENCHMARK.json.  With
``--trace 1`` it times set-up plus one round of passes four times, untraced,
traced, traced and untraced, and reports the per-layer metrics of the first
traced section.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

# one process, one thread: no BLAS threads, serial trial engine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SQUEEZE_SIM_THREADS", None)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import the workloads, and with them squeezesim from ``src/``."""
    if not (SRC / "squeezesim" / "__init__.py").is_file():
        raise SystemExit(f"error: no squeezesim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import squeezesim
    import workloads
    if SRC.resolve() not in Path(squeezesim.__file__).resolve().parents:
        raise SystemExit(f"error: squeezesim imported from "
                         f"{squeezesim.__file__}, not from {SRC}")
    return workloads


# ---------------------------------------------------------------------------
# provenance


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "SQUEEZE_SIM_THREADS": os.environ.get("SQUEEZE_SIM_THREADS", "unset"),
        "program_seed": seed,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# runs


class CpuRotation:
    """Moves the calling thread round its allowed CPUs every ``PERIOD_S``.

    On a shared virtual machine each vCPU switches between a fast and a
    slow speed on its own, and the scheduler leaves a lone busy thread on
    one vCPU.  Rotating makes a pass see the machine's average speed
    rather than that of one vCPU: on two vCPUs it cut the spread of
    8-second averages by a third, at no cost in speed.
    """

    PERIOD_S = 0.25

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.tid = threading.get_native_id()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._rotate, daemon=True)

    def _rotate(self) -> None:
        i = 0
        while not self._stop.wait(self.PERIOD_S):
            i += 1
            try:
                os.sched_setaffinity(self.tid, {self.cpus[i % len(self.cpus)]})
            except OSError:
                return

    def __enter__(self) -> "CpuRotation":
        if len(self.cpus) > 1:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        os.sched_setaffinity(self.tid, set(self.cpus))



class Tally:
    """Attempted and failed operations: study passes and output checks."""

    def __init__(self) -> None:
        self.passes = self.pass_failures = 0
        self.checks = self.check_failures = 0
        self.last_checks = []

    def run_pass(self, wl, out: Path, k: int):
        self.passes += 1
        try:
            return wl.run_pass(out, k)
        except Exception:
            self.pass_failures += 1
            traceback.print_exc()
            return None

    def check(self, wl, out: Path, k: int) -> None:
        try:
            checks = wl.checks(out, k)
        except Exception:
            traceback.print_exc()
            self.checks += 1
            self.check_failures += 1
            return
        for c in checks:
            self.checks += 1
            if not c.ok:
                self.check_failures += 1
                print(f"  CHECK FAILED: {c.name}: {c.detail}")
        self.last_checks = checks

    @property
    def attempted(self) -> int:
        return self.passes + self.checks

    @property
    def failed(self) -> int:
        return self.pass_failures + self.check_failures

    def summary(self) -> str:
        return (f"passes {self.passes - self.pass_failures}/{self.passes} "
                f"completed, checks {self.checks - self.check_failures}/"
                f"{self.checks} passed")


def _child_setup(args, work: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(work)] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_child(args) -> int:
    """Set up once in this fresh interpreter; print the times as JSON."""
    t0 = time.perf_counter()
    workloads = import_program()
    wl = workloads.make(args.workload, tiny=args.tiny)
    wl.setup(args.seed, Path(args.work))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def end_to_end(args, work: Path) -> tuple[dict, Tally]:
    setups = [_child_setup(args, work / f"setup{k}")
              for k in range(SETUP_REPEATS)]
    workloads = import_program()
    wl = workloads.make(args.workload, tiny=args.tiny)
    wl.load(args.seed, work / f"setup{SETUP_REPEATS - 1}")
    tally, results = Tally(), []
    t0 = time.perf_counter()
    with CpuRotation():
        while True:
            for k in range(wl.ROUND):
                res = tally.run_pass(wl, work / "out", k)
                if res is not None:
                    results.append(res)
                    tally.check(wl, work / "out", k)
            if time.perf_counter() - t0 >= args.seconds:
                break
    if not results:
        raise RuntimeError("no pass completed")
    median = statistics.median
    metrics = {
        "setup_s": median(s["setup_s"] for s in setups),
        "wall_s": median(r.wall_s for r in results),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # printed, not gated: trials_per_s is a fixed trial count over wall_s
    if results[0].trials:
        metrics["trials_per_s"] = median(r.trials / r.wall_s
                                         for r in results)
    if results[0].rows:
        metrics["rows_per_s"] = median(r.rows / r.records_s for r in results)
    print(f"  {SETUP_REPEATS} set-ups (s): "
          + " ".join(f"{s['setup_s']:.4g}" for s in setups))
    size = (f"{results[0].trials} trials" if results[0].trials
            else f"{results[0].rows} record rows")
    print(f"  {len(results)} passes of {size}, pass times (s): "
          + " ".join(f"{r.wall_s:.4g}" for r in results))
    return metrics, tally


def traced(args, work: Path) -> tuple[dict, Tally]:
    workloads = import_program()
    from tracing import Tracer, layer_metrics
    wl = workloads.make(args.workload, tiny=args.tiny)
    tally = Tally()

    def section(sub: str):
        """Set up and run one round of passes; return its time and results."""
        t0 = time.perf_counter()
        wl.setup(args.seed, work / sub)
        res = [tally.run_pass(wl, work / sub / f"out{k}", k)
               for k in range(wl.ROUND)]
        return time.perf_counter() - t0, res

    def check(sub: str) -> None:
        for k in range(wl.ROUND):
            tally.check(wl, work / sub / f"out{k}", k)

    # plain, traced, traced, plain: the mean difference cancels a drift of
    # the machine's speed that is linear over the four sections
    tracer = Tracer()
    with CpuRotation():
        plain_s, _ = section("plain1")
        with tracer:
            traced_s, results = section("traced1")
        with Tracer():
            traced_s += section("traced2")[0]
        plain_s += section("plain2")[0]
    for sub in ("plain1", "traced1", "traced2", "plain2"):
        check(sub)
    if None in results:
        raise RuntimeError("a traced pass did not complete")
    res = results[-1]
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced_s - plain_s) / 2.0
    if "noise.fit_r.s" in metrics:
        metrics["noise.fit_r.boot_per_s"] = (workloads.FIT_BOOT
                                             / metrics["noise.fit_r.s"])
    if res.record_bytes:
        metrics["records.bytes"] = res.record_bytes
    name = f"{args.workload}-seed{args.seed}"
    tracer.save(OUT / "traces" / f"{name}.npz")
    print(f"  {len(tracer.name_id)} spans written to "
          f".perfbench/traces/{name}.npz")
    return metrics, tally


def run_one(args) -> int:
    bench = spec()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    import_program()
    print(f"provenance: {json.dumps(provenance(args.seed))}")
    print(f"workload {args.workload}: {why[args.workload]}")
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        metrics, tally = (traced if args.trace else end_to_end)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"  {tally.summary()}")
    for c in tally.last_checks:
        print(f"    [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    if args.trace:
        print(f"layers: {json.dumps(metrics, sort_keys=True)}")
    else:
        units = {m["name"]: m["unit"] for m in wanted}
        units.update(trials_per_s="trials/s", rows_per_s="rows/s")
        for name, value in metrics.items():
            print(f"  {name:14s} {value:14.6g} {units[name]}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.check_failures == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec()["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               name["name"], "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + 60)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name['name']} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            merged["metrics"][f"{name['name']}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="sweep, phase-detect, analysis or all")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the inputs, passed to squeezesim --seed")
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long to repeat the pass (BENCHMARK.json "
                         "run_seconds by default)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the smoke check only; skips "
                         "the statistical checks")
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.setup_child:
        return setup_child(args)
    if args.workload == "all":
        return run_all(args)
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
