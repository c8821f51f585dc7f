"""The benchmark's workloads: inputs made from the seed, one pass, checks.

Every workload drives squeezesim through its public entry points
(``cli.cli_dispatch`` and the ``records`` functions) and checks the outputs
against the paper's numbers or against a property the method must have.
Functions are looked up on their modules at call time, so a traced run sees
every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import norm

from squeezesim import cli, config, experiments, noise, physics, records

# true coefficients of the synthetic R(M_t) points fitted by ``analysis``
FIT_TRUTH = {"r_psn": 4.1e4 / 32.0, "r_tf": 1.0 / 73.0, "r_q": 1e-7,
             "r_c": (1.0 / 67.0) / 4.1e4 ** 2}
FIT_POINTS = 12          # probe strengths, each measured twice
FIT_REL_ERROR = 0.05     # std. dev. of the mirrored fractional errors
FIT_BOOT = 1000          # the CLI's default bootstrap size

ANALYSIS_PROTOCOL = """\
prealign
pump down
pulse 90 0
probe N1
pulse 180 0
probe N2
probe N3
pulse 90 90
probe N4
"""


class PassError(RuntimeError):
    """A study pass that did not complete."""


@dataclass
class PassResult:
    wall_s: float
    trials: int = 0          # Monte Carlo trials the pass finished
    rows: int = 0            # record rows read plus written
    records_s: float = 0.0   # time spent reading and writing records
    record_bytes: int = 0    # bytes of record files read plus written


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _dispatch(*argv) -> None:
    """Run one squeezesim subcommand; its console output is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.cli_dispatch([str(a) for a in argv])
    if rc != 0:
        raise PassError(f"squeezesim {argv[0]} exited {rc}: "
                        f"{err.getvalue().strip()}")


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


@dataclass
class Workload:
    """One workload: ``setup`` makes inputs, ``run_pass`` is timed.

    A run repeats whole rounds of ``ROUND`` passes; pass ``k`` of a round
    gives squeezesim the seed ``program_seed(k)``.
    """

    ROUND = 1

    name: str
    tiny: bool = False
    seed: int = 0
    work: Path = Path(".")
    _first: dict = field(default_factory=dict)

    @property
    def config_path(self) -> Path:
        return self.work / f"{self.name}.ini"

    def setup(self, seed: int, work: Path) -> None:
        """Write and load the config, then make the inputs in ``work``."""
        work.mkdir(parents=True, exist_ok=True)
        (work / f"{self.name}.ini").write_text(self.config_text())
        self.load(seed, work)
        self.make_inputs()

    def load(self, seed: int, work: Path) -> None:
        """Take up inputs that ``setup`` made in ``work``."""
        self.seed, self.work = seed, work
        self.params = config.load_config(self.config_path).sim_params()

    def program_seed(self, k: int) -> int:
        return self.seed

    def config_text(self) -> str:
        raise NotImplementedError

    def make_inputs(self) -> None:
        pass

    def run_pass(self, out: Path, k: int) -> PassResult:
        raise NotImplementedError

    def checks(self, out: Path, k: int) -> list[Check]:
        raise NotImplementedError

    def _same_as_first(self, out: Path, k: int,
                       files: tuple[str, ...]) -> Check:
        """Reruns with the same inputs and seed give identical files."""
        now = {f: (out / f).read_bytes() for f in files}
        same = now == self._first.setdefault(k, now)
        return Check("rerun identical", same,
                     ", ".join(files) + (" match the first pass" if same
                                         else " differ from the first pass"))


class Sweep(Workload):
    """Criterion 4: ``squeezesim sweep`` at the calibrated contrast decay.

    The criterion's 2000 trials per probe strength come from a round of
    two passes of 1000 trials at the seeds 2n and 2n + 1; the statistical
    checks pool the round.  Shorter passes give each run more timings.
    """

    ROUND = 2
    POINTS = 15

    @property
    def trials(self) -> int:
        return 20 if self.tiny else 1000

    def program_seed(self, k: int) -> int:
        return 2 * self.seed + k

    def config_text(self) -> str:
        return "[noise]\ncontrast_excess = 1.9\n"

    def run_pass(self, out: Path, k: int) -> PassResult:
        if k == 0:
            self._round_rows = None  # the rows of a round's first pass
        t0 = time.perf_counter()
        _dispatch("sweep", "--config", self.config_path,
                  "--seed", self.program_seed(k), "--trials", self.trials,
                  "--points", self.POINTS, "--mt-min", 1e3, "--mt-max", 1e5,
                  "--out", out)
        return PassResult(wall_s=time.perf_counter() - t0,
                          trials=self.POINTS * self.trials)

    def _z_check(self, name: str, rows: list[dict], dof: int) -> Check:
        """Every R within 5 standard errors, sigma_R / R = sqrt(2 / dof)."""
        z = [(r["R"] - experiments.expected_r(self.params, r["mt"]))
             / (experiments.expected_r(self.params, r["mt"])
                * math.sqrt(2.0 / dof)) for r in rows]
        return Check(name, max(abs(v) for v in z) <= 5.0,
                     f"max |z| = {max(abs(v) for v in z):.2f}")

    def checks(self, out: Path, k: int) -> list[Check]:
        rows = [{key: float(v) for key, v in r.items()}
                for r in _csv_rows(out / "sweep.csv")]
        if k == 0:
            self._round_rows = rows
        checks = [
            Check("15 probe strengths", len(rows) == self.POINTS,
                  f"{len(rows)} rows"),
            Check("contrast in (0, 1]",
                  all(0.0 < r["C"] <= 1.0 for r in rows),
                  f"C from {min(r['C'] for r in rows):.3f} "
                  f"to {max(r['C'] for r in rows):.3f}"),
            self._same_as_first(out, k, ("sweep.csv", "sweep.config.ini")),
        ]
        if self.tiny:
            return checks
        checks.append(self._z_check("every R within 5 SE of expected_r",
                                    rows, self.trials - 1))
        if k == 0:
            return checks
        # the round's two passes make one criterion-4 study
        if self._round_rows is None:
            raise RuntimeError("the round's first pass did not complete")
        c_i = self.params.ensemble.initial_contrast
        pooled = []
        for a, b in zip(self._round_rows, rows):
            r = 0.5 * (a["R"] + b["R"])
            pooled.append({"mt": a["mt"], "R": r,
                           "Winv": a["C"] ** 2 / (r * c_i)})
        best_r = min(pooled, key=lambda r: r["R"])
        best_w = max(pooled, key=lambda r: r["Winv"])
        return checks + [
            Check("round: best 1/R = 16 +- 3 at M_t in [2e4, 8e4]",
                  abs(1.0 / best_r["R"] - 16.0) <= 3.0
                  and 2e4 <= best_r["mt"] <= 8e4,
                  f"1/R = {1.0 / best_r['R']:.2f} at M_t = "
                  f"{best_r['mt']:.3g}"),
            Check("round: best 1/W in [9, 13.5]",
                  9.0 <= best_w["Winv"] <= 13.5,
                  f"1/W = {best_w['Winv']:.2f}"),
            self._z_check("round: every R within 5 SE of expected_r",
                          pooled, 2 * (self.trials - 1)),
        ]


class PhaseDetect(Workload):
    """Criterion 5: ``squeezesim phase-detect`` at N = 4.3e5."""

    PSI = 2.3e-3
    TARGET_W_INV = 7.5

    @property
    def trials(self) -> int:
        return 1000 if self.tiny else 2500  # the program's floor is 1000

    def config_text(self) -> str:
        return "[ensemble]\nn_effective = 430000.0\n"

    def run_pass(self, out: Path, k: int) -> PassResult:
        t0 = time.perf_counter()
        _dispatch("phase-detect", "--config", self.config_path,
                  "--seed", self.seed, "--trials", self.trials,
                  "--psi", self.PSI, "--target-winv", self.TARGET_W_INV,
                  "--out", out)
        # two arms, each with and without the applied rotation
        return PassResult(wall_s=time.perf_counter() - t0,
                          trials=4 * self.trials)

    def _css_prediction(self, m_t: float) -> float:
        """Gaussian error rate Phi(-Delta / 2 sigma) of the CSS arm.

        The discriminant is 2 N_f - N.  The rotation psi moves it by
        Delta = C_i N sin(psi); projection noise gives it variance N and
        each reading adds 4 sigma_read^2, with the read noise fixed in
        frequency units at the fitted photon-shot-noise level.
        """
        p = self.params
        n = p.ensemble.n_effective
        n_ref = p.coeffs.n_reference
        read_ref = (n_ref / 4.0) * p.coeffs.r_psn / (2.0 * m_t)
        ratio = (physics.alpha_per_atom("up", n_ref / 2.0, p.cavity)
                 / physics.alpha_per_atom("up", n / 2.0, p.cavity))
        sigma = math.sqrt(n + 4.0 * read_ref * ratio ** 2)
        delta = p.ensemble.initial_contrast * n * math.sin(self.PSI)
        return float(norm.cdf(-delta / (2.0 * sigma)))

    def checks(self, out: Path, k: int) -> list[Check]:
        meta = {arm: json.loads((out / f"phase_{arm}.meta.json").read_text())
                for arm in ("css", "squeezed")}
        hist = {arm: _csv_rows(out / f"phase_{arm}.csv")
                for arm in ("css", "squeezed")}
        css, sqz = meta["css"]["error_rate"], meta["squeezed"]["error_rate"]
        sums = {arm: (sum(int(r["applied"]) for r in h),
                      sum(int(r["null"]) for r in h))
                for arm, h in hist.items()}
        m_t = meta["squeezed"]["m_t"]
        w_inv = experiments.expected_w_inverse(self.params, m_t,
                                               contrast_windows=2)
        checks = [
            Check("histograms hold every trial",
                  all(s == (self.trials, self.trials) for s in sums.values()),
                  f"(applied, null) sums {sums}, {self.trials} per arm"),
            Check("tuned M_t gives model 1/W = 7.5",
                  abs(w_inv - self.TARGET_W_INV) <= 1e-6 * self.TARGET_W_INV,
                  f"M_t = {m_t:.6g}, model 1/W = {w_inv:.9g}"),
            self._same_as_first(out, k, ("phase_css.csv",
                                      "phase_squeezed.csv")),
        ]
        if self.tiny:
            return checks
        pred = self._css_prediction(m_t)
        se = math.sqrt(pred * (1.0 - pred) / (2.0 * self.trials))
        checks += [
            Check("CSS error rate in [0.20, 0.30]", 0.20 <= css <= 0.30,
                  f"{css:.4f}"),
            Check("squeezed error rate in [0.012, 0.032]",
                  0.012 <= sqz <= 0.032, f"{sqz:.4f}"),
            Check("squeezed below CSS", sqz < css,
                  f"{sqz:.4f} < {css:.4f}"),
            Check("CSS rate within 5 SE of Gaussian prediction",
                  abs(css - pred) <= 5.0 * se,
                  f"{css:.4f} vs {pred:.4f}, z = {(css - pred) / se:.2f}"),
        ]
        return checks


class Analysis(Workload):
    """Archive and fit: records round trip, ``fit`` and ``budget``."""

    @property
    def trials(self) -> int:
        return 100 if self.tiny else 1500

    def config_text(self) -> str:
        return "[noise]\ncontrast_excess = 1.9\n"

    @property
    def records_path(self) -> Path:
        return self.work / "records" / "records.csv"

    @property
    def points_path(self) -> Path:
        return self.work / "rmt_points.csv"

    def make_inputs(self) -> None:
        proto = self.work / "protocol.txt"
        proto.write_text(ANALYSIS_PROTOCOL)
        _dispatch("run", "--protocol", proto, "--config", self.config_path,
                  "--seed", self.seed, "--trials", self.trials,
                  "--out", self.records_path.parent)
        lines = ["mt,R,weight"]
        for m, r, w in fit_points(self.seed):
            lines.append(f"{m!r},{r!r},{w!r}")
        self.points_path.write_text("\n".join(lines) + "\n")

    def run_pass(self, out: Path, k: int) -> PassResult:
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        rs = records.read_records(self.records_path)
        records.write_records(rs, out / "records.csv")
        t_rec = time.perf_counter() - t0
        _dispatch("fit", "--in", self.points_path, "--config",
                  self.config_path, "--seed", self.seed, "--out", out)
        _dispatch("budget", "--config", self.config_path, "--seed",
                  self.seed, "--out", out)
        wall = time.perf_counter() - t0
        size = sum(p.stat().st_size for p in (
            self.records_path, _sidecar(self.records_path),
            out / "records.csv", _sidecar(out / "records.csv")))
        return PassResult(wall_s=wall, rows=2 * len(rs.trials),
                          records_s=t_rec, record_bytes=size)

    def checks(self, out: Path, k: int) -> list[Check]:
        original = records.read_records(self.records_path)
        again = records.read_records(out / "records.csv")
        fit = json.loads((out / "fit.json").read_text())
        budget = _budget_table(out / "budget.csv")
        est, ci = fit["coefficients"], fit["intervals_95"]
        exact = noise.fit_r(fit_points(self.seed, noisy=False), n_boot=0)
        exact_err = max(abs(getattr(exact.coeffs, name) - v) / v
                        for name, v in FIT_TRUTH.items())
        est_err = max(abs(est[name] - v) / v
                      for name, v in FIT_TRUTH.items())
        inside = {name: ci[name][0] <= v <= ci[name][1]
                  and ci[name][0] < ci[name][1]
                  for name, v in FIT_TRUTH.items()}
        return [
            Check("records round trip bit for bit",
                  again == original
                  and len(original.trials) == self.trials
                  and original.labels == ("N1", "N2", "N3", "N4")
                  and (out / "records.csv").read_bytes()
                  == self.records_path.read_bytes(),
                  f"{len(original.trials)} trials, labels "
                  f"{', '.join(original.labels)}"),
            Check("fit 95% intervals contain the true coefficients",
                  all(inside.values()),
                  ", ".join(f"{name} {'in' if ok else 'OUTSIDE'} "
                            f"[{ci[name][0]:.4g}, {ci[name][1]:.4g}]"
                            for name, ok in inside.items())),
            Check("mirrored-error fit recovers the truth to 1e-8",
                  est_err <= 1e-8, f"max relative error {est_err:.2e}"),
            Check("noiseless fit recovers the truth to 1e-8",
                  exact_err <= 1e-8, f"max relative error {exact_err:.2e}"),
            Check("budget matches criterion 3",
                  abs(budget["Observed Optimum"] - 16.7) <= 2.0
                  and abs(budget["Variable Damping R_o"] - 620.0) <= 0.5
                  and 4.3e5 <= budget["Photon Recoil R_ext,q"] <= 5.3e5
                  and 4.0e3 <= budget["Photon Recoil R_ext,c"] <= 5.0e3
                  and 1.1e3 <= budget["Population Diffusion R_pop,q"]
                  <= 2.6e3,
                  "1/R: model {Observed Optimum:.4g}, ringing "
                  "{Variable Damping R_o:.4g}, recoil "
                  "{Photon Recoil R_ext,q:.4g} / {Photon Recoil R_ext,c:.4g}, "
                  "diffusion "
                  "{Population Diffusion R_pop,q:.4g}".format_map(budget)),
            self._same_as_first(out, k, ("fit.json", "budget.csv")),
        ]


def _budget_table(path: Path) -> dict[str, float]:
    """Term -> 1/R from ``budget.csv``.

    Labels such as ``Photon Recoil R_ext,c`` hold an unquoted comma, so
    each line is split at its last comma rather than read as CSV.
    """
    lines = path.read_text().splitlines()
    if lines[0] != "term,R_inv":
        raise ValueError(f"unexpected header in {path}: {lines[0]!r}")
    return {label.strip(): float(value)
            for label, value in (ln.rsplit(",", 1) for ln in lines[1:])}


def _sidecar(path: Path) -> Path:
    return Path(str(path) + ".meta.json")


def fit_points(seed: int, noisy: bool = True) -> list[tuple[float, ...]]:
    """Synthetic (M_t, R, weight) points of the four-term model.

    FIT_POINTS probe strengths, one per equal slice of log10 M_t in [3, 5]
    at a seeded position, so the set always spans more than a decade.
    Each strength is measured twice with mirrored fractional errors
    +e and -e, e ~ N(0, FIT_REL_ERROR), both weighted 1/R_true^2.  The
    weighted least-squares estimate of such a set is the truth itself, so
    the bootstrap intervals must contain it whatever the seed; resampling
    splits the pairs and gives the intervals real width.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    k = np.arange(FIT_POINTS)
    m_t = 10.0 ** (3.0 + 2.0 * (k + rng.random(FIT_POINTS)) / FIT_POINTS)
    errs = rng.normal(0.0, FIT_REL_ERROR, FIT_POINTS)
    truth = noise.NoiseCoeffs(**FIT_TRUTH)
    points = []
    for m, e in zip(m_t.tolist(), errs.tolist()):
        r = noise.model_r(m, truth)
        w = 1.0 / (r * r)
        if noisy:
            points += [(m, r * (1.0 + e), w), (m, r * (1.0 - e), w)]
        else:
            points.append((m, r, w))
    return points


WORKLOADS = {"sweep": Sweep, "phase-detect": PhaseDetect,
             "analysis": Analysis}


def make(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](name=name, tiny=tiny)
