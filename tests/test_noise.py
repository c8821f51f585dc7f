import math
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import squeezesim

from squeezesim import noise, stats
from squeezesim.noise import (
    BETA_TIME_AVERAGE,
    BudgetTerms,
    NoiseCoeffs,
    alphas_for_ensemble,
    budget_report,
    budget_terms,
    classical_injection_coeff,
    classical_scale,
    fit_r,
    injected_classical_freq,
    legacy_diffusion_limit,
    model_r,
    opto_noise_term,
    opto_ringing_trace,
    pop_noise_classical,
    pop_noise_quantum,
    read_noise_freq,
    readout_scale,
    recoil_noise,
    spectroscopic_enhancement,
)
from squeezesim.physics import (
    TWO_PI,
    CavityParams,
    EnsembleParams,
    scattered_ratio,
)
from squeezesim.state import (
    ProbeConfig,
    SimParams,
    TransitionProbs,
    apply_raman_diffusion,
    prepare_css,
)
from gates import assert_inside
from test_state import tile

CAV = CavityParams()
TP = TransitionProbs()
N_REF = 4.8e5
M_REF = 4.1e4
ALPHAS = alphas_for_ensemble(N_REF, CAV)
EPS = TWO_PI * 1.3
M_S_REF = 4.1e4  # M_s = 1.0 x M_t at the reference ensemble


# at least 90 % of BOOT_REPS fits cover each coefficient; a gate (gates.py)
BOOT_REPS = 100
BOOT_BANDS = {f"boot {name} hits of {BOOT_REPS}": (0.90 * BOOT_REPS,
                                                   BOOT_REPS)
              for name in ("r_psn", "r_tf", "r_c")}


def bootstrap_hits(k: int = 0) -> dict[str, int]:
    """How many of ``BOOT_REPS`` noisy 12-point fits (10 % errors, r_q = 0,
    one generator seeded 1234 + k for the data and the bootstrap) cover
    each nonzero true coefficient with their 95 % interval."""
    truth = NoiseCoeffs(r_psn=1281.25, r_tf=1.0 / 73.0, r_q=0.0,
                        r_c=8.9e-12)
    rng = np.random.default_rng(1234 + k)
    m = np.logspace(3, 5, 12)
    hits = {"r_psn": 0, "r_tf": 0, "r_c": 0}
    for _ in range(BOOT_REPS):
        pts = [(mi, model_r(mi, truth) * (1 + 0.1 * rng.standard_normal()))
               for mi in m]
        fit = fit_r(pts, n_boot=300, rng=rng)
        for name in hits:
            lo, hi = fit.intervals[name]
            if lo <= getattr(truth, name) <= hi:
                hits[name] += 1
    return {f"boot {name} hits of {BOOT_REPS}": n for name, n in hits.items()}


class TestModelR:
    def test_table_calibrated_total(self):
        c = NoiseCoeffs(r_psn=1281.0, r_tf=1.0 / 73.0, r_q=0.0,
                        r_c=8.9e-12)
        assert 1.0 / model_r(4.1e4, c) == pytest.approx(16.7, abs=0.5)

    def test_zero_coeffs(self):
        c = NoiseCoeffs(r_psn=0, r_tf=0, r_q=0, r_c=0)
        assert model_r(100.0, c) == 0.0

    def test_single_term(self):
        c = NoiseCoeffs(r_psn=1.0, r_tf=0, r_q=0, r_c=0)
        assert model_r(2.0, c) == 0.5

    def test_domain(self):
        for m_t in (0.0, math.nan):
            with pytest.raises(ValueError, match="m_t must be positive"):
                model_r(m_t, NoiseCoeffs())


class TestFitR:
    def test_exact_recovery_noiseless(self):
        truth = NoiseCoeffs(r_psn=1281.25, r_tf=1.0 / 73.0, r_q=2e-8,
                            r_c=8.9e-12)
        m = np.logspace(3, 5, 12)
        pts = [(mi, model_r(mi, truth)) for mi in m]
        fit = fit_r(pts, n_boot=0)
        for name in ("r_psn", "r_tf", "r_q", "r_c"):
            assert getattr(fit.coeffs, name) == pytest.approx(
                getattr(truth, name), rel=1e-8)

    def test_bootstrap_coverage(self):
        assert_inside(bootstrap_hits(), BOOT_BANDS)

    def test_needs_a_decade(self):
        pts = [(m, 0.1) for m in (1e4, 2e4, 3e4, 4e4)]
        with pytest.raises(ValueError):
            fit_r(pts, n_boot=0)

    @pytest.mark.parametrize("bad,named", [
        ((math.nan, 0.05), "m_t must be finite and > 0 (got nan)"),
        ((-2e4, 0.05), "m_t must be finite and > 0 (got -20000.0)"),
        ((2e4, math.inf), "R must be finite and > 0 (got inf)"),
        ((2e4, 0.0), "R must be finite and > 0 (got 0.0)"),
        ((2e4, 0.05, math.nan), "weight must be finite and > 0 (got nan)"),
        ((2e4, 0.05, 0.0), "weight must be finite and > 0 (got 0.0)"),
        ((2e4, 0.05, -1.0), "weight must be finite and > 0 (got -1.0)")],
        ids=["nan-m", "negative-m", "inf-R", "zero-R", "nan-weight",
             "zero-weight", "negative-weight"])
    def test_bad_point_is_named(self, bad, named):
        pts = [(1e3, 0.1, 100.0), (5e3, 0.05, 400.0), bad,
               (1e4, 0.05, 400.0), (1e5, 0.2, 25.0)]
        with pytest.raises(ValueError, match=r"fit_r point 2 \(") as err:
            fit_r(pts, n_boot=0)
        assert named in str(err.value)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_r([(1e3, 0.1), (1e4, 0.05), (1e5, 0.2)], n_boot=0)

    @pytest.mark.parametrize("n_boot", [-3, 2.5, True])
    def test_bad_bootstrap_count_is_named(self, n_boot):
        pts = [(m, 0.1) for m in (1e3, 3e3, 1e4, 3e4)]
        with pytest.raises(ValueError, match=rf"n_boot must be an "
                                             rf"integer >= 0 \(got {n_boot}\)"):
            fit_r(pts, n_boot=n_boot)

    @pytest.mark.parametrize("m", [(1e3, 1e3, 1e4, 1e4, 1e4),
                                   (1e3, 3e3, 3e3, 1e4, 1e4)],
                             ids=["two-distinct", "three-distinct"])
    def test_rank_deficient_point_estimate_reaches_scipys_residual(self, m):
        # the optimum is not unique: any one reaches the least residual
        from scipy.optimize import nnls

        pts = noisy_points(m, 45)
        a, b = weighted_problem(pts)
        coeffs = fit_r(pts, n_boot=0).coeffs
        x = np.array([coeffs.r_psn, coeffs.r_tf, coeffs.r_q, coeffs.r_c])
        assert np.all(x >= 0)
        floor = np.linalg.norm(a @ nnls(a, b)[0] - b)
        assert (np.linalg.norm(a @ x - b)
                <= floor + 1e-12 * np.linalg.norm(b))

    def test_fit_loads_no_scipy(self, tmp_path):
        # scipy is a test dependency: the package and a fit run without it
        src = str(Path(squeezesim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        csvfile = tmp_path / "points.csv"
        csvfile.write_text("mt,R\n" + "".join(
            f"{m!r},{r!r}\n" for m, r in noisy_points([1e3, 3e3, 1e4, 3e4,
                                                        1e5], 46)))
        code = ("import sys; from squeezesim.cli import cli_dispatch; "
                f"rc = cli_dispatch(['fit', '--in', {str(csvfile)!r}, "
                f"'--out', {str(tmp_path)!r}, '--boot', '100']); "
                "print(rc, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout.strip().splitlines()[-1] == "0 []"
        assert (tmp_path / "fit.json").exists()


def test_t_quantile_matches_scipy():
    from scipy.special import stdtrit

    for dof in [*range(3, 201), 999, 4999]:
        ref = stdtrit(dof, 0.025)
        assert abs(stats._t_quantile(0.025, dof) - ref) <= 1e-12 * abs(ref)


def weighted_problem(pts):
    """The weighted design and right-hand side that fit_r solves."""
    m = np.array([p[0] for p in pts])
    r = np.array([p[1] for p in pts])
    w = np.array([p[2] if len(p) > 2 else 1.0 / p[1] ** 2 for p in pts])
    sw = np.sqrt(w)
    design = np.column_stack([1.0 / m, np.ones_like(m), m, m * m])
    return design * sw[:, None], r * sw


def scipy_bootstrap(m, r, w, sol, n_boot, rng):
    """The bootstrap loop of fit_r before its resamples were batched: one
    rng.choice and one scipy nnls call per resample.  Returns the
    solutions and each resample's indices."""
    from scipy.optimize import nnls

    def nnls_coeffs(m, r, w):
        design = np.column_stack([1.0 / m, np.ones_like(m), m, m * m])
        sw = np.sqrt(w)
        return nnls(design * sw[:, None], r * sw)[0]

    samples = np.empty((n_boot, 4))
    takes = np.empty((n_boot, len(m)), dtype=int)
    idx = np.arange(len(m))
    for b in range(n_boot):
        take = takes[b] = rng.choice(idx, size=len(idx), replace=True)
        if np.ptp(m[take]) == 0.0:
            samples[b] = sol
            continue
        samples[b] = nnls_coeffs(m[take], r[take], w[take])
    return samples, takes


def mirrored_points():
    """24 points: 12 probe strengths, each with mirrored errors +e, -e."""
    rng = np.random.default_rng(31)
    truth = NoiseCoeffs(r_psn=4.1e4 / 32.0, r_tf=1.0 / 73.0, r_q=1e-7,
                        r_c=(1.0 / 67.0) / 4.1e4 ** 2)
    m = 10.0 ** (3.0 + 2.0 * (np.arange(12) + rng.random(12)) / 12)
    pts = []
    for mi, e in zip(m.tolist(), rng.normal(0.0, 0.05, 12).tolist()):
        r = model_r(mi, truth)
        pts += [(mi, r * (1.0 + e), 1.0 / r ** 2),
                (mi, r * (1.0 - e), 1.0 / r ** 2)]
    return pts


def noisy_points(m, seed):
    truth = NoiseCoeffs(r_psn=1281.25, r_tf=1.0 / 73.0, r_q=2e-8,
                        r_c=8.9e-12)
    rng = np.random.default_rng(seed)
    return [(mi, model_r(mi, truth) * (1.0 + 0.1 * rng.standard_normal()))
            for mi in m]


BOOT_SETS = {
    "mirrored-24": mirrored_points(),
    "four-points": noisy_points(np.logspace(3, 5, 4), 41),
    "five-points": noisy_points(np.logspace(3, 5, 5), 42),
    # four of six points share one M_t: about 9 % of resamples are flat
    "flat": noisy_points([1e3, 1e4, 1e4, 1e4, 1e4, 1e5], 43),
    "near-coincident": noisy_points(
        [1e3, 1e4, 1e4 * (1.0 + 1e-9), 3e4, 1e5, 2e5], 44),
}


class TestBootstrap:
    """The batched bootstrap against the per-resample scipy loop."""

    @pytest.mark.filterwarnings("error")  # no 0/0 from a rank-deficient one
    @pytest.mark.parametrize("name,n_boot", [
        ("mirrored-24", 1000), ("four-points", 1000), ("five-points", 1000),
        ("flat", 1000), ("near-coincident", 1000), ("five-points", 1),
        ("five-points", 127),
        ("mirrored-24", 129), ("mirrored-24", 2 * stats._BOOT_BLOCK + 5)])
    def test_every_resample_matches_scipy(self, name, n_boot):
        pts = BOOT_SETS[name]
        design, rhs = weighted_problem(pts)
        m = np.array([p[0] for p in pts])
        r = np.array([p[1] for p in pts])
        w = np.array([p[2] if len(p) > 2 else 1.0 / p[1] ** 2 for p in pts])
        sol = fit_r(pts, n_boot=0).coeffs
        sol = np.array([sol.r_psn, sol.r_tf, sol.r_q, sol.r_c])
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        point, got = stats._bootstrap(m, design, rhs, n_boot, rng)
        # row 0 of the stack is the point estimate, bit for bit
        assert point.tobytes() == sol.tobytes()
        ref, takes = scipy_bootstrap(m, r, w, sol, n_boot, ref_rng)
        # the same indices: the generators end in one state
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        distinct = np.array([len(set(m[t].tolist())) for t in takes])
        # four or more distinct M_t: a full-rank problem, one optimum
        full = distinct >= 4
        assert np.array_equal(got[full] == 0.0, ref[full] == 0.0)
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(got[full] - ref[full]) <= 1e-10 * scale)
        # two or three: many optima, each with the least residual
        for b in np.flatnonzero((distinct > 1) & ~full):
            a, y = design[takes[b]], rhs[takes[b]]
            assert np.all(got[b] >= 0)  # NaN fails
            assert (np.linalg.norm(a @ got[b] - y)
                    <= np.linalg.norm(a @ ref[b] - y)
                    + 1e-12 * np.linalg.norm(y))
        if name == "flat" and n_boot == 1000:
            flat = distinct == 1
            assert flat.sum() > 20 and np.all(got[flat] == sol)

    def test_near_rank_deficient_problem_reaches_scipys_residual(self):
        # two of four distinct M_t 1e-9 apart: the four-column support is
        # too close to rank-deficient, and a three-column one settles it
        from scipy.optimize import nnls

        m = np.array([1e3, 1e4, 1e4 * (1.0 + 1e-9), 1e5, 1e5])
        a = np.column_stack([1.0 / m, np.ones_like(m), m, m * m])
        b = np.ones(5)
        x = stats._solve(*stats._qr(a[None], b[None]))[0]
        assert np.all(x >= 0)
        assert (np.linalg.norm(a @ x - b)
                <= np.linalg.norm(a @ nnls(a, b)[0] - b) + 1e-12 * 5 ** 0.5)

    def test_rank_deficient_problem_takes_the_first_full_rank_support(self):
        # three distinct M_t, R from the default coefficients with 10 %
        # noise: the four-column support is rank-deficient, and its
        # roundoff solve has four positive coefficients at the least
        # residual; the rank test skips it for the first full-rank support
        from scipy.optimize import nnls

        pts = [(2261.567839781936, 0.5322771943893938),
               (7495.63120510779, 0.1704771677649355),
               (70451.4267088549, 0.06640262033277206),
               (7495.63120510779, 0.18714309419861175)]
        c = fit_r(pts, n_boot=0).coeffs
        x = np.array([c.r_psn, c.r_tf, c.r_q, c.r_c])
        assert np.all(x[:3] > 0) and x[3] == 0.0
        a, b = weighted_problem(pts)
        assert (np.linalg.norm(a @ x - b)
                <= np.linalg.norm(a @ nnls(a, b)[0] - b)
                + 1e-12 * np.linalg.norm(b))

    def test_same_seed_same_intervals(self):
        pts = BOOT_SETS["mirrored-24"]
        assert fit_r(pts, n_boot=300, rng=5) == fit_r(pts, n_boot=300, rng=5)

    @pytest.mark.parametrize("n_boot", [0, 1, 129, 1000])
    def test_one_solve_per_fit(self, monkeypatch, n_boot):
        # the point estimate is row 0 of the stack of resamples
        sizes = []
        real_solve = stats._solve
        monkeypatch.setattr(stats, "_solve", lambda t, c: sizes.append(
            len(c)) or real_solve(t, c))
        fit_r(BOOT_SETS["mirrored-24"], n_boot=n_boot, rng=5)
        assert sizes == [n_boot + 1]

    @pytest.mark.parametrize("name", sorted(BOOT_SETS))
    def test_resamples_leave_the_point_estimate(self, name):
        pts = BOOT_SETS[name]
        alone = astuple(fit_r(pts, n_boot=0).coeffs)
        stacked = astuple(fit_r(pts, n_boot=1000, rng=5).coeffs)
        assert np.array(alone).tobytes() == np.array(stacked).tobytes()


class TestModelArguments:
    """NaN and out-of-range inputs are named, for floats and for arrays."""

    @pytest.mark.parametrize("call,message", [
        (lambda x: budget_terms(SimParams(), x), "m_t must be positive"),
        (lambda x: model_r(x, NoiseCoeffs()), "m_t must be positive"),
        (lambda x: opto_noise_term(x, N_REF, CAV),
         "m_t must be non-negative"),
        (lambda x: read_noise_freq(x, NoiseCoeffs(), CAV),
         "m_t must be positive"),
        (lambda x: injected_classical_freq(1e4, N_REF, x, NoiseCoeffs(), CAV),
         "r_c_inj must be non-negative"),
        (lambda x: pop_noise_quantum(x, N_REF, TP, ALPHAS),
         "m_s must be non-negative"),
        (lambda x: pop_noise_classical(x, 0.04, N_REF, TP, ALPHAS),
         "m_s must be non-negative"),
        (lambda x: pop_noise_classical(1e4, x, N_REF, TP, ALPHAS),
         "frac must be non-negative"),
        (lambda x: recoil_noise(x, 0.04, N_REF, EPS, ALPHAS.up),
         "m_s must be non-negative"),
        (lambda x: legacy_diffusion_limit(x, N_REF, ALPHAS),
         "m_s must be non-negative"),
        (lambda x: spectroscopic_enhancement(x, 0.9, 0.97),
         "R must be positive"),
        (lambda x: spectroscopic_enhancement(0.1, x, 0.97),
         "contrast must be in (0, initial_contrast = 0.97]"),
        (lambda x: apply_raman_diffusion(
            tile(prepare_css(N_REF, EnsembleParams()), 4), x, SimParams(),
            np.random.default_rng(0)), "m_s must be non-negative")],
        ids=["budget_terms", "model_r", "opto_noise_term", "read_noise_freq",
             "injected_classical_freq",
             "pop_noise_quantum", "pop_noise_classical-m_s",
             "pop_noise_classical-frac", "recoil_noise",
             "legacy_diffusion_limit", "enhancement-R",
             "enhancement-contrast", "apply_raman_diffusion"])
    def test_nan_and_bad_values_are_named(self, call, message):
        with pytest.raises(ValueError) as err:
            call(math.nan)
        assert str(err.value) == f"{message} (got nan)"
        with pytest.raises(ValueError) as err:
            call(-2.0)
        assert str(err.value) == f"{message} (got -2.0)"
        with pytest.raises(ValueError) as err:
            call(np.array([0.5, 0.6, math.nan, -2.0]))
        assert str(err.value) == f"{message} (got nan at index 2)"

    def test_initial_contrast_is_named(self):
        with pytest.raises(ValueError, match=r"initial_contrast must be in "
                                             r"\(0, 1\] \(got 1.5\)"):
            spectroscopic_enhancement(0.1, 0.9, 1.5)


class TestModelOnArrays:
    GRID = np.logspace(3.0, 5.5, 200)

    @pytest.mark.parametrize("params", [
        SimParams(),
        SimParams(ensemble=EnsembleParams(n_effective=2.4e5),
                  probe=ProbeConfig(ms_classical_frac=0.06),
                  transitions=TransitionProbs(p_u1=5e-3))],
        ids=["default", "away-from-anchor"])
    def test_budget_terms_equal_the_scalar_calls(self, params):
        terms = budget_terms(params, self.GRID)
        for i, m_t in enumerate(self.GRID.tolist()):
            one = budget_terms(params, m_t)
            for name, value in vars(one).items():
                assert type(value) is float
                assert getattr(terms, name)[i] == value, (name, m_t)
            assert terms.total[i] == one.total

    def test_terms_equal_the_scalar_calls(self):
        # enough values that an array taking other arithmetic than its
        # floats, pow against multiplying say, would differ somewhere
        m_s = 10.0 ** np.random.default_rng(3).uniform(2.0, 6.0, 5000)
        frac = 0.04
        arrays = {
            "pop_q": pop_noise_quantum(m_s, N_REF, TP, ALPHAS),
            "pop_c": pop_noise_classical(m_s, frac, N_REF, TP, ALPHAS),
            "ext": np.array(recoil_noise(m_s, frac, N_REF, EPS, ALPHAS.up)),
            "legacy": legacy_diffusion_limit(m_s, N_REF, ALPHAS),
            "opto": opto_noise_term(m_s / 1.1, N_REF, CAV),
            "enh": spectroscopic_enhancement(1.0 / m_s, 0.5 + 0.0 * m_s, 0.97)}
        for i, x in enumerate(m_s.tolist()):
            floats = {
                "pop_q": pop_noise_quantum(x, N_REF, TP, ALPHAS),
                "pop_c": pop_noise_classical(x, frac, N_REF, TP, ALPHAS),
                "ext": recoil_noise(x, frac, N_REF, EPS, ALPHAS.up),
                "legacy": legacy_diffusion_limit(x, N_REF, ALPHAS),
                "opto": opto_noise_term(x / 1.1, N_REF, CAV),
                "enh": spectroscopic_enhancement(1.0 / x, 0.5, 0.97)}
            q, c = floats.pop("ext")
            assert type(q) is float and type(c) is float
            assert arrays["ext"][:, i].tolist() == [q, c]
            for name, value in floats.items():
                assert type(value) is float
                assert arrays[name][i] == value, name


class TestPopNoise:
    def test_quantum_zero_probabilities(self):
        assert pop_noise_quantum(
            4.1e4, N_REF, TransitionProbs(0.0, 0.0, 0.0, 0.0), ALPHAS) == 0.0

    def test_quantum_reference_window(self):
        r = pop_noise_quantum(M_S_REF, N_REF, TP, ALPHAS)
        assert 1.1e3 <= 1.0 / r <= 2.6e3

    def test_quantum_linear_in_ms(self):
        r1 = pop_noise_quantum(1e4, N_REF, TP, ALPHAS)
        r2 = pop_noise_quantum(2e4, N_REF, TP, ALPHAS)
        assert r2 == pytest.approx(2.0 * r1)

    def test_quantum_label_exchange_symmetry(self):
        # with alpha_down == alpha_one, swapping the two up-channel
        # probabilities cannot change the result
        al = type(ALPHAS)(up=ALPHAS.up, down=ALPHAS.one, one=ALPHAS.one)
        a = pop_noise_quantum(1e4, N_REF, TP, al)
        swapped = TransitionProbs(p_ud=TP.p_u1, p_du=TP.p_du,
                                  p_u1=TP.p_ud, p_d1=TP.p_d1)
        b = pop_noise_quantum(1e4, N_REF, swapped, al)
        assert a == pytest.approx(b, rel=1e-12)

    def test_classical_zero_fraction(self):
        assert pop_noise_classical(4.1e4, 0.0, N_REF, TP, ALPHAS) == 0.0

    def test_classical_reference_window(self):
        r = pop_noise_classical(M_S_REF, 0.04, N_REF, TP, ALPHAS)
        assert 1.0 / r == pytest.approx(3e4, rel=0.25)

    def test_classical_cancellation_factor(self):
        # aligning every term's sign undoes the cancellation; the variance
        # ratio recovers the ~6.5x reduction
        r_cancelled = pop_noise_classical(M_S_REF, 0.04, N_REF, TP, ALPHAS)
        au, ad, a1 = ALPHAS.up, ALPHAS.down, ALPHAS.one
        aligned = (TP.p_ud * abs(ad - au) + TP.p_u1 * abs(a1 - au)
                   + TP.p_du * abs(au - ad) + TP.p_d1 * abs(a1 - ad))
        r_aligned = (0.04 * M_S_REF) ** 2 / (N_REF / 4.0) * (aligned / au) ** 2
        assert r_aligned / r_cancelled == pytest.approx(6.5, rel=0.15)


class TestRecoil:
    def test_reference_values(self):
        q, c = recoil_noise(M_S_REF, 0.04, N_REF, EPS, ALPHAS.up)
        assert 4.3e5 <= 1.0 / q <= 5.3e5   # quoted 4.8(5)e5
        assert 4.0e3 <= 1.0 / c <= 5.0e3   # quoted 4.5(5)e3

    def test_plain_hz_units_equivalent(self):
        # only the eps/alpha ratio enters
        q1, c1 = recoil_noise(M_S_REF, 0.04, N_REF, EPS, ALPHAS.up)
        q2, c2 = recoil_noise(M_S_REF, 0.04, N_REF, 1.3,
                              ALPHAS.up / TWO_PI)
        assert q1 == pytest.approx(q2) and c1 == pytest.approx(c2)

    def test_zero_recoil(self):
        assert recoil_noise(M_S_REF, 0.04, N_REF, 0.0, ALPHAS.up) == (0.0,
                                                                      0.0)


class TestLegacyLimit:
    def test_clock_state_limit(self):
        r = legacy_diffusion_limit(M_S_REF, N_REF, ALPHAS)
        assert 1.0 / r == pytest.approx(1.9, abs=0.4)

    def test_twice_the_clock_state_diffusion(self):
        clock = TransitionProbs(p_ud=0.6667, p_du=0.6667, p_u1=0.0, p_d1=0.0)
        for m_s in (M_S_REF, np.logspace(2.0, 6.0, 50)):
            assert np.array_equal(
                legacy_diffusion_limit(m_s, N_REF, ALPHAS, p_clock=0.6667),
                2.0 * pop_noise_quantum(m_s, N_REF, clock, ALPHAS))


class TestOpto:
    def test_ringing_on_resonance_decay(self):
        t = np.linspace(0.0, 40e-6, 400)
        tr = opto_ringing_trace(0.0, t, CAV, amp=1.0, tau0=10e-6)
        envelope = np.exp(-t / 10e-6)
        assert np.allclose(tr, envelope * np.cos(CAV.omega_ax * t))

    @pytest.mark.parametrize("name,value", [
        ("delta_p", math.nan), ("delta_p", math.inf), ("amp", math.nan),
        ("amp", -math.inf)])
    def test_ringing_argument_that_is_not_finite_is_named(self, name,
                                                           value):
        t = np.linspace(0.0, 20e-6, 50)
        args = {"delta_p": 0.1, "amp": 1.0, name: value}
        with pytest.raises(ValueError) as err:
            opto_ringing_trace(args["delta_p"], t, CAV, args["amp"])
        assert str(err.value) == f"{name} must be finite (got {value!r})"

    def test_antidamping_side_decays_slower(self):
        t = np.linspace(0.0, 60e-6, 600)
        above = opto_ringing_trace(+0.3 * CAV.kappa / 2, t, CAV, 1.0)
        below = opto_ringing_trace(-0.3 * CAV.kappa / 2, t, CAV, 1.0)
        # compare envelope energy: slower decay keeps more
        assert np.sum(above ** 2) > np.sum(below ** 2)

    def test_zero_amplitude(self):
        t = np.linspace(0.0, 20e-6, 50)
        assert np.all(opto_ringing_trace(0.1, t, CAV, 0.0) == 0.0)

    def test_bad_tau0_is_named(self):
        t = np.linspace(0.0, 20e-6, 50)
        for bad, got in ((math.nan, "nan"), (0.0, "0.0"), (-2.0, "-2.0")):
            with pytest.raises(ValueError) as err:
                opto_ringing_trace(0.1, t, CAV, 1.0, tau0=bad)
            assert str(err.value) == f"tau0 must be positive (got {got})"

    def test_noise_term_calibration(self):
        assert 1.0 / opto_noise_term(4.1e4, N_REF, CAV) == pytest.approx(620.0)

    def test_noise_term_quadratic(self):
        assert opto_noise_term(8.2e4, N_REF, CAV) == pytest.approx(
            4.0 * opto_noise_term(4.1e4, N_REF, CAV))

    def test_noise_term_zero(self):
        assert opto_noise_term(0.0, N_REF, CAV) == 0.0


class TestEnhancement:
    def test_identity_at_unit_contrast(self):
        assert spectroscopic_enhancement(0.0625, 1.0, 1.0) == 16.0

    def test_headline_consistency(self):
        # 1/W = 10.5 with 1/R = 16 requires C^2/C_i ~= 0.66
        c = math.sqrt(0.66 * 0.97)
        w_inv = spectroscopic_enhancement(1.0 / 16.0, c, 0.97)
        assert w_inv == pytest.approx(10.5, abs=0.1)

    def test_fig2_configuration(self):
        # a dataset with its own contrast gives back its own enhancement
        r = 1.0 / 9.0
        c = math.sqrt(7.5 * r * 0.97)
        assert spectroscopic_enhancement(r, c, 0.97) == pytest.approx(7.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spectroscopic_enhancement(0.0, 0.9, 0.97)
        with pytest.raises(ValueError):
            spectroscopic_enhancement(0.1, 0.98, 0.97)


class TestScalesAndBudget:
    def test_scales_are_unity_at_reference(self):
        assert readout_scale(N_REF, N_REF, CAV) == pytest.approx(1.0)
        assert classical_scale(N_REF, N_REF, CAV) == pytest.approx(1.0)

    def test_injection_below_fitted_total(self):
        r_inj = classical_injection_coeff(NoiseCoeffs(), 0.04, CAV, TP)
        assert 0.0 < r_inj < NoiseCoeffs().r_c

    def test_budget_report_rows(self):
        rep = budget_report(SimParams(), M_REF)
        rows = dict(rep.terms)
        assert rows["Photon Shot Noise r_PSN"] == pytest.approx(32.0)
        assert rows["Technical Noise Floor R_t"] == pytest.approx(73.0)
        assert rows["Classical Noise r_c"] == pytest.approx(67.0, rel=1e-3)
        assert rows["  Variable Damping R_o"] == pytest.approx(620.0)
        assert 4.3e5 <= rows["  Photon Recoil R_ext,q"] <= 5.3e5
        assert 4.0e3 <= rows["  Photon Recoil R_ext,c"] <= 5.0e3
        assert 1.1e3 <= rows["  Population Diffusion R_pop,q"] <= 2.6e3
        table = rep.to_table()
        assert table.startswith("term,R_inv")
        assert "Population Change R_pop,c" in table

    def test_budget_reads_every_part_of_the_params(self):
        # away from the default n, frac and p_u1: each must reach the terms
        n, frac, m_t = 2.4e5, 0.06, 3e4
        tp = TransitionProbs(p_u1=5e-3)
        params = SimParams(ensemble=EnsembleParams(n_effective=n),
                           probe=ProbeConfig(ms_classical_frac=frac),
                           transitions=tp)
        coeffs, n_ref = params.coeffs, params.coeffs.n_reference
        alphas = alphas_for_ensemble(n, CAV)
        m_s = m_t * scattered_ratio(n / 2.0, CAV)
        ext_q, ext_c = recoil_noise(m_s, frac, n, EPS, alphas.up)
        au, ad, a1 = alphas.up, alphas.down, alphas.one
        signed = (tp.p_ud * (ad - au) + tp.p_du * (au - ad)
                  + tp.p_u1 * (a1 - au) + tp.p_d1 * (a1 - ad))
        by_hand = BudgetTerms(
            psn=coeffs.r_psn * readout_scale(n, n_ref, CAV) / m_t,
            tf=coeffs.r_tf * n_ref / n,
            injected=classical_injection_coeff(coeffs, frac, CAV, tp)
            * m_t * m_t * classical_scale(n, n_ref, CAV),
            pop_q=pop_noise_quantum(m_s, n, tp, alphas), ext_q=ext_q,
            pop_c=pop_noise_classical(m_s, frac, n, tp, alphas), ext_c=ext_c,
            cross_c=2.0 * (frac * m_s) ** 2 / (n / 4.0) * signed * -EPS
            / (au * au))
        assert budget_terms(params, m_t) == by_hand
        rows = dict(budget_report(params, m_t).terms)
        assert rows["  Variable Damping R_o"] == 1.0 / opto_noise_term(
            m_t, n, CAV)
        assert rows["  Photon Recoil R_ext,c"] == 1.0 / ext_c
        assert rows["  Population Change R_pop,c"] == 1.0 / by_hand.pop_c
        assert rows["Quantum Noise r_q"] == 1.0 / by_hand.quantum
        assert rows["  Photon Recoil R_ext,q"] == 1.0 / ext_q
        assert rows["  Population Diffusion R_pop,q"] == 1.0 / by_hand.pop_q


def test_beta_constant():
    assert BETA_TIME_AVERAGE == pytest.approx(2.0 / 3.0)
