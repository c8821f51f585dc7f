import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

import squeezesim as sq
from squeezesim import experiments as exp

PARAMS = sq.SimParams()
CAL = replace(PARAMS, contrast_excess=sq.CALIBRATED_CONTRAST_EXCESS)
THETA = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)


class TestContrastFringe:
    def test_initial_contrast_at_zero_probe(self):
        res = exp.contrast_fringe(PARAMS, 0.0, THETA, trials=40,
                                  master_seed=3)
        assert res.contrast == pytest.approx(0.97, abs=0.02)

    def test_scattering_only_decay(self):
        res = exp.contrast_fringe(PARAMS, 4.1e4, THETA, trials=40,
                                  master_seed=4)
        assert res.contrast / 0.97 == pytest.approx(
            math.exp(-1.0 * 4.1e4 / 4.8e5), abs=0.02)

    def test_half_contrast_synthetic_fit(self):
        n = 4.8e5
        theta = np.linspace(0, 2 * np.pi, 30, endpoint=False)
        data = n / 2.0 * (1.0 + 0.5 * np.cos(theta))
        _, amp, _ = exp.fit_fringe(theta, data)
        assert amp / (n / 2.0) == pytest.approx(0.5, abs=0.01)

    def test_needs_enough_phase_coverage(self):
        with pytest.raises(ValueError):
            exp.contrast_fringe(PARAMS, 0.0, np.linspace(0, 1.0, 8), 10)

    def test_numpy_float_strength_equals_python_float(self):
        # a value of an np.logspace grid is an np.float64
        args = (THETA, 20, 3)
        assert exp.contrast_fringe(PARAMS, np.float64(4.1e4), *args) == (
            exp.contrast_fringe(PARAMS, 4.1e4, *args))


class TestSqueezingSweep:
    def test_rows_sorted_and_invariant(self):
        grid = [3e4, 1e4, 5e4]
        res = exp.squeezing_sweep(CAL, grid, trials_per_point=300,
                                  master_seed=6)
        mts = [row.m_t for row in res.rows]
        assert mts == sorted(mts)
        for row in res.rows:
            w = sq.spectroscopic_enhancement(row.r, row.contrast, 0.97)
            assert row.w_inv == pytest.approx(w, rel=1e-12)

    def test_ideal_probe_monotone(self):
        ideal = replace(
            PARAMS,
            transitions=PARAMS.transitions.zeroed(),
            cavity=replace(PARAMS.cavity, recoil_shift_per_photon=0.0),
            probe=replace(PARAMS.probe, ms_classical_frac=0.0,
                          detuning_spread=0.0),
            coeffs=replace(PARAMS.coeffs, r_tf=0.0, r_c=0.0))
        res = exp.squeezing_sweep(ideal, [1e3, 1e4, 1e5],
                                  trials_per_point=2000, master_seed=8)
        rs = [row.r for row in res.rows]
        assert rs[0] > rs[1] > rs[2]

    def test_csv_columns(self):
        res = exp.squeezing_sweep(CAL, [1e4, 4e4], trials_per_point=100,
                                  master_seed=9)
        header = res.to_csv().splitlines()[0]
        assert header == "mt,R,C,Winv,R_psn,R_tf,R_q,R_c"

    def test_csv_terms_sum_to_expected_r(self):
        # the four term columns decompose the model the simulator runs
        res = exp.squeezing_sweep(CAL, [1e3, 4.1e4, 1e5], trials_per_point=20,
                                  master_seed=9)
        rows = list(csv.DictReader(io.StringIO(res.to_csv())))
        assert len(rows) == 3
        for row in rows:
            terms = sum(float(row[k]) for k in ("R_psn", "R_tf", "R_q", "R_c"))
            assert terms == pytest.approx(
                exp.expected_r(CAL, float(row["mt"])), rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            exp.squeezing_sweep(CAL, [], 10)


class TestPhaseDetection:
    def test_indistinguishable_case(self):
        res = exp.phase_detection(PARAMS.with_n(4.3e5), 0.0,
                                  premeasure=False, trials=3000,
                                  master_seed=42, m_t=2e4)
        assert res.error_rate == pytest.approx(0.5, abs=0.05)

    def test_error_monotone_in_psi(self):
        par = PARAMS.with_n(4.3e5)
        errors = []
        for psi in (0.5e-3, 1.5e-3, 3.0e-3):
            res = exp.phase_detection(par, psi, premeasure=True,
                                      trials=2000, master_seed=50,
                                      m_t=1.4e4)
            errors.append(res.error_rate)
        assert errors[0] > errors[1] > errors[2]

    def test_histograms_account_for_all_trials(self):
        res = exp.phase_detection(PARAMS.with_n(4.3e5), 2.3e-3,
                                  premeasure=False, trials=1500,
                                  master_seed=51, m_t=2e4)
        assert sum(res.hist_applied) == 1500
        assert sum(res.hist_null) == 1500

    def test_trials_guard(self):
        with pytest.raises(ValueError):
            exp.phase_detection(PARAMS, 1e-3, True, trials=10)

    def test_tuner_hits_target(self):
        m = exp.tune_mt_for_w_inverse(PARAMS.with_n(4.3e5), 7.5,
                                      contrast_windows=2)
        w = exp.expected_w_inverse(PARAMS.with_n(4.3e5), m,
                                   contrast_windows=2)
        assert w == pytest.approx(7.5, rel=1e-3)

    def test_tuner_unreachable_target(self):
        with pytest.raises(ValueError):
            exp.tune_mt_for_w_inverse(PARAMS.with_n(6e4), 50.0)


class TestNScaling:
    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            exp.n_scaling(PARAMS, [4.8e5], 100)

    def test_needs_decade_span(self):
        with pytest.raises(ValueError):
            exp.n_scaling(PARAMS, [1e5, 2e5, 3e5], 100)

    def test_optimizer_grid_stability(self):
        # the chosen optimum is insensitive to grid refinement beyond
        # 20 points per decade (5% tolerance on 1/W)
        par = CAL.with_n(2.4e5)
        coarse = exp.optimize_w_inverse(par, trials_per_point=8000,
                                        master_seed=14, scan_trials=2500,
                                        points_per_decade=20)
        fine = exp.optimize_w_inverse(par, trials_per_point=8000,
                                      master_seed=14, scan_trials=2500,
                                      points_per_decade=40)
        assert fine.w_inv == pytest.approx(coarse.w_inv, rel=0.05)


class TestRamanCalibration:
    GRID = np.linspace(0.0, 1.2e5, 7)

    def test_slope_signs(self):
        res = exp.raman_calibration(PARAMS, self.GRID, trials=40,
                                    master_seed=5)
        assert res.slope_down_hz > 0.0
        assert res.slope_up_hz < 0.0

    def test_slopes_near_measured_values(self):
        res = exp.raman_calibration(PARAMS, self.GRID, trials=60,
                                    master_seed=5)
        assert res.slope_down_hz == pytest.approx(1.11, rel=0.5)
        assert res.slope_up_hz == pytest.approx(-0.86, rel=0.5)

    def test_zero_probability_recoil_baseline(self):
        par = replace(PARAMS, transitions=PARAMS.transitions.zeroed())
        res = exp.raman_calibration(par, self.GRID, trials=60, master_seed=6)
        # down preparation barely scatters; up preparation shows the full
        # recoil drift at the reference flux with weight 2
        flux = sq.scattered_ratio(2.1e5 / 2.0, par.cavity)
        ci = par.ensemble.initial_contrast
        recoil_up = -1.3 * flux * (1.0 + ci)
        assert abs(res.slope_down_hz) < 0.1
        assert res.slope_up_hz == pytest.approx(recoil_up, rel=0.15)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            exp.raman_calibration(PARAMS, [], 10)

    @pytest.mark.parametrize("grid,message", [
        ([5e4], "number of distinct M_t values"),
        ([3e4, 3e4, 3e4], "number of distinct M_t values"),
        ([0.0, 1e-300], "M_t span"),
        ([1e5, 1e5 + 0.5], "M_t span")])
    def test_degenerate_grid_rejected(self, grid, message):
        with pytest.raises(ValueError, match=f"{message} .* line fit"):
            exp.raman_calibration(PARAMS, grid, 10)

    @pytest.mark.parametrize("trials", [1, 7, 100])
    def test_batch_equals_per_trial_loop(self, trials, monkeypatch):
        # each M_t point runs its trials as one batch; fed the same
        # variates, the result must be the per-trial loop's to 1e-12,
        # M_t = 0 included
        import scalar_reference
        from test_engine import FixedDraws
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: FixedDraws())
        assert self.GRID[0] == 0.0
        res = exp.raman_calibration(PARAMS, self.GRID, trials, master_seed=5)
        ref = scalar_reference.raman_calibration(PARAMS, self.GRID, trials,
                                                 master_seed=5)
        for name in ("slope_down_hz", "slope_up_hz", "mean_freq_down_hz",
                     "mean_freq_up_hz"):
            assert getattr(res, name) == pytest.approx(
                getattr(ref, name), rel=1e-12, abs=0.0), name
        assert res.m_t_grid == ref.m_t_grid


class TestModelHelpers:
    def test_expected_r_matches_reference(self):
        assert 1.0 / exp.expected_r(PARAMS, 4.1e4) == pytest.approx(16.6,
                                                                    abs=0.3)

    def test_contrast_model_windows(self):
        c1 = exp.contrast_model(PARAMS, 4.1e4, windows=1)
        c2 = exp.contrast_model(PARAMS, 4.1e4, windows=2)
        assert c2 == pytest.approx(c1 ** 2 / 0.97, rel=1e-9)


def scalar_tune(params, target, contrast_windows=1):
    """tune_mt_for_w_inverse as it was before its grid became one array
    call: 200 float evaluations, then the bisection."""
    m_lo, m_hi = 1e3, 3e5
    grid = np.logspace(math.log10(m_lo), math.log10(m_hi), 200)
    w = np.array([exp.expected_w_inverse(params, m, contrast_windows)
                  for m in grid])
    peak = int(np.argmax(w))
    if w[peak] < target:
        raise ValueError("unreachable")
    lo, hi = m_lo, float(grid[peak])
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if exp.expected_w_inverse(params, mid, contrast_windows) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi), float(w[peak])


class TestModelOnArrays:
    @pytest.mark.parametrize("n", [6e4, 4.3e5, 4.8e5])
    @pytest.mark.parametrize("windows", [1, 2])
    def test_tuned_mt_keeps_its_bits(self, n, windows):
        params = PARAMS.with_n(n)
        for share in (0.5, 0.9):
            target = share * scalar_tune(params, 1.0, windows)[1]
            want, _ = scalar_tune(params, target, windows)
            assert exp.tune_mt_for_w_inverse(params, target, windows) == want

    @pytest.mark.parametrize("n", [6e4, 4.3e5, 4.8e5])
    def test_optimizer_brackets_the_same_model_optimum(self, n, monkeypatch):
        params = CAL.with_n(n)
        coarse = np.logspace(3.0, 5.5, 60)
        m_star = coarse[int(np.argmax(
            [exp.expected_w_inverse(params, m) for m in coarse]))]

        class Scan(Exception):
            pass

        def stop(proto, params, grid, *args):
            raise Scan(grid)

        monkeypatch.setattr(exp, "run_grid", stop)
        with pytest.raises(Scan) as scan:
            exp.optimize_w_inverse(params, trials_per_point=10)
        grid = scan.value.args[0]
        assert np.array_equal(grid, np.logspace(
            math.log10(m_star / 3.0), math.log10(m_star * 3.0), len(grid)))

    def test_float_in_float_out(self):
        for f in (exp.contrast_model, exp.expected_r, exp.expected_w_inverse):
            assert type(f(PARAMS, 4.1e4)) is float
            assert isinstance(f(PARAMS, np.array([4.1e4])), np.ndarray)

    def test_contrast_array_matches_floats_to_roundoff(self):
        grid = np.logspace(3.0, 5.5, 60)
        want = [exp.contrast_model(PARAMS, m, windows=2) for m in grid]
        assert np.allclose(exp.contrast_model(PARAMS, grid, windows=2), want,
                           rtol=4e-16, atol=0.0)

    def test_nan_mt_is_named(self):
        with pytest.raises(ValueError, match=r"m_t must be positive "
                                             r"\(got nan at index 1\)"):
            exp.expected_w_inverse(PARAMS, np.array([1e4, math.nan]))
        with pytest.raises(ValueError, match=r"\(got nan\)"):
            exp.expected_r(PARAMS, math.nan)


def test_simulated_sweep_fit_rq_consistent_with_zero():
    # fitting the model to a simulated sweep finds no quantum back-action
    # term above the data's resolution
    grid = np.logspace(3, 5, 12)
    res = exp.squeezing_sweep(CAL, grid, trials_per_point=800,
                              master_seed=77)
    fit = sq.fit_r([(row.m_t, row.r) for row in res.rows], n_boot=400,
                   rng=5)
    lo, _ = fit.intervals["r_q"]
    assert lo == 0.0
    total = sq.model_r(4.1e4, fit.coeffs)
    assert fit.coeffs.r_q * 4.1e4 <= 0.1 * total
    # the dominant coefficients recover their calibration values
    assert fit.coeffs.r_psn == pytest.approx(1281.25, rel=0.10)
    assert fit.coeffs.r_c == pytest.approx(PARAMS.coeffs.r_c, rel=0.25)
