import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squeezesim

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
    legacy_diffusion_limit,
    model_r,
    opto_noise_term,
    opto_ringing_trace,
    pop_noise_classical,
    pop_noise_quantum,
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
from squeezesim.state import ProbeConfig, SimParams, TransitionProbs

CAV = CavityParams()
TP = TransitionProbs()
N_REF = 4.8e5
M_REF = 4.1e4
ALPHAS = alphas_for_ensemble(N_REF, CAV)
EPS = TWO_PI * 1.3
M_S_REF = 4.1e4  # M_s = 1.0 x M_t at the reference ensemble


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
        truth = NoiseCoeffs(r_psn=1281.25, r_tf=1.0 / 73.0, r_q=0.0,
                            r_c=8.9e-12)
        rng = np.random.default_rng(1234)
        m = np.logspace(3, 5, 12)
        hits = {"r_psn": 0, "r_tf": 0, "r_c": 0}
        reps = 100
        for _ in range(reps):
            pts = [(mi, model_r(mi, truth) * (1 + 0.1 * rng.standard_normal()))
                   for mi in m]
            fit = fit_r(pts, n_boot=300, rng=rng)
            for name in hits:
                lo, hi = fit.intervals[name]
                if lo <= getattr(truth, name) <= hi:
                    hits[name] += 1
        for name, k in hits.items():
            assert k >= 0.90 * reps, f"{name} covered only {k}/{reps}"

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

    def test_package_import_skips_scipy_stats(self):
        # scipy costs most of the import time, and only fit_r needs it:
        # nnls and two special functions, loaded when it runs
        src = str(Path(squeezesim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, squeezesim; print([m in sys.modules for m in "
                "('scipy.stats', 'scipy.optimize', 'scipy.special')])")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout.strip() == "[False, False, False]"


class TestPopNoise:
    def test_quantum_zero_probabilities(self):
        assert pop_noise_quantum(4.1e4, N_REF, TP.zeroed(), ALPHAS) == 0.0

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


class TestOpto:
    def test_ringing_on_resonance_decay(self):
        t = np.linspace(0.0, 40e-6, 400)
        tr = opto_ringing_trace(0.0, t, CAV, amp=1.0, tau0=10e-6)
        envelope = np.exp(-t / 10e-6)
        assert np.allclose(tr, envelope * np.cos(CAV.omega_ax * t))

    def test_antidamping_side_decays_slower(self):
        t = np.linspace(0.0, 60e-6, 600)
        above = opto_ringing_trace(+0.3 * CAV.kappa / 2, t, CAV, 1.0)
        below = opto_ringing_trace(-0.3 * CAV.kappa / 2, t, CAV, 1.0)
        # compare envelope energy: slower decay keeps more
        assert np.sum(above ** 2) > np.sum(below ** 2)

    def test_zero_amplitude(self):
        t = np.linspace(0.0, 20e-6, 50)
        assert np.all(opto_ringing_trace(0.1, t, CAV, 0.0) == 0.0)

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
        by_hand = BudgetTerms(
            psn=coeffs.r_psn * readout_scale(n, n_ref, CAV) / m_t,
            tf=coeffs.r_tf * n_ref / n,
            injected=classical_injection_coeff(coeffs, frac, CAV, tp)
            * m_t * m_t * classical_scale(n, n_ref, CAV),
            pop_q=pop_noise_quantum(m_s, n, tp, alphas), ext_q=ext_q,
            pop_c=pop_noise_classical(m_s, frac, n, tp, alphas), ext_c=ext_c)
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
