"""Acceptance suite: one test per headline criterion.

Each test prints a PASS line with the measured values (run with ``-s`` to
see them inline); tolerances are fixed here, not tuned at runtime.  The
Monte Carlo criteria use the contrast-excess knob at its documented
calibration where stated.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import squeezesim as sq
from squeezesim import experiments as exp
from squeezesim.config import CALIBRATED_CONTRAST_EXCESS, loads_config
from squeezesim.noise import (
    NoiseCoeffs,
    alphas_for_ensemble,
    legacy_diffusion_limit,
    model_r,
    opto_noise_term,
    pop_noise_quantum,
    recoil_noise,
)
from squeezesim.physics import TWO_PI, CavityParams, scattered_ratio
from gates import assert_inside
from test_state import kalman_and_grid

PARAMS = sq.SimParams()
CAL = replace(PARAMS, contrast_excess=CALIBRATED_CONTRAST_EXCESS)
N_REF = 4.8e5
M_REF = 4.1e4

# criteria 4 to 6 are gates (see gates.py) at master seed SEED + 2k
SEED = 20260810
C4_BANDS = {"c4 best 1/R": (16.0 - 3.0, 16.0 + 3.0),
            "c4 M_t at best 1/R": (2e4, 8e4),  # near M_t = 4e4
            "c4 best 1/W": (9.0, 13.5)}
C5_BANDS = {"c5 CSS error rate": (0.20, 0.30),
            "c5 squeezed error rate": (0.012, 0.032)}
C6_BANDS = {"c6 phase-variance slope": (-2.2, -1.7),
            "c6 SQL slope": (-0.5 - 0.05, -0.5 + 0.05)}


def report(num: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {num} ({name}): PASS: {detail}")


def test_criterion_1_qpn_anchor():
    cav = CavityParams()
    sq.qpn_frequency_fluctuation(N_REF, cav)  # warm up
    t0 = time.perf_counter()
    value = sq.qpn_frequency_fluctuation(N_REF, cav)
    elapsed = time.perf_counter() - t0
    assert value == pytest.approx(TWO_PI * 144e3, rel=0.06)
    assert elapsed < 1e-3
    report(1, "QPN anchor",
           f"{value / TWO_PI / 1e3:.1f} kHz vs 144 kHz +-6%, "
           f"{elapsed * 1e6:.0f} us")


def test_criterion_2_scattering_anchor():
    cav = CavityParams()
    sq.scattered_ratio(2.4e5, cav)
    t0 = time.perf_counter()
    ratio = sq.scattered_ratio(2.4e5, cav)
    elapsed = time.perf_counter() - t0
    assert ratio == pytest.approx(1.0, abs=0.1)
    assert elapsed < 1e-3
    report(2, "scattering anchor",
           f"M_s/M_t = {ratio:.4f} vs 1.0 +-0.1, {elapsed * 1e6:.0f} us")


def test_criterion_3_budget_synthesis():
    t0 = time.perf_counter()
    cav = CavityParams()
    coeffs = NoiseCoeffs()
    total_inv = 1.0 / model_r(M_REF, coeffs)
    assert total_inv == pytest.approx(16.7, abs=2.0)

    alphas = alphas_for_ensemble(N_REF, cav)
    m_s = M_REF * scattered_ratio(N_REF / 2.0, cav)
    eps = TWO_PI * cav.recoil_shift_per_photon
    rec_q, rec_c = recoil_noise(m_s, 0.04, N_REF, eps, alphas.up)
    assert 4.3e5 <= 1.0 / rec_q <= 5.3e5
    assert 4.0e3 <= 1.0 / rec_c <= 5.0e3

    opto_inv = 1.0 / opto_noise_term(M_REF, N_REF, cav)
    assert opto_inv == pytest.approx(620.0, rel=1e-6)

    pop_q_inv = 1.0 / pop_noise_quantum(m_s, N_REF, PARAMS.transitions,
                                        alphas)
    assert 1.1e3 <= pop_q_inv <= 2.6e3

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, "budget synthesis",
           f"model 1/R = {total_inv:.2f}; recoil {1 / rec_q:.3g} / "
           f"{1 / rec_c:.3g}; ringing {opto_inv:.0f}; diffusion "
           f"{pop_q_inv:.0f}; {elapsed * 1e3:.0f} ms")


def criterion_4(k: int = 0) -> dict[str, float]:
    """The probe-strength sweep's optimum at master seed SEED + 2k."""
    result = exp.squeezing_sweep(CAL, np.logspace(3.0, 5.0, 15),
                                 trials_per_point=2000,
                                 master_seed=SEED + 2 * k)
    return {"c4 best 1/R": 1.0 / result.best_r().r,
            "c4 M_t at best 1/R": result.best_r().m_t,
            "c4 best 1/W": result.best().w_inv}


def test_criterion_4_monte_carlo_optimum():
    t0 = time.perf_counter()
    values = criterion_4()
    elapsed = time.perf_counter() - t0
    detail = assert_inside(values, C4_BANDS)
    assert elapsed < 300.0
    report(4, "Monte Carlo optimum", f"{detail}; {elapsed:.0f} s")


def criterion_5(k: int = 0) -> dict[str, float]:
    """Single-shot phase detection, the squeezed arm at master seed
    SEED + 2k and the CSS arm at SEED + 2k + 1, and the squeezed M_t."""
    par = PARAMS.with_n(4.3e5)
    squeezed = exp.phase_detection(par, 2.3e-3, premeasure=True,
                                   trials=10_000, master_seed=SEED + 2 * k,
                                   target_w_inv=7.5)
    css = exp.phase_detection(par, 2.3e-3, premeasure=False,
                              trials=10_000, master_seed=SEED + 2 * k + 1,
                              m_t=squeezed.m_t)
    return {"c5 CSS error rate": css.error_rate,
            "c5 squeezed error rate": squeezed.error_rate,
            "c5 squeezed M_t": squeezed.m_t}


def test_criterion_5_phase_detection():
    t0 = time.perf_counter()
    values = criterion_5()
    elapsed = time.perf_counter() - t0
    detail = assert_inside(values, C5_BANDS)
    assert elapsed < 120.0
    report(5, "phase detection", f"{detail}; {elapsed:.0f} s")


def criterion_6(k: int = 0) -> dict[str, float]:
    """The log-log slopes of the optimal phase variance and of the SQL
    against N at master seed SEED + 2k, and the 1/W at each N."""
    result = exp.n_scaling(CAL, [6e4, 1.2e5, 2.4e5, 4.8e5],
                           trials_per_point=30_000,
                           master_seed=SEED + 2 * k, scan_trials=2000)
    return {"c6 phase-variance slope": result.slope_squeezed,
            "c6 SQL slope": result.slope_sql,
            **{f"1/W at N = {r.n:.1e}": r.w_inv for r in result.rows}}


def test_criterion_6_n_scaling():
    t0 = time.perf_counter()
    values = criterion_6()
    elapsed = time.perf_counter() - t0
    detail = assert_inside(values, C6_BANDS)
    assert elapsed < 900.0
    report(6, "N scaling", f"{detail}; {elapsed:.0f} s")


def test_criterion_7_legacy_clock_states():
    cfg = loads_config("[transition]\np_ud = 0.6667\n")
    p_clock = cfg.sim_params().transitions.p_ud
    cav = CavityParams()
    alphas = alphas_for_ensemble(N_REF, cav)
    m_s = M_REF * scattered_ratio(N_REF / 2.0, cav)
    limit = 1.0 / legacy_diffusion_limit(m_s, N_REF, alphas,
                                         p_clock=p_clock)
    assert limit == pytest.approx(1.9, abs=0.4)
    report(7, "legacy clock states",
           f"diffusion-limited 1/R = {limit:.2f} vs 1.9 +-0.4 at the "
           f"reference optimum")


class TestCriterion8Properties:
    def test_heisenberg_and_conservation_random_sequences(self):
        rng = np.random.default_rng(20260810)
        n = 4.8e5
        t0 = time.perf_counter()
        for _ in range(1000):
            s = sq.prepare_css(n, PARAMS.ensemble)
            for _ in range(rng.integers(1, 6)):
                kind = rng.integers(0, 3)
                if kind == 0:
                    s = sq.rotate(s, float(rng.uniform(-math.pi, math.pi)),
                                  float(rng.uniform(0, 2 * math.pi)))
                elif kind == 1:
                    params = PARAMS.with_mt(float(rng.uniform(1e3, 1e5)))
                    _, s = sq.probe_measure(s, params, rng)
                else:
                    s = sq.apply_raman_diffusion(
                        s, float(rng.uniform(0, 1e5)), PARAMS, rng)
                total = s.pop_up + s.pop_down + s.pop_one
                assert total == pytest.approx(n, abs=1e-6 * n)
                assert np.all(s.invariants()["Heisenberg product"])
        report(8, "property: invariants",
               f"1000 random sequences hold Heisenberg product and "
               f"population conservation; {time.perf_counter() - t0:.1f} s")

    def test_bayesian_update_grid_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mu = float(rng.normal(0, 200))
            sigma0 = float(rng.uniform(20, 500))
            sigma_m = float(rng.uniform(20, 500))
            z = mu + float(rng.normal(0, math.hypot(sigma0, sigma_m)))
            mean_k, var_k, mean_g, var_g = kalman_and_grid(mu, sigma0,
                                                           sigma_m, z)
            assert abs(mean_k - mean_g) <= 1e-3 * max(abs(mean_g), sigma0)
            assert abs(var_k - var_g) <= 1e-3 * var_g
        report(8, "property: Bayesian grid oracle",
               "Kalman update matches 512-point grid posterior to 1e-3")

    def test_fit_exact_recovery(self):
        truth = NoiseCoeffs(r_psn=1281.25, r_tf=1.0 / 73.0, r_q=1e-8,
                            r_c=8.9e-12)
        pts = [(m, model_r(m, truth)) for m in np.logspace(3, 5, 10)]
        fit = sq.fit_r(pts, n_boot=0)
        for name in ("r_psn", "r_tf", "r_q", "r_c"):
            assert getattr(fit.coeffs, name) == pytest.approx(
                getattr(truth, name), rel=1e-8)
        report(8, "property: fit recovery",
               "noiseless fit recovers coefficients to 1e-8")

    def test_determinism_under_thread_counts(self):
        proto = exp.standard_protocol()
        base = sq.run_trials(proto, PARAMS, 40, master_seed=4, workers=1)
        assert sq.run_trials(proto, PARAMS, 40, master_seed=4,
                             workers=3) == base
        report(8, "property: determinism",
               "records identical for 1 and 3 workers")

    def test_config_roundtrip_fixed_point(self):
        cfg = loads_config("[ensemble]\nn_effective = 2.4e5\n"
                           "[noise]\ncontrast_excess = 1.9\n"
                           "[run]\nmaster_seed = 11\n")
        echoed = sq.echo_config(cfg)
        cfg2 = sq.loads_config(echoed)
        assert cfg2 == cfg
        assert sq.echo_config(cfg2) == echoed
        report(8, "property: config fixed point",
               "echoed config reloads to the identical configuration")
