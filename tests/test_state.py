import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squeezesim import noise, state
from squeezesim.noise import NoiseCoeffs
from squeezesim.physics import (
    CavityParams,
    EnsembleParams,
    alpha_per_atom,
    scattered_ratio,
)
from squeezesim.state import (
    EnsembleState,
    ProbeConfig,
    SimParams,
    TransitionProbs,
    apply_raman_diffusion,
    heisenberg_check,
    polarized_state,
    prepare_css,
    probe_measure,
    rotate,
)

CAV = CavityParams()
ENS = EnsembleParams()
TP = TransitionProbs()
COEFFS = NoiseCoeffs()


def ideal_coeffs(**kw):
    base = dict(r_psn=NoiseCoeffs().r_psn, r_tf=0.0, r_q=0.0, r_c=0.0)
    base.update(kw)
    return NoiseCoeffs(**base)


IDEAL_CAV = replace(CAV, recoil_shift_per_photon=0.0)
IDEAL_PROBE = ProbeConfig(ms_classical_frac=0.0, detuning_spread=0.0)


def sim(probe=ProbeConfig(), cav=CAV, tp=TP, coeffs=COEFFS) -> SimParams:
    """Default run parameters with these parts."""
    return SimParams(cavity=cav, probe=probe, transitions=tp, coeffs=coeffs)


def test_realized_mt_argument_matches_probe_config():
    s = prepare_css(4.8e5, ENS)
    a = probe_measure(s, sim(ProbeConfig(m_t=2e4)),
                      np.random.default_rng(3))
    b = probe_measure(s, sim(), np.random.default_rng(3), m_t=2e4)
    assert a == b


class TestPrepareCss:
    def test_reference_state(self):
        s = prepare_css(4.8e5, ENS)
        assert s.jz_var == pytest.approx(1.2e5)
        assert s.contrast == 0.97
        assert s.pop_up == s.pop_down == 2.4e5
        assert s.pop_one == 0.0

    def test_four_atoms(self):
        assert prepare_css(4.0, ENS).jz_var == 1.0

    def test_projection_noise_width(self):
        s = prepare_css(4.3e5, ENS)
        assert math.sqrt(s.jz_var.item()) == pytest.approx(327.9, abs=0.1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prepare_css(0.0, ENS)


class TestRotate:
    def test_pi_from_pumped_maps_through_contrast(self):
        n = 4.8e5
        s = polarized_state(n, ENS, "down")
        assert s.pop_down == n
        s2 = rotate(s, math.pi, 0.0)
        assert s2.pop_up == pytest.approx(n * (1 + ENS.initial_contrast) / 2)

    def test_small_angle_displaces_by_contrast_length(self):
        n = 4.3e5
        s = prepare_css(n, ENS)
        s = replace_state(s, jz_var=100.0)  # squeezed
        psi = 2.3e-3
        s2 = rotate(s, psi, 0.0)
        expected = s.contrast * (n / 2.0) * psi
        assert s2.jz_mean - s.jz_mean == pytest.approx(expected, rel=1e-5)
        assert s2.jz_var == s.jz_var  # noiseless rotation

    def test_fringe_geometry_fit(self):
        # mean populations trace (N/2)(1 + C cos theta); a cosine fit to the
        # deterministic sweep recovers the contrast exactly
        from squeezesim.experiments import fit_fringe
        n = 4.8e5
        theta = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
        pops = []
        for th in theta:
            s = polarized_state(n, ENS, "down")
            s = rotate(s, math.pi / 2, 0.0)
            s = rotate(s, math.pi / 2, th)
            pops.append(s.pop_up.item())
        _, amp, _ = fit_fringe(theta, np.array(pops))
        assert amp / (n / 2.0) == pytest.approx(ENS.initial_contrast,
                                                abs=0.01)

    def test_pi_flips_jz_exactly(self):
        s = prepare_css(1e5, ENS)
        s = replace_state(s, jz_mean=137.0)
        s2 = rotate(s, math.pi, 0.0)
        assert s2.jz_mean == pytest.approx(-137.0, rel=1e-9)

    def test_population_conservation(self):
        s = polarized_state(2e5, ENS, "down")
        for th, ph in ((math.pi / 2, 0.0), (0.3, 1.0), (math.pi, 0.5)):
            s = rotate(s, th, ph)
            total = s.pop_up + s.pop_down + s.pop_one
            assert total == pytest.approx(2e5, rel=1e-12)


def replace_state(s: EnsembleState, **kw) -> EnsembleState:
    new = s.copy()
    for k, v in kw.items():
        setattr(new, k, v)
    return new


class TestHeisenberg:
    def test_fresh_css_at_unit_contrast(self):
        ens = EnsembleParams(n_effective=1e5, initial_contrast=1.0)
        s = prepare_css(1e5, ens)
        assert heisenberg_check(s)
        # equality: product exactly N/4 * N/4
        assert math.sqrt((s.jz_var * s.jy_var).item()) == pytest.approx(
            s.contrast * s.n_total / 4.0)

    def test_post_measurement_state(self):
        s = prepare_css(4.8e5, ENS)
        rng = np.random.default_rng(0)
        for _ in range(3):
            _, s = probe_measure(s, sim(), rng)
            assert heisenberg_check(s)

    def test_violation_detected(self):
        s = prepare_css(1e5, ENS)
        s = replace_state(s, jy_var=0.0)
        assert not heisenberg_check(s)


class TestRamanDiffusion:
    def test_zero_probabilities_identity(self):
        s = prepare_css(4.8e5, ENS)
        rng = np.random.default_rng(1)
        s2 = apply_raman_diffusion(s, 4.1e4, sim(tp=TP.zeroed()), rng)
        assert s2.pop_up == s.pop_up and s2.pop_one == s.pop_one
        assert s2.jz_mean == s.jz_mean

    def test_net_change_variance_oracle(self):
        # Poisson sum over the channels that move N_up, equator weights = 1
        m_s = 4.1e4
        lam = (TP.p_ud + TP.p_du + TP.p_u1) * m_s
        rng = np.random.default_rng(2)
        s = prepare_css(4.8e5, ENS)
        trials = 100_000
        s2 = apply_raman_diffusion(s.tile(trials), m_s, sim(), rng)
        nets = s2.pop_up - s.pop_up
        assert np.var(nets, ddof=1) == pytest.approx(lam, rel=0.05)
        mean_net = (TP.p_du - TP.p_ud - TP.p_u1) * m_s
        assert np.mean(nets) == pytest.approx(mean_net, abs=0.05 * lam ** 0.5)

    def test_source_population_weighting(self):
        # pumped down: no up-sourced transitions, down channels at weight 2
        s = polarized_state(2e5, ENS, "down")
        rng = np.random.default_rng(3)
        trials = 20_000
        moved = apply_raman_diffusion(s.tile(trials), 1e4, sim(), rng,
                                      repump_to_up=True).pop_up
        lam = (TP.p_du + TP.p_d1) * 1e4 * 2.0
        assert np.mean(moved) == pytest.approx(lam, rel=0.05)

    @pytest.mark.parametrize("repump", [False, True])
    def test_channel_table_gives_the_written_out_channels(self, repump):
        # u->d, d->u, u->1, d->1 by hand: moves, persistent offsets, jumps
        s, trials = polarized_state(2e5, ENS, "down"), 64
        s = rotate(s, 0.6 * math.pi, 0.0).tile(trials)
        new = apply_raman_diffusion(s, 4e4, sim(), np.random.default_rng(6),
                                    repump_to_up=repump)
        n_ud, n_du, n_u1, n_d1 = state._sample_counts(
            s, 4e4, TP, np.random.default_rng(6).standard_normal((4, trials)))
        au = alpha_per_atom("up", s.pop_up, CAV)
        ad, a1 = alpha_per_atom("down", 0.0, CAV), CAV.c1_coupling * au
        if repump:  # |1> goes straight back to up
            up, down, one = n_du + n_d1 - n_ud, n_ud - n_du - n_d1, 0.0
            offset = ad * n_ud - ad * n_du - ad * n_d1
        else:
            up, down, one = n_du - n_ud - n_u1, n_ud - n_du - n_d1, n_u1 + n_d1
            offset = ad * n_ud - ad * n_du + a1 * n_u1 + (a1 - ad) * n_d1
        assert all(np.any(c > 0) for c in (n_ud, n_du, n_u1, n_d1))
        np.testing.assert_array_equal(new.pop_up, s.pop_up + up)
        np.testing.assert_array_equal(new.jz_mean, s.jz_mean + up)
        np.testing.assert_array_equal(new.pop_down, s.pop_down + down)
        np.testing.assert_array_equal(new.pop_one, s.pop_one + one)
        np.testing.assert_array_equal(new.freq_offset, offset)
        jumps = noise._channel_shifts(noise._MOVES, au, ad, a1)[1]
        np.testing.assert_array_equal(jumps, [ad - au, au - ad, a1 - au,
                                              a1 - ad])

    def test_conservation(self):
        s = prepare_css(1e5, ENS)
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = apply_raman_diffusion(s, 4.1e4, sim(), rng)
            total = s.pop_up + s.pop_down + s.pop_one
            assert total == pytest.approx(1e5, abs=1e-6 * 1e5)


class TestProbeMeasure:
    def test_posterior_shot_noise_contribution(self):
        # after one window the posterior imprecision alone corresponds to
        # the r_psn/(2 M_t) share of the differenced variance: 1/R of 32
        s = prepare_css(4.8e5, ENS)
        rng = np.random.default_rng(5)
        _, s2 = probe_measure(s, sim(IDEAL_PROBE, IDEAL_CAV, TP.zeroed(),
                                     ideal_coeffs()), rng)
        r_contrib = 2.0 * s2.jz_var / (4.8e5 / 4.0)
        assert 1.0 / r_contrib == pytest.approx(32.0, rel=0.05)

    def test_uninformative_limit_keeps_prior(self):
        s = prepare_css(4.8e5, ENS)
        rng = np.random.default_rng(6)
        weak = replace(IDEAL_PROBE, m_t=1e-9)
        _, s2 = probe_measure(s, sim(weak, IDEAL_CAV, TP.zeroed(),
                                     ideal_coeffs()), rng)
        assert s2.jz_var == pytest.approx(s.jz_var, rel=1e-6)
        assert s2.jz_mean == pytest.approx(s.jz_mean, abs=1e-3)

    def test_zero_mt_rejected(self):
        s = prepare_css(1e5, ENS)
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            probe_measure(s, sim(replace(IDEAL_PROBE, m_t=0.0)), rng)

    def test_kalman_update_matches_formulas(self):
        s = prepare_css(4.8e5, ENS)
        rng = np.random.default_rng(8)
        out, s2 = probe_measure(s, sim(IDEAL_PROBE, IDEAL_CAV, TP.zeroed(),
                                       ideal_coeffs()), rng)
        from squeezesim.noise import read_noise_freq
        from squeezesim.physics import alpha_per_atom, dressed_shift
        n_up_true = 4.8e5 / 2.0 + out.true_jz
        au = alpha_per_atom("up", n_up_true, IDEAL_CAV)
        sigma_m = read_noise_freq(IDEAL_PROBE.m_t, ideal_coeffs(),
                                  IDEAL_CAV) / au
        # reconstruct the conditioning variable from the reading
        z = out.true_jz + (out.freq - dressed_shift(n_up_true, IDEAL_CAV)) / au
        gain = s.jz_var / (s.jz_var + sigma_m ** 2)
        assert s2.jz_mean == pytest.approx(gain * z, rel=1e-9, abs=1e-9)
        assert s2.jz_var == pytest.approx(
            1.0 / (1.0 / s.jz_var + 1.0 / sigma_m ** 2), rel=1e-9)

    def test_two_window_variance_oracle(self):
        # ideal probe: differenced variance = read noise + quantum diffusion
        # + quantum recoil, from the analytic two-measurement algebra
        from squeezesim.noise import (alphas_for_ensemble, pop_noise_quantum,
                                      recoil_noise)
        from squeezesim.physics import TWO_PI
        n = 4.8e5
        coeffs = ideal_coeffs()
        probe = IDEAL_PROBE
        rng = np.random.default_rng(9)
        trials = 100_000
        s = prepare_css(n, ENS).tile(trials)
        out_p, s = probe_measure(s, sim(probe, coeffs=coeffs), rng)
        out_f, s = probe_measure(s, sim(probe, coeffs=coeffs), rng)
        diffs = out_f.n_up - out_p.n_up
        r_mc = np.var(diffs, ddof=1) / (n / 4.0)
        al = alphas_for_ensemble(n, CAV)
        m_s = probe.m_t * scattered_ratio(n / 2.0, CAV)
        expected = (coeffs.r_psn / probe.m_t
                    + pop_noise_quantum(m_s, n, TP, al)
                    + recoil_noise(m_s, 0.0, n, TWO_PI * 1.3, al.up)[0])
        assert r_mc == pytest.approx(expected, rel=0.05)

    def test_contrast_law_exact_when_deterministic(self):
        # with a definite Jz realization the decay law is exact per window
        n = 4.8e5
        s = prepare_css(n, ENS)
        s = replace_state(s, jz_var=1e-12)
        rng = np.random.default_rng(10)
        m_s = IDEAL_PROBE.m_t * scattered_ratio(n / 2.0, CAV)
        for k in range(1, 4):
            _, s = probe_measure(s, sim(IDEAL_PROBE, IDEAL_CAV, TP.zeroed(),
                                        ideal_coeffs()), rng)
            assert s.contrast == pytest.approx(
                ENS.initial_contrast * math.exp(-k * m_s / n), rel=1e-9)

    def test_antisqueezing_inflates_jy(self):
        s = prepare_css(4.8e5, ENS)
        rng = np.random.default_rng(11)
        _, s2 = probe_measure(s, sim(), rng)
        assert s2.jy_var > s.jy_var
        assert heisenberg_check(s2)

    def test_ideal_measurement_back_action_evading(self):
        # with every imperfection zeroed, R keeps improving with M_t
        n = 4.8e5
        rng = np.random.default_rng(12)
        r_values = []
        for m_t in (1e3, 1e4, 1e5):
            probe = replace(IDEAL_PROBE, m_t=m_t)
            trials = 4000
            s = prepare_css(n, ENS).tile(trials)
            ideal = sim(probe, IDEAL_CAV, TP.zeroed(), ideal_coeffs())
            a, s = probe_measure(s, ideal, rng)
            b, s = probe_measure(s, ideal, rng)
            diffs = b.n_up - a.n_up
            r_values.append(np.var(diffs, ddof=1) / (n / 4.0))
        assert r_values[0] > r_values[1] > r_values[2]

    def test_polarized_state_reads_clean(self):
        # pumped ensembles carry no lab-frame projection noise
        s = polarized_state(2.1e5, ENS, "down")
        rng = np.random.default_rng(13)
        out, _ = probe_measure(s, sim(IDEAL_PROBE, IDEAL_CAV, TP.zeroed(),
                                      ideal_coeffs(r_psn=1e-12)), rng)
        assert out.true_jz == s.jz_mean
        assert out.n_up == pytest.approx(0.0, abs=1e-3)


class TestBayesianGridOracle:
    @pytest.mark.parametrize("mu,sigma0,sigma_m,z", [
        (0.0, 346.4, 43.3, 60.0),
        (50.0, 346.4, 43.3, -200.0),
        (-120.0, 100.0, 150.0, 80.0),
        (0.0, 43.0, 43.0, 10.0),
    ])
    def test_kalman_equals_grid_posterior(self, mu, sigma0, sigma_m, z):
        grid = np.linspace(mu - 6 * sigma0, mu + 6 * sigma0, 512)
        log_w = (-(grid - mu) ** 2 / (2 * sigma0 ** 2)
                 - (z - grid) ** 2 / (2 * sigma_m ** 2))
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        mean_grid = float(np.sum(w * grid))
        var_grid = float(np.sum(w * (grid - mean_grid) ** 2))
        gain = sigma0 ** 2 / (sigma0 ** 2 + sigma_m ** 2)
        mean_kalman = mu + gain * (z - mu)
        var_kalman = 1.0 / (1.0 / sigma0 ** 2 + 1.0 / sigma_m ** 2)
        scale = max(abs(mean_grid), sigma0)
        assert abs(mean_kalman - mean_grid) / scale < 1e-3
        assert abs(var_kalman - var_grid) / var_grid < 1e-3


@st.composite
def random_operation(draw):
    kind = draw(st.sampled_from(["rotate", "probe", "raman"]))
    if kind == "rotate":
        return ("rotate",
                draw(st.floats(min_value=-math.pi, max_value=math.pi)),
                draw(st.floats(min_value=0.0, max_value=2 * math.pi)))
    if kind == "probe":
        return ("probe", draw(st.floats(min_value=1e3, max_value=1e5)))
    return ("raman", draw(st.floats(min_value=0.0, max_value=1e5)))


@settings(max_examples=60, deadline=None)
@given(st.lists(random_operation(), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=2 ** 31))
def test_invariants_under_random_sequences(ops, seed):
    rng = np.random.default_rng(seed)
    s = prepare_css(4.8e5, ENS)
    for op in ops:
        if op[0] == "rotate":
            s = rotate(s, op[1], op[2])
        elif op[0] == "probe":
            _, s = probe_measure(s, sim(ProbeConfig(m_t=op[1])), rng)
        else:
            s = apply_raman_diffusion(s, op[1], sim(), rng)
        total = s.pop_up + s.pop_down + s.pop_one
        assert total == pytest.approx(4.8e5, abs=1e-6 * 4.8e5)
        assert heisenberg_check(s)
