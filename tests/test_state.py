import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squeezesim import noise, state
from squeezesim.noise import NoiseCoeffs
from squeezesim.physics import (
    TWO_PI,
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
    polarized_state,
    prepare_css,
    probe_measure,
    rotate,
)
from gates import assert_inside

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


def tile(s: EnsembleState, size: int) -> EnsembleState:
    """A batch of ``size`` trials, each in the single-trial state ``s``."""
    return EnsembleState(*(np.repeat(getattr(s, f.name), size)
                           for f in fields(s)))


def sim(probe=ProbeConfig(), cav=CAV, tp=TP, coeffs=COEFFS) -> SimParams:
    """Default run parameters with these parts."""
    return SimParams(cavity=cav, probe=probe, transitions=tp, coeffs=coeffs)


# every imperfection zeroed
IDEAL = sim(IDEAL_PROBE, IDEAL_CAV, TransitionProbs(0.0, 0.0, 0.0, 0.0),
            ideal_coeffs())


# the bands of the Monte Carlo oracles, each a gate (see gates.py)
TWO_WINDOW_BANDS = {"two-window variance": (0.95, 1.05)}
RAMAN_NET_BANDS = {"Raman net change variance": (0.95, 1.05),
                   "Raman net mean offset / tolerance": (-1.0, 1.0)}
SOURCE_BANDS = {"source weighting mean": (0.95, 1.05)}
# strictly below 1: R falls at each tenfold M_t
IDEAL_R_BANDS = {name: (-math.inf, math.nextafter(1.0, 0.0))
                 for name in ("ideal R(1e4) / R(1e3)",
                              "ideal R(1e5) / R(1e4)")}


def differenced_r(params: SimParams, trials: int, rng) -> float:
    """Differenced variance / (N/4) of two windows on 4.8e5-atom CSSs."""
    n = 4.8e5
    s = tile(prepare_css(n, ENS), trials)
    pre, s = probe_measure(s, params, rng)
    final, _ = probe_measure(s, params, rng)
    return np.var(final.n_up - pre.n_up, ddof=1) / (n / 4.0)


def two_window_variance(k: int = 0) -> dict[str, float]:
    """An ideal probe's differenced variance over read noise + quantum
    diffusion + quantum recoil, from the analytic two-measurement algebra,
    at seed 9 + k."""
    n, coeffs, probe = 4.8e5, ideal_coeffs(), IDEAL_PROBE
    r_mc = differenced_r(sim(probe, coeffs=coeffs), 100_000,
                         np.random.default_rng(9 + k))
    al = noise.alphas_for_ensemble(n, CAV)
    m_s = probe.m_t * scattered_ratio(n / 2.0, CAV)
    expected = (coeffs.r_psn / probe.m_t
                + noise.pop_noise_quantum(m_s, n, TP, al)
                + noise.recoil_noise(m_s, 0.0, n, TWO_PI * 1.3, al.up)[0])
    return {"two-window variance": r_mc / expected}


def raman_net_change(k: int = 0) -> dict[str, float]:
    """The net change of N_up over 4.1e4 scattered photons at seed 2 + k:
    its variance over the Poisson sum of the channels that move N_up
    (equator weights = 1), and its mean's offset over 5 % of that sum's
    standard deviation."""
    m_s = 4.1e4
    lam = (TP.p_ud + TP.p_du + TP.p_u1) * m_s
    s = prepare_css(4.8e5, ENS)
    s2 = apply_raman_diffusion(tile(s, 100_000), m_s, sim(),
                               np.random.default_rng(2 + k))
    nets = s2.pop_up - s.pop_up
    mean_net = (TP.p_du - TP.p_ud - TP.p_u1) * m_s
    return {"Raman net change variance": np.var(nets, ddof=1) / lam,
            "Raman net mean offset / tolerance": (
                (np.mean(nets) - mean_net) / (0.05 * lam ** 0.5))}


def source_weighting(k: int = 0) -> dict[str, float]:
    """The mean N_up repumped from a pumped-down ensemble at seed 3 + k,
    over the down channels at weight 2 (no up-sourced transitions)."""
    s = polarized_state(2e5, ENS, "down")
    moved = apply_raman_diffusion(tile(s, 20_000), 1e4, sim(),
                                  np.random.default_rng(3 + k),
                                  repump_to_up=True).pop_up
    return {"source weighting mean": (
        np.mean(moved) / ((TP.p_du + TP.p_d1) * 1e4 * 2.0))}


def ideal_r_steps(k: int = 0) -> dict[str, float]:
    """With every imperfection zeroed, R at M_t = 1e4 and 1e5 over R at the
    tenfold weaker M_t, from one generator seeded 12 + k."""
    rng = np.random.default_rng(12 + k)
    r = [differenced_r(IDEAL.with_mt(m_t), 4000, rng)
         for m_t in (1e3, 1e4, 1e5)]
    return {"ideal R(1e4) / R(1e3)": r[1] / r[0],
            "ideal R(1e5) / R(1e4)": r[2] / r[1]}


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
        for make in (prepare_css, polarized_state):
            for bad, got in ((math.nan, "nan"), (-2.0, "-2.0")):
                with pytest.raises(ValueError) as err:
                    make(bad, ENS)
                assert str(err.value) == f"n must be positive (got {got})"


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
        s = replace(s, jz_var=100.0)  # squeezed
        psi = 2.3e-3
        s2 = rotate(s, psi, 0.0)
        expected = s.contrast * (n / 2.0) * psi
        assert s2.jz_mean - s.jz_mean == pytest.approx(expected, rel=1e-5)
        assert s2.jz_var == s.jz_var  # noiseless rotation

    def test_fringe_geometry_fit(self):
        # mean populations trace (N/2)(1 + C cos theta); a cosine fit to the
        # deterministic sweep recovers the contrast exactly
        from squeezesim.stats import fit_fringe
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
        s = replace(s, jz_mean=137.0)
        s2 = rotate(s, math.pi, 0.0)
        assert s2.jz_mean == pytest.approx(-137.0, rel=1e-9)

    def test_population_conservation(self):
        s = polarized_state(2e5, ENS, "down")
        for th, ph in ((math.pi / 2, 0.0), (0.3, 1.0), (math.pi, 0.5)):
            s = rotate(s, th, ph)
            total = s.pop_up + s.pop_down + s.pop_one
            assert total == pytest.approx(2e5, rel=1e-12)


def assert_same_bits(got, expected) -> None:
    """Each array of ``got``, broadcast to the shape of its counterpart in
    ``expected``, has the same bits, the sign of a zero included."""
    for have, want in zip(got, expected, strict=True):
        assert np.broadcast_to(have, want.shape).tobytes() == want.tobytes()


def arrays(s: EnsembleState) -> list:
    return [getattr(s, f.name) for f in fields(s)]


# a light shift, so that a probe window leaves an echo phase that a pulse
# folds into the contrast or negates
ECHOING = replace(sim(), light_shift_per_photon=1e-5)


class TestSharedNumbers:
    """A batch runs a number its trials share as a float, and a state its
    trials share as a batch of one; either gives the bits that numbers
    and states repeated over the batch give."""

    TRIALS = 5

    def shared_state(self, after: str, trials: int = 1) -> EnsembleState:
        s = tile(polarized_state(2e5, ENS, "down"), trials)
        if after == "probe":
            s = probe_measure(rotate(s, math.pi / 2, 0.0), ECHOING,
                              np.random.default_rng(7))[1]
        return s

    @pytest.mark.parametrize("after", ["pump", "probe"])
    @pytest.mark.parametrize("angle", [
        0.0, math.pi / 2, math.pi, math.pi * (1 + 1e-13),
        math.pi * (1 - 1e-13), 2 * math.pi])
    @pytest.mark.parametrize("phase", [0.0, -0.0, math.pi / 2])
    def test_rotate_gives_the_same_bits(self, after, angle, phase):
        one = self.shared_state(after)
        # a batch whose trials differ after a probe window
        batch = self.shared_state(after, self.TRIALS)
        each = np.full(self.TRIALS, angle), np.full(self.TRIALS, phase)
        for s in (one, batch):
            expected = arrays(rotate(s, angle, phase))
            assert_same_bits(expected, arrays(rotate(
                s, np.array([angle]), np.array([phase]))))
            assert_same_bits(expected, arrays(rotate(s, *each)))
        assert_same_bits(arrays(rotate(one, *each)),
                         arrays(rotate(tile(one, self.TRIALS), *each)))

    @staticmethod
    def probe(s, rng) -> list:
        outcome, new = probe_measure(s, ECHOING, rng)
        return [*vars(outcome).values(), *arrays(new)]

    @pytest.mark.parametrize("draw", [
        probe, lambda s, rng: arrays(apply_raman_diffusion(s, 4e4, sim(),
                                                           rng))],
        ids=["probe_measure", "apply_raman_diffusion"])
    def test_a_shared_state_draws_for_the_stream(self, draw):
        # a batch of one drawing on a stream broadcasts to its trials
        def stream():
            return state.BatchStream(
                [np.random.default_rng(k) for k in (1, 2)],
                [2, self.TRIALS - 2])

        one = rotate(self.shared_state("pump"), math.pi / 2, 0.0)
        got = draw(one, stream())
        assert max(a.size for a in got) == self.TRIALS
        assert_same_bits(got, draw(tile(one, self.TRIALS), stream()))


class TestHeisenberg:
    def test_fresh_css_at_unit_contrast(self):
        ens = EnsembleParams(n_effective=1e5, initial_contrast=1.0)
        s = prepare_css(1e5, ens)
        assert np.all(s.invariants()["Heisenberg product"])
        # equality: product exactly N/4 * N/4
        assert math.sqrt((s.jz_var * s.jy_var).item()) == pytest.approx(
            s.contrast * s.n_total / 4.0)

    def test_post_measurement_state(self):
        s = prepare_css(4.8e5, ENS)
        rng = np.random.default_rng(0)
        for _ in range(3):
            _, s = probe_measure(s, sim(), rng)
            assert np.all(s.invariants()["Heisenberg product"])

    def test_violation_detected(self):
        s = prepare_css(1e5, ENS)
        s = replace(s, jy_var=0.0)
        assert not np.all(s.invariants()["Heisenberg product"])


def off_equator_batch(trials: int = 64) -> EnsembleState:
    """A batch off the equator that carries a frequency offset and an echo
    phase, so that every field is nonzero somewhere."""
    s = rotate(polarized_state(2e5, ENS, "down"), 0.6 * math.pi, 0.3)
    return replace(tile(s, trials),
                   freq_offset=np.linspace(-1e3, 1e3, trials),
                   echo_phase=np.full(trials, 0.2))


class TestStatesAreValues:
    """Every operation returns a new state and leaves its input as it
    was, and no field of a state can be assigned."""

    @pytest.mark.parametrize("operation", [
        lambda s: rotate(s, math.pi / 2, 0.4),
        lambda s: rotate(s, np.where(np.arange(64) % 2, math.pi, 0.0), 0.0),
        lambda s: probe_measure(s, sim(), np.random.default_rng(3))[1],
        lambda s: probe_measure(s, IDEAL, np.random.default_rng(3))[1],
        lambda s: apply_raman_diffusion(s, 4e4, sim(),
                                        np.random.default_rng(4)),
        lambda s: apply_raman_diffusion(s, 4e4, sim(),
                                        np.random.default_rng(4),
                                        repump_to_up=True)],
        ids=["rotate", "rotate-some-zero-angles", "probe_measure",
             "probe_measure-ideal", "apply_raman_diffusion",
             "apply_raman_diffusion-repump"])
    def test_operation_leaves_its_input_bit_identical(self, operation):
        s = off_equator_batch()
        before = {f.name: getattr(s, f.name).copy() for f in fields(s)}
        new = operation(s)
        assert new is not s
        for name, value in before.items():
            assert getattr(s, name).tobytes() == value.tobytes(), name

    def test_fields_cannot_be_assigned(self):
        s = off_equator_batch()
        for f in fields(EnsembleState):
            with pytest.raises(FrozenInstanceError):
                setattr(s, f.name, np.zeros(64))


class TestRamanDiffusion:
    def test_zero_probabilities_identity(self):
        s = prepare_css(4.8e5, ENS)
        rng = np.random.default_rng(1)
        s2 = apply_raman_diffusion(
            s, 4.1e4, sim(tp=TransitionProbs(0.0, 0.0, 0.0, 0.0)), rng)
        assert s2.pop_up == s.pop_up and s2.pop_one == s.pop_one
        assert s2.jz_mean == s.jz_mean

    def test_net_change_variance_oracle(self):
        assert_inside(raman_net_change(), RAMAN_NET_BANDS)

    def test_source_population_weighting(self):
        assert_inside(source_weighting(), SOURCE_BANDS)

    @pytest.mark.parametrize("repump", [False, True])
    def test_channel_table_gives_the_written_out_channels(self, repump):
        # u->d, d->u, u->1, d->1 by hand: moves, persistent offsets, jumps
        s, trials = polarized_state(2e5, ENS, "down"), 64
        s = tile(rotate(s, 0.6 * math.pi, 0.0), trials)
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
        _, s2 = probe_measure(s, IDEAL, rng)
        r_contrib = 2.0 * s2.jz_var / (4.8e5 / 4.0)
        assert 1.0 / r_contrib == pytest.approx(32.0, rel=0.05)

    def test_uninformative_limit_keeps_prior(self):
        s = prepare_css(4.8e5, ENS)
        rng = np.random.default_rng(6)
        _, s2 = probe_measure(s, IDEAL.with_mt(1e-9), rng)
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
        out, s2 = probe_measure(s, IDEAL, rng)
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
        assert_inside(two_window_variance(), TWO_WINDOW_BANDS)

    def test_contrast_law_exact_when_deterministic(self):
        # with a definite Jz realization the decay law is exact per window
        n = 4.8e5
        s = prepare_css(n, ENS)
        s = replace(s, jz_var=1e-12)
        rng = np.random.default_rng(10)
        m_s = IDEAL_PROBE.m_t * scattered_ratio(n / 2.0, CAV)
        for k in range(1, 4):
            _, s = probe_measure(s, IDEAL, rng)
            assert s.contrast == pytest.approx(
                ENS.initial_contrast * math.exp(-k * m_s / n), rel=1e-9)

    def test_antisqueezing_inflates_jy(self):
        s = prepare_css(4.8e5, ENS)
        rng = np.random.default_rng(11)
        _, s2 = probe_measure(s, sim(), rng)
        assert s2.jy_var > s.jy_var
        assert np.all(s2.invariants()["Heisenberg product"])

    def test_ideal_measurement_back_action_evading(self):
        assert_inside(ideal_r_steps(), IDEAL_R_BANDS)

    def test_polarized_state_reads_clean(self):
        # pumped ensembles carry no lab-frame projection noise
        s = polarized_state(2.1e5, ENS, "down")
        rng = np.random.default_rng(13)
        out, _ = probe_measure(s, sim(IDEAL_PROBE, IDEAL_CAV,
                                      TransitionProbs(0.0, 0.0, 0.0, 0.0),
                                      ideal_coeffs(r_psn=1e-12)), rng)
        assert out.true_jz == s.jz_mean
        assert out.n_up == pytest.approx(0.0, abs=1e-3)


def kalman_and_grid(mu: float, sigma0: float, sigma_m: float,
                    z: float) -> tuple[float, float, float, float]:
    """The posterior mean and variance of the Kalman update of a normal
    prior by reading z, and of the same posterior on a 512-point grid."""
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
    return mean_kalman, var_kalman, mean_grid, var_grid


class TestBayesianGridOracle:
    @pytest.mark.parametrize("mu,sigma0,sigma_m,z", [
        (0.0, 346.4, 43.3, 60.0),
        (50.0, 346.4, 43.3, -200.0),
        (-120.0, 100.0, 150.0, 80.0),
        (0.0, 43.0, 43.0, 10.0),
    ])
    def test_kalman_equals_grid_posterior(self, mu, sigma0, sigma_m, z):
        mean_kalman, var_kalman, mean_grid, var_grid = kalman_and_grid(
            mu, sigma0, sigma_m, z)
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
        assert np.all(s.invariants()["Heisenberg product"])
