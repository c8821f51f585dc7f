"""The batched trial engine against the scalar engine it replaced.

``scalar_reference`` holds the single-trial code as it was before trials
were batched.  Every record of ``run_trials`` must equal that code's
``run_trial`` at the trial's seed, bit for bit (``n_up``, ``freq_hz``,
the prealign offset and ``true_jz``), over a grid of knobs that switches
each conditional draw and clamp on and off.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

import scalar_reference
from squeezesim.experiments import standard_protocol
from squeezesim.physics import scattered_ratio
from squeezesim.sequence import (
    CHUNK_TRIALS,
    RecordSet,
    SimParams,
    parse_protocol,
    run_trial,
    run_trials,
    trial_seed,
)
from squeezesim.state import (heisenberg_check, polarized_state,
                              probe_measure, rotate)

BASE = SimParams()
STANDARD = standard_protocol()
# a pump to up, a probe on a pole (no projection noise to draw), probes at
# a fixed strength (few Raman events, so the exact visible sums), a wait
# and pulses at odd phases
VARIED = parse_protocol("""\
prealign
pump up
probe Z mt=3000
pulse 90 0
probe A mt=1000
wait 0.001
pulse 180 45
probe B
pump down
pulse 90 30
probe C mt=20000.5
""")
TINY_N = BASE.with_n(8.0).with_mt(1e8)

CASES = {
    "default": (STANDARD, BASE, 120),
    "contrast_excess": (STANDARD, replace(BASE, contrast_excess=1.9), 120),
    "angle_noise": (STANDARD, replace(BASE, rotation_angle_noise=0.02), 80),
    "phase_noise": (STANDARD, replace(BASE, rotation_phase_noise=0.05), 80),
    "both_rotation_noises": (STANDARD, replace(
        BASE, rotation_angle_noise=0.01, rotation_phase_noise=0.03), 80),
    "light_shift_echo": (STANDARD, replace(
        BASE, light_shift_per_photon=2e-5), 80),
    "light_shift_noisy_echo": (STANDARD, replace(
        BASE, light_shift_per_photon=2e-5, rotation_angle_noise=0.01), 80),
    "lineshape_off": (STANDARD, replace(BASE, lineshape_penalty=0.0), 80),
    "lineshape_3": (STANDARD, replace(BASE, lineshape_penalty=3.0), 80),
    "varied_protocol": (VARIED, replace(BASE, contrast_excess=1.9,
                                        light_shift_per_photon=1e-5), 120),
    "power_clamp": (STANDARD, replace(
        BASE, probe=replace(BASE.probe, ms_classical_frac=30.0)), 120),
    "raman_clipping": (STANDARD, TINY_N, 120),
    "no_prealign_spread": (VARIED, replace(
        BASE, probe=replace(BASE.probe, detuning_spread=0.0)), 40),
    # an exact read: the Kalman update sets the Jz variance to 0
    "noiseless_read": (STANDARD, replace(
        BASE, coeffs=replace(BASE.coeffs, r_psn=0.0)), 80),
}


def assert_matches_reference(protocol, params, n_trials, master_seed):
    rs = run_trials(protocol, params, n_trials, master_seed)
    assert len(rs.trials) == n_trials
    for i, rec in enumerate(rs.trials):
        ref = scalar_reference.run_trial(protocol, params,
                                         trial_seed(master_seed, i))
        assert rec.seed == ref.seed
        assert rec.omega_p_offset_hz == ref.omega_p_offset_hz
        assert list(rec.outcomes) == list(ref.outcomes)
        for label, out in ref.outcomes.items():
            assert rec.outcomes[label].n_up == out.n_up, (i, label)
            assert rec.outcomes[label].freq_hz == out.freq_hz, (i, label)
        assert rec.true_jz_trace == pytest.approx(ref.true_jz_trace,
                                                  rel=1e-12, abs=0.0), i
        # the batch repeats the scalar arithmetic operation for operation,
        # with exp, atan2, cos and sin from the C library like the scalar
        # code, so the realized Jz agrees to the last bit as well
        assert rec.true_jz_trace == ref.true_jz_trace, i


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_equal_scalar_engine(name):
    protocol, params, n_trials = CASES[name]
    assert_matches_reference(protocol, params, n_trials, master_seed=11)


@pytest.mark.parametrize("n_trials", [1, CHUNK_TRIALS - 1, CHUNK_TRIALS,
                                      CHUNK_TRIALS + 1])
def test_chunk_boundaries_equal_scalar_engine(n_trials):
    assert_matches_reference(STANDARD, BASE, n_trials, master_seed=5)


def test_grid_reaches_the_clamp_and_the_clipping():
    # a trial's first draw is its power normal z; at a fractional spread
    # of 30 the clamp at 0.05 fires when 1 + 30 z < 0.05
    _, _, n_trials = CASES["power_clamp"]
    z = [np.random.default_rng(trial_seed(11, i)).standard_normal()
         for i in range(n_trials)]
    assert sum(1.0 + 30.0 * v < 0.05 for v in z) > n_trials // 4
    # at N = 8 and M_t = 1e8 the expected up-sourced Raman count far
    # exceeds the N/2 atoms that can leave the up state
    n = TINY_N.ensemble.n_effective
    m_s = TINY_N.probe.m_t * scattered_ratio(n / 2.0, TINY_N.cavity)
    tp = TINY_N.transitions
    assert (tp.p_ud + tp.p_u1) * m_s > n


def test_run_trial_is_a_batch_of_one():
    rs = run_trials(VARIED, BASE, 3, master_seed=2)
    seeds = [trial_seed(2, i) for i in range(3)]
    for seed, rec in zip(seeds, rs.trials):
        assert run_trial(VARIED, BASE, seed) == rec
    batch = run_trial(VARIED, BASE, seeds)
    assert batch.master_seed is None
    assert batch.trials == rs.trials
    assert RecordSet.concat([batch], master_seed=2) == rs


# ---------------------------------------------------------------------------
# state invariants


def healthy_state():
    return rotate(polarized_state(1e5, BASE.ensemble), np.pi / 2, 0.0)


@pytest.mark.parametrize("field,value,name", [
    ("pop_one", 10.0, "population conservation"),
    ("jz_var", -1.0, "non-negative variances"),
    ("jy_var", -1.0, "non-negative variances"),
    ("contrast", 1.5, "contrast in [0, 1]"),
    ("contrast", -0.1, "contrast in [0, 1]"),
    ("jy_var", 1.0, "Heisenberg product"),
    ("jz_var", 0.0, "Heisenberg product"),
])
def test_corrupted_state_trips_its_invariant(field, value, name):
    single = healthy_state()
    single.validate()
    setattr(single, field, value)
    with pytest.raises(ValueError,
                       match=re.escape(f"invariant violated: {name}")):
        single.validate()
    # in a batch the first trial that breaks it is named, with its seed
    batch = healthy_state().tile(5)
    batch.validate([10, 11, 12, 13, 14], first=100)
    column = getattr(batch, field).copy()
    column[[3, 4]] = value
    setattr(batch, field, column)
    with pytest.raises(ValueError) as err:
        batch.validate([10, 11, 12, 13, 14], first=100)
    assert str(err.value) == (
        f"state invariant violated: {name} in trial 103 (seed 13)")


def test_engine_names_trial_and_seed_of_a_violation(monkeypatch):
    import squeezesim.sequence as sequence

    real_rotate = sequence.rotate

    def corrupting_rotate(state, angle, phase):
        new = real_rotate(state, angle, phase)
        contrast = new.contrast.copy()
        contrast[-1] = 2.0
        new.contrast = contrast
        return new

    monkeypatch.setattr(sequence, "rotate", corrupting_rotate)
    n = CHUNK_TRIALS + 3
    with pytest.raises(ValueError) as err:
        run_trials(STANDARD, BASE, n, master_seed=4)
    last = CHUNK_TRIALS - 1
    assert str(err.value) == (
        f"state invariant violated: contrast in [0, 1] in trial {last} "
        f"(seed {trial_seed(4, last)})")


def test_exact_read_passes_the_heisenberg_check():
    # with r_psn = 0 a window leaves Jz variance 0 and inflates Jy variance
    # against the floored Jz variance, which the check uses too
    params = replace(BASE, coeffs=replace(BASE.coeffs, r_psn=0.0))
    state = healthy_state()
    _, after = probe_measure(state, params, [np.random.default_rng(1)])
    assert after.jz_var == 0.0
    after.validate()
    assert heisenberg_check(after)


def test_normal_runs_pass_the_invariant_checks():
    # every case above already runs with the checks on; add the default
    # protocol at every M_t of the sweep's range
    for m_t in (1e3, 1e4, 4.1e4, 1e5):
        rs = run_trials(STANDARD, BASE.with_mt(m_t), 50, master_seed=3)
        assert len(rs.trials) == 50


def bits(values) -> list:
    """The 64-bit patterns of some floats (so 0.0 differs from -0.0)."""
    return np.array(values, dtype=float).view(np.uint64).tolist()


def test_single_trial_calls_equal_scalar_engine():
    # a single trial is a batch of one; it must match the scalar engine
    # draw for draw and bit for bit, field by field
    from dataclasses import astuple
    from squeezesim.state import apply_raman_diffusion, prepare_css
    from squeezesim.state import probe_measure as batched_probe
    params = replace(BASE, contrast_excess=1.9, light_shift_per_photon=1e-5,
                     lineshape_penalty=3.0)
    for seed in range(40):
        ops = np.random.default_rng(seed)
        rng_new, rng_ref = (np.random.default_rng(seed) for _ in range(2))
        new = prepare_css(4.8e5, params.ensemble)
        ref = scalar_reference.EnsembleState(
            *(v.item() for v in astuple(new)))
        for _ in range(6):
            kind = int(ops.integers(0, 3))
            if kind == 0:
                angle = float(ops.choice([np.pi, np.pi / 2, ops.uniform(-4, 4)]))
                phase = float(ops.uniform(0.0, 2 * np.pi))
                new = rotate(new, angle, phase)
                ref = scalar_reference.rotate(ref, angle, phase)
            elif kind == 1:
                m_t, offset = float(ops.uniform(1e3, 1e5)), float(
                    ops.normal(0.0, 1e6))
                out, new = batched_probe(
                    new, params, [rng_new], m_t=m_t, detuning_offset=offset)
                out_ref, ref = scalar_reference.probe_measure(
                    ref, params.probe, params.cavity, params.transitions,
                    params.coeffs, rng_ref, m_t=m_t, detuning_offset=offset,
                    knobs=params)
                assert bits(np.concatenate(astuple(out))) == bits(
                    astuple(out_ref))
            else:
                m_s = float(ops.uniform(0.0, 1e5))
                new = apply_raman_diffusion(new, m_s, params, [rng_new])
                ref = scalar_reference.apply_raman_diffusion(
                    ref, m_s, params.transitions, rng_ref, params.cavity)
            assert all(v.shape == (1,) for v in astuple(new))
            assert bits(np.concatenate(astuple(new))) == bits(astuple(ref))
