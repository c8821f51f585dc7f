"""The batched trial engine against the scalar engine it replaced.

``scalar_reference`` holds the single-trial code as it was before trials
were batched, each trial drawing from a generator of its own.  The batch
draws from one generator per chunk, in bulk and in another order, so the
two engines are compared two ways, over a grid of knobs that switches each
draw, clamp and branch on and off:

* fed the same variates (``FixedDraws``: every normal fixed, and every
  Poisson count the engine's count rule at that normal) and the same
  merged reading noise, every record is the scalar engine's to 1e-12;
* fed their own generators, every output column, and the difference of
  each pair of successive probe columns, has the scalar engine's mean and
  variance within ``K_SE`` standard errors.  The scalar engine draws
  exact Poisson counts, sums the visible share of up to 64 events from
  their uniform arrival times and draws each noise of a reading on its
  own, while the engine draws every count from its Gaussian moments and
  merges the shares and noises into one normal, so these comparisons
  also check that neither the shape of a count or a share nor the merge
  matters.
"""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import scalar_reference
from squeezesim.experiments import standard_protocol
from squeezesim.physics import scattered_ratio
import squeezesim.sequence as sequence
from squeezesim.sequence import (
    CHUNK_TRIALS,
    ProtocolError,
    RecordSet,
    SimParams,
    parse_protocol,
    run_grid,
    run_trial,
    run_trials,
    trial_seed,
)
import squeezesim.experiments as exp
from squeezesim.state import (BatchStream, InvariantError,
                              heisenberg_check, polarized_state,
                              probe_measure, rotate)

# the fixed variate of each normal; a Poisson count is the engine's count
# rule at it.  Z < 0 takes the power_clamp case below its clamp.
Z = -0.3
# the tolerance of a moment comparison in standard errors, fixed in advance
K_SE = 5.0
# trials per case of a moment comparison
ENGINE_TRIALS, SCALAR_TRIALS = 5000, 500

BASE = SimParams()
STANDARD = standard_protocol()
# a pump to up, a probe on a pole (no projection noise to draw), probes at
# a fixed strength (few Raman events, whose scalar shares are exact sums)
# and pulses at odd phases
VARIED = parse_protocol("""\
prealign
pump up
probe Z mt=3000
pulse 90 0
probe A mt=1000
pulse 180 45
probe B
pump down
pulse 90 30
probe C mt=20000.5
""")
# scatter steps on a pumped state and on a rotated one, each followed by
# a reading
SCATTERED = parse_protocol("""\
prealign
pump down
scatter 60000
probe D
pulse 90 0
scatter 30000.5
probe C
""")
TINY_N = BASE.with_n(8.0).with_mt(1e8)
# every knob that the default run leaves off, switched on
KNOBS = replace(BASE, contrast_excess=1.9, light_shift_per_photon=2e-5,
                rotation_angle_noise=0.01, rotation_phase_noise=0.02,
                lineshape_penalty=3.0)

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
    "scatter": (SCATTERED, BASE, 120),
}


class FixedDraws:
    """A generator whose every draw is fixed, whatever order and shape the
    draws come in: so the batched and the scalar engine see the same
    variates."""

    def standard_normal(self, size=None):
        return Z if size is None else np.full(size, Z)

    def poisson(self, lam):
        # the engine's count rule: max(0, rint(lam + sqrt(lam) z))
        return np.maximum(0.0, np.rint(lam + np.sqrt(lam) * Z))


def merged_reading_noise(counts, jumps, m_s, eps, read_sig, class_sig,
                         floor_sig, rng):
    """The engine's reading noise, for the scalar engine: the visible
    shares of the counts and the classical and floor noises as one normal
    of their summed variance, then the read noise."""
    n_phot = int(rng.poisson(m_s))
    mean = 0.5 * (sum(j * c for j, c in zip(jumps, counts)) - eps * n_phot)
    var = (class_sig ** 2 + floor_sig ** 2
           + (sum(j * j * c for j, c in zip(jumps, counts))
              + eps * eps * n_phot) / 12.0)
    noise = mean + math.sqrt(var) * rng.standard_normal()
    return noise, n_phot, read_sig * rng.standard_normal()


def feed_fixed_draws(patch) -> None:
    """Make every generator numpy makes a ``FixedDraws``, and have the
    scalar engine draw the noise of its readings by the engine's rule."""
    patch.setattr(np.random, "default_rng", lambda seed=None: FixedDraws())
    patch.setattr(scalar_reference, "_reading_noise", merged_reading_noise)


@pytest.fixture
def fixed_draws(monkeypatch):
    """Every generator numpy makes is a ``FixedDraws``, and both engines
    share one count rule and one reading noise."""
    feed_fixed_draws(monkeypatch)


def assert_matches_reference(protocol, params, n_trials, master_seed):
    """With fixed draws, every record of ``run_trials`` is the scalar
    engine's to 1e-12."""
    rs = run_trials(protocol, params, n_trials, master_seed)
    assert len(rs.trials) == n_trials
    ref = scalar_reference.run_trial(protocol, params, 0)
    for rec in rs.trials:
        assert list(rec.outcomes) == list(ref.outcomes)
        assert rec.omega_p_offset_hz == pytest.approx(
            ref.omega_p_offset_hz, rel=1e-12, abs=0.0)
        for label, out in ref.outcomes.items():
            assert rec.outcomes[label].n_up == pytest.approx(
                out.n_up, rel=1e-12, abs=0.0), label
            assert rec.outcomes[label].freq_hz == pytest.approx(
                out.freq_hz, rel=1e-12, abs=0.0), label
        assert rec.true_jz_trace == pytest.approx(ref.true_jz_trace,
                                                  rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_equal_scalar_engine(name, fixed_draws):
    protocol, params, n_trials = CASES[name]
    assert_matches_reference(protocol, params, n_trials, master_seed=11)


@pytest.mark.parametrize("n_trials", [1, CHUNK_TRIALS - 1, CHUNK_TRIALS,
                                      CHUNK_TRIALS + 1])
def test_chunk_boundaries_equal_scalar_engine(n_trials, fixed_draws):
    assert_matches_reference(STANDARD, BASE, n_trials, master_seed=5)


def columns(rs: RecordSet) -> dict[str, np.ndarray]:
    """Every output column of a record set, and the n_up difference of
    each pair of successive probe labels."""
    cols = {"omega_p_offset_hz": rs.omega_p_offset_hz}
    for k, lb in enumerate(rs.labels):
        cols[f"{lb} n_up"] = rs.n_up[:, k]
        cols[f"{lb} freq_hz"] = rs.freq_hz[:, k]
    for k, (a, b) in enumerate(zip(rs.labels, rs.labels[1:])):
        cols[f"{b} - {a} n_up"] = rs.n_up[:, k + 1] - rs.n_up[:, k]
    for w, trace in enumerate(rs.true_jz.T):
        cols[f"true_jz_{w + 1}"] = trace
    return cols


def moment_z_scores(protocol, params, master_seed: int) -> dict[str, float]:
    """How far apart the engine's and the scalar engine's moments are.

    The engine runs ``ENGINE_TRIALS`` trials at ``master_seed``; the scalar
    engine ``SCALAR_TRIALS`` trials at the seeds ``trial_seed(master_seed
    + 1, i)``.  For each column, its mean and its variance: the difference
    over its standard error, or 0 where the difference is within 1e-12 of
    the values (columns that do not vary).
    """
    ours = columns(run_trials(protocol, params, ENGINE_TRIALS, master_seed))
    ref = columns(RecordSet([
        scalar_reference.run_trial(protocol, params,
                                   trial_seed(master_seed + 1, i))
        for i in range(SCALAR_TRIALS)], {}, None))
    out = {}
    for name, a in ours.items():
        b = ref[name]
        dev_a, dev_b = (x - x.mean() for x in (a, b))
        sq_a, sq_b = dev_a * dev_a, dev_b * dev_b
        for stat, (va, vb), se2 in (
                ("mean", (a.mean(), b.mean()),
                 a.var() / a.size + b.var() / b.size),
                ("variance", (a.var(ddof=1), b.var(ddof=1)),
                 sq_a.var() / a.size + sq_b.var() / b.size)):
            diff = abs(va - vb)
            out[f"{name} {stat}"] = (
                0.0 if diff <= 1e-12 * max(abs(va), abs(vb))
                else diff / np.sqrt(se2))
    return out


def case_z_scores(name: str, k: int = 0) -> dict[str, float]:
    """``moment_z_scores`` of case ``name`` at master seed 11 + 2k."""
    protocol, params, _ = CASES[name]
    return moment_z_scores(protocol, params, 11 + 2 * k)


@pytest.mark.parametrize("name", sorted(CASES))
def test_column_moments_equal_scalar_engine(name):
    protocol = CASES[name][0]
    z = case_z_scores(name)
    assert len(z) >= 4 * len(protocol.probe_labels)
    worst = max(z, key=z.get)
    assert z[worst] <= K_SE, f"{worst}: {z[worst]:.2f} standard errors"


def test_grid_reaches_the_clamp_and_the_clipping():
    # a chunk's first draws are its trials' power normals z; at a
    # fractional spread of 30 the clamp at 0.05 fires when 1 + 30 z < 0.05
    _, _, n_trials = CASES["power_clamp"]
    z = np.random.default_rng(np.random.SeedSequence(
        11, spawn_key=(0,))).standard_normal(n_trials)
    assert np.count_nonzero(1.0 + 30.0 * z < 0.05) > n_trials // 4
    # at N = 8 and M_t = 1e8 the expected up-sourced Raman count far
    # exceeds the N/2 atoms that can leave the up state
    n = TINY_N.ensemble.n_effective
    m_s = TINY_N.probe.m_t * scattered_ratio(n / 2.0, TINY_N.cavity)
    tp = TINY_N.transitions
    assert (tp.p_ud + tp.p_u1) * m_s > n


def chunk_generator(master_seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed,
                                                        spawn_key=(k,)))


def joined(parts, params: SimParams, master_seed: int) -> RecordSet:
    """The trials of the record sets ``parts``, in order, as one set."""
    return RecordSet.from_columns(
        params.snapshot(), master_seed, labels=parts[0].labels,
        **{name: np.concatenate([getattr(rs, name) for rs in parts])
           for name in ("omega_p_offset_hz", "n_up", "freq_hz", "true_jz")})


def test_run_trial_is_a_batch_of_one():
    # run_trials gives each pulse and probe its numbers as arrays over the
    # batch's trials; run_trial here takes the protocol's own scalars
    for params, n in itertools.product((BASE, KNOBS),
                                       (1, 2 * CHUNK_TRIALS + 5)):
        rs = run_trials(VARIED, params, n, master_seed=2)
        firsts = range(0, n, CHUNK_TRIALS)
        stream = BatchStream(
            [chunk_generator(2, k) for k in range(len(firsts))],
            [min(CHUNK_TRIALS, n - first) for first in firsts])
        batch = run_trial(VARIED, params, stream, n)
        assert batch.master_seed is None and len(batch) == n
        assert joined([batch], params, 2) == rs


def test_full_chunk_is_run_trial_on_its_generator():
    n = 2 * CHUNK_TRIALS + 5
    rs = run_trials(STANDARD, BASE, n, master_seed=6)
    chunks = [run_trial(STANDARD, BASE, chunk_generator(6, k),
                        min(CHUNK_TRIALS, n - first))
              for k, first in enumerate(range(0, n, CHUNK_TRIALS))]
    assert [len(c) for c in chunks] == [CHUNK_TRIALS, CHUNK_TRIALS, 5]
    assert joined(chunks, BASE, 6) == rs


def test_full_chunks_do_not_depend_on_the_trial_count():
    whole = run_trials(STANDARD, BASE, CHUNK_TRIALS + 1, master_seed=8)
    part = run_trials(STANDARD, BASE, CHUNK_TRIALS, master_seed=8)
    assert part.trials == whole.trials[:CHUNK_TRIALS]


@pytest.mark.parametrize("protocol,params", [(VARIED, BASE),
                                             (STANDARD, KNOBS)],
                         ids=["varied", "knobs"])
def test_records_do_not_depend_on_the_batch_size(protocol, params,
                                                 monkeypatch):
    # a batch of one chunk, the default, and the whole run as one batch
    n = 2 * CHUNK_TRIALS + 5
    runs = [run_trials(protocol, params, n, master_seed=12)]
    for batch in (CHUNK_TRIALS, 10**6):
        monkeypatch.setattr(sequence, "BATCH_TRIALS", batch)
        runs.append(run_trials(protocol, params, n, master_seed=12))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].master_seed == 12 and len(runs[0]) == n


def test_each_point_is_built_once(monkeypatch):
    # a run of 12 one-chunk batches builds 12 batch record sets and one
    # for the point, however many batches it spans
    n = 12 * CHUNK_TRIALS
    default = run_trials(STANDARD, BASE, n, master_seed=21)
    monkeypatch.setattr(sequence, "BATCH_TRIALS", CHUNK_TRIALS)
    built = []
    real_from_columns = RecordSet.from_columns

    def spy(cls, *args, **kwargs):
        built.append(real_from_columns(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(RecordSet, "from_columns", classmethod(spy))
    rs = run_trials(STANDARD, BASE, n, master_seed=21)
    assert len(built) == 13 and built[-1] is rs
    assert rs == default


def fringe_protocol(final_phase: float, pre_mt: float):
    return parse_protocol(f"prealign\npump down\npulse 90 0\n"
                          f"probe Np mt={pre_mt}\npulse 90 {final_phase}\n"
                          "probe Nf")


# points that differ in a pulse phase, a probe's mt= and params.probe.m_t
# (the strength of Nf), with two points of other shapes after the third:
# another protocol, and other params than probe.m_t
MIXED = [(fringe_protocol(0, 2e4), KNOBS),
         (fringe_protocol(45, 2e4), KNOBS.with_mt(3e4)),
         (fringe_protocol(45, 5e3), KNOBS),
         (STANDARD, KNOBS),
         (fringe_protocol(90, 2e4), BASE),
         (fringe_protocol(135, 1e4), KNOBS.with_mt(1e4)),
         (fringe_protocol(0, 2e4), KNOBS)]
# the sizes of the batches MIXED runs as, at each (n_trials, BATCH_TRIALS)
MIXED_BATCHES = {(5, 4096): [15, 5, 5, 10],
                 (700, 4096): [2100, 700, 700, 1400],
                 (1500, 4096): [4024, 476, 1500, 1500, 3000],
                 (700, 1300): [1212, 888, 700, 700, 1212, 188]}


@pytest.mark.parametrize("n_trials,batch", [
    (5, 4096),
    # of the strengths grid: every point in one batch, a point split across
    # chunks
    (700, 4096),
    (1500, 4096),   # its last point split across two batches
    (700, 1300),    # its middle point split across two batches, each
                    # of which spans two points
])
def test_grid_points_equal_their_own_runs(n_trials, batch, monkeypatch):
    monkeypatch.setattr(sequence, "BATCH_TRIALS", batch)
    sizes = []
    real_run_trial = sequence.run_trial

    def spy(protocol, params, rng, size):
        sizes.append(size)
        return real_run_trial(protocol, params, rng, size)

    monkeypatch.setattr(sequence, "run_trial", spy)
    strengths = [(STANDARD, KNOBS.with_mt(m)) for m in np.logspace(3.5, 5, 3)]
    for points in (strengths, MIXED):
        seeds = [trial_seed(40, i) for i in range(len(points))]
        sizes.clear()
        grid = list(run_grid([(proto, params, seed) for (proto, params), seed
                              in zip(points, seeds)], n_trials))
        assert len(grid) == len(points)
        if points is MIXED:
            assert sizes == MIXED_BATCHES[n_trials, batch]
        for (proto, params), seed, rs in zip(points, seeds, grid):
            assert rs == run_trials(proto, params, n_trials, seed)
            assert (rs.params, rs.master_seed) == (params.snapshot(), seed)


def test_grid_arguments_are_checked_before_any_trial_runs():
    good = (STANDARD, BASE, 1)
    with pytest.raises(ValueError, match="master_seed"):
        run_grid([good, (STANDARD, BASE, -1)], 10)
    with pytest.raises(ValueError, match="n_trials"):
        run_grid([good], 0)
    with pytest.raises(ProtocolError, match="'Nd' has m_t = 0.0"):
        run_grid([good, (STANDARD, BASE.with_mt(0.0), 2)], 10)
    assert list(run_grid([], 10)) == []


@pytest.mark.parametrize("m_t,trials", [(2e4, 700), (0.0, 100)])
def test_fringe_points_equal_their_own_runs(m_t, trials):
    theta = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    res = exp.contrast_fringe(KNOBS, m_t, theta, trials, master_seed=19)
    head = "prealign\npump down\npulse 90 0\n" + (
        f"probe Np mt={m_t!r}\n" if m_t else "")
    assert res.mean_n_up == tuple(
        float(np.mean(run_trials(
            parse_protocol(f"{head}pulse 90 {math.degrees(th)!r}\nprobe Nf"),
            KNOBS, trials, trial_seed(19, 100_000 + i)).column("Nf")))
        for i, th in enumerate(theta))


@pytest.mark.parametrize("psi,premeasure", [(2.3e-3, True), (2.3e-3, False),
                                            (0.0, True)])
def test_phase_detection_arms_equal_their_own_runs(psi, premeasure):
    params = BASE.with_n(4.3e5)
    res = exp.phase_detection(params, psi, premeasure, trials=1000,
                              master_seed=7)
    arms = []
    for seed_index, applied in ((1, psi), (2, 0.0)):
        lines = ["prealign", "pump down", "pulse 90 0"]
        if premeasure:
            lines += ["probe Nd", "pulse 180 0", "probe Np"]
        if applied:
            lines.append(f"pulse {math.degrees(applied)!r} "
                         f"{180 if premeasure else 0}")
        rs = run_trials(parse_protocol("\n".join(lines + ["probe Nf"])),
                        params, 1000, trial_seed(7, 100_000 + seed_index))
        arms.append(rs.column("Nf") - rs.column("Np") if premeasure
                    else 2.0 * rs.column("Nf") - params.ensemble.n_effective)
    edges = np.linspace(min(a.min() for a in arms),
                        max(a.max() for a in arms), 41)
    assert res.hist_edges == tuple(edges)
    assert (res.hist_applied, res.hist_null) == tuple(
        tuple(np.histogram(a, bins=edges)[0].tolist()) for a in arms)


def test_records_do_not_depend_on_workers():
    one = run_trials(STANDARD, BASE, CHUNK_TRIALS + 3, 4, workers=1)
    assert run_trials(STANDARD, BASE, CHUNK_TRIALS + 3, 4, workers=4) == one


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
    single = replace(single, **{field: value})
    with pytest.raises(ValueError,
                       match=re.escape(f"invariant violated: {name}")):
        single.validate()
    # in a batch the first trial that breaks it is named by its row
    batch = healthy_state().tile(5)
    batch.validate()
    column = getattr(batch, field).copy()
    column[[3, 4]] = value
    batch = replace(batch, **{field: column})
    with pytest.raises(InvariantError) as err:
        batch.validate()
    assert (err.value.name, err.value.row) == (name, 3)
    assert str(err.value) == (
        f"state invariant violated: {name} in row 3 of the batch")


def corrupt_contrast_at(monkeypatch, position: int) -> None:
    """Every rotation whose state spans the batch leaves the trial at
    ``position`` of its batch with a contrast of 2.  A rotation before the
    first probe window acts on a state of one trial that every trial of
    the batch shares, and is left as it is."""
    real_rotate = sequence.rotate

    def corrupting_rotate(state, angle, phase):
        new = real_rotate(state, angle, phase)
        if new.contrast.size == 1:
            return new
        assert new.contrast.size > position  # the batch spans chunks
        contrast = new.contrast.copy()
        contrast[position] = 2.0
        return replace(new, contrast=contrast)

    monkeypatch.setattr(sequence, "rotate", corrupting_rotate)


def test_engine_names_trial_and_chunk_of_a_violation(monkeypatch):
    # a run of three chunks is one batch; its trial 712 is in chunk 1
    corrupt_contrast_at(monkeypatch, CHUNK_TRIALS + 200)
    n = 2 * CHUNK_TRIALS + 5
    with pytest.raises(ValueError) as err:
        run_trials(STANDARD, BASE, n, master_seed=4)
    assert str(err.value) == (
        f"state invariant violated: contrast in [0, 1] in trial "
        f"{CHUNK_TRIALS + 200} (chunk 1)")


def test_grid_names_trial_chunk_and_point_of_a_violation(monkeypatch):
    # two points of 700 trials are one batch; its trial 900 is trial 200
    # of the second point, in that point's chunk 0
    corrupt_contrast_at(monkeypatch, 900)
    with pytest.raises(ValueError) as err:
        list(run_grid([(STANDARD, BASE.with_mt(2e4), 3),
                       (STANDARD, BASE.with_mt(4e4), 4)], 700))
    assert str(err.value) == (
        "state invariant violated: contrast in [0, 1] in trial 200 "
        "(chunk 0) of point 1")


def test_exact_read_passes_the_heisenberg_check():
    # with r_psn = 0 a window leaves Jz variance 0 and inflates Jy variance
    # against the floored Jz variance, which the check uses too
    params = replace(BASE, coeffs=replace(BASE.coeffs, r_psn=0.0))
    state = healthy_state()
    _, after = probe_measure(state, params, np.random.default_rng(1))
    assert after.jz_var == 0.0
    after.validate()
    assert heisenberg_check(after)


def test_normal_runs_pass_the_invariant_checks():
    # every case above already runs with the checks on; add the default
    # protocol at every M_t of the sweep's range
    for m_t in (1e3, 1e4, 4.1e4, 1e5):
        rs = run_trials(STANDARD, BASE.with_mt(m_t), 50, master_seed=3)
        assert len(rs.trials) == 50


def test_single_trial_calls_equal_scalar_engine(fixed_draws):
    # a single trial is a batch of one; fed the same variates, each call
    # must give the scalar engine's state and outcome, field by field
    from dataclasses import astuple
    from squeezesim.state import apply_raman_diffusion, prepare_css
    params = replace(BASE, contrast_excess=1.9, light_shift_per_photon=1e-5,
                     lineshape_penalty=3.0)
    for seed in range(40):
        ops = np.random.Generator(np.random.PCG64(seed))
        rng = FixedDraws()
        new = prepare_css(4.8e5, params.ensemble)
        ref = scalar_reference.EnsembleState(
            *(v.item() for v in astuple(new)))
        for _ in range(6):
            kind = int(ops.integers(0, 3))
            if kind == 0:
                angle = float(ops.choice([np.pi, np.pi / 2,
                                          ops.uniform(-4, 4)]))
                phase = float(ops.uniform(0.0, 2 * np.pi))
                new = rotate(new, angle, phase)
                ref = scalar_reference.rotate(ref, angle, phase)
            elif kind == 1:
                m_t, offset = float(ops.uniform(1e3, 1e5)), float(
                    ops.normal(0.0, 1e6))
                out, new = probe_measure(
                    new, params, rng, m_t=m_t, detuning_offset=offset)
                out_ref, ref = scalar_reference.probe_measure(
                    ref, params.probe, params.cavity, params.transitions,
                    params.coeffs, rng, m_t=m_t, detuning_offset=offset,
                    knobs=params)
                assert np.concatenate(astuple(out)) == pytest.approx(
                    astuple(out_ref), rel=1e-12, abs=1e-9)
            else:
                m_s = float(ops.uniform(0.0, 1e5))
                new = apply_raman_diffusion(new, m_s, params, rng)
                ref = scalar_reference.apply_raman_diffusion(
                    ref, m_s, params.transitions, rng, params.cavity)
            assert all(v.shape == (1,) for v in astuple(new))
            assert np.concatenate(astuple(new)) == pytest.approx(
                astuple(ref), rel=1e-12, abs=1e-9)
