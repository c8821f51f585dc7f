"""The seeds and bulk draws of the trial engine against numpy's own.

``trial_seed`` must give what ``SeedSequence`` gives.  A count is
max(0, rint(lam + sqrt(lam) z)), with its Poisson mean and variance from a
mean of 3 on.  The visible shares of a reading and its technical noise
are one normal, 0.5 sum(jump c) + sqrt(tech_var + sum(jump^2 c)/12) z,
exactly and unclipped.  A batch's stream draws, for each of its chunks,
exactly what that chunk's generator draws alone, and a probe window makes
one bulk call of normals per chunk.  Probe windows over every count
regime give the scalar engine's records.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squeezesim.state as state
from squeezesim.sequence import (
    INDEX_LIMIT,
    SimParams,
    parse_protocol,
    run_trials,
    trial_seed,
)
from squeezesim.state import BatchStream, prepare_css, probe_measure
from test_engine import (
    CASES,
    assert_matches_reference,
    case_z_scores,
    feed_fixed_draws,
    moment_z_scores,
    K_SE,
)


def seed_sequence_seed(master: int, index: int) -> int:
    ss = np.random.SeedSequence(master, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


MASTERS = st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                    st.integers(2**32, 2**128), st.integers(2**128, 2**200))
INDICES = st.one_of(st.sampled_from([0, 1, INDEX_LIMIT - 1]),
                    st.integers(0, INDEX_LIMIT - 1))


@settings(deadline=None)
@given(master=MASTERS, index=INDICES)
def test_trial_seed_equals_seed_sequence(master, index):
    expected = seed_sequence_seed(master, index)
    assert trial_seed(master, index) == expected
    assert type(trial_seed(master, index)) is int


@pytest.mark.parametrize("master,index,named", [
    (-1, 0, "master_seed"),
    (2.0, 0, "master_seed"),
    (3, -1, "trial index"),
    (3, INDEX_LIMIT, "trial index"),
    (3, 1.5, "trial index"),
    (3, np.array([4, INDEX_LIMIT + 7]), "trial index"),
])
def test_seed_out_of_range_is_named(master, index, named):
    with pytest.raises(ValueError, match=named) as err:
        trial_seed(master, index)
    bad = master if named == "master_seed" else np.max(index)
    assert str(bad) in str(err.value)


# ---------------------------------------------------------------------------
# merged draws


@pytest.mark.parametrize("a,b", [(1, 1), (3, 64), (64, 5), (17, 40)])
def test_merged_draws_equal_separate_calls(a, b):
    one, two = np.random.default_rng(a * 100 + b), np.random.default_rng(
        a * 100 + b)
    assert one.random(a + b).tolist() == (two.random(a).tolist()
                                          + two.random(b).tolist())
    assert one.standard_normal(a + b).tolist() == (
        two.standard_normal(a).tolist() + two.standard_normal(b).tolist())
    assert one.random() == two.random()


# ---------------------------------------------------------------------------
# the count rule


def test_counts_are_non_negative_integers_and_mean_zero_gives_zero():
    rng = np.random.default_rng(20261019)
    lam = rng.uniform(0.0, 30.0, (4, 500))
    lam[:, :50] = 0.0
    z = rng.standard_normal(lam.shape) * 4.0
    counts = state.gaussian_counts(lam, z)
    assert counts.shape == lam.shape
    assert np.all(counts >= 0) and np.all(counts == np.round(counts))
    assert np.any(counts[:, 50:] == 0)  # the clip at zero fires
    assert not np.any(counts[:, :50])
    assert counts.tolist() == [
        [max(0.0, float(np.rint(m + math.sqrt(m) * x))) for m, x in
         zip(row, zs)] for row, zs in zip(lam.tolist(), z.tolist())]


@pytest.mark.parametrize("lam", [3.0, 10.0, 1e2, 1e4])
def test_counts_have_their_poisson_moments(lam):
    # the normals are 2**20 equal-probability quantiles, so the moments
    # are the rule's own to about 1e-5, with no sampling error
    from scipy.special import ndtri
    z = ndtri((np.arange(2**20) + 0.5) / 2**20)
    counts = state.gaussian_counts(np.full(z.size, lam), z)
    assert counts.mean() == pytest.approx(lam, rel=0.01)
    assert counts.var() == pytest.approx(lam, rel=0.05)


# ---------------------------------------------------------------------------
# the visible-share rule

JUMPS = (-2.0, 2.0, 0.5, 1.5, -0.25)


def test_visible_share_is_its_gaussian_moments():
    rng = np.random.default_rng(20261018)
    events = rng.integers(0, 300, (5, 40))
    tech_var = rng.uniform(0.0, 50.0, 40)
    z = rng.standard_normal(40)
    shares = state._visible_share(JUMPS, events, tech_var, z)
    assert shares.shape == z.shape
    assert shares == pytest.approx([
        0.5 * sum(j * c for j, c in zip(JUMPS, cs))
        + math.sqrt(v + sum(j * j * c for j, c in zip(JUMPS, cs)) / 12.0)
        * x for cs, v, x in zip(events.T.tolist(), tech_var, z)],
        rel=1e-14, abs=0.0)


def test_no_event_has_no_visible_share():
    z = np.array([-1e300, -5.0, -0.0, 0.0, 3.0, 1e300])
    shares = state._visible_share(
        JUMPS, np.zeros((5, z.size), dtype=np.int64), 0.0, z)
    assert shares.tolist() == [0.0] * z.size
    assert not np.any(np.signbit(shares))


def test_share_of_one_event_is_not_clipped():
    # a share enters only the reading, never a population, so a c = 1
    # share outside [0, 1] is kept: clipping would shrink its variance
    # below 1/12
    z = np.array([-3.0, 3.0])
    low, high = state._visible_share((1.0,), (np.ones(2, dtype=np.int64),),
                                     0.0, z)
    assert low == 0.5 - 3.0 * math.sqrt(1.0 / 12.0) and low < 0.0
    assert high == 0.5 + 3.0 * math.sqrt(1.0 / 12.0) and high > 1.0


# ---------------------------------------------------------------------------
# the streams of a batch


def test_stream_draws_equal_each_chunk_generators_own_calls():
    sizes = [3, 5, 1, 4]
    spans = np.cumsum([0] + sizes)

    def generators():
        return [np.random.default_rng(np.random.SeedSequence(
            3, spawn_key=(k,))) for k in range(len(sizes))]

    stream = BatchStream(generators(), sizes)
    drawn = [stream.normal(), stream.normal(4)]
    own = [[], []]
    for g, a, b in zip(generators(), spans, spans[1:]):
        own[0].append(g.standard_normal(b - a))
        own[1].append(g.standard_normal((4, b - a)))
    for got, parts in zip(drawn, own):
        expected = np.concatenate(parts, axis=-1)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_lone_generator_is_a_stream_of_one_chunk():
    one = BatchStream.of(np.random.default_rng(5), 6)
    assert one.spans == ((0, 6),) and one.size == 6
    assert BatchStream.of(one, 6) is one
    assert np.array_equal(one.normal(2),
                          np.random.default_rng(5).standard_normal((2, 6)))
    # a stream of one trial would broadcast its variates over a batch
    with pytest.raises(ValueError, match="stream of 1 trials cannot draw "
                                         "for 6"):
        BatchStream.of(BatchStream.of(np.random.default_rng(5), 1), 6)
    with pytest.raises(ValueError, match="one generator for each"):
        BatchStream([np.random.default_rng(5)], [2, 3])


class RecordingGenerator:
    """A generator that records each draw made of it and fails on any
    draw but normals."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.calls = []
        self.normals = []

    def standard_normal(self, size=None):
        self.calls.append(("standard_normal", size))
        self.normals.append(self.rng.standard_normal(size))
        return self.normals[-1]

    def __getattr__(self, name):
        raise AssertionError(f"a probe window drew {name}")


def spy_on(patch, name: str, seen: list) -> None:
    """Record the arguments of each call of ``state.<name>`` in ``seen``."""
    real = getattr(state, name)

    def spy(*args):
        seen.append(args)
        return real(*args)

    patch.setattr(state, name, spy)


@pytest.mark.parametrize("sizes", [[7], [3, 5]])
def test_probe_window_makes_one_call_per_chunk(sizes, monkeypatch):
    params = SimParams()
    css = prepare_css(4.8e5, params.ensemble).tile(sum(sizes))
    recorders = [RecordingGenerator(k) for k in range(len(sizes))]
    rng = (recorders[0] if len(sizes) == 1
           else BatchStream(recorders, sizes))
    counted, shared = [], []
    spy_on(monkeypatch, "gaussian_counts", counted)
    spy_on(monkeypatch, "_visible_share", shared)
    probe_measure(css, params, rng)
    for rec, n in zip(recorders, sizes):
        assert rec.calls == [("standard_normal", (8, n))]
    rows = np.concatenate([rec.normals[0] for rec in recorders], axis=-1)
    # the merged reading noise takes row 2, the four Raman counts rows 3
    # to 6 and the recoil photon count row 7
    assert np.array_equal(shared[0][3], rows[2])
    assert np.array_equal(counted[0][1], rows[3:7])
    assert np.array_equal(counted[1][1], rows[7])


# ---------------------------------------------------------------------------
# every count regime of a probe window, against the scalar engine

# probe strengths whose counts span the share rule's regimes: a recoil
# count of at most 64 with few Raman events (mt=40), where a Gaussian count
# and share depart most from a Poisson count and a sum of uniforms; the
# up-to-one channel near 64 while the others are below (mt=3e4); three
# channels above 64 in a row (mt=1.2e5); all four above 64 (mt=3e5)
DRAW_PATHS = parse_protocol("""\
prealign
pump down
pulse 90 0
probe W mt=40
probe M mt=30000
pulse 180 0
probe H mt=120000
probe A mt=300000
""")


def window_draws(monkeypatch, protocol, params, n_trials, master_seed):
    """The Raman counts (trials x channels) and recoil photon counts of
    every probe window."""
    shared = []
    with monkeypatch.context() as patch:
        spy_on(patch, "_visible_share", shared)
        run_trials(protocol, params, n_trials, master_seed)
    return [(np.transpose(events[:4]), events[4])
            for _, events, _, _ in shared]


DRAW_PARAMS = replace(SimParams(), contrast_excess=1.9)
DRAW_SEED = 21
# the largest moment z-score of every moment comparison, a gate (see
# gates.py); z-scores are >= 0
MOMENT_BANDS = {"moments largest z, every case": (0.0, K_SE)}


def draw_path_z_scores(k: int = 0) -> dict[str, float]:
    """``moment_z_scores`` of the draw paths at master seed DRAW_SEED + 2k."""
    return moment_z_scores(DRAW_PATHS, DRAW_PARAMS, DRAW_SEED + 2 * k)


def largest_moment_z(k: int) -> dict[str, float]:
    """The largest z-score of every test_engine case and the draw paths."""
    scores = [case_z_scores(name, k) for name in CASES]
    scores.append(draw_path_z_scores(k))
    return {"moments largest z, every case": max(max(z.values())
                                                 for z in scores)}


def test_every_draw_path_equals_scalar_engine(monkeypatch):
    seen = window_draws(monkeypatch, DRAW_PATHS, DRAW_PARAMS, 200,
                        master_seed=DRAW_SEED)
    counts = np.vstack([c for c, _ in seen])
    photons = np.concatenate([p for _, p in seen])
    # the scalar engine sums the share of at most 64 events from their
    # arrival times and draws a larger one from its normal; the windows
    # reach both, within one trial's window too, so the moment comparison
    # sets Gaussian shares against exact sums of every size
    small, big = (counts > 0) & (counts <= 64), counts > 64
    assert np.any(small.any(axis=1) & big.any(axis=1))
    assert np.any(big[:, 0] & big[:, 1] & big[:, 2])
    assert np.any(big.all(axis=1))
    assert np.any(counts == 1)
    assert np.any((photons > 0) & (photons <= 64))
    assert np.any(photons > 64)
    z = draw_path_z_scores()
    worst = max(z, key=z.get)
    assert z[worst] <= K_SE, f"{worst}: {z[worst]:.2f} standard errors"
    with monkeypatch.context() as patch:
        feed_fixed_draws(patch)
        assert_matches_reference(DRAW_PATHS, DRAW_PARAMS, 200,
                                 master_seed=DRAW_SEED)
