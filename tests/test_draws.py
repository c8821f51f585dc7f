"""The seeds and bulk draws of the trial engine against numpy's own.

``trial_seed`` must give what ``SeedSequence`` gives.  A visible share is
0.5 c + sqrt(c/12) z, exactly and unclipped.  A batch's stream draws, for
each of its chunks, exactly what that chunk's generator draws alone, and
a probe window makes three bulk calls per chunk in a fixed order.  Probe
windows over every count regime give the scalar engine's records.
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
    assert_matches_reference,
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
    # a Poisson of mean 0 draws nothing
    assert two.poisson(0.0) == 0
    assert one.random() == two.random()


# ---------------------------------------------------------------------------
# the visible-share rule


def test_visible_share_is_its_gaussian_moments():
    rng = np.random.default_rng(20261018)
    events = rng.integers(0, 300, (5, 40))
    z = rng.standard_normal((5, 40))
    shares = state._visible_shares(events, z)
    assert shares.shape == events.shape
    assert shares.tolist() == [
        [0.5 * c + math.sqrt(c / 12.0) * x for c, x in zip(row, zs)]
        for row, zs in zip(events.tolist(), z.tolist())]


def test_no_event_has_no_visible_share():
    z = np.array([-1e300, -5.0, -0.0, 0.0, 3.0, 1e300])
    shares = state._visible_shares(np.zeros(z.shape, dtype=np.int64), z)
    assert shares.tolist() == [0.0] * z.size
    assert not np.any(np.signbit(shares))


def test_share_of_one_event_is_not_clipped():
    # a share enters only the reading, never a population, so a c = 1
    # share outside [0, 1] is kept: clipping would shrink its variance
    # below 1/12
    z = np.array([-3.0, 3.0])
    low, high = state._visible_shares(np.ones(2, dtype=np.int64), z)
    assert low == 0.5 - 3.0 * math.sqrt(1.0 / 12.0) and low < 0.0
    assert high == 0.5 + 3.0 * math.sqrt(1.0 / 12.0) and high > 1.0


# ---------------------------------------------------------------------------
# the streams of a batch


def test_stream_draws_equal_each_chunk_generators_own_calls():
    sizes = [3, 5, 1, 4]
    spans = np.cumsum([0] + sizes)
    rng = np.random.default_rng(7)
    lam = rng.uniform(0.0, 40.0, (4, sum(sizes)))

    def generators():
        return [np.random.default_rng(np.random.SeedSequence(
            3, spawn_key=(k,))) for k in range(len(sizes))]

    stream = BatchStream(generators(), sizes)
    drawn = [stream.normal(), stream.normal(4), stream.poisson(lam),
             stream.poisson(lam[0])]
    own = [[], [], [], []]
    for g, a, b in zip(generators(), spans, spans[1:]):
        own[0].append(g.standard_normal(b - a))
        own[1].append(g.standard_normal((4, b - a)))
        own[2].append(g.poisson(lam[:, a:b]))
        own[3].append(g.poisson(lam[0, a:b]))
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
    draw but normals and Poisson counts."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.calls = []
        self.normals = []

    def standard_normal(self, size=None):
        self.calls.append(("standard_normal", size))
        self.normals.append(self.rng.standard_normal(size))
        return self.normals[-1]

    def poisson(self, lam):
        self.calls.append(("poisson", np.shape(lam)))
        return self.rng.poisson(lam)

    def __getattr__(self, name):
        raise AssertionError(f"a probe window drew {name}")


@pytest.mark.parametrize("sizes", [[7], [3, 5]])
def test_probe_window_makes_three_calls_per_chunk(sizes, monkeypatch):
    params = SimParams()
    css = prepare_css(4.8e5, params.ensemble).tile(sum(sizes))
    recorders = [RecordingGenerator(k) for k in range(len(sizes))]
    rng = (recorders[0] if len(sizes) == 1
           else BatchStream(recorders, sizes))
    share_normals = []
    real = state._visible_shares

    def spy(events, z):
        share_normals.append(np.array(z))
        return real(events, z)

    monkeypatch.setattr(state, "_visible_shares", spy)
    probe_measure(css, params, rng)
    for rec, n in zip(recorders, sizes):
        assert rec.calls == [("standard_normal", (9, n)),
                             ("poisson", (4, n)), ("poisson", (n,))]
    # the shares take the last five rows of the normals, one per count
    assert np.array_equal(share_normals[0], np.concatenate(
        [rec.normals[0][4:] for rec in recorders], axis=-1))


# ---------------------------------------------------------------------------
# every count regime of a probe window, against the scalar engine

# probe strengths whose counts span the share rule's regimes: a recoil
# count of at most 64 with few Raman events (mt=40), where a Gaussian share
# departs most from a sum of uniforms; the up-to-one channel near 64 while
# the others are below (mt=3e4); three channels above 64 in a row
# (mt=1.2e5); all four above 64 (mt=3e5)
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
    seen = []
    real = state._visible_shares

    def spy(events, z):
        seen.append((events[:4].T, events[4]))
        return real(events, z)

    with monkeypatch.context() as patch:
        patch.setattr(state, "_visible_shares", spy)
        run_trials(protocol, params, n_trials, master_seed)
    return seen


def test_every_draw_path_equals_scalar_engine(monkeypatch):
    params = replace(SimParams(), contrast_excess=1.9)
    seen = window_draws(monkeypatch, DRAW_PATHS, params, 200,
                        master_seed=21)
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
    z = moment_z_scores(DRAW_PATHS, params, master_seed=21)
    worst = max(z, key=z.get)
    assert z[worst] <= K_SE, f"{worst}: {z[worst]:.2f} standard errors"
    with monkeypatch.context() as patch:
        feed_fixed_draws(patch)
        assert_matches_reference(DRAW_PATHS, params, 200, master_seed=21)
