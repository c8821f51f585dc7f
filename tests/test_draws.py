"""The seeds and bulk draws of the trial engine against numpy's own.

``trial_seed`` must give what ``SeedSequence`` gives, and the per-run sums
of the visible shares, taken for a whole batch at once, the exact sum of
each run alone to rounding (1e-15).  A batch's stream draws, for each of
its chunks, exactly what that chunk's generator draws alone.  Every draw
path of a probe window is reached, and gives the scalar engine's
records.
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
from squeezesim.state import BatchStream, segment_sums
from test_engine import (
    FixedDraws,
    assert_matches_reference,
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
# merged draws and batch-wide sums


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


def test_segment_sums_equal_one_dimensional_sums():
    rng = np.random.default_rng(20261018)
    # every length from 1 to 64, each several times in several columns,
    # with empty runs between them
    lengths = np.array([rng.permutation(65) for _ in range(6)])
    values = 1.0 - rng.random(int(lengths.sum()))
    starts = np.cumsum(lengths.ravel()) - lengths.ravel()
    expected = [math.fsum(values[a:a + n])
                for a, n in zip(starts, lengths.ravel())]
    batch = segment_sums(values, lengths)
    assert batch.shape == lengths.shape
    assert batch.ravel() == pytest.approx(expected, rel=1e-15, abs=0.0)
    for n in range(1, 65):
        u = rng.random(n)
        assert segment_sums(1.0 - u, [n])[0] == pytest.approx(
            math.fsum(1.0 - u), rel=1e-15, abs=0.0)


def test_runs_of_one_take_values_in_trial_then_column_order():
    # runs lie in the C order of the lengths: along a row, then row by row
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    runs = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
    assert segment_sums(values, runs).tolist() == [
        [1.0, 0.0, 2.0], [0.0, 3.0, 4.0], [5.0, 6.0, 7.0]]


def test_stream_draws_equal_each_chunk_generators_own_calls():
    sizes = [3, 5, 1, 4]
    spans = np.cumsum([0] + sizes)
    rng = np.random.default_rng(7)
    lam = rng.uniform(0.0, 40.0, (4, sum(sizes)))
    lengths = rng.integers(0, 9, (5, sum(sizes)))

    def generators():
        return [np.random.default_rng(np.random.SeedSequence(
            3, spawn_key=(k,))) for k in range(len(sizes))]

    stream = BatchStream(generators(), sizes)
    drawn = [stream.normal(), stream.normal(4), stream.poisson(lam),
             stream.poisson(lam[0]), stream.uniform_sums(lengths)]
    own = [[], [], [], [], []]
    for g, a, b in zip(generators(), spans, spans[1:]):
        own[0].append(g.standard_normal(b - a))
        own[1].append(g.standard_normal((4, b - a)))
        own[2].append(g.poisson(lam[:, a:b]))
        own[3].append(g.poisson(lam[0, a:b]))
        block = lengths[:, a:b]
        own[4].append(segment_sums(1.0 - g.random(int(block.sum())), block))
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


# ---------------------------------------------------------------------------
# every draw path of a probe window, against the scalar engine

# probe strengths that give: a recoil count of at most 64 with few Raman
# events (mt=40); the up-to-one channel near 64 while the others are below
# (mt=3e4); three channels above 64 in a row (mt=1.2e5); all four above 64
# (mt=3e5)
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

    def spy(rng, events):
        seen.append((events[:4].T, events[4]))
        return real(rng, events)

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
    small, big = (counts > 0) & (counts <= 64), counts > 64
    # one trial's window mixes exact and approximated Raman shares
    assert np.any(small.any(axis=1) & big.any(axis=1))
    # consecutive channels above 64 share one normal call, and all four too
    assert np.any(big[:, 0] & big[:, 1] & big[:, 2])
    assert np.any(big.all(axis=1))
    # a recoil share from its uniform arrival times, and from its normal
    assert np.any((photons > 0) & (photons <= 64))
    assert np.any(photons > 64)
    z = moment_z_scores(DRAW_PATHS, params, master_seed=21)
    worst = max(z, key=z.get)
    assert z[worst] <= K_SE, f"{worst}: {z[worst]:.2f} standard errors"
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", lambda seed=None: FixedDraws())
        assert_matches_reference(DRAW_PATHS, params, 200, master_seed=21)


def test_default_engine_case_mixes_exact_and_normal_shares(monkeypatch):
    # the default case of test_engine reaches the mixed windows: at
    # M_t = 4.1e4 the up-to-one channel is above 64 and the others below
    from test_engine import CASES
    protocol, params, n_trials = CASES["default"]
    seen = window_draws(monkeypatch, protocol, params, n_trials,
                        master_seed=11)
    mixed = sum(int(np.count_nonzero(((c > 0) & (c <= 64)).any(axis=1)
                                     & (c > 64).any(axis=1)))
                for c, _ in seen)
    assert mixed > n_trials
