"""Elementwise operations of the trial engine whose results differ from
numpy's own.

The engine's state holds each field as an array over a batch of trials (a
single trial is a batch of one), and every formula is plain numpy code
except for these few, which keep a trial's arithmetic independent of the
batch it ran in: the transcendental functions call the C library per
element, as numpy's own can differ from it in the last bit, ``square`` is
C ``pow`` like Python's ``**``, ``trunc`` gives integers, as ``int`` does
for a float, and ``segment_sums`` sums each run as numpy sums the run
alone.
"""

from __future__ import annotations

import math

import numpy as np

exp, atan2, cos, sin = (np.vectorize(fn, otypes=[float]) for fn in (
    math.exp, math.atan2, math.cos, math.sin))


def square(x):
    return np.float_power(x, 2)


def trunc(x) -> np.ndarray:
    # integers: event counts size draws
    return np.trunc(x).astype(np.int64)


def segment_sums(values: np.ndarray, lengths: list) -> np.ndarray:
    """The sum of each run of ``values`` of the given ``lengths`` (one
    array per column, runs in trial then column order), as numpy sums the
    run alone: the runs of one length are summed together along the rows
    of a 2-D gather, which numpy sums row by row, pairwise, like each 1-D
    run."""
    flat = np.array(np.broadcast_arrays(*lengths), dtype=np.int64)
    flat = flat.T.ravel()
    starts = np.cumsum(flat) - flat
    order = np.argsort(flat)
    edges = [0, *(np.flatnonzero(np.diff(flat[order])) + 1).tolist(),
             flat.size]
    out = np.zeros(flat.size)
    for a, b in zip(edges[:-1], edges[1:]):
        at, n = order[a:b], int(flat[order[a]])
        if n:
            out[at] = np.add.reduce(
                values[starts[at, None] + np.arange(n)], axis=1)
    return out.reshape(-1, len(lengths)).T
