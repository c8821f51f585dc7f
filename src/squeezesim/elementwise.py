"""Elementwise operations on one trial's floats or on a batch's arrays.

The trial engine runs one body of code for a single trial, whose values
are floats, and for a batch, whose values are numpy arrays with one element
per trial.  :func:`ops` picks the operation set for a value.  A trial's
arithmetic is the same in both sets, so its result does not depend on the
batch it ran in.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np


class Floats:
    """One trial's floats: builtins and ``math``."""

    where = staticmethod(lambda cond, a, b: a if cond else b)
    any, maximum, minimum, trunc = bool, max, min, int
    sqrt, exp, atan2, cos, sin = (math.sqrt, math.exp, math.atan2, math.cos,
                                  math.sin)
    square = staticmethod(lambda x: x ** 2)
    # float arithmetic raises no numpy warnings to silence
    errstate = staticmethod(lambda **kw: contextlib.nullcontext())
    each = staticmethod(lambda value, like: [value])
    rows = staticmethod(lambda *columns: [columns])
    columns = staticmethod(lambda rows: rows[0])

    @staticmethod
    def segment_sums(values: np.ndarray, lengths: list) -> list:
        """The sum of each run of ``values`` of the given ``lengths``, in
        order, as numpy sums the run alone (a run of one is its value)."""
        out, at, total = [], 0, np.add.reduce
        for n in lengths:
            out.append(0.0 if not n else float(values[at]) if n == 1
                       else float(total(values[at:at + n])))
            at += n
        return out


class Arrays:
    """A batch's arrays, one element per trial.

    The transcendental functions call the C library per element, as
    numpy's own can differ from it in the last bit, and ``square`` is C
    ``pow`` like Python's ``**``.
    """

    where, any, maximum, minimum, sqrt = (
        np.where, np.any, np.maximum, np.minimum, np.sqrt)
    # integers, as ``int`` gives for a float: event counts size draws
    trunc = staticmethod(lambda x: np.trunc(x).astype(np.int64))
    exp, atan2, cos, sin = (np.vectorize(fn, otypes=[float]) for fn in (
        math.exp, math.atan2, math.cos, math.sin))
    square = staticmethod(lambda x: np.float_power(x, 2))
    errstate = staticmethod(np.errstate)

    @staticmethod
    def each(value, like) -> list:
        """Per-trial values of ``value``, for a batch shaped ``like``."""
        return np.broadcast_to(value, like.shape).tolist()

    @staticmethod
    def rows(*columns) -> list:
        """Per-trial rows of the values of ``columns``."""
        return np.array(np.broadcast_arrays(*columns)).T.tolist()

    @staticmethod
    def columns(rows: list) -> np.ndarray:
        """Per-trial rows of values back to one array per column."""
        return np.array(rows).T

    @staticmethod
    def segment_sums(values: np.ndarray, lengths: list) -> np.ndarray:
        """The sum of each run of ``values`` of the given ``lengths`` (one
        array per column, runs in trial then column order), as numpy sums
        the run alone: the runs of one length are summed together along
        the rows of a 2-D gather, which numpy sums row by row, pairwise,
        like each 1-D run."""
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


def ops(value) -> type[Floats] | type[Arrays]:
    """The operation set for ``value``: a batch's array or a float."""
    return Arrays if isinstance(value, np.ndarray) else Floats
