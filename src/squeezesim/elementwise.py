"""Elementwise operations on one trial's floats or on a batch's arrays.

The trial engine runs one body of code for a single trial, whose values
are floats, and for a batch, whose values are numpy arrays with one element
per trial.  :func:`ops` picks the operation set for a value.  A trial's
arithmetic is the same in both sets, so its result does not depend on the
batch it ran in.
"""

from __future__ import annotations

import math

import numpy as np


class Floats:
    """One trial's floats: builtins and ``math``."""

    where = staticmethod(lambda cond, a, b: a if cond else b)
    any, maximum, minimum, trunc = bool, max, min, int
    sqrt, exp, atan2, cos, sin = (math.sqrt, math.exp, math.atan2, math.cos,
                                  math.sin)
    square = staticmethod(lambda x: x ** 2)
    each = staticmethod(lambda value, like: [value])
    columns = staticmethod(lambda rows: rows[0])


class Arrays:
    """A batch's arrays, one element per trial.

    The transcendental functions call the C library per element, as
    numpy's own can differ from it in the last bit, and ``square`` is C
    ``pow`` like Python's ``**``.
    """

    where, any, maximum, minimum, trunc, sqrt = (
        np.where, np.any, np.maximum, np.minimum, np.trunc, np.sqrt)
    exp, atan2, cos, sin = (np.vectorize(fn, otypes=[float]) for fn in (
        math.exp, math.atan2, math.cos, math.sin))
    square = staticmethod(lambda x: np.float_power(x, 2))

    @staticmethod
    def each(value, like) -> list:
        """Per-trial values of ``value``, for a batch shaped ``like``."""
        return np.broadcast_to(value, like.shape).tolist()

    @staticmethod
    def columns(rows: list) -> np.ndarray:
        """Per-trial rows of draws back to one array per column."""
        return np.array(rows).T


def ops(value) -> type[Floats] | type[Arrays]:
    """The operation set for ``value``: a batch's array or a float."""
    return Arrays if isinstance(value, np.ndarray) else Floats
