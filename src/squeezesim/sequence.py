"""Timed-protocol execution over seeded trials.

A protocol is an ordered list of steps in a small line-based language::

    # squeezing sequence
    prealign
    pump down
    pulse 90 0
    probe Nd
    pulse 180 0
    probe Np
    probe Nf

Steps: ``pump <up|down>``, ``pulse <deg> <phase_deg>``, ``prealign``,
``probe <label> [mt=<float>]`` and ``scatter <mt>`` (Raman scattering
with no reading).  Lines starting with ``#`` are comments.  Each step
kind is one class below: its keyword and form, its numbers and its run.
A step checks its fields when it is built, as the parameter dataclasses
do: a pump's target is up or down, and each number obeys its
``defaults.RULES["steps"]`` row (finite; a probe's m_t > 0, or None for
the configured one; a scatter's >= 0).  The parser names the line of a
step that breaks one.  Probe labels must be unique, and a probe of no
m_t needs a configured one > 0, checked before any trial runs.

Reproducibility contract: trial i of ``run_trials(protocol, params, n,
master_seed)`` belongs to chunk k = i // ``CHUNK_TRIALS`` (512, a fixed
constant), and chunk k draws from one generator,
``default_rng(SeedSequence(master_seed, spawn_key=(k,)))``.  A run's
records are a function of (protocol, params, n_trials, master_seed)
alone, and every full chunk is also independent of n_trials.  A trial has
no seed of its own: it is named by its index and the run's master seed.
``workers`` is checked (>= 1) and ignored; it goes once the benchmark
no longer passes it (``perfbench/reference.py``).

``run_grid`` runs a sequence of (protocol, params, master_seed) points,
each equal to its own ``run_trials``, which is a grid of one point.  The
whole chunks of a point, and of consecutive points of one shape (their
protocols equal but for the numbers of their pulses, probes and scatter
steps, their params but for ``probe.m_t``), run together as batches of at most
``BATCH_TRIALS`` (4096) trials: ``run_trial`` holds a batch's state and
each of those numbers as arrays over its trials, or as one value that
every trial shares, and each draw is one bulk call per chunk over that
chunk's trials, on the chunk's own generator (see ``state.BatchStream``),
so how chunks are batched changes no record.  A batch's steps are built
from checked steps' numbers, and are not checked again.  Every draw is of
normals, event counts included (from their Gaussian moments,
``state.gaussian_counts``).  ``run_trial`` knows a batch's trials only
as rows: ``run_grid`` alone maps them to points, trials and chunks.

A ``RecordSet`` holds a run's records as four read-only float64 arrays
with one row per trial: ``omega_p_offset_hz``, ``n_up`` and ``freq_hz``
(trials x probe labels) and ``true_jz`` (trials x windows).  ``run_trial``
stacks its windows' outcomes into a batch's arrays; ``run_grid``
allocates a point's four arrays when its first chunk runs, copies each
row into them once and hands them to ``RecordSet.from_columns``, which
keeps them uncopied.  ``RecordSet.trials`` gives ``TrialRecord`` values
on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .defaults import check_value
from .physics import TWO_PI, scattered_ratio
from .state import (BatchStream, InvariantError, SimParams,
                    apply_raman_diffusion, gaussian_counts, polarized_state,
                    probe_measure, rotate)

# trials per chunk of a run, each chunk drawing from a generator of its
# own: a fixed constant of the reproducibility contract
CHUNK_TRIALS = 512
# an index is one uint32 word of a seed sequence's spawn key
INDEX_LIMIT = 2**32
# the most trials of whole chunks run as one batch; no record depends on it
BATCH_TRIALS = 4096


class ProtocolError(ValueError):
    """Raised for malformed protocol text or unrunnable protocols."""


class _Step:
    """A step kind, one row of the protocol language: its keyword and
    arguments (``_form``), its step of their words (``_of``), the fields
    the points of one shape may differ in (``_numbers``, each checked when
    the step is built by the ``defaults.RULES["steps"]`` row
    ``<keyword>.<field>``), and its draws and its effect on a ``_Batch``
    (``_run``)."""

    _numbers = ()
    _unit = 1.0  # a number field's value per unit of its word
    _window = False  # a probe window, recorded under the step's label

    def __post_init__(self) -> None:
        for name in self._numbers:
            key = f"{self._form.split()[0]}.{name}"
            check_value("steps", key, getattr(self, name), key)

    @classmethod
    def _of(cls, words):
        return cls(*(float(word) * cls._unit if name in cls._numbers else word
                     for word, name in zip(words, cls.__dataclass_fields__)))


@dataclass(frozen=True)
class OpticalPump(_Step):
    target: str  # "up" | "down"

    _form = "pump <up|down>"

    def __post_init__(self) -> None:
        if self.target not in ("up", "down"):
            raise ValueError(f"pump.target must be 'up' or 'down' "
                             f"(got {self.target!r})")

    def _run(self, batch: _Batch) -> None:
        ens = batch.params.ensemble
        # pumping does not cool the ensemble
        batch.state = replace(
            polarized_state(ens.n_effective, ens, self.target),
            freq_offset=batch.state.freq_offset)


@dataclass(frozen=True)
class MicrowavePulse(_Step):
    angle: float  # rad
    phase: float  # rad

    _form = "pulse <deg> <phase_deg>"
    _numbers = ("angle", "phase")
    _unit = math.pi / 180.0  # rad per degree

    def _run(self, batch: _Batch) -> None:
        # with a knob at 0.0 the step's own number is the noisy one to the
        # bit, but for the sign of a -0.0 phase
        z_angle, z_phase = batch.stream.normal(2)
        params, angle, phase = batch.params, self.angle, self.phase
        if params.rotation_angle_noise:
            angle = angle * (1.0 + params.rotation_angle_noise * z_angle)
        if params.rotation_phase_noise:
            phase = phase + params.rotation_phase_noise * z_phase
        batch.state = rotate(batch.state, angle, phase)
        batch.state.validate()


@dataclass(frozen=True)
class ProbeStep(_Step):
    label: str
    m_t: float | None = None  # None -> take the configured default

    _form = "probe <label> [mt=<float>]"
    _numbers = ("m_t",)
    _window = True

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ValueError(f"probe.label must be a string "
                             f"(got {self.label!r})")
        if self.m_t is not None:
            super().__post_init__()

    def _run(self, batch: _Batch) -> None:
        outcome, batch.state = probe_measure(
            batch.state, batch.params, batch.stream,
            m_t=self.m_t * batch.power, detuning_offset=batch.delta_p)
        batch.state.validate()
        batch.windows.append((outcome.n_up, outcome.freq / TWO_PI,
                              outcome.true_jz))


@dataclass(frozen=True)
class Prealign(_Step):
    _form = "prealign"

    def _run(self, batch: _Batch) -> None:
        # adding 0.0 turns the -0.0 of a zero spread into 0.0
        batch.delta_p = (batch.params.probe.detuning_spread
                         * batch.stream.normal() + 0.0)


@dataclass(frozen=True)
class Scatter(_Step):
    m_t: float  # transmitted photons driving the scattering

    _form = "scatter <mt>"
    _numbers = ("m_t",)

    def _run(self, batch: _Batch) -> None:
        # Raman scattering with no reading at the half-polarized reference
        # flux, |1> repumped to up; recoil follows the up atoms
        params, stream = batch.params, batch.stream
        half = params.ensemble.n_effective / 2.0
        m_s = self.m_t * batch.power * scattered_ratio(half, params.cavity)
        state = apply_raman_diffusion(batch.state, m_s, params, stream,
                                      repump_to_up=True)
        recoil = TWO_PI * params.cavity.recoil_shift_per_photon * (
            gaussian_counts(m_s * np.maximum(state.pop_up, 0.0) / half,
                            stream.normal()))
        batch.state = replace(state, freq_offset=state.freq_offset - recoil)
        batch.state.validate()


# the step kinds by keyword
_KINDS = {kind._form.split()[0]: kind for kind in (
    OpticalPump, MicrowavePulse, ProbeStep, Prealign, Scatter)}


@dataclass(frozen=True)
class Protocol:
    steps: tuple[_Step, ...]

    def __post_init__(self) -> None:
        for step in self.steps:
            if not isinstance(step, _Step):
                raise ProtocolError(f"unhandled step {step!r}")
        labels = self.probe_labels
        if len(labels) != len(set(labels)):
            raise ProtocolError("duplicate probe labels in protocol")

    @property
    def probe_labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.steps if s._window)


def parse_protocol(text: str) -> Protocol:
    """Parse protocol text; raises :class:`ProtocolError` with line numbers,
    stating the expected form of a step given the wrong arguments."""
    steps: list[_Step] = []
    labels: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword, args = tokens[0].lower(), tokens[1:]
        try:
            if keyword not in _KINDS:
                raise ValueError(f"unknown step keyword {keyword!r}")
            kind = _KINDS[keyword]
            # the literal start of each place's word: "mt=" of "[mt=<float>]"
            starts = [place.strip("[]").partition("<")[0]
                      for place in kind._form.split()[1:]]
            if not (len(starts) - kind._form.count("[") <= len(args)
                    <= len(starts) and all(map(str.startswith, args, starts))):
                raise ValueError(f"expected: {kind._form}")
            step = kind._of([word[len(start):]
                             for word, start in zip(args, starts)])
            if step._window:
                if step.label in labels:
                    raise ValueError(f"duplicate probe label {step.label!r}")
                labels.add(step.label)
            steps.append(step)
        except ValueError as exc:
            raise ProtocolError(f"line {lineno}: {exc}") from exc
    return Protocol(tuple(steps))


@dataclass(frozen=True)
class LabeledOutcome:
    """What one probe window contributes to a trial record."""

    n_up: float
    freq_hz: float


@dataclass(frozen=True)
class TrialRecord:
    outcomes: dict[str, LabeledOutcome]
    true_jz_trace: tuple[float, ...]
    omega_p_offset_hz: float = 0.0


# a RecordSet's arrays, each with one row per trial
_ARRAYS = ("omega_p_offset_hz", "n_up", "freq_hz", "true_jz")


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float64 array, not copied if it is one."""
    arr = np.asarray(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class RecordSet:
    """The records of a run: its probe ``labels`` and four read-only
    float64 arrays, each with one row per trial.

    ``omega_p_offset_hz`` is a column; ``n_up`` and ``freq_hz`` are trials
    x labels, column k for ``labels[k]`` (protocol order); ``true_jz`` is
    trials x probe windows.  ``params`` is the parameter snapshot and
    ``master_seed`` the seed of the run's chunk generators (None for a
    chunk run on a generator given directly).

    ``RecordSet(trials, params, master_seed)`` builds the arrays once from
    a sequence of ``TrialRecord`` values, every trial with the same labels
    and trace length; ``RecordSet.from_columns`` takes the arrays as they
    are.  ``trials`` is a tuple view of ``TrialRecord`` values, built on
    first use and kept; ``len`` and ``column`` build nothing.  Two sets
    are equal when their parameters, master seeds, labels and every array
    are equal under float ``==``.  A set unpickles through ``from_columns``,
    read-only as well.
    """

    def __init__(self, trials, params: dict, master_seed: int | None) -> None:
        trials = tuple(trials)
        labels = tuple(trials[0].outcomes) if trials else ()
        if any(t.outcomes.keys() != set(labels) for t in trials):
            raise ValueError("every trial of a record set needs the same "
                             f"probe labels, the first has {labels}")
        widths = sorted({len(t.true_jz_trace) for t in trials})
        if len(widths) > 1:
            raise ValueError(f"ragged true_jz traces: trials have {widths} "
                             "windows; every trial needs the same number")
        n, k = len(trials), len(labels)
        self._fill(params, master_seed, labels,
                   [t.omega_p_offset_hz for t in trials],
                   *(np.reshape([[getattr(t.outcomes[lb], name)
                                  for lb in labels] for t in trials], (n, k))
                     for name in ("n_up", "freq_hz")),
                   np.reshape([t.true_jz_trace for t in trials],
                              (n, widths[0] if widths else 0)))

    @classmethod
    def from_columns(cls, params: dict, master_seed: int | None, *,
                     labels, omega_p_offset_hz, n_up, freq_hz,
                     true_jz) -> RecordSet:
        """A set of the given arrays, shaped as the class docstring says.
        It takes ownership: a float64 array is made read-only and kept,
        not copied, and the caller must not write to it afterwards."""
        rs = cls.__new__(cls)
        rs._fill(params, master_seed, labels, omega_p_offset_hz, n_up,
                 freq_hz, true_jz)
        return rs

    def _fill(self, params, master_seed, labels, *arrays) -> None:
        labels = tuple(labels)
        arrays = dict(zip(_ARRAYS, map(_frozen, arrays)))
        n = len(arrays["omega_p_offset_hz"])
        shapes = [a.shape for a in arrays.values()]
        if (shapes[:3] != [(n,), (n, len(labels)), (n, len(labels))]
                or len(shapes[3]) != 2 or shapes[3][0] != n):
            raise ValueError(f"records need one row per trial of {n}, and "
                             f"n_up and freq_hz a column per label of "
                             f"{len(labels)}; got shapes {shapes}")
        # the instance dict is written directly: attributes are read-only
        self.__dict__.update(arrays, labels=labels, params=params,
                             master_seed=master_seed)

    def __setattr__(self, name, value):
        raise AttributeError(f"a RecordSet is read-only; cannot set {name!r}")

    __hash__ = None

    def __reduce__(self):
        # rebuilt through from_columns, so its arrays come back read-only
        return (_unpickled, (self.params, self.master_seed, self.labels,
                             *(getattr(self, name) for name in _ARRAYS)))

    def __len__(self) -> int:
        return len(self.omega_p_offset_hz)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordSet):
            return NotImplemented
        return ((self.params, self.master_seed, self.labels)
                == (other.params, other.master_seed, other.labels)
                and all(np.array_equal(getattr(self, name),
                                       getattr(other, name))
                        for name in _ARRAYS))

    def __repr__(self) -> str:
        return (f"RecordSet({len(self)} trials, labels {self.labels}, "
                f"master_seed={self.master_seed!r})")

    def column(self, label: str) -> np.ndarray:
        """The read-only ``n_up`` column of probe ``label``."""
        if label not in self.labels:
            raise KeyError(f"no probe label {label!r} in records")
        return self.n_up[:, self.labels.index(label)]

    @cached_property
    def trials(self) -> tuple[TrialRecord, ...]:
        """The records as ``TrialRecord`` values, built on first use."""
        return tuple(
            TrialRecord(
                outcomes={lb: LabeledOutcome(u, f)
                          for lb, u, f in zip(self.labels, n_up, freq_hz)},
                true_jz_trace=tuple(trace), omega_p_offset_hz=offset)
            for offset, n_up, freq_hz, trace in zip(
                *(getattr(self, name).tolist() for name in _ARRAYS)))


def _unpickled(params, master_seed, labels, *arrays) -> RecordSet:
    """A pickled ``RecordSet``, rebuilt from its arrays."""
    return RecordSet.from_columns(params, master_seed, labels=labels,
                                  **dict(zip(_ARRAYS, arrays)))


def _resolved(protocol: Protocol, params: SimParams) -> Protocol:
    """``protocol`` with each probe of no strength (None) given the
    configured one; ProtocolError naming the first such probe if that
    strength is not > 0."""
    m_t = params.probe.m_t
    unset = [s._window and s.m_t is None for s in protocol.steps]
    if not any(unset):
        return protocol
    if not m_t > 0:
        label = protocol.steps[unset.index(True)].label
        raise ProtocolError(f"probe step {label!r} has m_t = {m_t}; probes "
                            "need a finite m_t > 0 (drop the step for a "
                            "no-probe sequence)")
    return Protocol(tuple(_copied(s, m_t=m_t) if none else s
                          for s, none in zip(protocol.steps, unset)))


class _Batch:
    """A batch's params and draws, and the state its steps change."""

    def __init__(self, params: SimParams, stream: BatchStream) -> None:
        ens, probe = params.ensemble, params.probe
        self.params, self.stream = params, stream
        # common probe-power fluctuation: the classical M_s noise channel
        self.power = np.maximum(
            1.0 + probe.ms_classical_frac * stream.normal(), 0.05)
        self.state = polarized_state(ens.n_effective, ens, "down")
        self.delta_p = np.zeros(stream.size)
        self.windows = []  # per probe window: (n_up, freq_hz, true_jz)


def run_trial(protocol: Protocol, params: SimParams, rng,
              n_trials: int) -> RecordSet:
    """Run one batch of ``n_trials`` trials of a protocol.

    ``rng`` is the batch's ``BatchStream``, or a lone generator that
    draws for a batch of one chunk.  A probe of no strength takes the
    configured one, refused before any draw unless > 0; the steps checked
    their own numbers when built.  Every draw is one bulk call per chunk
    over the chunk's trials: first the common probe-power fluctuation
    shared by all of a trial's windows, then each step's draws in protocol
    order; a pulse draws 2 normals per trial even with the rotation noise
    off; a scatter step draws 4 normals per trial for its Raman counts,
    then 1 for its recoil photons.  A pulse's angle and
    phase and a probe's or scatter's strength are floats or arrays with
    one value per trial, and the state is a batch of one until a draw or a
    per-trial number widens it.  The state invariants are checked after
    every rotation, probe window and scatter step; a broken one raises
    ``state.InvariantError``, naming the trial by its row of the batch.
    Returns the batch's records, ``master_seed`` None.
    """
    protocol = _resolved(protocol, params)
    batch = _Batch(params, BatchStream.of(rng, n_trials))
    for step in protocol.steps:
        step._run(batch)

    windows = batch.windows
    n_up, freq_hz, true_jz = np.reshape(
        windows, (len(windows), 3, n_trials)).transpose(1, 2, 0)
    return RecordSet.from_columns(
        params.snapshot(), None, labels=protocol.probe_labels,
        omega_p_offset_hz=batch.delta_p / TWO_PI, n_up=n_up,
        freq_hz=freq_hz, true_jz=true_jz)


def _check_seed(master_seed: int, index: int) -> None:
    """ValueError naming a master seed that is not a non-negative integer,
    or an index that is not an integer in [0, ``INDEX_LIMIT``)."""
    if not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
        raise ValueError(f"master_seed must be a non-negative integer, "
                         f"got {master_seed!r}")
    if not isinstance(index, (int, np.integer)) or not (
            0 <= index < INDEX_LIMIT):
        raise ValueError(f"trial index must be an integer in [0, 2**32), "
                         f"got {index!r}")


def _seed_sequence(master_seed: int, index: int) -> np.random.SeedSequence:
    """``SeedSequence(master_seed, spawn_key=(index,))``, its arguments
    checked by ``_check_seed``."""
    _check_seed(master_seed, index)
    return np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))


def trial_seed(master_seed: int, index: int) -> int:
    """A seed derived from a master seed and an index: the first uint64
    state word of ``SeedSequence(master_seed, spawn_key=(index,))``."""
    return int(_seed_sequence(master_seed, index).generate_state(
        1, np.uint64)[0])


def _copied(step: _Step, **fields) -> _Step:
    """A copy of ``step`` with ``fields``, not checked again: the instance
    dict is written directly, as the step is frozen."""
    new = object.__new__(type(step))
    new.__dict__.update(vars(step), **fields)
    return new


def _with_numbers(protocol: Protocol, numbers) -> Protocol:
    """``protocol`` with the numbers of its steps, in step order, from the
    iterable ``numbers``: checked steps' numbers, or arrays of them."""
    numbers = iter(numbers)
    return Protocol(tuple(_copied(s, **dict(zip(s._numbers, numbers)))
                          if s._numbers else s for s in protocol.steps))


def _batches(chunks, shapes):
    """Consecutive chunks (point, k, first, size) grouped into batches of
    at most ``BATCH_TRIALS`` trials of points of one shape."""
    batch, size = [], 0
    for chunk in chunks:
        if batch and (size + chunk[3] > BATCH_TRIALS
                      or shapes[chunk[0]] != shapes[batch[0][0]]):
            yield batch
            batch, size = [], 0
        batch.append(chunk)
        size += chunk[3]
    if batch:
        yield batch


def _run_points(points: list, n_trials: int):
    """``run_grid`` once its arguments are checked, each point's protocol
    resolved by ``_resolved``, each row written once."""
    # a point's steps but for their numbers, and its params but for
    # probe.m_t, without building a protocol or a SimParams
    shapes = [([(type(s), [v for k, v in vars(s).items()
                           if k not in s._numbers]) for s in protocol.steps],
               {**vars(params), "probe": {**vars(params.probe), "m_t": 0.0}})
              for protocol, params, _ in points]
    numbers = [[getattr(s, name) for s in protocol.steps
                for name in s._numbers] for protocol, _, _ in points]
    chunks = [(i, k, first, min(CHUNK_TRIALS, n_trials - first))
              for i in range(len(points))
              for k, first in enumerate(range(0, n_trials, CHUNK_TRIALS))]
    filling: dict[int, list] = {}
    for batch in _batches(chunks, shapes):
        point, k, first, size = zip(*batch)
        stream = BatchStream([np.random.default_rng(_seed_sequence(
            points[i][2], j)) for i, j in zip(point, k)], size)
        protocol, params, _ = points[point[0]]
        # a number every chunk shares, to the bit, stays one float
        table = np.array([numbers[i] for i in point], dtype=float).T
        try:
            rs = run_trial(_with_numbers(protocol, (
                float(row[0]) if row.tobytes() == row[:1].tobytes() * row.size
                else np.repeat(row, size) for row in table)),
                params, stream, stream.size)
        except InvariantError as exc:
            j = next(j for j, (_, hi) in enumerate(stream.spans)
                     if exc.row < hi)
            trial = first[j] + exc.row - stream.spans[j][0]
            where = f" of point {point[j]}" if len(points) > 1 else ""
            raise ValueError(
                f"state invariant violated: {exc.name} in trial {trial} "
                f"(chunk {k[j]}){where}") from None
        for i, a, n, (lo, hi) in zip(point, first, size, stream.spans):
            if a == 0:  # the point's first chunk
                filling[i] = [
                    np.empty((n_trials, *getattr(rs, name).shape[1:]))
                    for name in _ARRAYS]
            for array, name in zip(filling[i], _ARRAYS):
                array[a:a + n] = getattr(rs, name)[lo:hi]
            if a + n == n_trials:  # the point's last chunk: handed over
                yield RecordSet.from_columns(
                    points[i][1].snapshot(), int(points[i][2]),
                    labels=rs.labels, **dict(zip(_ARRAYS, filling.pop(i))))


def run_trials(protocol: Protocol, params: SimParams, n_trials: int,
               master_seed: int, workers: int | None = None) -> RecordSet:
    """Run ``n_trials`` trials seeded by ``master_seed``, as the module
    docstring's contract sets out.  ``workers`` changes nothing."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    return next(run_grid([(protocol, params, master_seed)], n_trials))


def run_grid(points, n_trials: int):
    """Run ``n_trials`` trials of each (protocol, params, master_seed)
    point, batching consecutive points of one shape together.

    Returns an iterator over the points' record sets, in order, each
    equal to its point's ``run_trials`` and built once its last chunk has
    run, so that only unfinished points' records are held.  The arguments
    are checked first.  In a grid of more than one point a state
    invariant violation names the point's index in ``points`` as well as
    the trial and its chunk.
    """
    check_value("cli", "n_trials", n_trials, "n_trials")
    resolved = []
    for protocol, params, seed in points:
        resolved.append((_resolved(protocol, params), params, seed))
        _check_seed(seed, 0)  # a bad seed fails before any trial runs
    return _run_points(resolved, n_trials)


def spin_noise_reduction(rs: RecordSet, final_label: str,
                         pre_label: str) -> float:
    """Sample variance of (N_final - N_pre) over CSS projection noise N/4."""
    if len(rs) < 2:
        raise ValueError("need at least 2 trials to estimate a variance")
    diff = rs.column(final_label) - rs.column(pre_label)
    n = rs.params["ensemble.n_effective"]
    return float(np.var(diff, ddof=1) / (n / 4.0))
