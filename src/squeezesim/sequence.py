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

Steps: ``pump <up|down>``, ``pulse <deg> <phase_deg>``,
``probe <label> [mt=<float>]``, ``prealign``, ``wait <seconds>``.  Lines
starting with ``#`` are comments.  Probe labels must be unique, every
number finite and a wait non-negative.

Reproducibility contract: trial i of ``run_trials(protocol, params, n,
master_seed)`` belongs to chunk k = i // ``CHUNK_TRIALS`` (512, a fixed
constant), and chunk k draws from one generator,
``default_rng(SeedSequence(master_seed, spawn_key=(k,)))``.  A run's
records are a function of (protocol, params, n_trials, master_seed)
alone, and every full chunk is also independent of n_trials.  A trial has
no seed of its own: it is named by its index and the run's master seed.
``workers`` and SQUEEZE_SIM_THREADS are validated but change nothing.

``run_grid`` runs a sequence of (protocol, params, master_seed) points,
each equal to its own ``run_trials``, which is a grid of one point.  The
whole chunks of a point, and of consecutive points of one shape (their
protocols equal but for the numbers of pulses and probes, their params
but for ``probe.m_t``), run together as batches of at most
``BATCH_TRIALS`` (4096) trials: ``run_trial`` holds a batch's state and
each of those numbers as arrays over its trials, and each draw is one
bulk call per chunk over that chunk's trials, on the chunk's own
generator (see ``state.BatchStream``), so how chunks are batched changes
no record.  Every draw is of normals, event counts included (from their
Gaussian moments, ``state.gaussian_counts``).  ``run_trial`` knows a
batch's trials only as rows: ``run_grid`` alone maps them to points,
trials and chunks.

A ``RecordSet`` holds a run's records as read-only columns:
``omega_p_offset_hz``, one ``n_up`` and one ``freq_hz`` column per probe
label, and ``true_jz`` as trials x windows.  ``run_trial`` fills a
batch's columns from its windows' outcomes; ``run_grid`` copies each row
once into its point's columns, allocated when the point's first chunk
runs.  ``RecordSet.trials`` gives ``TrialRecord`` values on demand.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .defaults import check_value
from .physics import TWO_PI
from .state import (
    BatchStream,
    InvariantError,
    SimParams,
    polarized_state,
    probe_measure,
    rotate,
)

THREAD_ENV_VAR = "SQUEEZE_SIM_THREADS"
# trials per chunk of a run, each chunk drawing from a generator of its
# own: a fixed constant of the reproducibility contract
CHUNK_TRIALS = 512
# an index is one uint32 word of a seed sequence's spawn key
INDEX_LIMIT = 2**32
# the most trials of whole chunks run as one batch; no record depends on it
BATCH_TRIALS = 4096


class ProtocolError(ValueError):
    """Raised for malformed protocol text or unrunnable protocols."""


@dataclass(frozen=True)
class OpticalPump:
    target: str  # "up" | "down"


@dataclass(frozen=True)
class MicrowavePulse:
    angle: float  # rad
    phase: float  # rad


@dataclass(frozen=True)
class ProbeStep:
    label: str
    m_t: float | None = None  # None -> take the configured default


@dataclass(frozen=True)
class Prealign:
    pass


@dataclass(frozen=True)
class Wait:
    duration: float  # s


Step = OpticalPump | MicrowavePulse | ProbeStep | Prealign | Wait


@dataclass(frozen=True)
class Protocol:
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        labels = [s.label for s in self.steps if isinstance(s, ProbeStep)]
        if len(labels) != len(set(labels)):
            raise ProtocolError("duplicate probe labels in protocol")

    @property
    def probe_labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.steps if isinstance(s, ProbeStep))


# step keyword -> the step's form: its words after the keyword are the
# step's arguments, a bracketed one optional
_FORMS = {"pump": "pump <up|down>", "pulse": "pulse <deg> <phase_deg>",
          "probe": "probe <label> [mt=<float>]", "prealign": "prealign",
          "wait": "wait <seconds>"}


def _number(text: str, name: str) -> float:
    """``text`` as a float; ValueError unless it is a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite (got {text!r})")
    return value


def parse_protocol(text: str) -> Protocol:
    """Parse protocol text; raises :class:`ProtocolError` with line numbers,
    stating the expected form of a step given the wrong arguments."""
    steps: list[Step] = []
    seen_labels: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind, args = tokens[0].lower(), tokens[1:]
        try:
            if kind not in _FORMS:
                raise ValueError(f"unknown step keyword {kind!r}")
            form = _FORMS[kind]
            most = len(form.split()) - 1
            if not most - form.count("[") <= len(args) <= most or (
                    kind == "probe" and args[1:]
                    and not args[1].startswith("mt=")):
                raise ValueError(f"expected: {form}")
            if kind == "pump":
                if args[0] not in ("up", "down"):
                    raise ValueError(f"unknown pump target {args[0]!r}")
                steps.append(OpticalPump(args[0]))
            elif kind == "pulse":
                deg, phase_deg = (_number(a, name) for a, name in
                                  zip(args, ("pulse angle", "pulse phase")))
                steps.append(MicrowavePulse(math.radians(deg),
                                            math.radians(phase_deg)))
            elif kind == "probe":
                label = args[0]
                m_t = _number(args[1][3:], "mt") if args[1:] else None
                if label in seen_labels:
                    raise ValueError(f"duplicate probe label {label!r}")
                seen_labels.add(label)
                steps.append(ProbeStep(label, m_t))
            elif kind == "prealign":
                steps.append(Prealign())
            else:  # wait
                duration = _number(args[0], "wait")
                if duration < 0:
                    raise ValueError(f"wait must be >= 0 (got {args[0]!r})")
                steps.append(Wait(duration))
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


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of ``values``."""
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class RecordSet:
    """The records of a run, held as read-only columns over its trials.

    ``omega_p_offset_hz`` holds one value per trial; ``n_up`` and
    ``freq_hz`` map each probe label, in protocol order, to one float64
    column; ``true_jz`` is trials x probe windows.  ``params`` is the
    parameter snapshot and ``master_seed`` the seed of the run's chunk
    generators (None for a chunk run on a generator given directly).

    ``RecordSet(trials, params, master_seed)`` builds the columns once from
    a sequence of ``TrialRecord`` values, every trial with the same labels
    and trace length; ``RecordSet.from_columns`` takes the columns as they
    are.  ``trials`` is a tuple view of ``TrialRecord`` values, built on
    first use and kept; ``len`` and ``column`` build nothing.  Two sets
    are equal when their parameters, master seeds and every column are
    equal under float ``==``.
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
        self._fill(
            params, master_seed,
            omega_p_offset_hz=[t.omega_p_offset_hz for t in trials],
            n_up={lb: [t.outcomes[lb].n_up for t in trials] for lb in labels},
            freq_hz={lb: [t.outcomes[lb].freq_hz for t in trials]
                     for lb in labels},
            true_jz=np.array([t.true_jz_trace for t in trials],
                             dtype=np.float64).reshape(
                                 len(trials), widths[0] if widths else 0))

    @classmethod
    def from_columns(cls, params: dict, master_seed: int | None, *,
                     omega_p_offset_hz, n_up: dict, freq_hz: dict,
                     true_jz) -> RecordSet:
        rs = cls.__new__(cls)
        rs._fill(params, master_seed, omega_p_offset_hz, n_up, freq_hz,
                 true_jz)
        return rs

    def _fill(self, params, master_seed, omega_p_offset_hz, n_up, freq_hz,
              true_jz) -> None:
        cols = {"omega_p_offset_hz": _frozen(omega_p_offset_hz),
                "true_jz": _frozen(true_jz),
                "n_up": {lb: _frozen(v) for lb, v in n_up.items()},
                "freq_hz": {lb: _frozen(freq_hz[lb]) for lb in n_up}}
        n = len(cols["omega_p_offset_hz"])
        if cols["true_jz"].ndim != 2 or any(len(c) != n for c in (
                cols["true_jz"], *cols["n_up"].values(),
                *cols["freq_hz"].values())):
            raise ValueError(f"every column needs one entry per trial of "
                             f"{n}, and true_jz two dimensions")
        # the instance dict is written directly: attributes are read-only
        self.__dict__.update(cols, params=params, master_seed=master_seed)

    def __setattr__(self, name, value):
        raise AttributeError(f"a RecordSet is read-only; cannot set {name!r}")

    __hash__ = None

    def __len__(self) -> int:
        return len(self.omega_p_offset_hz)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordSet):
            return NotImplemented
        return (self.params == other.params
                and self.master_seed == other.master_seed
                and self.n_up.keys() == other.n_up.keys()
                and np.array_equal(self.omega_p_offset_hz,
                                   other.omega_p_offset_hz)
                and np.array_equal(self.true_jz, other.true_jz)
                and all(np.array_equal(self.n_up[lb], other.n_up[lb])
                        and np.array_equal(self.freq_hz[lb],
                                           other.freq_hz[lb])
                        for lb in self.n_up))

    def __repr__(self) -> str:
        return (f"RecordSet({len(self)} trials, labels {self.labels}, "
                f"master_seed={self.master_seed!r})")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.n_up)

    def column(self, label: str) -> np.ndarray:
        """The read-only ``n_up`` column of probe ``label``."""
        try:
            return self.n_up[label]
        except KeyError:
            raise KeyError(f"no probe label {label!r} in records") from None

    @cached_property
    def trials(self) -> tuple[TrialRecord, ...]:
        """The records as ``TrialRecord`` values, built on first use."""
        labels = self.labels
        n_up = [self.n_up[lb].tolist() for lb in labels]
        freq_hz = [self.freq_hz[lb].tolist() for lb in labels]
        return tuple(
            TrialRecord(
                outcomes={lb: LabeledOutcome(n_up[k][i], freq_hz[k][i])
                          for k, lb in enumerate(labels)},
                true_jz_trace=tuple(trace), omega_p_offset_hz=offset)
            for i, (offset, trace) in enumerate(zip(
                self.omega_p_offset_hz.tolist(), self.true_jz.tolist())))


def _validate_runnable(protocol: Protocol, params: SimParams) -> None:
    for step in protocol.steps:
        if isinstance(step, ProbeStep):
            m_t = step.m_t if step.m_t is not None else params.probe.m_t
            if np.any(m_t <= 0):
                raise ProtocolError(
                    f"probe step {step.label!r} has m_t = {m_t}; probes need "
                    "m_t > 0 (drop the step for a no-probe sequence)")


def run_trial(protocol: Protocol, params: SimParams, rng,
              n_trials: int) -> RecordSet:
    """Run one batch of ``n_trials`` trials of a protocol.

    ``rng`` is the batch's ``BatchStream``, or a lone generator that
    draws for a batch of one chunk.  Every draw is one bulk call per chunk
    over the chunk's trials: first the common probe-power fluctuation
    shared by all of a trial's windows, then each step's draws in
    protocol order.  A pulse's angle and phase and a probe's strength may
    be arrays with one value per trial.  The state invariants are checked
    after every rotation and probe window; a broken one raises
    ``state.InvariantError``, naming the trial by its row of the batch.
    Returns the batch's records, ``master_seed`` None.
    """
    _validate_runnable(protocol, params)
    ens, probe = params.ensemble, params.probe
    stream = BatchStream.of(rng, n_trials)

    # common probe-power fluctuation: the classical M_s noise channel
    power = np.maximum(1.0 + probe.ms_classical_frac * stream.normal(),
                       0.05)

    state = polarized_state(ens.n_effective, ens, "down").tile(n_trials)
    delta_p = np.zeros(n_trials)
    n_up, freq_hz, true_jz = [], [], []

    for step in protocol.steps:
        if isinstance(step, Prealign):
            # adding 0.0 turns the -0.0 of a zero spread into 0.0
            delta_p = probe.detuning_spread * stream.normal() + 0.0
        elif isinstance(step, OpticalPump):
            heating = state.freq_offset  # pumping does not cool the ensemble
            state = polarized_state(ens.n_effective, ens,
                                    step.target).tile(n_trials)
            state.freq_offset = heating
        elif isinstance(step, MicrowavePulse):
            z_angle, z_phase = stream.normal(2)
            state = rotate(
                state,
                step.angle * (1.0 + params.rotation_angle_noise * z_angle),
                step.phase + params.rotation_phase_noise * z_phase)
            state.validate()
        elif isinstance(step, ProbeStep):
            base = step.m_t if step.m_t is not None else probe.m_t
            outcome, state = probe_measure(state, params, stream,
                                           m_t=base * power,
                                           detuning_offset=delta_p)
            state.validate()
            n_up.append(outcome.n_up)
            freq_hz.append(outcome.freq / TWO_PI)
            true_jz.append(outcome.true_jz)
        elif isinstance(step, Wait):
            pass  # no decoherence clock in scope
        else:  # pragma: no cover - exhaustive by construction
            raise ProtocolError(f"unhandled step {step!r}")

    labels = protocol.probe_labels
    return RecordSet.from_columns(
        params.snapshot(), None, omega_p_offset_hz=delta_p / TWO_PI,
        n_up=dict(zip(labels, n_up)), freq_hz=dict(zip(labels, freq_hz)),
        true_jz=np.reshape(true_jz, (len(labels), n_trials)).T)


def _seed_sequence(master_seed: int, index: int) -> np.random.SeedSequence:
    """``SeedSequence(master_seed, spawn_key=(index,))``; ValueError naming
    a master seed that is not a non-negative integer, or an index that is
    not an integer in [0, ``INDEX_LIMIT``)."""
    if not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
        raise ValueError(f"master_seed must be a non-negative integer, "
                         f"got {master_seed!r}")
    if not isinstance(index, (int, np.integer)) or not (
            0 <= index < INDEX_LIMIT):
        raise ValueError(f"trial index must be an integer in [0, 2**32), "
                         f"got {index!r}")
    return np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))


def trial_seed(master_seed: int, index: int) -> int:
    """A seed derived from a master seed and an index: the first uint64
    state word of ``SeedSequence(master_seed, spawn_key=(index,))``."""
    return int(_seed_sequence(master_seed, index).generate_state(
        1, np.uint64)[0])


def _check_workers(workers: int | None) -> None:
    """Validate the worker count and its environment cap; neither is used."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    cap = os.environ.get(THREAD_ENV_VAR)
    if cap:
        try:
            valid = int(cap) >= 1
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(f"{THREAD_ENV_VAR} must be an integer worker "
                             f"count >= 1, got {cap!r}")


def _with_numbers(protocol: Protocol, numbers) -> Protocol:
    """``protocol`` with each pulse's angle and phase and each probe's
    strength, in step order, taken from the iterable ``numbers``."""
    numbers = iter(numbers)
    return Protocol(tuple(
        MicrowavePulse(next(numbers), next(numbers))
        if isinstance(s, MicrowavePulse) else ProbeStep(s.label, next(numbers))
        if isinstance(s, ProbeStep) else s for s in protocol.steps))


def _numbers(protocol: Protocol, params: SimParams) -> list[float]:
    """The numbers ``_with_numbers`` replaces, a probe's None resolved."""
    return [x for s in protocol.steps for x in (
        (s.angle, s.phase) if isinstance(s, MicrowavePulse)
        else (params.probe.m_t if s.m_t is None else s.m_t,)
        if isinstance(s, ProbeStep) else ())]


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
    """``run_grid`` once its arguments are checked, each row written once."""
    # params but for probe.m_t, without building (and checking) a SimParams
    shapes = [(_with_numbers(protocol, itertools.repeat(None)),
               {**vars(params), "probe": {**vars(params.probe), "m_t": 0.0}})
              for protocol, params, _ in points]
    numbers = [_numbers(protocol, params) for protocol, params, _ in points]
    chunks = [(i, k, first, min(CHUNK_TRIALS, n_trials - first))
              for i in range(len(points))
              for k, first in enumerate(range(0, n_trials, CHUNK_TRIALS))]
    filling: dict[int, dict] = {}
    for batch in _batches(chunks, shapes):
        point, k, first, size = zip(*batch)
        stream = BatchStream([np.random.default_rng(_seed_sequence(
            points[i][2], j)) for i, j in zip(point, k)], size)
        protocol, params, _ = points[point[0]]
        try:
            rs = run_trial(_with_numbers(protocol, np.repeat(
                np.transpose([numbers[i] for i in point]), size, axis=-1)),
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
                filling[i] = {
                    "omega_p_offset_hz": np.empty(n_trials),
                    "true_jz": np.empty((n_trials, len(rs.labels))),
                    **{name: {lb: np.empty(n_trials) for lb in rs.labels}
                       for name in ("n_up", "freq_hz")}}
            for name in ("omega_p_offset_hz", "true_jz"):
                filling[i][name][a:a + n] = getattr(rs, name)[lo:hi]
            for name in ("n_up", "freq_hz"):
                for lb, col in filling[i][name].items():
                    col[a:a + n] = getattr(rs, name)[lb][lo:hi]
            if a + n == n_trials:  # the point's last chunk
                yield RecordSet.from_columns(
                    points[i][1].snapshot(), int(points[i][2]),
                    **filling.pop(i))


def run_trials(protocol: Protocol, params: SimParams, n_trials: int,
               master_seed: int, workers: int | None = None) -> RecordSet:
    """Run ``n_trials`` trials seeded by ``master_seed``, as the module
    docstring's contract sets out.  ``workers`` changes nothing."""
    _check_workers(workers)
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
    points = list(points)
    check_value("cli", "n_trials", n_trials, "n_trials")
    for protocol, params, seed in points:
        _validate_runnable(protocol, params)
        _seed_sequence(seed, 0)  # a bad seed fails before any trial runs
    return _run_points(points, n_trials)


def spin_noise_reduction(rs: RecordSet, final_label: str,
                         pre_label: str) -> float:
    """Sample variance of (N_final - N_pre) over CSS projection noise N/4."""
    if len(rs) < 2:
        raise ValueError("need at least 2 trials to estimate a variance")
    diff = rs.column(final_label) - rs.column(pre_label)
    n = rs.params["ensemble.n_effective"]
    return float(np.var(diff, ddof=1) / (n / 4.0))
