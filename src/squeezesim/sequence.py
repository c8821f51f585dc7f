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
``probe <label> [mt=<float>]``, ``wait <seconds>`` and ``scatter <mt>``
(Raman scattering with no reading; see ``run_trial``).  Lines starting
with ``#`` are comments.  Probe labels must be unique, every number
finite and a wait's or a scatter's non-negative; a hand-built protocol
that breaks these rules, or has a pump target other than up or down or
a probe m_t <= 0, is refused before any trial runs.

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
each of those numbers as arrays over its trials, and each draw is one
bulk call per chunk over that chunk's trials, on the chunk's own
generator (see ``state.BatchStream``), so how chunks are batched changes
no record.  Every draw is of normals, event counts included (from their
Gaussian moments, ``state.gaussian_counts``).  ``run_trial`` knows a
batch's trials only as rows: ``run_grid`` alone maps them to points,
trials and chunks.

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

import itertools
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


@dataclass(frozen=True)
class Scatter:
    m_t: float  # transmitted photons driving the scattering


Step = OpticalPump | MicrowavePulse | ProbeStep | Prealign | Wait | Scatter


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
          "wait": "wait <seconds>", "scatter": "scatter <mt>"}


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
            else:  # wait or scatter: one number >= 0
                value = _number(args[0], kind)
                if value < 0:
                    raise ValueError(f"{kind} must be >= 0 (got {args[0]!r})")
                steps.append((Wait if kind == "wait" else Scatter)(value))
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


def _validate_runnable(protocol: Protocol, params: SimParams) -> None:
    for i, step in enumerate(protocol.steps):
        if isinstance(step, ProbeStep):
            m_t = step.m_t if step.m_t is not None else params.probe.m_t
            if not np.all(np.isfinite(m_t) & (m_t > 0)):
                raise ProtocolError(
                    f"probe step {step.label!r} has m_t = {m_t}; probes need "
                    "a finite m_t > 0 (drop the step for a no-probe "
                    "sequence)")
        elif isinstance(step, Scatter) and not np.all(
                np.isfinite(step.m_t) & (step.m_t >= 0)):
            raise ProtocolError(
                f"scatter step {i + 1} has m_t = {step.m_t}; scattering "
                "needs a finite m_t >= 0")
        elif (isinstance(step, OpticalPump)
              and step.target not in ("up", "down")):
            raise ProtocolError(
                f"pump step {i + 1} has target = {step.target!r}; pumping "
                "needs 'up' or 'down'")
        elif isinstance(step, MicrowavePulse) and not np.all(
                np.isfinite(step.angle) & np.isfinite(step.phase)):
            raise ProtocolError(
                f"pulse step {i + 1} has angle = {step.angle} and phase = "
                f"{step.phase}; pulses need a finite angle and phase")
        elif isinstance(step, Wait) and not 0 <= step.duration < math.inf:
            raise ProtocolError(
                f"wait step {i + 1} has duration = {step.duration}; waiting "
                "needs a finite duration >= 0")


def run_trial(protocol: Protocol, params: SimParams, rng,
              n_trials: int) -> RecordSet:
    """Run one batch of ``n_trials`` trials of a protocol.

    ``rng`` is the batch's ``BatchStream``, or a lone generator that
    draws for a batch of one chunk.  Every draw is one bulk call per chunk
    over the chunk's trials: first the common probe-power fluctuation
    shared by all of a trial's windows, then each step's draws in
    protocol order; a scatter step draws 4 normals per trial for its Raman
    counts, then 1 for its recoil photons.  A pulse's angle and phase and
    a probe's or scatter's strength may be arrays with one value per
    trial.  The state invariants are checked after every rotation, probe
    window and scatter step; a broken one raises
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
    windows = []  # per probe window: (n_up, freq_hz, true_jz)

    for step in protocol.steps:
        if isinstance(step, Prealign):
            # adding 0.0 turns the -0.0 of a zero spread into 0.0
            delta_p = probe.detuning_spread * stream.normal() + 0.0
        elif isinstance(step, OpticalPump):
            # pumping does not cool the ensemble
            state = replace(polarized_state(ens.n_effective, ens, step.target)
                            .tile(n_trials), freq_offset=state.freq_offset)
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
            windows.append((outcome.n_up, outcome.freq / TWO_PI,
                            outcome.true_jz))
        elif isinstance(step, Wait):
            pass  # no decoherence clock in scope
        elif isinstance(step, Scatter):
            # Raman scattering with no reading at the half-polarized
            # reference flux, |1> repumped to up; recoil follows the up atoms
            half = ens.n_effective / 2.0
            m_s = step.m_t * power * scattered_ratio(half, params.cavity)
            state = apply_raman_diffusion(state, m_s, params, stream,
                                          repump_to_up=True)
            recoil = TWO_PI * params.cavity.recoil_shift_per_photon * (
                gaussian_counts(m_s * np.maximum(state.pop_up, 0.0) / half,
                                stream.normal()))
            state = replace(state, freq_offset=state.freq_offset - recoil)
            state.validate()
        else:  # pragma: no cover - exhaustive by construction
            raise ProtocolError(f"unhandled step {step!r}")

    n_up, freq_hz, true_jz = np.reshape(
        windows, (len(windows), 3, n_trials)).transpose(1, 2, 0)
    return RecordSet.from_columns(
        params.snapshot(), None, labels=protocol.probe_labels,
        omega_p_offset_hz=delta_p / TWO_PI, n_up=n_up, freq_hz=freq_hz,
        true_jz=true_jz)


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


def _with_numbers(protocol: Protocol, numbers) -> Protocol:
    """``protocol`` with each pulse's angle and phase and each probe's and
    scatter's strength, in step order, from the iterable ``numbers``."""
    numbers = iter(numbers)
    return Protocol(tuple(
        MicrowavePulse(next(numbers), next(numbers))
        if isinstance(s, MicrowavePulse) else ProbeStep(s.label, next(numbers))
        if isinstance(s, ProbeStep) else Scatter(next(numbers))
        if isinstance(s, Scatter) else s for s in protocol.steps))


def _numbers(protocol: Protocol, params: SimParams) -> list[float]:
    """The numbers ``_with_numbers`` replaces, a probe's None resolved."""
    return [x for s in protocol.steps for x in (
        (s.angle, s.phase) if isinstance(s, MicrowavePulse)
        else (params.probe.m_t if s.m_t is None else s.m_t,)
        if isinstance(s, ProbeStep) else (s.m_t,)
        if isinstance(s, Scatter) else ())]


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
    filling: dict[int, list] = {}
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
