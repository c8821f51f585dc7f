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

Trials are pure functions of (protocol, params, seed); trial seeds derive
deterministically from a master seed.  Reproducibility contract: trial i
of ``run_trials(protocol, params, n, master_seed)`` equals
``run_trial(protocol, params, trial_seed(master_seed, i))`` bit for bit.
``run_trials`` passes ``run_trial`` batches of at most ``CHUNK_TRIALS``
seeds, and a single seed is a batch of one.  A batch holds its state as
arrays over its trials, each trial drawing from its own generator, so a
record set is the same for any batch size.  ``workers`` and
SQUEEZE_SIM_THREADS are validated but change nothing.

A ``RecordSet`` holds a run's records as read-only columns: ``seeds``,
``omega_p_offset_hz``, one ``n_up`` and one ``freq_hz`` column per probe
label, and ``true_jz`` as trials x windows.  ``run_trial`` fills them
straight from each window's outcome arrays and ``run_trials`` joins its
batches once; ``RecordSet.trials`` gives ``TrialRecord`` values on demand.

Trial i's seed is ``SeedSequence(master_seed, spawn_key=(i,))``'s first
64-bit state word, and its generator is ``default_rng(seed)``.  Both are
computed here with numpy's SeedSequence hash mix written out in uint32
arithmetic over arrays, so one pass serves every trial of a run: the same
values, without a SeedSequence object per trial.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .physics import TWO_PI
from .state import SimParams, polarized_state, probe_measure, rotate

THREAD_ENV_VAR = "SQUEEZE_SIM_THREADS"
# trials per batch; bounds the generators alive at once (about 1.4 kB each)
CHUNK_TRIALS = 512
# trial indices are one uint32 word of a seed sequence's spawn key
INDEX_LIMIT = 2**32
SEED_LIMIT = 2**64

# numpy's SeedSequence: pool size and hash-mix constants
_POOL = 4
_MASK = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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
    seed: int
    omega_p_offset_hz: float = 0.0

    def __eq__(self, other) -> bool:
        return (isinstance(other, TrialRecord)
                and self.outcomes == other.outcomes
                and self.true_jz_trace == other.true_jz_trace
                and self.seed == other.seed
                and self.omega_p_offset_hz == other.omega_p_offset_hz)


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as an array of ``dtype``."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


class RecordSet:
    """The records of a run, held as read-only columns over its trials.

    ``seeds`` (uint64) and ``omega_p_offset_hz`` hold one value per trial;
    ``n_up`` and ``freq_hz`` map each probe label, in protocol order, to one
    float64 column; ``true_jz`` is trials x probe windows.  ``params`` is
    the parameter snapshot and ``master_seed`` the seed the trial seeds
    derive from (None for a batch run on seeds given directly).

    ``RecordSet(trials, params, master_seed)`` builds the columns once from
    a sequence of ``TrialRecord`` values, every trial with the same labels
    and trace length; ``RecordSet.from_columns`` takes the columns as they
    are.  ``trials`` is a tuple view of ``TrialRecord`` values, built on
    first use and kept; ``len`` and ``column`` build nothing.  Two sets are
    equal when their parameters, master seeds and every column are equal
    under float ``==``.
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
            params, master_seed, seeds=[t.seed for t in trials],
            omega_p_offset_hz=[t.omega_p_offset_hz for t in trials],
            n_up={lb: [t.outcomes[lb].n_up for t in trials] for lb in labels},
            freq_hz={lb: [t.outcomes[lb].freq_hz for t in trials]
                     for lb in labels},
            true_jz=np.array([t.true_jz_trace for t in trials],
                             dtype=np.float64).reshape(
                                 len(trials), widths[0] if widths else 0))

    @classmethod
    def from_columns(cls, params: dict, master_seed: int | None, *, seeds,
                     omega_p_offset_hz, n_up: dict, freq_hz: dict,
                     true_jz) -> RecordSet:
        rs = cls.__new__(cls)
        rs._fill(params, master_seed, seeds, omega_p_offset_hz, n_up,
                 freq_hz, true_jz)
        return rs

    @classmethod
    def concat(cls, parts: list[RecordSet],
               master_seed: int | None) -> RecordSet:
        """The trials of ``parts`` in order, with the first part's params."""
        def cat(column):
            return np.concatenate([column(p) for p in parts])

        labels = parts[0].labels
        return cls.from_columns(
            parts[0].params, master_seed, seeds=cat(lambda p: p.seeds),
            omega_p_offset_hz=cat(lambda p: p.omega_p_offset_hz),
            n_up={lb: cat(lambda p: p.n_up[lb]) for lb in labels},
            freq_hz={lb: cat(lambda p: p.freq_hz[lb]) for lb in labels},
            true_jz=cat(lambda p: p.true_jz))

    def _fill(self, params, master_seed, seeds, omega_p_offset_hz, n_up,
              freq_hz, true_jz) -> None:
        cols = {"seeds": _frozen(seeds, np.uint64),
                "omega_p_offset_hz": _frozen(omega_p_offset_hz, np.float64),
                "true_jz": _frozen(true_jz, np.float64),
                "n_up": {lb: _frozen(v, np.float64) for lb, v in n_up.items()},
                "freq_hz": {lb: _frozen(freq_hz[lb], np.float64)
                            for lb in n_up}}
        n = len(cols["seeds"])
        if cols["true_jz"].ndim != 2 or any(len(c) != n for c in (
                cols["omega_p_offset_hz"], cols["true_jz"],
                *cols["n_up"].values(), *cols["freq_hz"].values())):
            raise ValueError(f"every column needs one entry per trial of "
                             f"{n}, and true_jz two dimensions")
        # the instance dict is written directly: attributes are read-only
        self.__dict__.update(cols, params=params, master_seed=master_seed)

    def __setattr__(self, name, value):
        raise AttributeError(f"a RecordSet is read-only; cannot set {name!r}")

    __hash__ = None

    def __len__(self) -> int:
        return len(self.seeds)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordSet):
            return NotImplemented
        return (self.params == other.params
                and self.master_seed == other.master_seed
                and self.n_up.keys() == other.n_up.keys()
                and np.array_equal(self.seeds, other.seeds)
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
                true_jz_trace=tuple(trace), seed=seed,
                omega_p_offset_hz=offset)
            for i, (seed, offset, trace) in enumerate(zip(
                self.seeds.tolist(), self.omega_p_offset_hz.tolist(),
                self.true_jz.tolist())))


def _validate_runnable(protocol: Protocol, params: SimParams) -> None:
    for step in protocol.steps:
        if isinstance(step, ProbeStep):
            m_t = step.m_t if step.m_t is not None else params.probe.m_t
            if m_t <= 0:
                raise ProtocolError(
                    f"probe step {step.label!r} has m_t = {m_t}; probes need "
                    "m_t > 0 (drop the step for a no-probe sequence)")


def run_trial(protocol: Protocol, params: SimParams, seed, first: int = 0):
    """Execute one seeded trial of a protocol, or a batch of them.

    ``seed`` is one seed, giving one ``TrialRecord``, or a list of seeds,
    giving a ``RecordSet`` (``master_seed`` None) with one trial per seed,
    run as one batch and stored straight from the probe outcome arrays;
    ``first`` numbers the batch's first trial in error messages.  Each
    trial draws from a generator seeded with its seed alone: the common
    probe-power fluctuation shared by every window, then the per-step
    draws in protocol order.  The state invariants are checked after every
    rotation and probe window.
    """
    _validate_runnable(protocol, params)
    seeds = [int(s) for s in seed] if isinstance(seed, list) else [int(seed)]
    rngs = trial_generators(seeds)
    ens, probe = params.ensemble, params.probe

    # common probe-power fluctuation: the classical M_s noise channel
    power = np.maximum(1.0 + probe.ms_classical_frac
                       * np.array([g.standard_normal() for g in rngs]), 0.05)

    state = polarized_state(ens.n_effective, ens, "down").tile(len(seeds))
    delta_p = np.zeros(len(seeds))
    n_up, freq_hz, true_jz = [], [], []
    noise_k = (params.rotation_angle_noise > 0) + (
        params.rotation_phase_noise > 0)

    for step in protocol.steps:
        if isinstance(step, Prealign):
            if probe.detuning_spread > 0:
                delta_p = probe.detuning_spread * np.array(
                    [g.standard_normal() for g in rngs])
        elif isinstance(step, OpticalPump):
            heating = state.freq_offset  # pumping does not cool the ensemble
            state = polarized_state(ens.n_effective, ens,
                                    step.target).tile(len(seeds))
            state.freq_offset = heating
        elif isinstance(step, MicrowavePulse):
            angle, phase = step.angle, step.phase
            if noise_k:
                # one normal per knob > 0; a knob at 0 adds exactly nothing
                z = np.array([g.standard_normal(noise_k) for g in rngs]).T
                angle = angle * (1.0 + params.rotation_angle_noise * z[0])
                phase = phase + params.rotation_phase_noise * z[-1]
            state = rotate(state, angle, phase)
            state.validate(seeds, first)
        elif isinstance(step, ProbeStep):
            base = step.m_t if step.m_t is not None else probe.m_t
            outcome, state = probe_measure(state, params, rngs,
                                           m_t=base * power,
                                           detuning_offset=delta_p)
            state.validate(seeds, first)
            n_up.append(outcome.n_up)
            freq_hz.append(outcome.freq / TWO_PI)
            true_jz.append(outcome.true_jz)
        elif isinstance(step, Wait):
            pass  # no decoherence clock in scope
        else:  # pragma: no cover - exhaustive by construction
            raise ProtocolError(f"unhandled step {step!r}")

    labels = protocol.probe_labels
    batch = RecordSet.from_columns(
        params.snapshot(), None, seeds=seeds,
        omega_p_offset_hz=delta_p / TWO_PI, n_up=dict(zip(labels, n_up)),
        freq_hz=dict(zip(labels, freq_hz)),
        true_jz=np.reshape(true_jz, (len(labels), len(seeds))).T)
    return batch if isinstance(seed, list) else batch.trials[0]


def _hashes(init: int, mult: int):
    """The (xor, multiplier) constants of successive SeedSequence hashes."""
    return itertools.pairwise(itertools.accumulate(
        itertools.repeat(mult), lambda c, m: c * m & _MASK, initial=init))


def _hash(word, hashes):
    xor, mult = next(hashes)
    word = (word ^ xor) * mult & _MASK
    return word ^ word >> 16


def _mix(x, y):
    word = (_MIX_L * x - _MIX_R * y) & _MASK
    return word ^ word >> 16


def _seed_state(entropy: list, n_words: int) -> list:
    """``SeedSequence`` state: ``n_words`` 64-bit words from entropy words.

    ``entropy`` is the assembled entropy, uint32 words in order, each a
    Python int or a uint64 array of one word per trial; the result words
    are ints or arrays alike.  Mixing in the entropy and drawing the state
    follow numpy's ``SeedSequence.mix_entropy`` and ``generate_state``.
    """
    hashes = _hashes(_INIT_A, _MULT_A)
    pool = [_hash(entropy[i] if i < len(entropy) else 0, hashes)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], hashes))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(word, hashes))
    hashes = _hashes(_INIT_B, _MULT_B)
    out = [_hash(pool[i % _POOL], hashes) for i in range(2 * n_words)]
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


def trial_seed(master_seed: int, index):
    """Deterministic, order-independent per-trial seed derivation.

    The seed of trial ``index`` is the first uint64 state word of
    ``SeedSequence(master_seed, spawn_key=(index,))``.  ``index`` is one
    index (giving an int) or an array of them (giving a uint64 array), each
    in [0, ``INDEX_LIMIT``); ``master_seed`` is any non-negative integer.
    """
    if not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
        raise ValueError(f"master_seed must be a non-negative integer, "
                         f"got {master_seed!r}")
    indices = np.asarray(index)
    bad = (indices if indices.dtype.kind not in "iu" else
           indices[(indices < 0) | (indices >= INDEX_LIMIT)]).ravel()
    if bad.size:
        raise ValueError(f"trial index must be an integer in [0, 2**32), "
                         f"got {bad[:1].tolist()[0]!r}")
    master, words = int(master_seed), []
    while master or not words:
        words.append(master & _MASK)
        master >>= 32
    # with a spawn key, the master's words are zero-padded to the pool size
    words += [0] * (_POOL - len(words))
    word = int(indices) if indices.ndim == 0 else indices.astype(np.uint64)
    return _seed_state(words + [word], 1)[0]


class _SeedState(ISeedSequence):
    """The four uint64 words ``SeedSequence(seed)`` gives a PCG64."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or dtype is not np.uint64:
            raise ValueError("a trial's PCG64 state is 4 uint64 words")
        return self.words


def trial_generators(seeds) -> list[np.random.Generator]:
    """``default_rng(seed)`` for each seed in [0, 2**64), all at once."""
    bad = [s for s in seeds if not 0 <= s < SEED_LIMIT]
    if bad:
        raise ValueError(f"trial seed must be an integer in [0, 2**64), "
                         f"got {bad[0]!r}")
    s = np.array(seeds, dtype=np.uint64)
    # a seed below 2**32 is one entropy word, and a missing word mixes in
    # as a zero word: two words serve every seed
    state = np.ascontiguousarray(np.array(
        _seed_state([s & _MASK, s >> 32], 4)).T)
    return [np.random.Generator(np.random.PCG64(_SeedState(row)))
            for row in state]


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


def run_trials(protocol: Protocol, params: SimParams, n_trials: int,
               master_seed: int, workers: int | None = None) -> RecordSet:
    """Run ``n_trials`` seeded trials; trial i is the ``run_trial`` of
    ``trial_seed(master_seed, i)``.  ``workers`` changes nothing."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    _check_workers(workers)
    seeds = trial_seed(master_seed, np.arange(n_trials)).tolist()
    return RecordSet.concat(
        [run_trial(protocol, params, seeds[first:first + CHUNK_TRIALS], first)
         for first in range(0, n_trials, CHUNK_TRIALS)], int(master_seed))


def spin_noise_reduction(rs: RecordSet, final_label: str,
                         pre_label: str) -> float:
    """Sample variance of (N_final - N_pre) over CSS projection noise N/4."""
    if len(rs) < 2:
        raise ValueError("need at least 2 trials to estimate a variance")
    diff = rs.column(final_label) - rs.column(pre_label)
    n = rs.params["ensemble.n_effective"]
    return float(np.var(diff, ddof=1) / (n / 4.0))
