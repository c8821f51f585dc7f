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
starting with ``#`` are comments.  Probe labels must be unique.

Trials are pure functions of (protocol, params, seed); trial seeds derive
deterministically from a master seed so a record set is identical under
any execution order or worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .physics import TWO_PI
from .state import SimParams, polarized_state, probe_measure, rotate

THREAD_ENV_VAR = "SQUEEZE_SIM_THREADS"


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


def parse_protocol(text: str) -> Protocol:
    """Parse protocol text; raises :class:`ProtocolError` with line numbers."""
    steps: list[Step] = []
    seen_labels: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind, args = tokens[0].lower(), tokens[1:]
        try:
            if kind == "pump":
                (target,) = args
                if target not in ("up", "down"):
                    raise ValueError(f"unknown pump target {target!r}")
                steps.append(OpticalPump(target))
            elif kind == "pulse":
                deg, phase_deg = args
                steps.append(MicrowavePulse(math.radians(float(deg)),
                                            math.radians(float(phase_deg))))
            elif kind == "probe":
                if len(args) == 1:
                    label, m_t = args[0], None
                elif len(args) == 2 and args[1].startswith("mt="):
                    label, m_t = args[0], float(args[1][3:])
                else:
                    raise ValueError("expected: probe <label> [mt=<float>]")
                if label in seen_labels:
                    raise ValueError(f"duplicate probe label {label!r}")
                seen_labels.add(label)
                steps.append(ProbeStep(label, m_t))
            elif kind == "prealign":
                if args:
                    raise ValueError("prealign takes no arguments")
                steps.append(Prealign())
            elif kind == "wait":
                (dur,) = args
                steps.append(Wait(float(dur)))
            else:
                raise ValueError(f"unknown step keyword {kind!r}")
        except ProtocolError:
            raise
        except Exception as exc:
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


@dataclass(frozen=True)
class RecordSet:
    trials: tuple[TrialRecord, ...]
    params: dict
    master_seed: int

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.trials[0].outcomes.keys()) if self.trials else ()

    def column(self, label: str) -> np.ndarray:
        try:
            return np.array([t.outcomes[label].n_up for t in self.trials])
        except KeyError:
            raise KeyError(f"no probe label {label!r} in records") from None


def _validate_runnable(protocol: Protocol, params: SimParams) -> None:
    for step in protocol.steps:
        if isinstance(step, ProbeStep):
            m_t = step.m_t if step.m_t is not None else params.probe.m_t
            if m_t <= 0:
                raise ProtocolError(
                    f"probe step {step.label!r} has m_t = {m_t}; probes need "
                    "m_t > 0 (drop the step for a no-probe sequence)")


def run_trial(protocol: Protocol, params: SimParams, seed: int) -> TrialRecord:
    """Execute one seeded trial of a protocol.

    The trial-level random context (a common probe-power fluctuation shared
    by every window, then the per-step draws in protocol order) comes from
    a generator seeded with ``seed`` alone, so records are reproducible
    individually.
    """
    _validate_runnable(protocol, params)
    rng = np.random.default_rng(int(seed))

    # common probe-power fluctuation: the classical M_s noise channel
    power = 1.0 + params.probe.ms_classical_frac * rng.standard_normal()
    power = max(power, 0.05)

    state = polarized_state(params.ensemble.n_effective, params.ensemble,
                            "down")
    delta_p = 0.0
    outcomes: dict[str, LabeledOutcome] = {}
    trace: list[float] = []

    for step in protocol.steps:
        if isinstance(step, Prealign):
            if params.probe.detuning_spread > 0:
                delta_p = params.probe.detuning_spread * rng.standard_normal()
        elif isinstance(step, OpticalPump):
            heating = state.freq_offset  # pumping does not cool the ensemble
            state = polarized_state(params.ensemble.n_effective,
                                    params.ensemble, step.target)
            state.freq_offset = heating
        elif isinstance(step, MicrowavePulse):
            angle, phase = step.angle, step.phase
            if params.rotation_angle_noise > 0:
                angle *= 1.0 + params.rotation_angle_noise * rng.standard_normal()
            if params.rotation_phase_noise > 0:
                phase += params.rotation_phase_noise * rng.standard_normal()
            state = rotate(state, angle, phase)
        elif isinstance(step, ProbeStep):
            base = step.m_t if step.m_t is not None else params.probe.m_t
            outcome, state = probe_measure(
                state, params.probe, params.cavity, params.transitions,
                params.coeffs, rng, m_t=base * power, detuning_offset=delta_p,
                knobs=params)
            outcomes[step.label] = LabeledOutcome(
                n_up=outcome.n_up, freq_hz=outcome.freq / TWO_PI)
            trace.append(outcome.true_jz)
        elif isinstance(step, Wait):
            pass  # no decoherence clock in scope
        else:  # pragma: no cover - exhaustive by construction
            raise ProtocolError(f"unhandled step {step!r}")

    return TrialRecord(outcomes=outcomes, true_jz_trace=tuple(trace),
                       seed=int(seed), omega_p_offset_hz=delta_p / TWO_PI)


def trial_seed(master_seed: int, index: int) -> int:
    """Deterministic, order-independent per-trial seed derivation."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _worker_count(workers: int | None) -> int:
    if workers is None:
        workers = 1
    cap = os.environ.get(THREAD_ENV_VAR)
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"{THREAD_ENV_VAR} must be an integer worker "
                             f"count, got {cap!r}") from None
    return max(1, workers)


def run_trials(protocol: Protocol, params: SimParams, n_trials: int,
               master_seed: int, workers: int | None = None) -> RecordSet:
    """Run ``n_trials`` seeded trials; identical for any worker count."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    _validate_runnable(protocol, params)
    seeds = [trial_seed(master_seed, i) for i in range(n_trials)]
    workers = _worker_count(workers)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trials = tuple(pool.map(
                lambda s: run_trial(protocol, params, s), seeds))
    else:
        trials = tuple(run_trial(protocol, params, s) for s in seeds)
    return RecordSet(trials=trials, params=params.snapshot(),
                     master_seed=int(master_seed))


def spin_noise_reduction(rs: RecordSet, final_label: str,
                         pre_label: str) -> float:
    """Sample variance of (N_final - N_pre) over CSS projection noise N/4."""
    if len(rs.trials) < 2:
        raise ValueError("need at least 2 trials to estimate a variance")
    diff = rs.column(final_label) - rs.column(pre_label)
    n = rs.params["ensemble.n_effective"]
    return float(np.var(diff, ddof=1) / (n / 4.0))
