"""Collective-spin state and the conditional measurement update.

The ensemble is tracked at the Gaussian-moment level: mean populations of
the three ground states, the mean and variance of the spin projection Jz
(convention Jz = N_up - N/2), the variance of the conjugate quadrature Jy,
and the contrast (fractional Bloch-vector length).  The two stored
variances describe the uncertainty disk transverse to the mean Bloch
vector; the disk co-rotates rigidly with the vector, so the lab-frame Jz
variance sampled by a probe is jz_var * sin^2(theta), exactly the
binomial projection noise of a CSS at polar angle theta, and zero for a
spin-polarized state.

A probe window does, in order: draw the trial's current Jz realization,
scatter photons (Raman population diffusion + recoil heating; an event at
a uniform arrival time is only partially visible in that window's
time-averaged reading; every count is drawn from its Gaussian moments,
and the visible shares and technical noise are one normal), assemble the
noisy dressed-frequency reading, condition the state on the reading
(Kalman update), inflate the anti-squeezed quadrature to respect the
uncertainty relation, and decay the contrast by the free-space-scattering
collapse law.  Every fact of a Raman channel (its probability, source
population, population moves, reading jump and persistent offset) is read
from the one table ``noise.RAMAN_CHANNELS``.

A state is a batch of trials: each field is an array over its trials,
and a single trial is a batch of one (``prepare_css`` and
``polarized_state`` return arrays of one element, and ``tile`` repeats
them).  States are values: ``EnsembleState`` is frozen, and ``rotate``,
``apply_raman_diffusion`` and ``probe_measure``, plain numpy code over
the batch, each return a new state and leave their input as it was; no
code writes into a field's array, so states may share arrays.  The two
that draw take the batch's ``BatchStream``: its trials lie in chunks of
consecutive trials, each chunk with a generator of its own, and each
draw is one bulk call of normals per chunk over the chunk's trials, so a
trial's variates do not depend on the other chunks of its batch.  A lone
generator is a stream of one chunk.  A normal is drawn for every trial,
channel and count, and scaled by a std. dev. (or a count's mean) that is
zero where it is off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import noise as _noise
from .defaults import DEFAULTS, check_fields
from .physics import (
    TWO_PI,
    CavityParams,
    EnsembleParams,
    alpha_per_atom,
    check_arg,
    contrast_decay,
    dressed_shift,
    invert_dressed_shift,
    scattered_ratio,
)

HEISENBERG_SLACK = 1e-9
# the least Jz variance the uncertainty relation is applied with
JZ_VAR_FLOOR = 1e-30
_PROBE, _TRANSITION, _NOISE = (DEFAULTS["probe"], DEFAULTS["transition"],
                               DEFAULTS["noise"])


@dataclass(frozen=True)
class TransitionProbs:
    """Raman transition probabilities per free-space scattered photon."""

    p_ud: float = _TRANSITION["p_ud"]
    p_du: float = _TRANSITION["p_du"]
    p_u1: float = _TRANSITION["p_u1"]
    p_d1: float = _TRANSITION["p_d1"]

    def __post_init__(self) -> None:
        check_fields(self, "transition")

    def zeroed(self) -> "TransitionProbs":
        return TransitionProbs(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ProbeConfig:
    """The probe windows' configuration.

    ``m_t`` is the mean transmitted photon number per window,
    ``detuning_spread`` the rad/s std. dev. of the probe-cavity detuning
    left after pre-alignment, and ``ms_classical_frac`` the fractional std.
    dev. of the probe power common to every window of a trial.
    """

    m_t: float = _PROBE["m_t"]
    detuning_spread: float = (_PROBE["detuning_spread_frac"]
                              * CavityParams.kappa / 2.0)
    ms_classical_frac: float = _PROBE["ms_classical_frac"]

    def __post_init__(self) -> None:
        check_fields(self, "probe", detuning_spread="detuning_spread_frac")


@dataclass(frozen=True)
class SimParams:
    """Everything a trial needs, bundled.

    The last few knobs are sequence-level: ``lineshape_penalty`` converts a
    residual probe detuning into extra read-noise variance,
    ``contrast_excess`` multiplies the scattering contrast-decay exponent
    (default off), ``light_shift_per_photon`` enables the static
    inhomogeneous light shift refocused by the spin echo (echo-phase units
    per transmitted photon), and the rotation noise knobs add microwave
    amplitude/phase jitter (default off).
    """

    cavity: CavityParams = field(default_factory=CavityParams)
    ensemble: EnsembleParams = field(default_factory=EnsembleParams)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    transitions: TransitionProbs = field(default_factory=TransitionProbs)
    coeffs: _noise.NoiseCoeffs = field(default_factory=_noise.NoiseCoeffs)
    lineshape_penalty: float = _NOISE["lineshape_penalty"]
    contrast_excess: float = _NOISE["contrast_excess"]
    light_shift_per_photon: float = _NOISE["light_shift_per_photon"]
    rotation_angle_noise: float = _NOISE["rotation_angle_noise"]
    rotation_phase_noise: float = _NOISE["rotation_phase_noise"]

    def __post_init__(self) -> None:
        check_fields(self, "noise")  # the knobs; the parts check themselves

    def with_n(self, n_effective: float) -> "SimParams":
        return replace(self, ensemble=replace(self.ensemble,
                                              n_effective=n_effective))

    def with_mt(self, m_t: float) -> "SimParams":
        return replace(self, probe=replace(self.probe, m_t=m_t))

    def snapshot(self) -> dict:
        """Flat key -> value mapping of every parameter (for metadata)."""
        out: dict = {}
        for section in fields(self):
            value = getattr(self, section.name)
            if is_dataclass(value):
                for name in value.__dataclass_fields__:
                    out[f"{section.name}.{name}"] = getattr(value, name)
            else:
                out[section.name] = value
        return out


class InvariantError(ValueError):
    """A broken state invariant: ``name`` is the invariant and ``row`` the
    first trial of the batch that breaks it."""

    def __init__(self, name: str, row: int) -> None:
        super().__init__(f"state invariant violated: {name} in row {row} "
                         "of the batch")
        self.name, self.row = name, row


@dataclass(frozen=True, slots=True)
class EnsembleState:
    """Gaussian-moment collective spin state of a batch of trials.

    Each field is an array over the batch's trials; a single trial is a
    batch of one; a state is a value (see the module docstring).
    ``freq_offset`` accumulates persistent probe-induced displacements of
    the dressed frequency (recoil heating plus the dispersive pulls of
    atoms moved out of the up-state bookkeeping); ``echo_phase`` tracks
    the static inhomogeneous light-shift phase refocused by pi pulses.
    """

    n_total: np.ndarray
    pop_up: np.ndarray
    pop_down: np.ndarray
    pop_one: np.ndarray
    jz_mean: np.ndarray
    jz_var: np.ndarray
    jy_var: np.ndarray
    contrast: np.ndarray
    azimuth: np.ndarray
    freq_offset: np.ndarray
    echo_phase: np.ndarray

    def tile(self, size: int) -> "EnsembleState":
        """A batch of ``size`` trials, each in this single-trial state."""
        return EnsembleState(*(np.repeat(getattr(self, name), size)
                               for name in _FIELDS))

    def cos_polar(self) -> np.ndarray:
        j = self.contrast * self.n_total / 2.0  # the Bloch vector's length
        with np.errstate(over="ignore"):
            ratio = self.jz_mean / np.where(j > 0.0, j, 1.0)
        return np.where(j > 0.0, np.minimum(1.0, np.maximum(-1.0, ratio)),
                        0.0)

    def invariants(self) -> dict[str, np.ndarray]:
        """Whether each state invariant holds, per trial.

        The Heisenberg product takes the Jz variance at no less than
        ``JZ_VAR_FLOOR``, as the anti-squeezing of ``probe_measure`` does.
        """
        total = self.pop_up + self.pop_down + self.pop_one
        bound = self.contrast * self.n_total / 4.0
        with np.errstate(invalid="ignore"):
            product = np.sqrt(np.maximum(self.jz_var, JZ_VAR_FLOOR)
                              * self.jy_var)
        return {"population conservation":
                abs(total - self.n_total) <= 1e-6 * self.n_total,
                "non-negative variances":
                np.logical_and(self.jz_var >= 0, self.jy_var >= 0),
                "contrast in [0, 1]":
                np.logical_and(self.contrast >= 0.0, self.contrast <= 1.0),
                "Heisenberg product":
                product >= bound * (1.0 - HEISENBERG_SLACK)}

    def validate(self) -> None:
        """Raise ``InvariantError`` naming the first invariant broken and
        the first trial of the batch that breaks it."""
        for name, ok in self.invariants().items():
            if not np.all(ok):
                raise InvariantError(name, int(np.argmin(ok)))


_FIELDS = tuple(f.name for f in fields(EnsembleState))


def heisenberg_check(state: EnsembleState) -> bool:
    """True iff the quadrature product respects the uncertainty relation."""
    return bool(np.all(state.invariants()["Heisenberg product"]))


@dataclass(frozen=True)
class MeasurementOutcome:
    """One probe window's result, an array over the batch's trials each:
    raw frequency and inferred population."""

    freq: np.ndarray     # dressed-frequency reading, rad/s above bare cavity
    n_up: np.ndarray     # apparent up population from inverting the shift
    true_jz: np.ndarray  # realized Jz at the window start (diagnostic)


def _single_trial(n: float, up: float, ens: EnsembleParams) -> EnsembleState:
    """A batch of one trial with ``up`` of its ``n`` atoms in the up state,
    its Bloch vector along x-hat or a pole, and an uncertainty disk of the
    N/4 projection noise."""
    check_arg(n > 0, "n", n, "positive")
    return EnsembleState(*(np.array([v], dtype=float) for v in (
        n, up, n - up, 0.0, up - n / 2.0, n / 4.0, n / 4.0,
        ens.initial_contrast, 0.0, 0.0, 0.0)))


def prepare_css(n: float, ens: EnsembleParams) -> EnsembleState:
    """Coherent spin state along x-hat: equal populations, noise N/4."""
    return _single_trial(n, n / 2.0, ens)


def polarized_state(n: float, ens: EnsembleParams,
                    target: str = "down") -> EnsembleState:
    """Optically pumped state with every atom in one spin state.

    The transverse uncertainty disk carries the N/4 quadrature noise that a
    subsequent pi/2 pulse rotates into projection noise; the lab-frame
    population variance of the polarized state itself is zero.
    """
    if target not in ("up", "down"):
        raise ValueError(f"unknown pump target {target!r}")
    return _single_trial(n, n if target == "up" else 0.0, ens)


def rotate(state: EnsembleState, angle, pulse_phase) -> EnsembleState:
    """Coherent microwave rotation about an equatorial axis.

    The rotation axis sits in the equatorial plane at the pulse phase
    (relative to the preparation pulse); with this convention a pi/2 pulse
    takes the pumped-down state to +x, and a second pi/2 pulse of phase
    theta_R lands at N_up = (N/2)(1 + C cos theta_R).  Rotations are
    noiseless: the uncertainty disk co-rotates, leaving the stored
    quadrature variances untouched.  Exact pi pulses negate the
    accumulated echo phase; any other angle converts coherence and folds
    the accumulated dephasing into the contrast.  ``angle`` and
    ``pulse_phase`` are numbers or arrays with one value per trial.
    """
    half_turns = angle / math.pi
    turns = np.round(half_turns)
    is_pi = (abs(half_turns - turns) < 1e-12) & (turns % 2 != 0)
    echo = state.echo_phase
    contrast = np.where(is_pi | (echo == 0.0), state.contrast,
                        state.contrast * np.exp(-0.5 * echo * echo))

    # Rodrigues' rotation of the unit Bloch vector u about the equatorial
    # axis a = (ax, ay, 0) in components: u ca + (a x u) sa + a (a.u)(1 - ca)
    cz = state.cos_polar()
    sz = np.sqrt(np.maximum(0.0, 1.0 - cz * cz))
    ux, uy = sz * np.cos(state.azimuth), sz * np.sin(state.azimuth)
    ax, ay = np.sin(pulse_phase), -np.cos(pulse_phase)
    ca, sa = np.cos(angle), np.sin(angle)
    along = (ax * ux + ay * uy) * (1 - ca)
    ux, uy, uz = (ux * ca + ay * cz * sa + ax * along,
                  uy * ca - ax * cz * sa + ay * along,
                  cz * ca + (ax * uy - ay * ux) * sa)

    jz_mean = contrast * state.n_total / 2.0 * uz
    pop_up = state.n_total / 2.0 + jz_mean
    new = replace(
        state, contrast=contrast, jz_mean=jz_mean, pop_up=pop_up,
        pop_down=state.n_total - state.pop_one - pop_up,
        azimuth=np.where(ux * ux + uy * uy > 1e-24, np.arctan2(uy, ux),
                         state.azimuth),
        # a zero phase stays +0.0 under a pi pulse
        echo_phase=np.where(is_pi & (echo != 0.0), -echo, 0.0))
    turning = angle != 0.0
    if np.all(turning):
        return new
    # a zero angle leaves its trial untouched
    return EnsembleState(*(np.where(turning, getattr(new, f),
                                    getattr(state, f)) for f in _FIELDS))


# ---------------------------------------------------------------------------
# Raman diffusion


def gaussian_counts(lam, z) -> np.ndarray:
    """Event counts of the Poisson means ``lam``, drawn from the standard
    normals ``z`` shaped alike: max(0, rint(lam + sqrt(lam) z)).

    A mean of zero gives 0.  The count keeps its Poisson mean and variance
    from a mean of about 3 on; below it the clip and the rounding bias the
    mean upwards: mean count / lam is 1.22 at 0.35, 1.07 at 1 and 1.009 at
    3 (within 1e-3 of 1 from 10 on).
    """
    return np.maximum(0.0, np.rint(lam + np.sqrt(lam) * z))


# each source population's two Raman channels: its clip group
_SOURCES = {src: [i for i, row in enumerate(_noise.RAMAN_CHANNELS)
                  if row[1] == src] for _, src, _ in _noise.RAMAN_CHANNELS}


def _sample_counts(state: EnsembleState, m_s, tp: TransitionProbs,
                   z) -> np.ndarray:
    """Raman transition counts, channels x trials, drawn from the
    standard normals ``z`` shaped alike.

    Channel means are p * m_s weighted by the source population relative to
    the half-polarized operating point N/2, so the standard noise formulas
    hold exactly on the equator and polarized preparations scale with the
    actual source population.
    """
    half = state.n_total / 2.0
    counts = gaussian_counts(np.array([
        getattr(tp, p_attr) * m_s * np.maximum(0.0, getattr(state, src_attr))
        / half for p_attr, src_attr, _ in _noise.RAMAN_CHANNELS]), z)
    # cannot move more atoms than a state holds
    for src_attr, (a, b) in _SOURCES.items():
        pop, out = getattr(state, src_attr), counts[a] + counts[b]
        clip = (out > pop) & (pop > 0)
        if np.any(clip):
            scale = pop / np.where(clip, out, 1)
            pair = counts[[a, b]]
            counts[[a, b]] = np.where(clip, np.trunc(pair * scale), pair)
    return counts


class BatchStream:
    """The random stream of a batch whose trials lie in chunks.

    Chunk j is ``sizes[j]`` consecutive trials of the batch and draws from
    ``generators[j]``.  Each draw of normals makes for every chunk the one
    bulk call that a batch of that chunk alone would make, on the chunk's
    slice of the trial axis (the last), and joins the results along it.
    """

    def __init__(self, generators, sizes) -> None:
        self.generators = tuple(generators)
        ends = np.cumsum(sizes, dtype=np.int64).tolist()
        if not ends or len(ends) != len(self.generators):
            raise ValueError("a stream needs one generator for each of its "
                             "chunks, and at least one chunk")
        self.spans = tuple(zip([0] + ends[:-1], ends))
        self.size = ends[-1]

    @classmethod
    def of(cls, rng, size: int) -> BatchStream:
        """``rng`` if it is a stream, else the stream of one chunk drawing
        from the generator ``rng``; ValueError unless it holds ``size``
        trials."""
        stream = rng if isinstance(rng, cls) else cls((rng,), (size,))
        if stream.size != size:
            raise ValueError(f"a stream of {stream.size} trials cannot "
                             f"draw for {size}")
        return stream

    def normal(self, rows: int | None = None) -> np.ndarray:
        """Standard normals: one per trial, or ``rows`` x trials."""
        lead = () if rows is None else (rows,)
        return np.concatenate([g.standard_normal((*lead, b - a)) for g, (
            a, b) in zip(self.generators, self.spans)], axis=-1)


def _visible_share(jumps, events, tech_var, z) -> np.ndarray:
    """The share of ``events`` (counts with frequency jumps ``jumps``)
    visible in a reading, plus its technical noise of variance
    ``tech_var``, drawn from the standard normals ``z``.

    The visible share of c events sums (1 - tau) over their uniform
    arrival times tau.  Its mean is c/2 and its variance c/12 (the 1/3
    mean square of 1 - tau gives the 2/3 ``BETA_TIME_AVERAGE``).  Shares
    and technical noise enter only the reading, so they are one normal:
    0.5 sum(jump c) + sqrt(tech_var + sum(jump^2 c)/12) z, unclipped, as
    clipping would shrink a small count's variance.
    """
    shifts = [j * c for j, c in zip(jumps, events)]
    var = tech_var + sum(j * s for j, s in zip(jumps, shifts)) / 12.0
    return 0.5 * sum(shifts) + np.sqrt(var) * z


def _apply_counts(state: EnsembleState, counts, offsets,
                  moves) -> EnsembleState:
    """``state`` with populations moved by realized transition counts, and
    each event's persistent offset added to the frequency offset."""
    pulls = [o * c for o, c in zip(offsets, counts)]  # summed in table order
    up, down, one = moves.T @ counts  # sums of integers: exact
    return replace(
        state, freq_offset=state.freq_offset + sum(pulls[1:], pulls[0]),
        pop_up=state.pop_up + up, pop_down=state.pop_down + down,
        pop_one=state.pop_one + one, jz_mean=state.jz_mean + up)


def apply_raman_diffusion(state: EnsembleState, m_s: float,
                          params: SimParams, rng,
                          repump_to_up: bool = False) -> EnsembleState:
    """Apply one window's worth of Raman population diffusion.

    ``m_s`` is the mean scattered photon number at the half-polarized
    reference configuration, and ``rng``, the batch's ``BatchStream`` or
    a lone generator, draws the 4 x trials normals of the counts.  With
    ``repump_to_up`` the |1> state is treated as instantly recycled to up
    (the calibration-experiment regime).
    """
    check_arg(m_s >= 0, "m_s", m_s, "non-negative")
    cav = params.cavity
    counts = _sample_counts(state, m_s, params.transitions, BatchStream.of(
        rng, state.n_total.size).normal(4))
    au = alpha_per_atom("up", np.maximum(state.pop_up, 0.0), cav)
    moves = _noise._REPUMPED_MOVES if repump_to_up else _noise._MOVES
    offsets = _noise._channel_shifts(moves, au, alpha_per_atom(
        "down", 0.0, cav), cav.c1_coupling * au)[0]
    return _apply_counts(state, counts, offsets, moves)


# ---------------------------------------------------------------------------
# the conditional probe measurement


def probe_measure(state: EnsembleState, params: SimParams, rng,
                  m_t: float | None = None, detuning_offset: float = 0.0
                  ) -> tuple[MeasurementOutcome, EnsembleState]:
    """One probe window: measurement, back-action, conditional update.

    ``rng``, the batch's ``BatchStream`` or a lone generator, draws for
    the whole batch in one call per chunk, 8 x trials normals: the
    realized Jz, the read noise (which the Kalman update sees), the
    reading's other noise (the visible shares of the counts and the
    classical and floor noise, merged by ``_visible_share``), and the four
    Raman counts and the recoil photon count, each by ``gaussian_counts``.
    ``m_t`` is the window's realized probe strength (``params.probe.m_t``
    when omitted) and ``detuning_offset`` the trial's probe-cavity detuning
    left after pre-alignment, rad/s; either may hold one value per trial.
    """
    cav, tp, coeffs = params.cavity, params.transitions, params.coeffs
    if m_t is None:
        m_t = params.probe.m_t
    if np.any(m_t <= 0):
        raise ValueError("probe window needs m_t > 0; drop the step instead")
    n = state.n_total
    stream = BatchStream.of(rng, n.size)
    z_jz, z_read, z_noise, *z_counts = stream.normal(8)

    # realized spin projection; the disk projects onto the lab z axis
    cz = state.cos_polar()
    sin2 = np.maximum(0.0, 1.0 - cz * cz)
    jz_true = state.jz_mean + np.sqrt(state.jz_var * sin2) * z_jz
    n_up_true = np.minimum(np.maximum(n / 2.0 + jz_true, 0.0), n)

    m_s = m_t * scattered_ratio(n_up_true, cav)
    au = alpha_per_atom("up", n_up_true, cav)
    ad = alpha_per_atom("down", 0.0, cav)
    a1 = cav.c1_coupling * au
    eps = TWO_PI * cav.recoil_shift_per_photon

    # technical noises of the reading
    offset = detuning_offset / (cav.kappa / 2.0)
    read_sig = _noise.read_noise_freq(m_t, coeffs, cav) * np.sqrt(
        1.0 + params.lineshape_penalty * offset * offset)
    r_c_inj = _noise.classical_injection_coeff(
        coeffs, params.probe.ms_classical_frac, cav, tp)
    class_sig = _noise.injected_classical_freq(
        m_t, n, r_c_inj, coeffs, cav)
    floor_sig = _noise.floor_noise_atoms(coeffs) * au

    # Raman events and recoil photons: full effect persists, a (1 - tau)
    # share shows in this window's reading
    counts = _sample_counts(state, m_s, tp, z_counts[:4])
    n_phot = gaussian_counts(m_s, z_counts[4])
    offsets, jumps = _noise._channel_shifts(_noise._MOVES, au, ad, a1)
    reading = (dressed_shift(n_up_true, cav) + state.freq_offset
               + read_sig * z_read + _visible_share(
                   (*jumps, -eps), (*counts, n_phot),
                   class_sig * class_sig + floor_sig * floor_sig, z_noise))

    # condition the state on the spin information in the reading
    sigma_m = read_sig / au
    sigma_m2 = sigma_m * sigma_m
    eff_var = state.jz_var * sin2
    z = jz_true + sigma_m * z_read
    update = (sigma_m != 0.0) & (eff_var > 0.0)
    denominator = np.where(update, eff_var + sigma_m2, 1.0)
    gain = eff_var / denominator
    exact = (sigma_m == 0.0) & (sin2 > 0.0)
    jz_var = np.where(update, state.jz_var * sigma_m2 / denominator,
                      np.where(exact, 0.0, state.jz_var))
    conditioned = replace(state, jz_var=jz_var, jz_mean=np.where(
        update, state.jz_mean + gain * (z - state.jz_mean),
        np.where(exact, jz_true, state.jz_mean)))

    # persistent back-action; anti-squeezing keeps the uncertainty product
    # legal
    new = _apply_counts(conditioned, counts, offsets, _noise._MOVES)
    contrast = state.contrast * contrast_decay(m_s, n,
                                               params.contrast_excess)
    bound = contrast * n / 4.0
    outcome = MeasurementOutcome(
        freq=reading, n_up=invert_dressed_shift(reading, cav),
        true_jz=jz_true)
    return outcome, replace(
        new, freq_offset=new.freq_offset + -eps * n_phot, contrast=contrast,
        echo_phase=state.echo_phase + params.light_shift_per_photon * m_t,
        jy_var=np.maximum(state.jy_var, bound * bound / np.maximum(
            jz_var, JZ_VAR_FLOOR)))
