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
scatter photons (Raman population diffusion + recoil heating, each event
tagged with a uniform arrival time so that a mid-window event is only
partially visible in that window's time-averaged reading), assemble the
noisy dressed-frequency reading, condition the state on the reading
(Kalman update), inflate the anti-squeezed quadrature to respect the
uncertainty relation, and decay the contrast by the free-space-scattering
collapse law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache

import numpy as np

from . import noise as _noise
from .defaults import DEFAULTS
from .physics import (
    TWO_PI,
    CavityParams,
    EnsembleParams,
    alpha_per_atom,
    dressed_shift,
    invert_dressed_shift,
    scattered_ratio,
)

HEISENBERG_SLACK = 1e-9
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
        for name in ("p_ud", "p_du", "p_u1", "p_d1"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"transition.{name} must lie in [0, 1)")

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
        if self.m_t < 0:
            raise ValueError("probe.m_t must be non-negative")
        if self.detuning_spread < 0 or self.ms_classical_frac < 0:
            raise ValueError("probe spreads must be non-negative")


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

    def with_n(self, n_effective: float) -> "SimParams":
        ens = EnsembleParams.from_effective(
            n_effective, self.ensemble.coupling_fraction,
            self.ensemble.initial_contrast)
        return replace(self, ensemble=ens)

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


@dataclass(slots=True)
class EnsembleState:
    """Gaussian-moment collective spin state.

    ``freq_offset`` accumulates persistent probe-induced displacements of
    the dressed frequency (recoil heating plus the dispersive pulls of
    atoms moved out of the up-state bookkeeping); ``echo_phase`` tracks the
    static inhomogeneous light-shift phase refocused by pi pulses.
    """

    n_total: float
    pop_up: float
    pop_down: float
    pop_one: float
    jz_mean: float
    jz_var: float
    jy_var: float
    contrast: float
    azimuth: float = 0.0
    freq_offset: float = 0.0
    echo_phase: float = 0.0

    def copy(self) -> "EnsembleState":
        return replace(self)

    def bloch_length(self) -> float:
        return self.contrast * self.n_total / 2.0

    def cos_polar(self) -> float:
        j = self.bloch_length()
        if j <= 0.0:
            return 0.0
        return min(1.0, max(-1.0, self.jz_mean / j))

    def validate(self) -> None:
        if abs(self.pop_up + self.pop_down + self.pop_one
               - self.n_total) > 1e-6 * self.n_total:
            raise ValueError("population conservation violated")
        if self.jz_var < 0 or self.jy_var < 0:
            raise ValueError("variances must be non-negative")
        if not 0.0 <= self.contrast <= 1.0:
            raise ValueError("contrast must lie in [0, 1]")


@dataclass(frozen=True)
class MeasurementOutcome:
    """One probe window's result: raw frequency and inferred population."""

    freq: float         # dressed-frequency reading, rad/s above bare cavity
    n_up: float         # apparent up population from inverting the shift
    m_s: float          # mean free-space scattered photons this window
    true_jz: float      # realized Jz at the window start (diagnostic)


def prepare_css(n: float, ens: EnsembleParams) -> EnsembleState:
    """Coherent spin state along x-hat: equal populations, noise N/4."""
    if n <= 0:
        raise ValueError("n must be positive")
    return EnsembleState(
        n_total=n, pop_up=n / 2.0, pop_down=n / 2.0, pop_one=0.0,
        jz_mean=0.0, jz_var=n / 4.0, jy_var=n / 4.0,
        contrast=ens.initial_contrast, azimuth=0.0)


def polarized_state(n: float, ens: EnsembleParams,
                    target: str = "down") -> EnsembleState:
    """Optically pumped state with every atom in one spin state.

    The transverse uncertainty disk carries the N/4 quadrature noise that a
    subsequent pi/2 pulse rotates into projection noise; the lab-frame
    population variance of the polarized state itself is zero.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if target not in ("up", "down"):
        raise ValueError(f"unknown pump target {target!r}")
    up = n if target == "up" else 0.0
    return EnsembleState(
        n_total=n, pop_up=up, pop_down=n - up, pop_one=0.0,
        jz_mean=up - n / 2.0, jz_var=n / 4.0, jy_var=n / 4.0,
        contrast=ens.initial_contrast, azimuth=0.0)


def _bloch_unit(state: EnsembleState) -> np.ndarray:
    cz = state.cos_polar()
    sz = math.sqrt(max(0.0, 1.0 - cz * cz))
    return np.array([sz * math.cos(state.azimuth),
                     sz * math.sin(state.azimuth), cz])


def rotate(state: EnsembleState, angle: float,
           pulse_phase: float) -> EnsembleState:
    """Coherent microwave rotation about an equatorial axis.

    The rotation axis sits in the equatorial plane at the pulse phase
    (relative to the preparation pulse); with this convention a pi/2 pulse
    takes the pumped-down state to +x, and a second pi/2 pulse of phase
    theta_R lands at N_up = (N/2)(1 + C cos theta_R).  Rotations are
    noiseless: the uncertainty disk co-rotates, leaving the stored
    quadrature variances untouched.  Exact pi pulses negate the
    accumulated echo phase; any other angle converts coherence and folds
    the accumulated dephasing into the contrast.
    """
    new = state.copy()
    if angle == 0.0:
        return new

    half_turns = angle / math.pi
    is_pi = abs(half_turns - round(half_turns)) < 1e-12 and (
        round(half_turns) % 2 != 0)
    if new.echo_phase != 0.0:
        if is_pi:
            new.echo_phase = -new.echo_phase
        else:
            new.contrast *= math.exp(-0.5 * new.echo_phase ** 2)
            new.echo_phase = 0.0

    u = _bloch_unit(state)
    axis = np.array([math.sin(pulse_phase), -math.cos(pulse_phase), 0.0])
    ca, sa = math.cos(angle), math.sin(angle)
    u2 = (u * ca + np.cross(axis, u) * sa + axis * np.dot(axis, u) * (1 - ca))

    j = new.bloch_length()
    new.jz_mean = j * float(u2[2])
    if u2[0] ** 2 + u2[1] ** 2 > 1e-24:
        new.azimuth = math.atan2(float(u2[1]), float(u2[0]))
    new.pop_up = new.n_total / 2.0 + new.jz_mean
    new.pop_down = new.n_total - new.pop_one - new.pop_up
    return new


def heisenberg_check(state: EnsembleState) -> bool:
    """True iff the quadrature product respects the uncertainty relation."""
    bound = state.contrast * state.n_total / 4.0
    return math.sqrt(state.jz_var * state.jy_var) >= bound * (
        1.0 - HEISENBERG_SLACK)


# ---------------------------------------------------------------------------
# Raman diffusion


# channels: (probability attr, source attr, d_pop_up, d_pop_down, d_pop_one)
_CHANNELS = (
    ("p_ud", "pop_up", -1, +1, 0),
    ("p_du", "pop_down", +1, -1, 0),
    ("p_u1", "pop_up", -1, 0, +1),
    ("p_d1", "pop_down", 0, -1, +1),
)


def _sample_counts(state: EnsembleState, m_s: float, tp: TransitionProbs,
                   rng: np.random.Generator) -> list[int]:
    """Poisson transition counts, one per channel.

    Channel means are p * m_s weighted by the source population relative to
    the half-polarized operating point N/2, so the standard noise formulas
    hold exactly on the equator and polarized preparations scale with the
    actual source population.
    """
    half = state.n_total / 2.0
    counts = []
    for p_attr, src_attr, *_ in _CHANNELS:
        p = getattr(tp, p_attr)
        src = max(0.0, getattr(state, src_attr))
        lam = p * m_s * src / half
        counts.append(int(rng.poisson(lam)) if lam > 0.0 else 0)
    # cannot move more atoms than a state holds
    up_out = counts[0] + counts[2]
    if up_out > state.pop_up > 0:
        scale = state.pop_up / up_out
        counts[0] = int(counts[0] * scale)
        counts[2] = int(counts[2] * scale)
    down_out = counts[1] + counts[3]
    if down_out > state.pop_down > 0:
        scale = state.pop_down / down_out
        counts[1] = int(counts[1] * scale)
        counts[3] = int(counts[3] * scale)
    return counts


def _visible_sum(count: int, rng: np.random.Generator) -> float:
    """Sum of (1 - tau_i) over events with uniform arrival times tau.

    This is the fraction of each event's effect seen by the current
    window's time-averaged reading; its mean-1/3 square statistics are what
    produce the 2/3 time-average factor in the differenced-window noise.
    """
    if count == 0:
        return 0.0
    if count <= 64:
        return float(np.sum(1.0 - rng.random(count)))
    return 0.5 * count + math.sqrt(count / 12.0) * rng.standard_normal()


def _apply_counts(state: EnsembleState, counts: list[int],
                  alphas: tuple[float, float, float],
                  repump_to_up: bool) -> None:
    """Move populations for realized transition counts (in place).

    Updates the persistent frequency offset with the non-up-state
    dispersive pulls each event leaves behind (the up-state part is carried
    by the dressed shift itself).
    """
    au, ad, a1 = alphas
    n_ud, n_du, n_u1, n_d1 = counts
    if repump_to_up:
        # atoms reaching |1> immediately scatter back to up
        state.pop_up += n_du + n_d1 - n_ud
        state.pop_down += n_ud - n_du - n_d1
        state.freq_offset += -ad * (n_du + n_d1) + ad * n_ud
        net_up = n_du + n_d1 - n_ud
    else:
        state.pop_up += n_du - n_ud - n_u1
        state.pop_down += n_ud - n_du - n_d1
        state.pop_one += n_u1 + n_d1
        state.freq_offset += (ad * n_ud - ad * n_du + a1 * n_u1
                              + (a1 - ad) * n_d1)
        net_up = n_du - n_ud - n_u1
    state.jz_mean += net_up


def apply_raman_diffusion(state: EnsembleState, m_s: float,
                          tp: TransitionProbs, rng: np.random.Generator,
                          cav: CavityParams,
                          repump_to_up: bool = False) -> EnsembleState:
    """Apply one window's worth of Raman population diffusion.

    ``m_s`` is the mean scattered photon number at the half-polarized
    reference configuration.  With ``repump_to_up`` the |1> state is
    treated as instantly recycled to up (the calibration-experiment
    regime).
    """
    if m_s < 0:
        raise ValueError("m_s must be non-negative")
    new = state.copy()
    counts = _sample_counts(new, m_s, tp, rng)
    au = alpha_per_atom("up", max(new.pop_up, 0.0), cav)
    ad = alpha_per_atom("down", 0.0, cav)
    _apply_counts(new, counts, (au, ad, cav.c1_coupling * au), repump_to_up)
    return new


# ---------------------------------------------------------------------------
# the conditional probe measurement


@lru_cache(maxsize=16)
def _injection_coeff(coeffs: _noise.NoiseCoeffs, frac: float,
                     cav: CavityParams, tp: TransitionProbs) -> float:
    return _noise.classical_injection_coeff(coeffs, frac, cav, tp)


def probe_measure(state: EnsembleState, probe: ProbeConfig,
                  cav: CavityParams, tp: TransitionProbs,
                  coeffs: _noise.NoiseCoeffs,
                  rng: np.random.Generator, m_t: float | None = None,
                  detuning_offset: float = 0.0,
                  knobs: SimParams = SimParams()
                  ) -> tuple[MeasurementOutcome, EnsembleState]:
    """One probe window: measurement, back-action, conditional update.

    ``m_t`` is the window's realized probe strength (``probe.m_t`` when
    omitted) and ``detuning_offset`` the trial's probe-cavity detuning left
    after pre-alignment, rad/s.  Only the sequence-level knobs of ``knobs``
    are read here: the lineshape penalty, the excess contrast decay and the
    static light shift.
    """
    if m_t is None:
        m_t = probe.m_t
    if m_t <= 0:
        raise ValueError("probe window needs m_t > 0; drop the step instead")
    new = state.copy()
    n = new.n_total

    # realized spin projection; the disk projects onto the lab z axis
    cz = new.cos_polar()
    sin2 = max(0.0, 1.0 - cz * cz)
    jz_true = new.jz_mean
    if sin2 > 0.0 and new.jz_var > 0.0:
        jz_true += math.sqrt(new.jz_var * sin2) * rng.standard_normal()
    n_up_true = min(max(n / 2.0 + jz_true, 0.0), n)

    m_s = m_t * scattered_ratio(n_up_true, cav)
    au = alpha_per_atom("up", n_up_true, cav)
    ad = alpha_per_atom("down", 0.0, cav)
    a1 = cav.c1_coupling * au
    eps = TWO_PI * cav.recoil_shift_per_photon

    # Raman events: full effect persists, a (1 - tau) share shows in this
    # window's reading
    counts = _sample_counts(new, m_s, tp, rng)
    jumps = (ad - au, au - ad, a1 - au, a1 - ad)
    raman_visible = 0.0
    for cnt, jump in zip(counts, jumps):
        if cnt:
            raman_visible += jump * _visible_sum(cnt, rng)

    # recoil heating from the realized scattered photon count
    n_phot = int(rng.poisson(m_s)) if (m_s > 0.0 and eps > 0.0) else 0
    recoil_visible = -eps * _visible_sum(n_phot, rng)

    # technical noises of the reading
    read_sig = _noise.read_noise_freq(m_t, coeffs, cav)
    if knobs.lineshape_penalty and detuning_offset:
        read_sig *= math.sqrt(
            1.0 + knobs.lineshape_penalty
            * (detuning_offset / (cav.kappa / 2.0)) ** 2)
    r_c_inj = _injection_coeff(coeffs, probe.ms_classical_frac, cav, tp)
    class_sig = _noise.injected_classical_freq(
        m_t, n, r_c_inj, coeffs, cav)
    floor_sig = _noise.floor_noise_atoms(coeffs) * au

    read_noise = read_sig * rng.standard_normal() if read_sig > 0 else 0.0
    tech_noise = 0.0
    if class_sig > 0.0:
        tech_noise += class_sig * rng.standard_normal()
    if floor_sig > 0.0:
        tech_noise += floor_sig * rng.standard_normal()

    reading = (dressed_shift(n_up_true, cav) + new.freq_offset
               + raman_visible + recoil_visible + read_noise + tech_noise)

    # condition the state on the spin information in the reading
    sigma_m = read_sig / au if read_sig > 0.0 else 0.0
    eff_var = new.jz_var * sin2
    if sigma_m == 0.0:
        if sin2 > 0.0:
            new.jz_mean = jz_true
            new.jz_var = 0.0
    elif eff_var > 0.0:
        z = jz_true + sigma_m * (read_noise / read_sig)
        gain = eff_var / (eff_var + sigma_m ** 2)
        new.jz_mean += gain * (z - new.jz_mean)
        new.jz_var = new.jz_var * sigma_m ** 2 / (eff_var + sigma_m ** 2)

    # persistent back-action
    _apply_counts(new, counts, (au, ad, a1), repump_to_up=False)
    new.freq_offset += -eps * n_phot
    new.contrast *= math.exp(-(1.0 + knobs.contrast_excess) * m_s / n)
    if knobs.light_shift_per_photon:
        new.echo_phase += knobs.light_shift_per_photon * m_t

    # anti-squeezing keeps the uncertainty product legal
    bound = new.contrast * n / 4.0
    jz_var_floor = max(new.jz_var, 1e-30)
    new.jy_var = max(new.jy_var, bound * bound / jz_var_floor)

    outcome = MeasurementOutcome(
        freq=reading, n_up=invert_dressed_shift(reading, cav),
        m_s=m_s, true_jz=jz_true)
    return outcome, new
