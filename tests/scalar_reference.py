"""The scalar trial engine the batched engine replaced, kept as an oracle.

Everything below the imports is the single-trial code of ``squeezesim``
before trials were batched: one ``EnsembleState`` of floats per trial,
``rotate``, ``apply_raman_diffusion`` and ``probe_measure`` on that state,
``run_trial`` stepping through a protocol, and ``raman_calibration``
running its trials one at a time on that state.  It calls the package's
physics and noise formulas, which give numpy floats of the values the
scalar code computed.  Tests compare ``run_trials`` and
``experiments.raman_calibration`` with it; it is not part of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from squeezesim import noise as _noise
from squeezesim.experiments import CalibrationResult, _sub_seed
from squeezesim.physics import (
    TWO_PI,
    CavityParams,
    EnsembleParams,
    alpha_per_atom,
    dressed_shift,
    invert_dressed_shift,
    scattered_ratio,
)
from squeezesim.sequence import (
    LabeledOutcome,
    MicrowavePulse,
    OpticalPump,
    Prealign,
    ProbeStep,
    Protocol,
    ProtocolError,
    TrialRecord,
    Wait,
    _validate_runnable,
    trial_seed,
)
from squeezesim.state import (
    MeasurementOutcome,
    ProbeConfig,
    SimParams,
    TransitionProbs,
)


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
        # the package's formulas return numpy floats, which warn where
        # Python floats overflowed to inf silently
        with np.errstate(over="ignore"):
            return min(1.0, max(-1.0, self.jz_mean / j))

    def validate(self) -> None:
        if abs(self.pop_up + self.pop_down + self.pop_one
               - self.n_total) > 1e-6 * self.n_total:
            raise ValueError("population conservation violated")
        if self.jz_var < 0 or self.jy_var < 0:
            raise ValueError("variances must be non-negative")
        if not 0.0 <= self.contrast <= 1.0:
            raise ValueError("contrast must lie in [0, 1]")



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
    r_c_inj = _noise.classical_injection_coeff(
        coeffs, probe.ms_classical_frac, cav, tp)
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
                       omega_p_offset_hz=delta_p / TWO_PI)


def _calibration_reading(state, params: SimParams, rng) -> float:
    """Dressed-frequency readout of a (nearly) polarized ensemble, rad/s."""
    read_sig = _noise.read_noise_freq(params.probe.m_t, params.coeffs,
                                      params.cavity)
    return (dressed_shift(max(state.pop_up, 0.0), params.cavity)
            + state.freq_offset + read_sig * rng.standard_normal())


def raman_calibration(params: SimParams, m_t_grid, trials: int,
                      master_seed: int = 0,
                      n_atoms: float = 2.1e5) -> CalibrationResult:
    """Mean dressed-frequency change per transmitted scattering photon.

    Two preparations: all atoms pumped to down (the reading counts atoms
    scattered out of down), and pumped to up with a population swap before
    readout (the reading counts atoms scattered out of up).  Scattering is
    driven at the half-polarized reference flux: transitions for source
    state s scale as p * M_s(N/2) * N_s/(N/2), and atoms reaching |1> are
    treated as instantly recycled to up.  Linear fits of the mean reading
    versus M_t give the two slopes.
    """
    grid = sorted(float(m) for m in m_t_grid)
    if not grid:
        raise ValueError("m_t_grid must be non-empty")
    p = params.with_n(n_atoms)
    cav, tp = p.cavity, p.transitions
    n = p.ensemble.n_effective
    flux_ref = scattered_ratio(n / 2.0, cav)  # photons scattered per M_t
    eps = TWO_PI * cav.recoil_shift_per_photon

    def drive(state, m_t: float, rng):
        m_s_ref = m_t * flux_ref
        new = apply_raman_diffusion(state, m_s_ref, tp, rng, cav,
                                    repump_to_up=True)
        recoil_photons = m_s_ref * max(new.pop_up, 0.0) / (n / 2.0)
        if recoil_photons > 0:
            new.freq_offset -= eps * rng.poisson(recoil_photons)
        return new

    means_down, means_up = [], []
    for i, m_t in enumerate(grid):
        acc_d, acc_u = 0.0, 0.0
        for j in range(trials):
            rng = np.random.default_rng(trial_seed(_sub_seed(master_seed, i),
                                                   j))
            s = polarized_state(n, p.ensemble, "down")
            if m_t > 0:
                s = drive(s, m_t, rng)
            acc_d += _calibration_reading(s, p, rng)

            s = polarized_state(n, p.ensemble, "down")
            s = rotate(s, math.pi, 0.0)
            if m_t > 0:
                s = drive(s, m_t, rng)
            s = rotate(s, math.pi, 0.0)
            acc_u += _calibration_reading(s, p, rng)
        means_down.append(float(acc_d) / trials / TWO_PI)
        means_up.append(float(acc_u) / trials / TWO_PI)

    slope_down = float(np.polyfit(grid, means_down, 1)[0])
    slope_up = float(np.polyfit(grid, means_up, 1)[0])
    return CalibrationResult(
        slope_down_hz=slope_down, slope_up_hz=slope_up,
        m_t_grid=tuple(grid), mean_freq_down_hz=tuple(means_down),
        mean_freq_up_hz=tuple(means_up))
