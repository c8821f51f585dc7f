"""Simulated noise equals the sum of the enabled analytic terms.

Channels are toggled independently; at 1e5 trials of a bare pre/final
probe pair on a coherent state the Monte Carlo variance estimate must
match the analytic sum within 5%.
"""

import zlib
from dataclasses import replace

import pytest

import squeezesim as sq
from squeezesim.experiments import expected_r

M_T = 4.1e4
TRIALS = 100_000

BASE = sq.SimParams()
IDEAL = replace(
    BASE,
    transitions=sq.TransitionProbs(0.0, 0.0, 0.0, 0.0),
    cavity=replace(BASE.cavity, recoil_shift_per_photon=0.0),
    probe=replace(BASE.probe, ms_classical_frac=0.0, detuning_spread=0.0),
    coeffs=replace(BASE.coeffs, r_tf=0.0, r_c=0.0))
PAIR = sq.parse_protocol("pump down\npulse 90 0\nprobe Np\nprobe Nf\n")


CASES = {
    "read_only": IDEAL,
    "read_plus_diffusion": replace(IDEAL, transitions=BASE.transitions),
    "read_plus_recoil": replace(IDEAL, cavity=BASE.cavity),
    "read_plus_floor_and_injection": replace(
        IDEAL, coeffs=replace(BASE.coeffs)),
    "all_channels": replace(BASE,
                            probe=replace(BASE.probe, detuning_spread=0.0)),
    # Raman counts and recoil photons under one strong power draw: their
    # classical responses add in amplitude, with a cross term
    "read_plus_classical_back_action": replace(
        IDEAL, transitions=BASE.transitions, cavity=BASE.cavity,
        probe=replace(IDEAL.probe, ms_classical_frac=0.15)),
}


# the simulated R within 5 % of the analytic sum; a gate (see gates.py)
BANDS = {f"budget {name}": (0.95, 1.05) for name in sorted(CASES)}


def budget_ratio(name: str, k: int = 0) -> float:
    """The simulated R of case ``name`` over the analytic sum, at master
    seed crc32(name) + k (k = 0 is the test's own seed)."""
    params = CASES[name]
    rs = sq.run_trials(PAIR, params, TRIALS,
                       zlib.crc32(name.encode()) + k)
    return sq.spin_noise_reduction(rs, "Nf", "Np") / expected_r(params, M_T)


def budget_ratios(k: int) -> dict[str, float]:
    """``budget_ratio`` of every case, as named in ``BANDS``."""
    return {f"budget {name}": budget_ratio(name, k) for name in sorted(CASES)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_budget_additivity(name):
    lo, hi = BANDS[f"budget {name}"]
    assert lo <= budget_ratio(name) <= hi, name
