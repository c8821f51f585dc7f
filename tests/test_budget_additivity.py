"""Simulated noise equals the sum of the enabled analytic terms.

Channels are toggled independently; at 1e5 trials of a bare pre/final
probe pair on a coherent state the Monte Carlo variance estimate must
match the analytic sum within 5%.
"""

from dataclasses import replace

import pytest

import squeezesim as sq
from squeezesim.experiments import expected_r

M_T = 4.1e4
TRIALS = 100_000

BASE = sq.SimParams()
IDEAL = replace(
    BASE,
    transitions=BASE.transitions.zeroed(),
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_budget_additivity(name):
    import zlib
    params = CASES[name]
    rs = sq.run_trials(PAIR, params, TRIALS, zlib.crc32(name.encode()))
    r_mc = sq.spin_noise_reduction(rs, "Nf", "Np")
    expected = expected_r(params, M_T)
    assert r_mc == pytest.approx(expected, rel=0.05), name
