"""Simulated noise equals the sum of the enabled analytic terms.

Channels are toggled independently; at 1e5 trial pairs the Monte Carlo
variance estimate must match the analytic sum within 5%.
"""

from dataclasses import replace

import numpy as np
import pytest

import squeezesim as sq
from squeezesim.experiments import expected_r
from squeezesim.state import prepare_css, probe_measure

N = 4.8e5
M_T = 4.1e4
TRIALS = 100_000

BASE = sq.SimParams()
IDEAL = replace(
    BASE,
    transitions=BASE.transitions.zeroed(),
    cavity=replace(BASE.cavity, recoil_shift_per_photon=0.0),
    probe=replace(BASE.probe, ms_classical_frac=0.0, detuning_spread=0.0),
    coeffs=replace(BASE.coeffs, r_tf=0.0, r_c=0.0))


def mc_differenced_r(params: sq.SimParams, seed: int) -> float:
    """Variance of paired measurements on fresh coherent states, in R units.

    Mirrors the sequence engine's trial mechanics (including the
    trial-common probe-power fluctuation) on a bare pre/final pair.
    """
    rng = np.random.default_rng(seed)
    frac = params.probe.ms_classical_frac
    diffs = np.empty(TRIALS)
    for i in range(TRIALS):
        probe = params.probe
        if frac > 0.0:
            power = max(1.0 + frac * rng.standard_normal(), 0.05)
            probe = replace(probe, m_t=probe.m_t * power)
        s = prepare_css(N, params.ensemble)
        a, s = probe_measure(s, probe, params.cavity, params.transitions,
                             params.coeffs, rng)
        b, s = probe_measure(s, probe, params.cavity, params.transitions,
                             params.coeffs, rng)
        diffs[i] = b.n_up - a.n_up
    return float(np.var(diffs, ddof=1) / (N / 4.0))


CASES = {
    "read_only": IDEAL,
    "read_plus_diffusion": replace(IDEAL, transitions=BASE.transitions),
    "read_plus_recoil": replace(IDEAL, cavity=BASE.cavity),
    "read_plus_floor_and_injection": replace(
        IDEAL, coeffs=replace(BASE.coeffs)),
    "all_channels": replace(BASE,
                            probe=replace(BASE.probe, detuning_spread=0.0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_budget_additivity(name):
    import zlib
    params = CASES[name]
    r_mc = mc_differenced_r(params, seed=zlib.crc32(name.encode()))
    expected = expected_r(params, M_T)
    assert r_mc == pytest.approx(expected, rel=0.05), name
