"""The nominal parameter set in config-file units: every default, once.

The config loader and the parameter dataclasses both take their defaults
from this table.  Frequencies are in Hz; the dataclasses convert Hz to
rad/s (never back), so an echoed config repeats these exact numbers.
"""

# the reference operating point the noise coefficients were fitted at
_N_REFERENCE = 4.8e5
_M_REFERENCE = 4.1e4

# section -> key -> default, in echo order.  noise.contrast_excess is the
# excess contrast-decay knob (0 = pure free-space-scattering law; 1.9
# reproduces the observed enhancement optimum).
DEFAULTS: dict[str, dict] = {
    "cavity": {
        "g_hz": 447e3,
        "kappa_hz": 11.8e6,
        "kappa0_hz": 5.02e6,
        "delta_hz": 200e6,
        "gamma_hz": 6.07e6,
        "omega_ax_hz": 150e3,
        "omega_hf_hz": 6.834e9,
        "recoil_hz_per_photon": 1.3,
        "c1_coupling": 2.0 / 3.0,
    },
    "ensemble": {
        "n_effective": _N_REFERENCE,
        "coupling_fraction": 0.663,
        "initial_contrast": 0.97,
    },
    "probe": {
        "m_t": _M_REFERENCE,
        "detuning_spread_frac": 0.045,   # of kappa/2
        "ms_classical_frac": 0.04,
    },
    "transition": {
        "p_ud": 8e-4,
        "p_du": 7.3e-4,
        "p_u1": 3.9e-3,
        "p_d1": 3.6e-4,
    },
    "noise": {
        "r_psn": _M_REFERENCE / 32.0,
        "r_tf": 1.0 / 73.0,
        "r_q": 0.0,
        "r_c": (1.0 / 67.0) / (_M_REFERENCE ** 2),
        "n_reference": _N_REFERENCE,
        "m_reference": _M_REFERENCE,
        "laser_linewidth_rinv": 520.0,
        "lineshape_penalty": 1.0,
        "contrast_excess": 0.0,
        "light_shift_per_photon": 0.0,
        "rotation_angle_noise": 0.0,
        "rotation_phase_noise": 0.0,
    },
    "run": {
        "master_seed": 20260810,
        "trials": 200,
        "output_dir": "out",
    },
}
