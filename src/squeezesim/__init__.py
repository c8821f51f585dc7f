"""Monte Carlo simulator of cavity-aided conditional spin squeezing."""

from .physics import (
    CavityParams,
    EnsembleParams,
    alpha_per_atom,
    dressed_shift,
    effective_atom_number,
    invert_dressed_shift,
    qpn_frequency_fluctuation,
    scattered_ratio,
)
from .state import (
    BatchStream,
    EnsembleState,
    MeasurementOutcome,
    ProbeConfig,
    TransitionProbs,
    apply_raman_diffusion,
    heisenberg_check,
    polarized_state,
    prepare_css,
    probe_measure,
    rotate,
)
from .noise import (
    Alphas,
    BudgetReport,
    FitResult,
    NoiseCoeffs,
    alphas_for_ensemble,
    budget_report,
    fit_r,
    legacy_diffusion_limit,
    model_r,
    opto_noise_term,
    opto_ringing_trace,
    pop_noise_classical,
    pop_noise_quantum,
    recoil_noise,
    spectroscopic_enhancement,
)
from .sequence import (
    Protocol,
    ProtocolError,
    RecordSet,
    SimParams,
    TrialRecord,
    parse_protocol,
    run_grid,
    run_trial,
    run_trials,
    spin_noise_reduction,
)
from .records import read_records, write_records
from .config import (
    CALIBRATED_CONTRAST_EXCESS,
    ConfigError,
    RunConfig,
    default_config,
    echo_config,
    load_config,
    loads_config,
)
from . import experiments

__version__ = "0.1.0"

__all__ = [
    "CavityParams", "EnsembleParams", "alpha_per_atom", "dressed_shift",
    "effective_atom_number", "invert_dressed_shift",
    "qpn_frequency_fluctuation", "scattered_ratio",
    "BatchStream", "EnsembleState", "MeasurementOutcome", "ProbeConfig",
    "TransitionProbs", "apply_raman_diffusion", "heisenberg_check",
    "polarized_state", "prepare_css", "probe_measure", "rotate",
    "Alphas", "BudgetReport", "FitResult", "NoiseCoeffs",
    "alphas_for_ensemble", "budget_report", "fit_r",
    "legacy_diffusion_limit", "model_r", "opto_noise_term",
    "opto_ringing_trace", "pop_noise_classical", "pop_noise_quantum",
    "recoil_noise", "spectroscopic_enhancement",
    "Protocol", "ProtocolError", "RecordSet", "SimParams", "TrialRecord",
    "parse_protocol", "run_grid", "run_trial", "run_trials",
    "spin_noise_reduction",
    "read_records", "write_records",
    "CALIBRATED_CONTRAST_EXCESS", "ConfigError", "RunConfig",
    "default_config", "echo_config", "load_config", "loads_config",
    "experiments",
]
