"""Configuration loading: sectioned key = value text with full defaults.

An empty (or absent) config yields the full default parameter set.  Every
key is validated at load time; unknown sections or keys and out-of-range
values raise :class:`ConfigError` naming the offender.  The effective
config can be echoed back out and reloaded to the identical configuration
(fixed-point property), which is what reruns and metadata rely on.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from pathlib import Path

# CALIBRATED_CONTRAST_EXCESS is imported for callers that take it from here
from .defaults import CALIBRATED_CONTRAST_EXCESS, DEFAULTS, check_value
from .noise import NoiseCoeffs, TransitionProbs
from .physics import TWO_PI, CavityParams, EnsembleParams
from .state import ProbeConfig, SimParams


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: ``values[section][key]``."""

    values: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def sim_params(self) -> SimParams:
        c, e = self.values["cavity"], self.values["ensemble"]
        pr, tr, nz = (self.values["probe"], self.values["transition"],
                      self.values["noise"])
        cavity = CavityParams(  # key <field>_hz is that field in Hz
            **{k[:-3]: TWO_PI * v for k, v in c.items() if k.endswith("_hz")},
            recoil_shift_per_photon=c["recoil_hz_per_photon"],
            c1_coupling=c["c1_coupling"])
        ensemble = EnsembleParams(**e)
        probe = ProbeConfig(
            m_t=pr["m_t"],
            detuning_spread=pr["detuning_spread_frac"] * cavity.kappa / 2.0,
            ms_classical_frac=pr["ms_classical_frac"])
        # [noise] holds the NoiseCoeffs fields and the SimParams knobs
        coeff_keys = NoiseCoeffs.__dataclass_fields__
        coeffs = NoiseCoeffs(**{k: nz[k] for k in coeff_keys})
        knobs = {k: v for k, v in nz.items() if k not in coeff_keys}
        return SimParams(cavity=cavity, ensemble=ensemble, probe=probe,
                         transitions=TransitionProbs(**tr), coeffs=coeffs,
                         **knobs)

    @property
    def master_seed(self) -> int:
        return self.values["run"]["master_seed"]

    @property
    def trials(self) -> int:
        return self.values["run"]["trials"]

    @property
    def output_dir(self) -> str:
        return self.values["run"]["output_dir"]


def default_config() -> RunConfig:
    return RunConfig({s: dict(kv) for s, kv in DEFAULTS.items()})


def _convert(section: str, key: str, raw: str):
    default = DEFAULTS[section][key]
    if isinstance(default, str):
        return raw
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"malformed value for {section}.{key}: {raw!r}") from None
    if not isinstance(default, int):
        return value
    try:
        return int(raw)
    except ValueError:
        pass
    if not value.is_integer():  # integral floats such as 2e3 are accepted
        raise ConfigError(f"{section}.{key} must be an integer (got {raw!r})")
    return int(value)


def loads_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc
    values = {s: dict(kv) for s, kv in DEFAULTS.items()}
    try:
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                value = _convert(section, key, raw)
                if not isinstance(value, str):
                    check_value(section, key, value)
                values[section][key] = value
        cfg = RunConfig(values)
        cfg.sim_params()  # the dataclasses hold the cross-field rules
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text)


def echo_config(cfg: RunConfig) -> str:
    """Full effective config as loadable text (load(echo(cfg)) == cfg)."""
    out = io.StringIO()
    for section, kv in cfg.values.items():
        out.write(f"[{section}]\n")
        for key, value in kv.items():
            out.write(f"{key} = {value!r}\n" if not isinstance(value, str)
                      else f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()
