import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squeezesim.config import (
    CALIBRATED_CONTRAST_EXCESS,
    ConfigError,
    default_config,
    echo_config,
    load_config,
    loads_config,
)
from squeezesim.records import RecordIOError, read_records, write_records
from squeezesim.sequence import SimParams, run_trials
from squeezesim.experiments import standard_protocol


class TestConfigLoading:
    def test_empty_text_gives_full_defaults(self):
        cfg = loads_config("")
        assert cfg.get("ensemble", "n_effective") == 4.8e5
        assert cfg.get("probe", "m_t") == 4.1e4
        assert cfg.get("transition", "p_du") == 7.3e-4
        params = cfg.sim_params()
        assert params.ensemble.initial_contrast == 0.97
        assert params.cavity.delta == pytest.approx(2 * math.pi * 200e6)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.ini"
        p.write_text("")
        assert load_config(p) == default_config()

    def test_missing_file_is_load_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.ini")

    def test_range_error_names_key(self):
        with pytest.raises(ConfigError, match="ensemble.n_effective"):
            loads_config("[ensemble]\nn_effective = -1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="ensemble.n_atoms"):
            loads_config("[ensemble]\nn_atoms = 5\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="lasers"):
            loads_config("[lasers]\npower = 2\n")

    def test_malformed_value_named(self):
        with pytest.raises(ConfigError, match="probe.m_t"):
            loads_config("[probe]\nm_t = lots\n")

    def test_kappa_cross_check(self):
        with pytest.raises(ConfigError, match="kappa0"):
            loads_config("[cavity]\nkappa0_hz = 2e7\n")

    def test_legacy_clock_state_scenario_loads(self):
        cfg = loads_config("[transition]\np_ud = 0.6667\n")
        params = cfg.sim_params()
        assert params.transitions.p_ud == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_calibrated_contrast_excess_loads(self):
        cfg = loads_config(
            f"[noise]\ncontrast_excess = {CALIBRATED_CONTRAST_EXCESS}\n")
        assert cfg.sim_params().contrast_excess == CALIBRATED_CONTRAST_EXCESS

    def test_defaults_match_dataclass_defaults(self):
        assert default_config().sim_params() == SimParams()

    @pytest.mark.parametrize("key", ["probe.window_s", "noise.opto_amp_hz",
                                     "noise.opto_tau0_s", "noise.opto_asym"])
    def test_removed_keys_named(self, key):
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=key):
            loads_config(f"[{section}]\n{name} = 0.5\n")

    def test_fractional_count_named(self):
        with pytest.raises(ConfigError, match="run.trials"):
            loads_config("[run]\ntrials = 2.5\n")
        assert loads_config("[run]\ntrials = 2e3\n").trials == 2000

    def test_overrides_apply(self):
        cfg = loads_config("[ensemble]\nn_effective = 2.1e5\n"
                           "[run]\nmaster_seed = 7\ntrials = 50\n")
        assert cfg.master_seed == 7
        assert cfg.trials == 50
        assert cfg.sim_params().ensemble.n_effective == 2.1e5


class TestConfigEcho:
    def test_fixed_point(self):
        cfg = loads_config("[ensemble]\nn_effective = 123456.0\n"
                           "[noise]\ncontrast_excess = 1.9\n")
        echoed = echo_config(cfg)
        assert loads_config(echoed) == cfg

    def test_default_fixed_point(self):
        cfg = default_config()
        assert loads_config(echo_config(cfg)) == cfg

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e3, max_value=1e7),
           st.floats(min_value=0.01, max_value=1.0),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_fixed_point_random_overrides(self, n_eff, contrast, seed):
        text = (f"[ensemble]\nn_effective = {n_eff!r}\n"
                f"initial_contrast = {contrast!r}\n"
                f"[run]\nmaster_seed = {seed}\n")
        cfg = loads_config(text)
        assert loads_config(echo_config(cfg)) == cfg


class TestRecordIO:
    def make_records(self, n=20, seed=5):
        return run_trials(standard_protocol(), SimParams(), n, seed)

    def test_roundtrip_bit_exact(self, tmp_path):
        rs = self.make_records(100)
        path = tmp_path / "records.csv"
        write_records(rs, path)
        back = read_records(path)
        assert back == rs

    def test_missing_column_named(self, tmp_path):
        rs = self.make_records(5)
        path = tmp_path / "records.csv"
        write_records(rs, path)
        text = path.read_text().replace("Np,", "Nq,")
        path.write_text(text)
        with pytest.raises(RecordIOError, match="'Np'"):
            read_records(path)

    def test_missing_sidecar(self, tmp_path):
        rs = self.make_records(3)
        path = tmp_path / "records.csv"
        write_records(rs, path)
        (tmp_path / "records.csv.meta.json").unlink()
        with pytest.raises(RecordIOError, match="sidecar"):
            read_records(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(RecordIOError):
            read_records(tmp_path / "none.csv")

    def test_schema_comment_present(self, tmp_path):
        rs = self.make_records(2)
        path = tmp_path / "records.csv"
        write_records(rs, path)
        first, header = path.read_text().splitlines()[:2]
        assert first == "# schema=1"
        cols = header.split(",")
        assert cols[:6] == ["trial", "seed", "Nd", "Np", "Nf",
                            "omega_p_offset_hz"]

    def test_large_set_roundtrip_under_budget(self, tmp_path):
        # informational local benchmark: 1e5 trials must round trip in < 5 s
        import time
        rng = np.random.default_rng(0)
        from squeezesim.sequence import LabeledOutcome, RecordSet, TrialRecord
        trials = tuple(
            TrialRecord(
                outcomes={"Np": LabeledOutcome(*rng.standard_normal(2)),
                          "Nf": LabeledOutcome(*rng.standard_normal(2))},
                true_jz_trace=(float(rng.standard_normal()),),
                seed=i)
            for i in range(100_000))
        rs = RecordSet(trials, SimParams().snapshot(), 0)
        path = tmp_path / "big.csv"
        t0 = time.perf_counter()
        write_records(rs, path)
        back = read_records(path)
        elapsed = time.perf_counter() - t0
        assert back == rs
        assert elapsed < 5.0
