import json
import math
import re
import tempfile
from pathlib import Path

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
from squeezesim.defaults import DEFAULTS, RULES
from squeezesim.noise import NoiseCoeffs
from squeezesim.physics import TWO_PI, CavityParams, EnsembleParams
from squeezesim.state import ProbeConfig, TransitionProbs
from squeezesim import records
from squeezesim.records import RecordIOError, read_records, write_records
from squeezesim.sequence import RecordSet, SimParams, run_trials
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


# values just outside each rule of the range table
_OUT_OF_RANGE = {
    "must be > 0": [0.0],
    "must be >= 0": [-1e-9],
    "must lie in [0, 1)": [-1e-9, 1.0],
    "must lie in (0, 1]": [0.0, 1.0 + 1e-9],
    "must lie in [0, 1]": [-1e-9, 1.0 + 1e-9],
}
_NUMERIC_KEYS = [f"{section}.{key}" for section, kv in DEFAULTS.items()
                 for key, value in kv.items() if not isinstance(value, str)]


def _dataclass_field(section, key):
    """The parameter dataclass and field that config key section.key sets,
    and the factor from config units to the field's units."""
    if section == "cavity" and key.endswith("_hz"):
        return CavityParams, key[:-3], TWO_PI
    if (section, key) == ("cavity", "recoil_hz_per_photon"):
        return CavityParams, "recoil_shift_per_photon", 1.0
    if (section, key) == ("probe", "detuning_spread_frac"):
        return ProbeConfig, "detuning_spread", CavityParams().kappa / 2.0
    if section == "noise" and key not in NoiseCoeffs.__dataclass_fields__:
        return SimParams, key, 1.0
    return {"cavity": CavityParams, "ensemble": EnsembleParams,
            "probe": ProbeConfig, "transition": TransitionProbs,
            "noise": NoiseCoeffs}[section], key, 1.0


# direct constructions of values that a config file is rejected for
_DIRECT_CONSTRUCTIONS = [
    ("cavity.g", lambda: CavityParams(g=math.nan)),
    ("cavity.recoil_shift_per_photon",
     lambda: CavityParams(recoil_shift_per_photon=math.inf)),
    ("probe.m_t", lambda: ProbeConfig(m_t=math.nan)),
    ("ensemble.n_effective", lambda: EnsembleParams(n_effective=math.inf)),
    ("noise.laser_linewidth_rinv",
     lambda: NoiseCoeffs(laser_linewidth_rinv=-1)),
    ("noise.contrast_excess", lambda: SimParams(contrast_excess=-1)),
]


class TestRangeRules:
    @pytest.mark.parametrize("name", _NUMERIC_KEYS)
    def test_config_and_dataclass_reject_alike(self, name):
        section, key = name.split(".")
        rule = RULES.get(section, {}).get(key, (None, "must be >= 0"))[1]
        values = _OUT_OF_RANGE[rule] + [math.nan, math.inf]
        if isinstance(DEFAULTS[section][key], int):
            values = [math.floor(v) if math.isfinite(v) else v
                      for v in values]
        for value in values:
            with pytest.raises(ConfigError, match=re.escape(name + " ")) as e:
                loads_config(f"[{section}]\n{key} = {value!r}\n")
            assert repr(value) in str(e.value)
            if section == "run":  # the flags: test_bad_seed_names_the_flag
                continue
            cls, field, scale = _dataclass_field(section, key)
            with pytest.raises(ValueError,
                               match=re.escape(f"{section}.{field} ")):
                cls(**{field: scale * value})

    @pytest.mark.parametrize("name,build", _DIRECT_CONSTRUCTIONS,
                             ids=[name for name, _ in _DIRECT_CONSTRUCTIONS])
    def test_dataclass_rejects_what_config_rejects(self, name, build):
        with pytest.raises(ValueError, match=re.escape(name + " ")):
            build()

    def test_dataclass_names_a_value_that_is_not_a_number(self):
        with pytest.raises(ValueError, match=re.escape(
                "probe.m_t must be a number (got '4e4')")):
            ProbeConfig(m_t="4e4")


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


EDGE_FLOATS = [-0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.797e308, math.inf, -math.inf]


# a schema-1 records file and its sidecar, written when each trial drew
# from a seed of its own: three trials of "prealign / pump down / pulse 90 0
# / probe Np / probe Nf" at default parameters, master seed 5
OLD_RECORDS_CSV = ("# schema=1\n" + "".join(line + "\r\n" for line in (
    "trial,seed,Np,Nf,omega_p_offset_hz,Np_freq_hz,Nf_freq_hz,true_jz_1,"
    "true_jz_2",
    "0,15658875773272509128,239482.37322196414,239058.864258578,"
    "-213841.96338863115,140521794.25388342,140345818.78751752,"
    "-477.10061901742404,-634.3617313805197",
    "1,6924645418555453511,239629.5232080746,239370.15491084626,"
    "239753.13739822007,140582907.5447426,140475178.1007372,"
    "-207.0466011570557,-473.0390394512862",
    "2,1725439304048894018,240547.12764437924,240421.55778787332,"
    "110454.57267703598,140963650.84281024,140911583.44927537,"
    "680.0868120269304,457.47238186299853"))).encode()
OLD_RECORDS_META = {
    "content_hash": "1a6d7c3ba46209bb03bf6298d409150349132a946dfa86ef"
                    "25187099b1fde91d",
    "created": "2026-10-18T14:56:25.693949+00:00",
    "labels": ["Np", "Nf"],
    "master_seed": 5,
    "n_trials": 3,
    "params": {
        "cavity.c1_coupling": 0.6666666666666666,
        "cavity.delta": 1256637061.4359171,
        "cavity.g": 2808583.832309275,
        "cavity.gamma": 38138934.81458009,
        "cavity.kappa": 74141586.62471911,
        "cavity.kappa0": 31541590.242041524,
        "cavity.omega_ax": 942477.7960769379,
        "cavity.omega_hf": 42939288389.26529,
        "cavity.recoil_shift_per_photon": 1.3,
        "coeffs.laser_linewidth_rinv": 520.0,
        "coeffs.m_reference": 41000.0,
        "coeffs.n_reference": 480000.0,
        "coeffs.r_c": 8.878865636126328e-12,
        "coeffs.r_psn": 1281.25,
        "coeffs.r_q": 0.0,
        "coeffs.r_tf": 0.0136986301369863,
        "contrast_excess": 0.0,
        "ensemble.coupling_fraction": 0.663,
        "ensemble.initial_contrast": 0.97,
        "ensemble.n_effective": 480000.0,
        "ensemble.n_loaded": 723981.9004524887,
        "light_shift_per_photon": 0.0,
        "lineshape_penalty": 1.0,
        "probe.detuning_spread": 1668185.69905618,
        "probe.m_t": 41000.0,
        "probe.ms_classical_frac": 0.04,
        "rotation_angle_noise": 0.0,
        "rotation_phase_noise": 0.0,
        "transitions.p_d1": 0.00036,
        "transitions.p_du": 0.00073,
        "transitions.p_u1": 0.0039,
        "transitions.p_ud": 0.0008,
    },
    "schema": 1,
}


def column_set(offsets, per_label, traces) -> RecordSet:
    """A record set from its columns; ``per_label`` maps a label to its
    (n_up, freq_hz) columns and ``traces`` holds one column per window."""
    def matrix(columns):  # trials x columns
        return np.reshape(columns, (len(columns), len(offsets))).T

    return RecordSet.from_columns(
        SimParams().snapshot(), 2**64 + 3, labels=tuple(per_label),
        omega_p_offset_hz=offsets,
        n_up=matrix([cols[0] for cols in per_label.values()]),
        freq_hz=matrix([cols[1] for cols in per_label.values()]),
        true_jz=matrix(traces))


def assert_same_bits(a: RecordSet, b: RecordSet) -> None:
    def bits(column):
        return column.view(np.uint64).tolist()

    assert a.labels == b.labels
    assert (a.params, a.master_seed) == (b.params, b.master_seed)
    for name in ("omega_p_offset_hz", "n_up", "freq_hz", "true_jz"):
        assert getattr(a, name).shape == getattr(b, name).shape, name
        assert bits(getattr(a, name)) == bits(getattr(b, name)), name


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
        assert first == "# schema=2"
        cols = header.split(",")
        assert cols[:5] == ["trial", "Nd", "Np", "Nf", "omega_p_offset_hz"]

    def test_row_count_must_match_sidecar(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(self.make_records(5), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(RecordIOError,
                           match=r"records\.csv: 4 data rows, .*n_trials = 5"):
            read_records(path)

    def test_short_row_named(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(self.make_records(5), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].rsplit(",", 1)[0] + "\r\n"
        path.write_text("".join(lines))
        with pytest.raises(RecordIOError,
                           match=r"records\.csv, line 4: 10 cells, .* 11"):
            read_records(path)

    def test_cell_not_a_number_named(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(self.make_records(5), path)
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[5].split(",")
        cells[2] = "abc"  # the Np column
        lines[5] = ",".join(cells)
        path.write_text("".join(lines))
        with pytest.raises(RecordIOError, match=r"records\.csv, line 6, "
                           r"column 'Np': 'abc' is not a float64 value"):
            read_records(path)

    def test_rows_numbered_after_a_header_of_several_lines(self, tmp_path):
        # the label's line break, in its own and its _freq_hz column, puts
        # the header on lines 2 to 4 and the first data row on line 5
        path = tmp_path / "records.csv"
        write_records(column_set([0.5, 1.5], {"a\nb": ([1.25, 2.25],
                                                       [4.5, 5.5])},
                                 [[7.0, 8.0]]), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[4] = lines[4].replace(b"1.25", b"abc")
        path.write_bytes(b"".join(lines))
        with pytest.raises(RecordIOError) as err:
            read_records(path)
        assert str(err.value) == (f"{path}, line 5, column 'a\\nb': 'abc' "
                                  "is not a float64 value")

    def test_sidecar_label_without_column_named(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(self.make_records(3), path)
        meta_path = tmp_path / "records.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["labels"].append("Nx")
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(RecordIOError,
                           match=r"records\.csv, line 2: missing column 'Nx'"):
            read_records(path)

    def test_schema_1_file_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(OLD_RECORDS_CSV)
        (tmp_path / "records.csv.meta.json").write_text(
            json.dumps(OLD_RECORDS_META))
        with pytest.raises(RecordIOError) as err:
            read_records(path)
        assert str(err.value) == (
            f"{path}: schema 1 records were written under the per-trial "
            "seed contract, which no longer holds; rerun the command to "
            "write schema 2")

    # each label is also the name of another column: of the trial index,
    # the offsets, the ninth window's trace, or the freq_hz column of Np
    CLASHING_LABELS = ["trial", "omega_p_offset_hz", "true_jz_9",
                       "Np_freq_hz"]

    @staticmethod
    def nine_window_set(label: str) -> RecordSet:
        column = [1.0, 2.0]
        return column_set(column, {"Np": (column, column),
                                   label: (column, column)}, [column] * 9)

    @pytest.mark.parametrize("label", CLASHING_LABELS)
    def test_label_naming_another_column_is_not_written(self, tmp_path,
                                                        label):
        path = tmp_path / "records.csv"
        with pytest.raises(RecordIOError, match=re.escape(
                f"probe label {label!r} is also the name of another "
                "column")):
            write_records(self.nine_window_set(label), path)
        assert not path.exists()

    @pytest.mark.parametrize("label", CLASHING_LABELS)
    def test_header_naming_a_column_twice_is_rejected(self, tmp_path,
                                                      label):
        path = tmp_path / "records.csv"
        write_records(self.nine_window_set("Nx"), path)
        path.write_text(path.read_text().replace("Nx", label))
        meta_path = tmp_path / "records.csv.meta.json"
        meta_path.write_text(meta_path.read_text().replace("Nx", label))
        with pytest.raises(RecordIOError, match=re.escape(
                f"records.csv, line 2: column {label!r} appears more "
                "than once")):
            read_records(path)

    def test_label_starting_like_a_trace_roundtrips(self, tmp_path):
        column = [1.0, 2.0]
        rs = column_set(column, {"true_jz_x": (column, [3.0, 4.0])},
                        [[5.0, 6.0]])
        path = tmp_path / "records.csv"
        write_records(rs, path)
        assert_same_bits(read_records(path), rs)

    @pytest.mark.parametrize("text,problem", [("{not json", "not JSON"),
                                              ("[2]", "not a JSON object")])
    def test_sidecar_that_is_not_a_json_object_is_named(self, tmp_path,
                                                         text, problem):
        path = tmp_path / "records.csv"
        write_records(self.make_records(3), path)
        meta_path = tmp_path / "records.csv.meta.json"
        meta_path.write_text(text)
        with pytest.raises(RecordIOError,
                           match=re.escape(f"{meta_path}: {problem}")):
            read_records(path)

    @pytest.mark.parametrize("key", ["labels", "n_trials", "params",
                                     "master_seed"])
    def test_sidecar_without_an_entry_is_named(self, tmp_path, key):
        path = tmp_path / "records.csv"
        write_records(self.make_records(3), path)
        meta_path = tmp_path / "records.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(RecordIOError) as err:
            read_records(path)
        assert str(err.value) == f"{meta_path}: no {key!r} entry"

    @pytest.mark.parametrize("key,value,rule", [
        ("labels", 5, "must be a list of strings (got 5)"),
        ("labels", [1, 2], "must be a list of strings (got [1, 2])"),
        ("labels", "Np", "must be a list of strings (got 'Np')"),
        ("master_seed", "abc", "must be null or an integer (got 'abc')"),
        ("master_seed", 5.0, "must be null or an integer (got 5.0)"),
        ("master_seed", True, "must be null or an integer (got True)"),
        ("n_trials", "3", "must be an integer >= 0 (got '3')"),
        ("n_trials", True, "must be an integer >= 0 (got True)"),
        ("n_trials", 3.0, "must be an integer >= 0 (got 3.0)"),
        ("n_trials", -3, "must be an integer >= 0 (got -3)"),
        ("params", 5, "must be a JSON object (got 5)"),
        ("params", ["a"], "must be a JSON object (got ['a'])"),
        ("labels", ["Nd", "Nd"], "must be a list of strings that names "
         "'Nd' once (got ['Nd', 'Nd'])")])
    def test_sidecar_entry_of_a_wrong_type_is_named(self, tmp_path, key,
                                                    value, rule):
        path = tmp_path / "records.csv"
        write_records(self.make_records(3), path)
        meta_path = tmp_path / "records.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(RecordIOError) as err:
            read_records(path)
        assert str(err.value) == f"{meta_path}: {key!r} entry {rule}"

    def test_schema_line_that_is_not_a_number_is_named(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(self.make_records(3), path)
        path.write_text(path.read_text().replace("# schema=2",
                                                 "# schema=two"))
        with pytest.raises(RecordIOError) as err:
            read_records(path)
        assert str(err.value) == f"{path}, line 1: unsupported schema 'two'"

    def test_edge_values_roundtrip_bit_exact(self, tmp_path):
        edges = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3,
                 1.797e308, -1.797e308, math.inf, -math.inf, 0.1]
        rs = column_set(edges, {"Np": (edges, edges[::-1])},
                        [edges, edges[::-1]])
        path = tmp_path / "edges.csv"
        write_records(rs, path)
        assert_same_bits(read_records(path), rs)

    def test_every_cell_is_spelled_as_repr_spells_it(self, tmp_path):
        # bits alone would pass a writer that spells 1e16 or 0.00002; every
        # cell of row k holds values[k]
        values = [1e-4, 9.999999999999999e-05, 2.3e-05, 1e16,
                  9999999999999998.0, 5e-324, 1.797e308, 0.0, -0.0,
                  math.inf, -math.inf, math.nan, 0.1, -3.5e10, 1e15]
        rs = column_set(values, {"Np": (values, values), "Nf": (values,
                                                             values)},
                        [values, values])
        path = tmp_path / "records.csv"
        write_records(rs, path)
        rows = path.read_text().splitlines()[2:]
        assert [row.split(",") for row in rows] == [
            [str(k)] + [repr(v)] * 7 for k, v in enumerate(values)]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_column_sets_roundtrip_bit_exact(self, data):
        n = data.draw(st.integers(0, 6))
        labels = data.draw(st.lists(st.sampled_from(["Np", "Nf", "N,d"]),
                                    unique=True, max_size=3))
        windows = data.draw(st.integers(0, 3))
        floats = st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                                    st.floats(allow_nan=False)),
                          min_size=n, max_size=n)
        rs = column_set(
            data.draw(floats),
            {lb: (data.draw(floats), data.draw(floats)) for lb in labels},
            [data.draw(floats) for _ in range(windows)])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            write_records(rs, path)
            back = read_records(path)
        assert_same_bits(back, rs)

    def test_large_set_roundtrip_under_budget(self, tmp_path):
        # informational local benchmark: 1e5 trials must round trip in < 5 s
        import time
        # per trial: Np n_up, Np freq, Nf n_up, Nf freq, the trace
        v = np.random.default_rng(0).standard_normal((100_000, 5))
        rs = RecordSet.from_columns(
            SimParams().snapshot(), 0, labels=("Np", "Nf"),
            omega_p_offset_hz=np.zeros(100_000), n_up=v[:, 0:4:2],
            freq_hz=v[:, 1:4:2], true_jz=v[:, 4:])
        path = tmp_path / "big.csv"
        t0 = time.perf_counter()
        write_records(rs, path)
        back = read_records(path)
        elapsed = time.perf_counter() - t0
        assert back == rs
        assert elapsed < 5.0


class TestReaderPaths:
    """A record file's plain rows are parsed in one orjson call, and only
    its other rows are converted cell by cell; both read every row alike."""

    @staticmethod
    def random_set(seed: int, edges: list[float], n: int | None = None
                   ) -> RecordSet:
        rng = np.random.default_rng(seed)
        n = n or int(rng.integers(1, 40))
        columns = (rng.standard_normal((7, n))
                   * 10.0 ** rng.uniform(-3, 15, (7, n)))
        for value in edges:  # each edge value in one random cell
            columns[rng.integers(7), rng.integers(n)] = value
        return column_set(columns[0], {"Np": (columns[1], columns[2]),
                                       "N,d": (columns[3], columns[4])},
                          columns[5:])

    # the edges that orjson reads but writes unlike repr, the values it does
    # not read at all, and a long file with a nan and a 1.0 spelled +1
    @pytest.mark.parametrize("edges,n", [
        ([], None),
        ([2.3e-05, 1e16, 5e-324, -0.0], None),
        ([math.nan, math.inf, -math.inf, 2.3e-05, 1e16, 5e-324, -0.0], None),
        ([math.nan, 1.0], 2000)],
        ids=["plain", "json-edges", "nan-inf", "nan-and-plus"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sets_roundtrip_bit_exact(self, tmp_path, monkeypatch,
                                             edges, n, seed):
        rs = self.random_set(seed, edges, n)
        path = tmp_path / "records.csv"
        write_records(rs, path)
        path.write_bytes(re.sub(rb"(?<=,)1\.0(?=[,\r])", b"+1",
                                path.read_bytes()))
        # the rows orjson cannot read: a nan or inf, or a cell spelled +1
        values = np.column_stack((rs.omega_p_offset_hz, rs.n_up, rs.freq_hz,
                                  rs.true_jz))
        odd = np.flatnonzero((~np.isfinite(values) | (values == 1.0))
                             .any(axis=1)).tolist()
        parsed = set()
        parse = records._parse

        def spy(path, names, rows):
            parsed.update(rows)
            return parse(path, names, rows)

        monkeypatch.setattr(records, "_parse", spy)
        assert_same_bits(read_records(path), rs)
        assert sorted(parsed) == odd
        if n:  # the nan and the +1 are in two rows of the long file
            assert len(odd) == 2

    def test_plain_file_never_takes_the_text_path(self, tmp_path,
                                                  monkeypatch):
        rs = self.random_set(7, [2.3e-05, 1e16, 5e-324, -0.0])
        path = tmp_path / "records.csv"
        write_records(rs, path)

        def text_path(*args):
            raise AssertionError("a plain file was read as text")

        monkeypatch.setattr(records, "_parse", text_path)
        assert_same_bits(read_records(path), rs)

    def test_minus_zero_label_sends_no_row_through_the_row_scan(
            self, tmp_path, monkeypatch):
        # the header's "N-0," is no cell: the search for a "-0" cell starts
        # at the first data row, so no row is searched on its own
        plain = self.random_set(5, [], 50)
        rs = column_set(plain.omega_p_offset_hz,
                        {"N-0": (plain.n_up[:, 0], plain.freq_hz[:, 0])},
                        plain.true_jz.T)
        path = tmp_path / "records.csv"
        write_records(rs, path)
        assert b"N-0," in path.read_bytes()
        pattern, searched = records._MINUS_ZERO, []

        class Counted:
            def search(self, data, *pos):
                searched.append(len(data))
                return pattern.search(data, *pos)

        monkeypatch.setattr(records, "_MINUS_ZERO", Counted())
        assert_same_bits(read_records(path), rs)
        assert len(searched) == 1

    # trials 0..2; row 1, line 4 of the file, reads
    # 1,11.25,31.75,1.5,21.5,41.5,51.125 (trial, Np, Nf, omega_p_offset_hz,
    # Np_freq_hz, Nf_freq_hz, true_jz_1)
    ROW_1 = b"1,11.25,31.75,1.5,21.5,41.5,51.125\r\n"
    ROW_2 = b"2,12.25,32.75,2.5,22.5,42.5,52.125\r\n"
    SMALL = column_set([0.5, 1.5, 2.5],
                       {"Np": ([10.25, 11.25, 12.25], [20.5, 21.5, 22.5]),
                        "Nf": ([30.75, 31.75, 32.75], [40.5, 41.5, 42.5])},
                       [[50.125, 51.125, 52.125]])

    # each edit of the file, and the message it gives after the file's
    # name or the Nf cell of row 1 it reads
    @pytest.mark.parametrize("old,new,outcome", [
        pytest.param(b"\r\n", b"\n", 31.75, id="lf-line-ends"),
        pytest.param(b",31.75,", b",+1,", 1.0, id="plus"),
        pytest.param(b",31.75,", b",01,", 1.0, id="leading-zero"),
        pytest.param(b",31.75,", b",.5,", 0.5, id="point-first"),
        pytest.param(b",31.75,", b",1.,", 1.0, id="point-last"),
        pytest.param(b",31.75,", b",1E1,", 10.0, id="upper-e"),
        # JSON reads "-0" as the integer 0
        pytest.param(b",31.75,", b",-0,", -0.0, id="minus-zero"),
        pytest.param(b",31.75,", b",1e400,", math.inf, id="overflow"),
        pytest.param(b",31.75,", b",nan,", math.nan, id="nan"),
        pytest.param(b",31.75,", b',"31.75",', ", line 4, column 'Nf': "
                     "'\"31.75\"' is not a float64 value", id="quoted"),
        pytest.param(b",31.75,", b",true,", ", line 4, column 'Nf': 'true' "
                     "is not a float64 value", id="true"),
        pytest.param(b",31.75,", b",,", ", line 4, column 'Nf': '' is not "
                     "a float64 value", id="empty"),
        pytest.param(b",31.75,", b",1e5e5,", ", line 4, column 'Nf': "
                     "'1e5e5' is not a float64 value", id="two-exponents"),
        pytest.param(b",51.125\r", b"\r", ", line 4: 6 cells, but the "
                     "header has 7 columns", id="short-row"),
        pytest.param(b"52.125\r\n", b"52.125\r\n\r\n", ": 4 data rows, "
                     "but the sidecar says n_trials = 3", id="blank-line"),
        # the trial column must read 0, 1, 2: plain rows out of order, on
        # both paths, and a trial cell that is not a number
        pytest.param(ROW_1 + ROW_2, ROW_2 + ROW_1, ", line 4, column "
                     "'trial': 2.0 where 1 belongs; the column must read 0, "
                     "1, ..., n - 1 in order", id="swapped-rows"),
        pytest.param(b"\r\n1,", b"\r\n+2,", ", line 4, column 'trial': "
                     "2.0 where 1 belongs; the column must read 0, 1, ..., "
                     "n - 1 in order", id="trial-out-of-order-as-text"),
        pytest.param(b"\r\n1,", b"\r\nabc,", ", line 4, column 'trial': "
                     "'abc' is not a float64 value", id="trial-not-a-number"),
        # a byte that is not UTF-8 in the header, in a row that the header's
        # text reader decodes with it, and in a row past its first 8 KiB
        pytest.param(b"true_jz_1", b"true_jz_\xff", ", line 2: byte 0xff is "
                     "not UTF-8 text", id="not-utf-8-header"),
        pytest.param(b",31.75,", b",\xff,", ", line 4: byte 0xff is not "
                     "UTF-8 text", id="not-utf-8-row"),
        pytest.param(b",32.75,", b"," + b"1" * 9000 + b"\xff,", ", line 5: "
                     "byte 0xff is not UTF-8 text", id="not-utf-8-far-row")])
    def test_malformed_file_reads_as_text(self, tmp_path, old, new,
                                          outcome):
        path = tmp_path / "records.csv"
        write_records(self.SMALL, path)
        path.write_bytes(path.read_bytes().replace(old, new))
        if isinstance(outcome, str):
            with pytest.raises(RecordIOError) as err:
                read_records(path)
            assert str(err.value) == f"{path}{outcome}"
        else:
            cell = read_records(path).column("Nf")[1]
            assert np.float64(cell).tobytes() == np.float64(outcome).tobytes()
