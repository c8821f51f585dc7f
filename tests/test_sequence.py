import ast
import math
import pickle
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from squeezesim import sequence
from squeezesim.defaults import RULES
from squeezesim.records import read_records, write_records
from squeezesim.sequence import (
    LabeledOutcome,
    MicrowavePulse,
    OpticalPump,
    Prealign,
    ProbeStep,
    Protocol,
    ProtocolError,
    RecordSet,
    Scatter,
    SimParams,
    TrialRecord,
    parse_protocol,
    run_grid,
    run_trial,
    run_trials,
)
from squeezesim.stats import spin_noise_reduction
from squeezesim.experiments import SQUEEZING_PROTOCOL_TEXT, standard_protocol

PARAMS = SimParams()


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def chunk_generator(master_seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed,
                                                        spawn_key=(k,)))


class RaisingDraws:
    """A generator whose every draw fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"a draw was made: {name}")


class TestParser:
    def test_squeezing_sequence(self):
        p = parse_protocol("pump down\npulse 90 0\nprobe Nd\npulse 180 0\n"
                           "probe Np\nprobe Nf")
        assert len(p.steps) == 6
        assert p.probe_labels == ("Nd", "Np", "Nf")
        assert p.steps[1] == MicrowavePulse(math.pi / 2, 0.0)

    def test_empty_text_is_noop_protocol(self):
        p = parse_protocol("")
        assert p.steps == ()
        rs = run_trial(p, PARAMS, rng(1), 1)
        assert rs.labels == () and len(rs) == 1
        assert rs.trials[0].outcomes == {}

    def test_duplicate_label(self):
        with pytest.raises(ProtocolError, match="duplicate"):
            parse_protocol("probe X\nprobe X")

    def test_unknown_keyword_names_line(self):
        with pytest.raises(ProtocolError, match="line 2"):
            parse_protocol("pump down\nflip 90")

    def test_malformed_number_names_line(self):
        with pytest.raises(ProtocolError, match="line 1"):
            parse_protocol("pulse ninety 0")

    def test_comments_and_blanks_skipped(self):
        p = parse_protocol("# a comment\n\nprealign\npump up\n")
        assert len(p.steps) == 2
        assert isinstance(p.steps[0], Prealign)

    def test_mt_override(self):
        p = parse_protocol("probe A mt=123.5")
        assert p.steps[0] == ProbeStep("A", 123.5)

    def test_scatter_step(self):
        p = parse_protocol("scatter 0\nscatter 1.5e4")
        assert p.steps == (Scatter(0.0), Scatter(1.5e4))

    @pytest.mark.parametrize("text,message", [
        ("probe Np mt=nan", "probe.m_t must be finite (got nan)"),
        ("probe Np mt=inf", "probe.m_t must be finite (got inf)"),
        ("pulse 90 inf", "pulse.phase must be finite (got inf)"),
        ("pulse nan 0", "pulse.angle must be finite (got nan)"),
        ("pulse 90 0 extra", "expected: pulse <deg> <phase_deg>"),
        ("pump", "expected: pump <up|down>"),
        ("pump sideways",
         "pump.target must be 'up' or 'down' (got 'sideways')"),
        ("probe A B C", "expected: probe <label> [mt=<float>]"),
        ("prealign now", "expected: prealign"),
        ("scatter", "expected: scatter <mt>"),
        ("scatter 1e4 2e4", "expected: scatter <mt>"),
        ("scatter nan", "scatter.m_t must be finite (got nan)"),
        ("scatter inf", "scatter.m_t must be finite (got inf)"),
        ("scatter -1", "scatter.m_t must be >= 0 (got -1.0)"),
        ("probe A mt=0", "probe.m_t must be > 0 (got 0.0)"),
        ("probe B mt=-3", "probe.m_t must be > 0 (got -3.0)"),
    ])
    def test_bad_step_named_at_parse(self, text, message):
        with pytest.raises(ProtocolError) as err:
            parse_protocol(f"pump down\n{text}\nprobe Z")
        assert str(err.value) == f"line 2: {message}"

    def test_manual_duplicate_rejected(self):
        with pytest.raises(ProtocolError):
            Protocol((ProbeStep("A"), ProbeStep("A")))

    def test_manual_step_that_is_no_step_rejected(self):
        # a line of protocol text is not a step
        with pytest.raises(ProtocolError, match="unhandled step 'pump down'"):
            Protocol((OpticalPump("down"), "pump down"))


class TestStepRules:
    def test_each_number_of_each_step_kind_has_one_rule(self):
        # a step's numbers are its float fields, and each has the one row
        # <keyword>.<field> of RULES["steps"]; no row is left unread
        keys = []
        for keyword, kind in sequence._KINDS.items():
            numbers = [f.name for f in fields(kind) if "float" in f.type]
            assert list(kind._numbers) == numbers
            keys += [f"{keyword}.{name}" for name in numbers]
        assert sorted(keys) == sorted(RULES["steps"])


class TestRunTrial:
    def test_structural_labels(self):
        rec = run_trial(standard_protocol(), PARAMS, rng(17), 1).trials[0]
        assert set(rec.outcomes) == {"Nd", "Np", "Nf"}
        assert len(rec.true_jz_trace) == 3

    def test_same_seed_bit_identical(self):
        a = run_trial(standard_protocol(), PARAMS, rng(99), 5)
        b = run_trial(standard_protocol(), PARAMS, rng(99), 5)
        assert a == b

    def test_zero_mt_probe_is_configuration_error(self):
        # refused before any draw
        proto = parse_protocol("probe A")
        with pytest.raises(ProtocolError):
            run_trial(proto, PARAMS.with_mt(0.0), RaisingDraws(), 1)

    def test_nominal_noise_reduction_band(self):
        # 800 trials at the reference operating point: the band reaches
        # 1.7 standard errors of 1/R above the expected 16.6 and 3.1 below,
        # and 31 of 32 seeds land inside
        rs = run_trials(standard_protocol(), PARAMS, 800,
                        master_seed=20260810)
        r = spin_noise_reduction(rs, "Nf", "Np")
        assert 1.0 / 18.0 <= r <= 1.0 / 14.0

    def test_prealign_offset_recorded(self):
        rs = run_trial(standard_protocol(), PARAMS, rng(23), 4)
        assert np.all(rs.omega_p_offset_hz != 0.0)
        no_prealign = parse_protocol("pump down\npulse 90 0\nprobe A")
        rs2 = run_trial(no_prealign, PARAMS, rng(23), 4)
        assert rs2.omega_p_offset_hz.tolist() == [0.0] * 4


class TestRunTrials:
    def test_trial_count(self):
        rs = run_trials(standard_protocol(), PARAMS, 100, master_seed=7)
        assert len(rs.trials) == 100

    def test_single_trial_matches_run_trial(self):
        rs = run_trials(standard_protocol(), PARAMS, 1, master_seed=7)
        direct = run_trial(standard_protocol(), PARAMS, chunk_generator(7, 0),
                           1)
        assert rs.trials == direct.trials

    def test_parallel_equals_serial(self):
        serial = run_trials(standard_protocol(), PARAMS, 40, master_seed=7,
                            workers=1)
        threaded = run_trials(standard_protocol(), PARAMS, 40, master_seed=7,
                              workers=4)
        assert serial == threaded

    def test_env_var_caps_workers(self):
        many = run_trials(standard_protocol(), PARAMS, 20, master_seed=9,
                          workers=8)
        plain = run_trials(standard_protocol(), PARAMS, 20, master_seed=9)
        assert many == plain

    def test_env_var_garbage_named(self, monkeypatch):
        # SQUEEZE_SIM_THREADS is no longer read: garbage in it changes nothing
        plain = run_trials(standard_protocol(), PARAMS, 2, master_seed=9)
        monkeypatch.setenv("SQUEEZE_SIM_THREADS", "abc")
        assert run_trials(standard_protocol(), PARAMS, 2,
                          master_seed=9) == plain

    def test_no_module_reads_the_environment(self):
        # a run reads its config, flags and seed, and no environment knob
        package = Path(sequence.__file__).parent
        for module in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(module.read_text())):
                name = (node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                assert name not in ("environ", "environb", "getenv",
                                    "getenvb"), f"{module.name} reads {name}"

    def test_bad_worker_count_named(self):
        with pytest.raises(ValueError, match=r"workers must be >= 1, got 0"):
            run_trials(standard_protocol(), PARAMS, 2, master_seed=9,
                       workers=0)

    def test_params_snapshot_holds_knobs_once(self):
        params = replace(PARAMS, contrast_excess=1.9, lineshape_penalty=3.0)
        rs = run_trials(standard_protocol(), params, 2, master_seed=9)
        assert rs.params["contrast_excess"] == 1.9
        assert rs.params["lineshape_penalty"] == 3.0
        assert {k for k in rs.params if k.startswith("probe.")} == {
            "probe.m_t", "probe.detuning_spread", "probe.ms_classical_frac"}

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_trials(standard_protocol(), PARAMS, 0, master_seed=1)

    @pytest.mark.parametrize("n", [2.5, 1.0, -1])
    def test_trial_count_must_be_an_integer_of_at_least_one(self, n):
        message = rf"n_trials must be an integer >= 1 \(got {n!r}\)"
        with pytest.raises(ValueError, match=message):
            run_trials(standard_protocol(), PARAMS, n, master_seed=1)
        with pytest.raises(ValueError, match=message):
            run_grid([(standard_protocol(), PARAMS, 1)], n)

    # a hand-built step that the parser would refuse, or that holds what
    # no protocol line can (no number but a probe's m_t may be None: the
    # configured strength), and its message
    @pytest.mark.parametrize("kind,args,message", [
        *(pytest.param(Scatter, (m_t,), f"scatter.m_t must be {rule} (got "
                       f"{m_t})", id=str(m_t))
          for m_t, rule in ((-1.0, ">= 0"), (math.nan, "finite"),
                            (math.inf, "finite"))),
        pytest.param(OpticalPump, ("sideways",), "pump.target must be 'up' "
                     "or 'down' (got 'sideways')", id="pump"),
        pytest.param(MicrowavePulse, (math.nan, 0.0), "pulse.angle must be "
                     "finite (got nan)", id="pulse-nan"),
        *(pytest.param(ProbeStep, ("B", m_t), f"probe.m_t must be finite "
                       f"(got {m_t})", id=f"probe-{m_t}")
          for m_t in (math.nan, math.inf)),
        pytest.param(MicrowavePulse, (None, 0.0), "pulse.angle must be a "
                     "number (got None)", id="pulse-None"),
        pytest.param(MicrowavePulse, (0.0, None), "pulse.phase must be a "
                     "number (got None)", id="pulse-phase-None"),
        pytest.param(Scatter, (None,), "scatter.m_t must be a number (got "
                     "None)", id="scatter-None"),
        pytest.param(Scatter, ("5",), "scatter.m_t must be a number (got "
                     "'5')", id="scatter-str"),
        pytest.param(Scatter, (True,), "scatter.m_t must be a number (got "
                     "True)", id="scatter-bool"),
        pytest.param(ProbeStep, ("A", "5"), "probe.m_t must be a number "
                     "(got '5')", id="probe-str"),
        # a label no record file could name: read_records refuses it
        pytest.param(ProbeStep, (5,), "probe.label must be a string (got "
                     "5)", id="probe-label-int")])
    def test_bad_scatter_strength_named_before_any_trial(self, kind, args,
                                                         message):
        # refused when built, so no protocol, and no trial, can hold it
        with pytest.raises(ValueError) as err:
            kind(*args)
        assert str(err.value) == message

    def test_each_point_checked_once(self, monkeypatch):
        # a sweep's 15 points of 1000 trials run as 4 batches: every step
        # rule ran when the points' steps were built, and neither a point
        # nor a batch applies one again
        checks = []
        real_check = sequence.check_value

        def counted(section, key, *args):
            checks.append((section, key))
            return real_check(section, key, *args)

        strengths = np.logspace(3, 5, 15)
        points = [(standard_protocol(), PARAMS.with_mt(m_t), 1)
                  for m_t in strengths]
        calls = []
        real_run = sequence.run_trial
        monkeypatch.setattr(sequence, "check_value", counted)
        monkeypatch.setattr(sequence, "run_trial",
                            lambda *args: calls.append(1) or real_run(*args))
        assert len(list(run_grid(points, 1000))) == 15
        assert len(calls) == 4
        assert checks == [("cli", "n_trials")]

    @pytest.mark.parametrize("n", ["3", None, True])
    def test_trial_count_that_is_not_a_number_is_named(self, n):
        message = rf"n_trials must be a number \(got {n!r}\)"
        with pytest.raises(ValueError, match=message):
            run_trials(standard_protocol(), PARAMS, n, master_seed=1)


def synthetic_records(n_trials: int, sigma: float, n_atoms: float,
                      seed: int) -> RecordSet:
    rng = np.random.default_rng(seed)
    trials = []
    for i in range(n_trials):
        diff = float(rng.normal(0.0, sigma))
        trials.append(TrialRecord(
            outcomes={"Np": LabeledOutcome(n_up=0.0, freq_hz=0.0),
                      "Nf": LabeledOutcome(n_up=diff, freq_hz=0.0)},
            true_jz_trace=()))
    params = SimParams().snapshot()
    params["ensemble.n_effective"] = n_atoms
    return RecordSet(trials=tuple(trials), params=params, master_seed=seed)


class TestSpinNoiseReduction:
    def test_css_baseline_unity(self):
        # differences drawn with variance N/4 give R = 1 up to sampling
        n = 4.8e5
        rng = np.random.default_rng(2)
        trials = []
        for i in range(4000):
            d = float(rng.normal(0.0, math.sqrt(n / 4.0)))
            trials.append(TrialRecord(
                outcomes={"Np": LabeledOutcome(0.0, 0.0),
                          "Nf": LabeledOutcome(d, 0.0)},
                true_jz_trace=()))
        params = SimParams().snapshot()
        rs = RecordSet(tuple(trials), params, 2)
        r = spin_noise_reduction(rs, "Nf", "Np")
        assert r == pytest.approx(1.0, abs=3.0 * math.sqrt(2.0 / 3999))

    def test_estimator_consistency_chi2(self):
        # known variance ratio recovered within 3 sigma of the chi^2 law
        n = 4.8e5
        sigma = math.sqrt(0.1 * n / 4.0)
        rs = synthetic_records(2000, sigma, n, seed=3)
        r = spin_noise_reduction(rs, "Nf", "Np")
        tol = 3.0 * math.sqrt(2.0 / 1999)
        assert abs(r / 0.1 - 1.0) <= tol

    def test_squeezed_records_far_below_unity(self):
        rs = run_trials(standard_protocol(), PARAMS, 300, master_seed=11)
        assert spin_noise_reduction(rs, "Nf", "Np") < 0.25

    def test_missing_label_error(self):
        rs = run_trials(standard_protocol(), PARAMS, 2, master_seed=1)
        with pytest.raises(KeyError):
            spin_noise_reduction(rs, "Nf", "Nx")

    def test_needs_two_trials(self):
        rs = run_trials(standard_protocol(), PARAMS, 1, master_seed=1)
        with pytest.raises(ValueError):
            spin_noise_reduction(rs, "Nf", "Np")


class TestSpinEcho:
    def test_pi_pulse_cancels_static_light_shift(self):
        # with the inhomogeneous light shift enabled, the echo protocol
        # preserves fringe amplitude; dropping the pi pulse reveals the cost
        params = replace(PARAMS, light_shift_per_photon=2e-5)

        n = PARAMS.ensemble.n_effective

        def fringe_amplitude(with_echo: bool) -> float:
            lines = ["pump down", "pulse 90 0", "probe A"]
            if with_echo:
                lines.append("pulse 180 0")
            lines += ["probe B", "pulse 90 0", "probe C"]
            proto = parse_protocol("\n".join(lines))
            rs = run_trials(proto, params, 60, master_seed=31)
            # the final pulse lands on a pole: |mean - N/2| = C_eff * N/2
            return abs(float(np.mean(rs.column("C"))) - n / 2.0)

        with_echo = fringe_amplitude(True)
        without = fringe_amplitude(False)
        assert with_echo > without + 0.01 * n / 2.0

    def test_light_shift_off_by_default(self):
        assert PARAMS.light_shift_per_photon == 0.0


class TestColumnStorage:
    def test_records_view_round_trips_to_the_same_columns(self):
        rs = run_trials(standard_protocol(), PARAMS, 30, master_seed=8)
        again = RecordSet(trials=rs.trials, params=rs.params,
                          master_seed=rs.master_seed)
        assert again == rs
        assert RecordSet(rs.trials, rs.params, rs.master_seed) == rs
        assert again.trials == rs.trials
        chunk = run_trial(standard_protocol(), PARAMS, chunk_generator(8, 0),
                          30)
        for i in (0, 17, 29):
            assert rs.trials[i] == chunk.trials[i]

    def test_columns_and_shapes(self):
        rs = run_trials(standard_protocol(), PARAMS, 7, master_seed=8)
        assert len(rs) == 7
        assert rs.labels == ("Nd", "Np", "Nf")
        assert rs.omega_p_offset_hz.dtype == np.float64
        assert rs.true_jz.shape == (7, 3)
        assert rs.n_up.shape == rs.freq_hz.shape == (7, 3)
        assert rs.column("Np").tolist() == rs.n_up[:, 1].tolist()
        assert np.shares_memory(rs.column("Np"), rs.n_up)
        assert rs.trials is rs.trials  # built once

    def test_read_only(self):
        rs = run_trials(standard_protocol(), PARAMS, 3, master_seed=8)
        for column in (rs.omega_p_offset_hz, rs.true_jz, rs.n_up,
                       rs.freq_hz, rs.column("Np")):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        with pytest.raises(AttributeError, match="read-only"):
            rs.true_jz = rs.true_jz
        back = pickle.loads(pickle.dumps(rs))
        assert back == rs
        for name in ("omega_p_offset_hz", "n_up", "freq_hz", "true_jz"):
            assert getattr(back, name).flags.writeable is False, name

    def test_records_are_not_copied(self, monkeypatch):
        # from_columns takes ownership: it keeps and freezes its arrays
        arrays = {"omega_p_offset_hz": np.zeros(4), "n_up": np.ones((4, 2)),
                  "freq_hz": np.ones((4, 2)), "true_jz": np.ones((4, 3))}
        rs = RecordSet.from_columns({}, None, labels=("A", "B"), **arrays)
        for name, array in arrays.items():
            assert np.shares_memory(getattr(rs, name), array), name
            assert not array.flags.writeable, name
        # a point's arrays are the ones run_grid filled, handed over
        handed = []
        real_from_columns = RecordSet.from_columns

        def spy(cls, *args, **kwargs):
            handed.append(kwargs)
            return real_from_columns(*args, **kwargs)

        monkeypatch.setattr(RecordSet, "from_columns", classmethod(spy))
        rs = run_trials(standard_protocol(), PARAMS, 1100, master_seed=8)
        for name in arrays:
            assert np.shares_memory(getattr(rs, name), handed[-1][name])
            assert getattr(rs, name).shape[0] == 1100

    @pytest.mark.parametrize("name,shape", [
        ("omega_p_offset_hz", (3,)), ("n_up", (4, 1)), ("freq_hz", (4, 3)),
        ("true_jz", (4,)), ("true_jz", (3, 2))])
    def test_misshapen_arrays_rejected(self, name, shape):
        arrays = {"omega_p_offset_hz": np.zeros(4), "n_up": np.ones((4, 2)),
                  "freq_hz": np.ones((4, 2)), "true_jz": np.ones((4, 2)),
                  name: np.zeros(shape)}
        with pytest.raises(ValueError, match="one row per trial of"):
            RecordSet.from_columns({}, None, labels=("A", "B"), **arrays)

    def test_ragged_traces_rejected(self):
        outcomes = {"Np": LabeledOutcome(0.0, 0.0)}
        trials = (TrialRecord(outcomes, (1.0,)),
                  TrialRecord(outcomes, (1.0, 2.0)))
        with pytest.raises(ValueError, match="ragged true_jz traces"):
            RecordSet(trials, PARAMS.snapshot(), 0)

    def test_mixed_labels_rejected(self):
        trials = (TrialRecord({"Np": LabeledOutcome(0.0, 0.0)}, ()),
                  TrialRecord({"Nf": LabeledOutcome(0.0, 0.0)}, ()))
        with pytest.raises(ValueError, match="same probe labels"):
            RecordSet(trials, PARAMS.snapshot(), 0)

    def test_equality_is_float_equality(self):
        def one(n_up: float, master_seed: int = 0) -> RecordSet:
            rec = TrialRecord({"Np": LabeledOutcome(n_up, 1.0)}, (2.0,))
            return RecordSet((rec,), {"k": 1}, master_seed)

        assert one(0.0) == one(-0.0)
        assert one(math.nan) != one(math.nan)
        assert one(1.0) != one(1.0, master_seed=4)
        assert one(1.0) != one(1.0 + 2**-52)

    def test_no_record_objects_built(self, tmp_path, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a record object was built")

        monkeypatch.setattr(TrialRecord, "__init__", refuse)
        monkeypatch.setattr(LabeledOutcome, "__init__", refuse)
        rs = run_trials(standard_protocol(), PARAMS, 600, master_seed=8)
        write_records(rs, tmp_path / "records.csv")
        back = read_records(tmp_path / "records.csv")
        assert back == rs
        assert spin_noise_reduction(back, "Nf", "Np") > 0.0


class TestDeterminism:
    def test_recordset_pure_function_of_inputs(self):
        a = run_trials(standard_protocol(), PARAMS, 25, master_seed=123)
        b = run_trials(standard_protocol(), PARAMS, 25, master_seed=123)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_trials(standard_protocol(), PARAMS, 5, master_seed=1)
        b = run_trials(standard_protocol(), PARAMS, 5, master_seed=2)
        assert a != b

    def test_protocol_text_constant_matches(self):
        assert parse_protocol(SQUEEZING_PROTOCOL_TEXT) == standard_protocol()
