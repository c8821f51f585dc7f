import json
import warnings

import numpy as np
import pytest

from squeezesim.cli import cli_dispatch
from squeezesim.noise import NoiseCoeffs, model_r
from squeezesim.records import read_records


def test_no_arguments_usage_exit_2(capsys):
    assert cli_dispatch([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exit_2():
    assert cli_dispatch(["make-coffee"]) == 2


def test_unknown_flag_exit_2():
    assert cli_dispatch(["budget", "--frobnicate"]) == 2


def test_budget_writes_table(tmp_path, capsys):
    rc = cli_dispatch(["budget", "--out", str(tmp_path), "--seed", "1"])
    assert rc == 0
    table = (tmp_path / "budget.csv").read_text()
    assert table.startswith("term,R_inv")
    assert "Photon Shot Noise r_PSN,32" in table
    assert "Observed Optimum" in table
    out = capsys.readouterr().out
    assert "Variable Damping" in out


def test_budget_with_config(tmp_path):
    cfgfile = tmp_path / "paper.ini"
    cfgfile.write_text("[probe]\nm_t = 20500\n")
    rc = cli_dispatch(["budget", "--config", str(cfgfile), "--out",
                       str(tmp_path)])
    assert rc == 0
    # photon shot noise scales as M_t: half the probe gives 1/R of 16
    assert "Photon Shot Noise r_PSN,16" in (tmp_path / "budget.csv").read_text()


def test_bad_config_is_diagnostic_exit_1(tmp_path, capsys):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text("[ensemble]\nn_effective = -5\n")
    assert cli_dispatch(["budget", "--config", str(cfgfile)]) == 1
    assert "n_effective" in capsys.readouterr().err


def test_run_protocol_roundtrip(tmp_path):
    proto = tmp_path / "seq.txt"
    proto.write_text("prealign\npump down\npulse 90 0\nprobe Nd\n"
                     "pulse 180 0\nprobe Np\nprobe Nf\n")
    rc = cli_dispatch(["run", "--protocol", str(proto), "--trials", "25",
                       "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    rs = read_records(tmp_path / "records.csv")
    assert len(rs.trials) == 25
    assert rs.labels == ("Nd", "Np", "Nf")


def test_fit_roundtrip(tmp_path):
    truth = NoiseCoeffs(r_psn=1281.25, r_tf=1 / 73.0, r_q=0.0, r_c=8.9e-12)
    rows = ["mt,R"]
    for m in np.logspace(3, 5, 12):
        rows.append(f"{float(m)!r},{model_r(float(m), truth)!r}")
    csvfile = tmp_path / "sweep.csv"
    csvfile.write_text("\n".join(rows) + "\n")
    rc = cli_dispatch(["fit", "--in", str(csvfile), "--boot", "50",
                       "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    payload = json.loads((tmp_path / "fit.json").read_text())
    assert payload["coefficients"]["r_psn"] == pytest.approx(1281.25,
                                                             rel=1e-6)
    assert payload["coefficients"]["r_c"] == pytest.approx(8.9e-12, rel=1e-6)
    assert "intervals_95" in payload


def test_fringe_command(tmp_path, capsys):
    rc = cli_dispatch(["fringe", "--mt", "0", "--points", "10", "--trials",
                       "30", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fringe.csv").exists()
    meta = json.loads((tmp_path / "fringe.meta.json").read_text())
    assert meta["contrast"] == pytest.approx(0.97, abs=0.03)


def test_outputs_reproducible_except_timestamp(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = cli_dispatch(["sweep", "--points", "4", "--mt-min", "1e4",
                           "--mt-max", "5e4", "--trials", "50",
                           "--seed", "9", "--out", str(out)])
        assert rc == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    assert ((a / "sweep.config.ini").read_bytes()
            == (b / "sweep.config.ini").read_bytes())
    ma = json.loads((a / "sweep.meta.json").read_text())
    mb = json.loads((b / "sweep.meta.json").read_text())
    ma.pop("created"), mb.pop("created")
    assert ma == mb


def test_echoed_config_reloads_identically(tmp_path):
    cfgfile = tmp_path / "override.ini"
    cfgfile.write_text("[ensemble]\nn_effective = 2.4e5\n")
    rc = cli_dispatch(["budget", "--config", str(cfgfile), "--out",
                       str(tmp_path), "--seed", "4"])
    assert rc == 0
    echoed = tmp_path / "budget.config.ini"
    out2 = tmp_path / "second"
    rc = cli_dispatch(["budget", "--config", str(echoed), "--out",
                       str(out2), "--seed", "4"])
    assert rc == 0
    assert (tmp_path / "budget.csv").read_bytes() == (
        out2 / "budget.csv").read_bytes()


def test_sweep_with_noiseless_read(tmp_path):
    # r_psn = 0 is a legal config value: an exact read, no photon-shot noise
    cfgfile = tmp_path / "exact.ini"
    cfgfile.write_text("[noise]\nr_psn = 0\n")
    rc = cli_dispatch(["sweep", "--config", str(cfgfile), "--points", "3",
                       "--mt-min", "1e4", "--mt-max", "5e4", "--trials",
                       "40", "--seed", "9", "--out", str(tmp_path)])
    assert rc == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("flag,value,code", [
    ("--seed", "-1", 1), ("--seed", "1.5", 2), ("--seed", "x", 2),
    ("--trials", "0", 1), ("--trials", "-4", 1), ("--trials", "2.5", 2)],
    ids=["-1-1", "1.5-2", "x-2", "trials-0-1", "trials--4-1", "trials-2.5-2"])
def test_bad_seed_names_the_flag(tmp_path, capsys, flag, value, code):
    proto = tmp_path / "seq.txt"
    proto.write_text("pump down\npulse 90 0\nprobe N\n")
    args = {"--seed": "5", "--trials": "2", flag: value}
    rc = cli_dispatch(["run", "--protocol", str(proto), "--out", str(tmp_path),
                       *(a for item in args.items() for a in item)])
    assert rc == code
    err = capsys.readouterr().err
    assert flag in err and value in err
    assert "Traceback" not in err
    assert not (tmp_path / "records.csv").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("budget", "--mt", "nan"),
    ("sweep", "--mt-min", "-1"),
    ("scaling", "--n-list", "abc"),
    ("fringe", "--mt", "-5"),
    ("phase-detect", "--psi", "nan")])
def test_bad_numeric_flag_names_the_flag(tmp_path, capsys, command, flag,
                                         value):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's log10 warning included
        rc = cli_dispatch([command, flag, value, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {flag} " in err and value in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--points", "1"), ("--points", "0"), ("--mt-max", "1e-300"),
    ("--mt-max", "0.5")])
def test_degenerate_calibration_grid_names_the_flag(tmp_path, capfd, flag,
                                                    value):
    # one M_t point, or a span of under a photon, leaves no line to fit
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_dispatch(["calibrate-raman", flag, value, "--trials", "5",
                           "--out", str(out)])
    assert rc == 1
    captured = capfd.readouterr()
    assert f"error: {flag} must be" in captured.err and value in captured.err
    assert "line fit" in captured.err
    assert "DLASCL" not in captured.out + captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("bad_row,named", [
    ("2e4", "{path}, line 4, column 'R': no cell"),
    ("2e4,abc", "{path}, line 4, column 'R': 'abc' is not a number"),
    ("2e4,0.05,xyz", "{path}, line 4, column 'weight': 'xyz' is not a "
                     "number"),
    ("nan,0.05,", "fit_r point 1 (nan, 0.05): m_t must be finite and > 0"),
    ("2e4,inf,", "fit_r point 1 (20000.0, inf): R must be finite and > 0"),
    ("2e4,0.05,0", "fit_r point 1 (20000.0, 0.05, 0.0): weight must be "
                   "finite and > 0")],
    ids=["short-row", "text-cell", "text-weight", "nan-mt", "inf-R",
         "zero-weight"])
def test_fit_names_a_bad_row(tmp_path, capsys, bad_row, named):
    # the comment line counts: the bad row is line 4 of the file, point 1
    rows = ["# a sweep", "mt,R,weight", "1e3,0.1,", bad_row] + [
        f"{m!r},0.05," for m in (5e3, 1e4, 5e4, 1e5)]
    csvfile = tmp_path / "sweep.csv"
    csvfile.write_text("\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's sqrt warning included
        rc = cli_dispatch(["fit", "--in", str(csvfile), "--boot", "0",
                           "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {named.format(path=csvfile)}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "fit.json").exists()
