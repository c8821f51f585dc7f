#!/usr/bin/env python3
"""SHA-256 digests of the files every squeezesim subcommand writes.

Runs each CLI subcommand (sweep, phase-detect, scaling, fringe, budget,
calibrate-raman, fit, run) at fixed seeds and small sizes in a temporary
directory, and prints one line per file written: its sha256 and its name.
That covers every CSV, every ``*.config.ini`` echo, ``fit.json`` and
every ``*.meta.json`` sidecar; a sidecar is hashed without its
``created`` key, the time of the run, as its other keys dumped in sorted
order.  Then it reads back record files and writes them again: the
``run-batches`` records, and hand-made files whose rows the reader
parses as JSON or converts cell by cell (spellings JSON lacks, ``nan``
and ``inf``, LF line ends, plain cells at the edges of the float64
range, and plain rows around other rows).  Two revisions whose outputs
agree byte for byte print the same lines, so a change meant to keep the
outputs is checked with

    PYTHONPATH=src python scripts/output_digest.py > after.txt
    diff before.txt after.txt

The first line printed names the Python, numpy and orjson versions, on
which the last bits of a float may depend.  ``tests/output_digest.txt``
holds the output of the committed tree, and ``tests/test_output_digest.py``
makes the digest again with :func:`digest`; a change that moves an output
on purpose writes that file again:

    PYTHONPATH=src python scripts/output_digest.py > tests/output_digest.txt

Takes about 2 s on one core.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson

from squeezesim.cli import cli_dispatch
from squeezesim.records import read_records, write_records

PROTOCOL = """\
prealign
pump down
pulse 90 0
probe N1
pulse 180 0
probe N2
probe N3 mt=2e4
pulse 90 90
probe N4
"""

# pulses of phase -0: with rotation noise off, -0 + 0 z takes the sign of
# z, so a pulse's phase per trial may be +0 or -0
SIGNED_ZERO = """\
prealign
pump down
pulse 90 -0
probe Np
pulse 180 -0
probe Nf
pulse 90 -0
probe Nr
"""

# every step kind the other protocols lack: a pump to up, a probe on a
# pole, probes at fixed strengths, a second pump down mid-sequence and
# pulses at odd phases
VARIED = """\
prealign
pump up
probe Z mt=3000
pulse 90 0
probe A mt=1000
pulse 180 45
probe B
pump down
pulse 90 30
probe C mt=20000.5
"""

# a config that switches on the knobs the default run leaves off
KNOBS = """\
[noise]
contrast_excess = 1.9
light_shift_per_photon = 2e-5
rotation_angle_noise = 0.01
rotation_phase_noise = 0.02
lineshape_penalty = 3
"""

# a config away from the default atom number and power fluctuation, so the
# budget terms are checked where n and frac differ from the fit's anchor
PARAMS = """\
[cavity]
recoil_hz_per_photon = 2.0

[ensemble]
n_effective = 2.4e5

[probe]
ms_classical_frac = 0.06

[transition]
p_u1 = 5e-3
"""


# hand-made record files of probe labels Np and N,d, whose cells are
# spelled unlike what write_records writes
RECORD_HEADER = (b'# schema=2\ntrial,Np,"N,d",omega_p_offset_hz,Np_freq_hz,'
                 b'"N,d_freq_hz",true_jz_1\r\n')
EDGE_RECORDS = {
    # cells JSON lacks: each row converted cell by cell
    "text-cells.csv": RECORD_HEADER + b"".join(row + b"\r\n" for row in (
        b"0,nan,inf,-inf,2.3e-05,1e+16,5e-324",
        b"1,+1,01,.5,1.,-0,1e400",
        b"2,-1E-400,0.0001,9999999999999998.0,-1e-310,"
        b"12345678901234567890123,-0e0")),
    # LF line ends: plain rows all the same
    "lf-ends.csv": RECORD_HEADER.replace(b"\r\n", b"\n") + b"".join(
        row + b"\n" for row in (b"0,1.5,2.5,3.5,4.5,5.5,6.5",
                                  b"1,1e16,2.3e-05,5e-324,-0.0,7,8")),
    # plain cells: one orjson parse
    "plain-cells.csv": RECORD_HEADER + b"".join(row + b"\r\n" for row in (
        b"0,1e16,2.3e-05,5e-324,-0.0,1E1,1e+16",
        b"1,18446744073709551616,-9223372036854775809,4.9e-324,"
        b"2.2250738585072014e-308,-1.7976931348623157e308,-0e0",
        b"2,100,0.1,1.7976931348623157e+308,3,0,-2.5")),
    # plain rows around a nan row and a +1 row
    "mixed-rows.csv": RECORD_HEADER + b"".join(row + b"\r\n" for row in (
        b"0,1.5,2.5,3.5,4.5,5.5,6.5",
        b"1,nan,2.3e-05,1e16,-0.0,7,8",
        b"2,1e16,2.3e-05,5e-324,-0.0,1E1,-2.5",
        b"3,+1,0.1,-3,1e+16,0,9",
        b"4,100,0.25,-1.7976931348623157e308,3,4.9e-324,-0e0"))}


def commands(work: Path) -> dict[str, list]:
    """Each digest section's name and its ``squeezesim`` arguments."""
    return {
        "sweep": ["sweep", "--seed", 3, "--trials", 300, "--points", 6],
        "phase-detect": ["phase-detect", "--seed", 4, "--trials", 1000],
        "scaling": ["scaling", "--seed", 5, "--trials", 200,
                    "--scan-trials", 200, "--n-list", "6e4,1.2e5,4.8e5"],
        "fringe": ["fringe", "--seed", 6, "--trials", 100, "--points", 8],
        "budget": ["budget", "--seed", 7],
        "calibrate-raman": ["calibrate-raman", "--seed", 8, "--trials", 100,
                            "--points", 4],
        "fit": ["fit", "--seed", 9, "--boot", 200, "--in",
                work / "sweep" / "sweep.csv"],
        # no resample, and one full block of resamples and one more
        "fit-boot0": ["fit", "--seed", 9, "--boot", 0, "--in",
                      work / "sweep" / "sweep.csv"],
        "fit-boot129": ["fit", "--seed", 9, "--boot", 129, "--in",
                        work / "sweep" / "sweep.csv"],
        "run": ["run", "--seed", 10, "--trials", 600, "--protocol",
                work / "protocol.txt"],
        "run-knobs": ["run", "--seed", 11, "--trials", 600, "--protocol",
                      work / "protocol.txt", "--config", work / "knobs.ini"],
        # runs whose batches span chunks, probe strengths and batches:
        # points of 700 trials (a full chunk and part of one), a scan of
        # 700 trials per point, and runs of more than one batch of trials
        "sweep-spanning": ["sweep", "--seed", 12, "--trials", 700,
                           "--points", 4, "--config", work / "knobs.ini"],
        "scaling-spanning": ["scaling", "--seed", 13, "--trials", 300,
                             "--scan-trials", 700,
                             "--n-list", "6e4,1.2e5,4.8e5"],
        "run-batches": ["run", "--seed", 14, "--trials", 4700,
                        "--protocol", work / "protocol.txt"],
        "run-knobs-batches": ["run", "--seed", 15, "--trials", 4700,
                              "--protocol", work / "protocol.txt",
                              "--config", work / "knobs.ini"],
        # a point of three full batches and part of a fourth
        "run-many-batches": ["run", "--seed", 21, "--trials", 3 * 4096 + 5,
                             "--protocol", work / "protocol.txt"],
        "sweep-params": ["sweep", "--seed", 16, "--trials", 300,
                         "--points", 5, "--config", work / "params.ini"],
        "budget-params": ["budget", "--seed", 17, "--mt", 3e4,
                          "--config", work / "params.ini"],
        "phase-detect-params": ["phase-detect", "--seed", 18, "--trials",
                                1000, "--target-winv", 5,
                                "--config", work / "params.ini"],
        # fringe points of 700 trials span chunks and batches, and rotation
        # noise gives each trial its own pulse angle and phase
        "fringe-spanning": ["fringe", "--seed", 19, "--trials", 700,
                            "--points", 8, "--config", work / "knobs.ini"],
        # the no-probe reference: no pre-measurement window
        "fringe-noprobe": ["fringe", "--seed", 20, "--trials", 100,
                           "--points", 6, "--mt", 0],
        # pulses of phase -0 at the default (zero) rotation noise
        "run-signed-zero": ["run", "--seed", 22, "--trials", 700,
                            "--protocol", work / "signed-zero.txt"],
        # every step kind, at the default knobs and with every knob on
        "run-varied": ["run", "--seed", 23, "--trials", 700,
                       "--protocol", work / "varied.txt"],
        "run-varied-knobs": ["run", "--seed", 24, "--trials", 700,
                             "--protocol", work / "varied.txt",
                             "--config", work / "knobs.ini"],
    }


def versions() -> str:
    """The digest's first line: the versions its bits were made with."""
    return (f"# python {platform.python_version()} numpy {np.__version__} "
            f"orjson {orjson.__version__}")


def file_sha(path: Path) -> str:
    """The sha256 of a written file; of a sidecar, that of its keys but
    ``created``, dumped in sorted order."""
    data = path.read_bytes()
    if path.name.endswith(".meta.json"):
        meta = json.loads(data)
        del meta["created"]
        data = json.dumps(meta, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def digest() -> list[str]:
    """One line per file written, its sha256 and its name, in the order
    of ``commands`` and then of the record files read back; RuntimeError
    naming a subcommand that fails."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "protocol.txt").write_text(PROTOCOL)
        (work / "signed-zero.txt").write_text(SIGNED_ZERO)
        (work / "varied.txt").write_text(VARIED)
        (work / "knobs.ini").write_text(KNOBS)
        (work / "params.ini").write_text(PARAMS)
        for name, argv in commands(work).items():
            out = work / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_dispatch([str(a) for a in argv]
                                    + ["--out", str(out)])
            if code:
                raise RuntimeError(f"squeezesim {argv[0]} exited {code}")
            for path in sorted(out.iterdir()):
                lines.append(f"{file_sha(path)}  {name}/{path.name}")
        sources = {"run-batches.csv": work / "run-batches" / "records.csv"}
        for name, data in EDGE_RECORDS.items():
            sources[name] = work / name
            sources[name].write_bytes(data)
            (work / f"{name}.meta.json").write_text(json.dumps({
                "schema": 2, "labels": ["Np", "N,d"], "master_seed": 1,
                "n_trials": data.count(b"\n") - 2, "params": {}}))
        for name, path in sources.items():
            out = work / "records-again" / name
            write_records(read_records(path), out)
            for written in (out, out.with_name(f"{name}.meta.json")):
                lines.append(f"{file_sha(written)}  records-again/"
                             f"{written.name}")
    return lines


def main() -> int:
    try:
        lines = digest()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(versions())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
