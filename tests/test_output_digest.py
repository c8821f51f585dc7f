"""Every output of the committed tree is the one ``output_digest.txt``
records: each CLI subcommand's files and the record files read back and
written again, byte for byte (see ``scripts/output_digest.py``).  A change
that moves an output on purpose writes the file again, and its diff names
the files that moved."""

import importlib.util
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_outputs_match_the_committed_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", TESTS.parent / "scripts" / "output_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    recorded, *lines = (TESTS / "output_digest.txt").read_text().splitlines()
    # file name -> sha256
    expected = dict(line.split("  ")[::-1] for line in lines)
    got = dict(line.split("  ")[::-1] for line in script.digest())
    moved = sorted(name for name in expected.keys() | got.keys()
                   if expected.get(name) != got.get(name))
    made_with = ("" if recorded == script.versions() else
                 f"; the digest was made with {recorded[2:]}, and this run "
                 f"has {script.versions()[2:]}")
    assert not moved, f"outputs moved: {', '.join(moved)}{made_with}"
