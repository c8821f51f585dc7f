"""scripts/seed_margin.py measures each gate through its test's own
measuring function and bands (see gates.py); no Monte Carlo runs here."""

import importlib.util
import inspect
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_every_gate_is_its_tests_own():
    spec = importlib.util.spec_from_file_location(
        "seed_margin", TESTS.parent / "scripts" / "seed_margin.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.GROUPS
    for group, gates in script.GROUPS.items():
        for measure, bands in gates:
            path = Path(inspect.getfile(measure)).resolve()
            assert path.parent == TESTS and path.name.startswith("test_"), (
                f"{group}: {measure.__qualname__} is defined in {path}")
            home = sys.modules[measure.__module__]
            assert getattr(home, measure.__name__) is measure, group
            # the test's own band dict, not a copy of its numbers
            assert any(bands is value for value in vars(home).values()), (
                f"{group}: the bands of {measure.__name__} are not a "
                f"module-level dict of {path.name}")
