"""The seeded Monte Carlo gates of the tests.

A gate is written once, in its test module: a measuring function of the
seed index k (k = 0 is the test's own seed) that returns named values, and
a dict of name -> (lower, upper) band, edges included, for those it gates.
The test asserts at k = 0; ``scripts/seed_margin.py`` runs both over k.
"""


def assert_inside(values: dict[str, float], bands: dict) -> str:
    """Assert each value named in ``bands`` inside its band; describe all."""
    for name, (lo, hi) in bands.items():
        assert lo <= values[name] <= hi, f"{name} = {values[name]!r}"
    return "; ".join(f"{name} = {value:.4g}" for name, value in values.items())
