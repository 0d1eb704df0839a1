"""Property tests over random specifications (tests/helpers.py)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from juxtaspec.operators import complement, reverse  # noqa: E402
from juxtaspec.series import EnumerationError, count_series, productivity_check  # noqa: E402
from helpers import marker_totals, random_markerless_spec, random_recursive_spec  # noqa: E402


@given(st.randoms(use_true_random=False), st.booleans())
def test_series_property_on_random_specs(rng, recursive):
    """count_series equals the marker_series totals and does not change under
    complement and reverse, on random specifications the checks accept."""
    if recursive:
        spec = random_recursive_spec(rng, n_symbols=rng.randint(1, 4))
    else:
        spec = random_markerless_spec(rng, n_symbols=rng.randint(1, 4))
    assume(productivity_check(spec).ok)
    try:
        series = count_series(spec, 8)
    except EnumerationError as exc:
        # productivity_check does not look for equal-size self-dependence
        assert "depends on itself at equal size" in str(exc)
        assume(False)
    assert series == marker_totals(spec, 8)
    assert count_series(complement(spec), 8) == series
    assert count_series(reverse(spec), 8) == series
