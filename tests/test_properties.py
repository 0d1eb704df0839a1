"""Property tests over random specifications (tests/helpers.py) and random
cell rows for the oracle."""

from itertools import permutations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from juxtaspec.operators import complement, reverse  # noqa: E402
from juxtaspec.oracle import DEC, INC, Basis, count_class, juxt_membership  # noqa: E402
from juxtaspec.series import count_series, productivity_check  # noqa: E402
from helpers import marker_totals, random_markerless_spec, random_recursive_spec  # noqa: E402


@given(st.randoms(use_true_random=False), st.booleans())
def test_series_property_on_random_specs(rng, recursive):
    """On random specifications productivity_check accepts, count_series
    succeeds, equals the marker_series totals and does not change under
    complement and reverse."""
    if recursive:
        spec = random_recursive_spec(rng, n_symbols=rng.randint(1, 4))
    else:
        spec = random_markerless_spec(rng, n_symbols=rng.randint(1, 4))
    assume(productivity_check(spec).ok)
    series = count_series(spec, 8)
    assert series == marker_totals(spec, 8)
    assert count_series(complement(spec), 8) == series
    assert count_series(reverse(spec), 8) == series


patterns = st.integers(1, 4).flatmap(lambda k: st.permutations(range(1, k + 1)).map(tuple))
cells = st.one_of(
    st.sampled_from([INC, DEC]),
    st.lists(patterns, min_size=1, max_size=2).map(lambda ps: Basis(tuple(ps))),
)


@given(st.lists(cells, min_size=1, max_size=3), st.integers(0, 6))
def test_count_class_property_on_random_rows(row, n):
    """The generating-tree count equals exhaustive juxt_membership counting."""
    members = sum(juxt_membership(p, row) for p in permutations(range(1, n + 1)))
    assert count_class(row, n) == members
