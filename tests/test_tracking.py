import pickle

import pytest

from juxtaspec.builtins import builtin_names, builtin_spec
from juxtaspec.dsl import parse_spec
from juxtaspec.expr import L_ATOMS, R_ATOMS
from juxtaspec.juxtapose import juxtapose
from juxtaspec.spec import TrackingError, make_spec
from helpers import marker_series, reference_equations


def test_av321_classic_pair():
    spec = parse_spec("C.R = C C.R Z + C ZR\nC = E + C C Z\n")
    tracking = spec.tracking
    assert (tracking["C.R"].has_r, tracking["C.R"].has_l) == (True, False)
    assert (tracking["C"].has_r, tracking["C"].has_l) == (False, False)


def test_monotone_tracks_both():
    spec = parse_spec("M = ZLR + ZL Seq(Z) ZR\n")
    kind = spec.root_tracking()
    assert (kind.has_r, kind.has_l) == (True, True)


def test_mixed_terms_rejected():
    with pytest.raises(TrackingError, match="mixed terms"):
        parse_spec("A = Z + ZR\n")


def test_two_markers_in_one_term_rejected():
    with pytest.raises(TrackingError):
        parse_spec("A = ZR ZR\n")


def test_mixed_nested_sum_rejected():
    with pytest.raises(TrackingError):
        parse_spec("A = (E + ZR) Z\n")


@pytest.mark.parametrize("text, message", [
    ("A = Z B + ZR\nB = E + Z\n",
     "mixed terms in 'A': some carry the rightmost marker, others do not (term 1 of 'A')"),
    ("A = ZR ZR\n", "term of 'A' carries the rightmost marker more than once (term 1 of 'A')"),
    ("A = E + Z (E + ZL)\n","mixed leftmost-marker counts inside a factor (term 2 of 'A')"),
])
def test_refusals_name_the_term(text, message):
    """The texts name the term; parse_spec adds the equation's DSL line."""
    with pytest.raises(TrackingError) as refused:
        make_spec(reference_equations(text))
    assert str(refused.value) == message
    assert (refused.value.symbol, refused.value.line) == ("A", None)
    with pytest.raises(TrackingError) as refused:
        parse_spec(text)
    assert str(refused.value) == message.removesuffix(")") + ", line 1)"
    assert (refused.value.symbol, refused.value.line) == ("A", 1)


def test_refusal_pickles():
    with pytest.raises(TrackingError) as refused:
        parse_spec("A = Z\nB = ZR ZR\n")
    again = pickle.loads(pickle.dumps(refused.value))
    assert str(again) == str(refused.value)
    assert (again.symbol, again.term, again.line) == ("B", 1, 2)


def test_refusal_names_the_line_of_its_equation():
    text = "# B's second term carries no marker\n\nA = B Z\nB = ZR + Z Z\n"
    with pytest.raises(TrackingError) as refused:
        parse_spec(text)
    assert str(refused.value) == (
        "mixed terms in 'B': some carry the rightmost marker, others do not (term 2 of 'B', line 4)"
    )


def test_empty_term_exemption():
    # E stands for the empty object and is exempt from the marker count
    spec = parse_spec("A = E + ZR\n")
    assert spec.root_tracking().has_r


def test_tracking_through_references():
    spec = parse_spec("A = B Z\nB = ZR\n")
    assert spec.tracking["A"].has_r and spec.tracking["B"].has_r


def test_unproductive_spec_still_infers():
    spec = parse_spec("A = A Z\n")
    kind = spec.root_tracking()
    assert (kind.has_r, kind.has_l) == (False, False)


def _assert_marker_sound(spec, order=7):
    """Marker soundness: every nonempty object carries the marker exactly
    once when tracked, never otherwise.  Checked with an independent
    bivariate enumerator."""
    for marked, attr in ((R_ATOMS, "has_r"), (L_ATOMS, "has_l")):
        dist = marker_series(spec, order, marked)
        tracked = getattr(spec.root_tracking(), attr)
        for n, bucket in enumerate(dist):
            for power, count in bucket.items():
                if count == 0:
                    continue
                if n == 0:
                    assert power == 0
                else:
                    assert power == (1 if tracked else 0), (
                        f"size {n}: {count} objects with {power} markers"
                    )


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_marker_soundness(name):
    _assert_marker_sound(builtin_spec(name))


def test_juxtaposition_marker_soundness():
    spec = juxtapose(builtin_spec("av321"), "right", "inc", "both")
    _assert_marker_sound(spec, order=6)
    spec_l = juxtapose(builtin_spec("monotone"), "left", "inc", "right")
    _assert_marker_sound(spec_l, order=6)
