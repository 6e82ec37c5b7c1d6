import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import (
    GF,
    Mat,
    ParseError,
    Poly,
    format_mat,
    format_poly,
    irreducibles,
    parse_field,
    parse_mat,
    parse_poly,
)
from orbitcodes.matrix import companion_diag
from orbitcodes.textio import format_companion_diag

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def test_poly_round_trip():
    f = Poly(F2, [1, 1, 0, 1])
    assert format_poly(f) == "1,1,0,1"
    assert parse_poly(F2, format_poly(f)) == f


def test_poly_parse_examples():
    assert parse_poly(F2, "1,1,0,1").coeffs == (1, 1, 0, 1)
    assert parse_poly(F4, "3,1").coeffs == (3, 1)


def test_poly_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse_poly(F2, "1,x,0")
    assert info.value.position == 2


def test_poly_parse_out_of_range_code():
    with pytest.raises(ParseError):
        parse_poly(F2, "1,2")


def test_mat_round_trip():
    m = Mat.from_rows(F2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert format_mat(m) == "0,1,0;0,0,1;1,1,0"
    assert parse_mat(F2, format_mat(m)) == m


def test_mat_parse_ragged_rejected():
    with pytest.raises(ParseError):
        parse_mat(F2, "1,0;1")


def test_mat_parse_error_position_in_later_row():
    with pytest.raises(ParseError) as info:
        parse_mat(F2, "1,0;1,z")
    assert info.value.position == 6


def test_empty_inputs_rejected():
    with pytest.raises(ParseError):
        parse_poly(F2, "  ")
    with pytest.raises(ParseError):
        parse_mat(F2, "")


def test_parse_field_prime():
    f = parse_field("3")
    assert (f.p, f.m) == (3, 1)


def test_parse_field_extension():
    f = parse_field("2^2")
    assert (f.p, f.m, f.q) == (2, 2, 4)
    assert f.modulus == (1, 1, 1)


def test_parse_field_with_modulus():
    f = parse_field("2^3", "1,1,0,1")
    assert f.modulus == (1, 1, 0, 1)


def test_parse_field_bad_designator():
    with pytest.raises(ParseError):
        parse_field("two")
    with pytest.raises(ParseError):
        parse_field("2^x")


def test_parse_field_reducible_modulus():
    with pytest.raises(ParseError):
        parse_field("2^2", "1,0,1")


def test_parse_field_non_prime():
    with pytest.raises(ParseError):
        parse_field("4")


def test_companion_diag_text_with_unit_blocks_and_powers():
    # 1 x 1 blocks first and last, and a squared block between them
    divisors = [(Poly(F2, [1, 1]), 1), (Poly(F2, [1, 1, 1]), 2), (Poly(F2, [1, 1]), 1)]
    text = "1,0,0,0,0,0;0,0,1,0,0,0;0,0,0,1,0,0;0,0,0,0,1,0;0,1,0,1,0,0;0,0,0,0,0,1"
    assert format_companion_diag(divisors, {}) == text == format_mat(companion_diag(divisors))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_companion_diag_text_matches_the_formatted_matrix(data):
    field = data.draw(st.sampled_from((F2, F3, F4)))
    pool = [p for d in (1, 2, 3) for p in irreducibles(field, d)]
    pair = st.tuples(st.sampled_from(pool), st.integers(1, 3))
    divisors = data.draw(st.lists(pair, min_size=1, max_size=4))
    block_rows = {}
    text = format_companion_diag(divisors, block_rows)
    assert text == format_mat(companion_diag(divisors))
    assert set(block_rows) == set(divisors)
    assert format_companion_diag(divisors, block_rows) == text  # the rows, reused
