"""Multivector grammar: parsing, printing, round trips and error positions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffrep.algebra import Multivector, Signature
from cliffrep.text import ParseError, format_multivector, parse_multivector

S21 = Signature(2, 1)
S30 = Signature(3, 0)


def test_basic_terms():
    assert parse_multivector(S21, "5") == Multivector.scalar(S21, 5)
    assert parse_multivector(S21, "3/2*e1") == Multivector.blade(S21, 0b001, Fraction(3, 2))
    assert parse_multivector(S21, "-1*e12") == Multivector.blade(S21, 0b011, -1)
    assert parse_multivector(S21, "e1*eps1") == Multivector.blade(S21, 0b101)
    assert parse_multivector(S21, "eps1") == Multivector.blade(S21, 0b100)


def test_concatenated_digits():
    assert parse_multivector(S30, "e13") == Multivector.blade(S30, 0b101)
    assert parse_multivector(S30, "e123") == Multivector.blade(S30, 0b111)
    sig = Signature(0, 4)
    assert parse_multivector(sig, "eps24") == Multivector.blade(sig, 0b1010)


def test_signs_and_sums():
    a = parse_multivector(S21, "1 + 2*e1 - 3/4*e2 + e12 - eps1")
    assert a == Multivector(
        S21, {0: 1, 0b001: 2, 0b010: Fraction(-3, 4), 0b011: 1, 0b100: -1}
    )
    assert parse_multivector(S21, "-e1 + e1") == Multivector.zero(S21)
    assert parse_multivector(S21, "+2") == Multivector.scalar(S21, 2)


def test_zero_forms():
    assert parse_multivector(S21, "0") == Multivector.zero(S21)
    assert format_multivector(Multivector.zero(S21)) == "0"


def test_printer_ascending_masks():
    a = Multivector(S21, {0b100: 1, 0: 2, 0b011: Fraction(-1, 2)})
    assert format_multivector(a) == "2 - 1/2*e12 + 1*eps1"


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_multivector(S21, "1 + * e1")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_multivector(S21, "e3")
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse_multivector(S21, "2*")
    with pytest.raises(ParseError):
        parse_multivector(S21, "")
    with pytest.raises(ParseError):
        parse_multivector(S21, "1/0")
    with pytest.raises(ParseError):
        parse_multivector(S21, "e21")  # not ascending


@settings(max_examples=120, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 7),
        st.fractions(min_value=-99, max_value=99, max_denominator=12),
        max_size=8,
    )
)
def test_round_trip_property(terms):
    a = Multivector(S21, terms)
    assert parse_multivector(S21, format_multivector(a)) == a


def test_round_trip_wide_signature():
    sig = Signature(5, 5)
    a = Multivector(sig, {0: Fraction(1, 7), (1 << 10) - 1: -3, 0b1111100000: 2})
    assert parse_multivector(sig, format_multivector(a)) == a


def test_oversized_numbers_raise_parse_error():
    # int() refuses digit strings past the interpreter's conversion limit
    long_run = "1" * 5000
    for source, position in [
        (long_run, 0),
        (f"e{long_run}", 0),
        (f"2 + 1/{long_run}*e1", 6),
        (f"2 - eps{long_run}", 4),
    ]:
        with pytest.raises(ParseError) as err:
            parse_multivector(S21, source)
        assert err.value.position == position


def test_only_ascii_digits_are_digits():
    # other scripts' digits and superscripts pass str.isdigit (and the
    # Arabic-Indic ones str.isdecimal) but are not part of the grammar
    for text, message in (
        ("\u00b2", "expected a generator name (at position 0)"),
        ("e\u0663", "expected generator indices (at position 1)"),
        ("2\u00b2", "unexpected character '\u00b2' (at position 1)"),
        ("eps1\u0663", "unexpected character '\u0663' (at position 4)"),
        ("1/\u0663", "expected a non-zero denominator (at position 2)"),
    ):
        with pytest.raises(ParseError) as err:
            parse_multivector(Signature(3, 1), text)
        assert str(err.value) == message, text
