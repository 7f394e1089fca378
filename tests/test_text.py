"""Multivector grammar: parsing, printing, round trips and error positions."""

import itertools
from fractions import Fraction
from functools import reduce
from operator import mul

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


# (signature, source, str(ParseError), position), as the character scanner
# reported them.  The hand-picked cases come first; the rest are truncations
# and one-character substitutions of expressions in the benchmark's
# expression() form, drawn with random.Random(1729) over eleven signatures.
_RUN = "9" * 5000
PINNED_ERRORS = [
    ((2, 1), '', 'empty expression (at position 0)', 0),
    ((2, 1), '   ', 'empty expression (at position 3)', 3),
    ((2, 1), '+', 'expected a generator name (at position 1)', 1),
    ((2, 1), '1 +', 'expected a generator name (at position 3)', 3),
    ((2, 1), '**e1', 'expected a generator name (at position 0)', 0),
    ((2, 1), '*e1', 'expected a generator name (at position 0)', 0),
    ((2, 1), '2*', 'expected a generator name (at position 2)', 2),
    ((2, 1), '1/0', 'expected a non-zero denominator (at position 2)', 2),
    ((2, 1), '1/', 'expected a non-zero denominator (at position 2)', 2),
    ((2, 1), 'e', 'expected generator indices (at position 1)', 1),
    ((2, 1), 'eps', 'expected generator indices (at position 3)', 3),
    ((2, 1), 'e0', 'generator index 0 outside the signature (at position 0)', 0),
    ((2, 1), 'e3', 'generator index 3 outside the signature (at position 0)', 0),
    ((2, 1), 'e21', 'generator indices must be strictly ascending (at position 0)', 0),
    ((2, 1), 'e1*e1', 'repeated generator in a term (at position 3)', 3),
    ((2, 1), '1 + * e1', 'expected a generator name (at position 4)', 4),
    ((2, 1), '--1', 'expected a generator name (at position 1)', 1),
    ((2, 1), '1 + - 2', 'expected a generator name (at position 4)', 4),
    ((2, 1), '2 e1', "unexpected character 'e' (at position 2)", 2),
    ((2, 1), 'e1 e2', "unexpected character 'e' (at position 3)", 3),
    ((2, 1), '1 /2', "unexpected character '/' (at position 2)", 2),
    ((2, 1), '1/ 2', 'expected a non-zero denominator (at position 2)', 2),
    ((2, 1), '1/2/3', "unexpected character '/' (at position 3)", 3),
    ((2, 1), '2e1', "unexpected character 'e' (at position 1)", 1),
    ((2, 1), '3/2e1', "unexpected character 'e' (at position 3)", 3),
    ((2, 1), 'e1/2', "unexpected character '/' (at position 2)", 2),
    ((2, 1), '2*3', 'expected a generator name (at position 2)', 2),
    ((2, 1), 'e1*2', 'expected a generator name (at position 3)', 3),
    ((2, 1), 'ep1', 'expected generator indices (at position 1)', 1),
    ((2, 1), 'epsx', 'expected generator indices (at position 3)', 3),
    ((2, 1), 'e1*eps', 'expected generator indices (at position 6)', 6),
    ((2, 1), 'eps0', 'generator index 0 outside the signature (at position 0)', 0),
    ((2, 1), 'eps2', 'generator index 2 outside the signature (at position 0)', 0),
    ((2, 1), 'e12*e1', 'repeated generator in a term (at position 4)', 4),
    ((2, 1), 'e2*e12', 'repeated generator in a term (at position 3)', 3),
    ((2, 1), '1/00', 'expected a non-zero denominator (at position 2)', 2),
    ((2, 1), 'e1*+e2', 'expected a generator name (at position 3)', 3),
    ((2, 1), 'e1 -', 'expected a generator name (at position 4)', 4),
    ((2, 1), '- ', 'expected a generator name (at position 2)', 2),
    ((2, 1), '+ -e1', 'expected a generator name (at position 2)', 2),
    ((2, 1), '1 ++ 2', 'expected a generator name (at position 3)', 3),
    ((2, 1), '(1)', 'expected a generator name (at position 0)', 0),
    ((2, 1), 'e1)', "unexpected character ')' (at position 2)", 2),
    ((2, 1), 'x', 'expected a generator name (at position 0)', 0),
    ((2, 1), '\u2003', 'empty expression (at position 1)', 1),
    ((2, 1), '\x1c', 'empty expression (at position 1)', 1),
    ((2, 1), '\u2003\x1c\x85\xa0', 'empty expression (at position 4)', 4),
    ((2, 1), '1\u2003+\u2003', 'expected a generator name (at position 4)', 4),
    ((2, 1), 'e1\u2003*', 'expected a generator name (at position 4)', 4),
    ((2, 1), '\u200b', 'expected a generator name (at position 0)', 0),
    ((2, 1), '1\u200b', "unexpected character '\\u200b' (at position 1)", 1),
    ((2, 1), 'e1 *\u2003 \x1c', 'expected a generator name (at position 7)', 7),
    ((2, 1), '\u0663', 'expected a generator name (at position 0)', 0),
    ((2, 1), 'e\u0663', 'expected generator indices (at position 1)', 1),
    ((2, 1), '1/\u0663', 'expected a non-zero denominator (at position 2)', 2),
    ((2, 1), '2\xb2', "unexpected character '\xb2' (at position 1)", 1),
    ((2, 1), '\xb2', 'expected a generator name (at position 0)', 0),
    ((2, 1), '\uff11', 'expected a generator name (at position 0)', 0),
    ((2, 1), 'e\uff11', 'expected generator indices (at position 1)', 1),
    ((2, 1), 'eps1\u0661', "unexpected character '\u0661' (at position 4)", 4),
    ((2, 1), '1\u0660', "unexpected character '\u0660' (at position 1)", 1),
    ((2, 1), '\u0661/2', 'expected a generator name (at position 0)', 0),
    ((2, 1), '1\xa0/2', "unexpected character '/' (at position 2)", 2),
    ((12, 0), 'e0', 'generator index 0 outside the signature (at position 0)', 0),
    ((12, 0), 'e120', 'generator indices must be strictly ascending (at position 0)', 0),
    ((12, 0), 'e1*e12*e13', 'repeated generator in a term (at position 7)', 7),
    ((12, 0), 'e99', 'generator indices must be strictly ascending (at position 0)', 0),
    ((12, 0), 'e21', 'generator indices must be strictly ascending (at position 0)', 0),
    ((12, 0), 'e11*e11', 'repeated generator in a term (at position 4)', 4),
    ((3, 11), 'eps0', 'generator index 0 outside the signature (at position 0)', 0),
    ((3, 11), 'e4', 'generator index 4 outside the signature (at position 0)', 0),
    ((3, 11), 'eps21', 'generator indices must be strictly ascending (at position 0)', 0),
    ((3, 11), 'e13*e31', 'generator indices must be strictly ascending (at position 4)', 4),
    ((3, 11), 'eps11*eps1*eps11', 'repeated generator in a term (at position 11)', 11),
    ((3, 11), 'eps120', 'generator indices must be strictly ascending (at position 0)', 0),
    ((0, 2), 'e1', 'generator index 1 outside the signature (at position 0)', 0),
    ((0, 2), 'eps3', 'generator index 3 outside the signature (at position 0)', 0),
    ((0, 2), '1 + e1', 'generator index 1 outside the signature (at position 4)', 4),
    ((3, 11), '1*e1*e3*eps2*eps5*', 'expected a generator name (at position 18)', 18),
    ((8, 1), '- 1*e1*e3*e6*eps1 - 4*e1*e2*e3*e4*e5*e6*e7*e8*e', 'expected generator indices (at position 47)', 47),
    ((3, 11), ' /2*e3*eps1*eps2*eps3*eps4*eps8*eps9 - 1/3*e1*e3*eps2*eps3*eps4*eps6*eps7*eps10*eps11 + 9*e2*e3*eps1*eps5*eps8*eps10*eps11', 'expected a generator name (at position 1)', 1),
    ((12, 0), '- 5/2*e1*e2*e3*e4*e6*e7*e9*', 'expected a generator name (at position 27)', 27),
    ((3, 3), '2/3*e1*e3*eps3 - 3*eps1*eps2\u0663eps3', "unexpected character '\u0663' (at position 28)", 28),
    ((0, 6), '- 3*eps1*eps2*eps3*eps4 - 5/2*eps2*eps3*eps4*eps5*ep', 'expected generator indices (at position 51)', 51),
    ((12, 0), '3/2*e1*e2*e6*e7*e8*e10*e11*ee2', 'expected generator indices (at position 28)', 28),
    ((8, 1), '- 8/3*e1*e3*e6*e7 + 7/3*e1*e4*e5*e6**7', 'expected a generator name (at position 36)', 36),
    ((3, 11), '- 1*e1*e2*eps1*eps6*eps8*eps11 + 4*e2*e\xb2s1*eps3*eps8*eps9*eps10*eps11', 'expected generator indices (at position 39)', 39),
    ((7, 0), '3*e2*e3*e4*e5 + ', 'expected a generator name (at position 16)', 16),
    ((12, 0), '- 8*e1*e2*e3*e4*e5*e7*', 'expected a generator name (at position 22)', 22),
    ((7, 0), '- 6*e4*e5 + 1/3.e1*e3*e4*e6 - 2*e1*e2*e4*e5*e6*e7', "unexpected character '.' (at position 15)", 15),
    ((3, 3), '2/3*e3 + 5/x*e1*e3 - 1*e2*e3*eps1', 'expected a non-zero denominator (at position 11)', 11),
    ((0, 2), '- 3*eps1 + 3*epsx*eps2', 'expected generator indices (at position 16)', 16),
    ((5, 5), '1*e1*e4 +', 'expected a generator name (at position 9)', 9),
    ((3, 11), '- 1*eps1*eps5*eps6*', 'expected a generator name (at position 19)', 19),
    ((3, 11), '-', 'expected a generator name (at position 1)', 1),
    ((8, 0), '- 7*e2*e3*e4*e6*e8 - 4*e1*e3*e4*e5*.7*e8', 'expected a generator name (at position 35)', 35),
    ((9, 0), '4*e\u0663*e3*e7*e8', 'expected generator indices (at position 3)', 3),
    ((9, 0), '3/2*e3*e8 - 2*e\xb2*e4*e6*e9 + 1*e7*e9', 'expected generator indices (at position 15)', 15),
    ((3, 3), '1/3*e1*e2*eps  - 3*e1*e3*eps2', 'expected generator indices (at position 13)', 13),
    ((0, 6), '- 7/3*eps1 + 1*eps3*eps4*eps', 'expected generator indices (at position 28)', 28),
    ((0, 2), '4 + 1*', 'expected a generator name (at position 6)', 6),
    ((3, 3), '- 1*e2*', 'expected a generator name (at position 7)', 7),
    ((9, 0), '3*e', 'expected generator indices (at position 3)', 3),
    ((8, 1), '- 2*e1*e2*e3*e4*eps1 - 2/3*e1*e2*93*e5*e6*e7*eps1', 'expected a generator name (at position 33)', 33),
    ((5, 5), '3*e22e3*eps1*eps2*eps5', 'generator indices must be strictly ascending (at position 2)', 2),
    ((2, 1), '7/2*e2*eps1 + 5/3*e1*e2peps1', "unexpected character 'p' (at position 23)", 23),
    ((3, 3), '- 4*e2*eps2 + 3*e2*eps2seps3', "unexpected character 's' (at position 23)", 23),
    ((3, 3), '3*e1*eps1*eps', 'expected generator indices (at position 13)', 13),
    ((0, 2), '3/2*eps1*ep22', 'expected generator indices (at position 10)', 10),
    ((7, 0), '5/31e1*e2*e7', "unexpected character 'e' (at position 4)", 4),
    ((12, 0), '- 8/3*e1*e2*e5*e6*e7*e8*e10 - 3*e4*e5*e9*e10 + 2/3*e1*e6*e', 'expected generator indices (at position 58)', 58),
    ((7, 0), '- 1*e1*/2*e3*e4*e5', 'expected a generator name (at position 7)', 7),
    ((0, 6), '- 3*eps4 - 7*ep01*eps5 + 4/3*eps3*eps6', 'expected generator indices (at position 14)', 14),
    ((3, 11), '- 3*eps1*eps5*eps6*', 'expected a generator name (at position 19)', 19),
    ((5, 5), '5/2*e5*eps3 + 7/2*e2*eps3*eps4 - 8/3*e1*e3*e5*sps2*eps3*eps5', 'expected a generator name (at position 46)', 46),
    ((8, 0), '- 7/2*e2*e3 + 2*e8 + 4*p1*e3*e6*e8', 'expected a generator name (at position 23)', 23),
    ((3, 3), '- 8/3 + 1*e1*eps1 - 5/2*e1*e2*eps1peps2', "unexpected character 'p' (at position 34)", 34),
    ((8, 1), '- 2*e4*e7 + 4*e2*e3*e\u2003*e7*eps1 - 5/3*e4*e5*e6*e7*eps1', 'expected generator indices (at position 21)', 21),
    ((0, 2), '- 1*', 'expected a generator name (at position 4)', 4),
    ((0, 6), '- 1*eps3*eps4*eps5 + 1/2*eps1*eps2*eps6 - 8*eps1\u0663eps2*eps5*eps6', "unexpected character '\u0663' (at position 48)", 48),
    ((3, 3), '- 3*e1*ep', 'expected generator indices (at position 8)', 8),
    ((0, 6), '9/2*eps1*', 'expected a generator name (at position 9)', 9),
    ((3, 11), '- 1/3*e2*e3*eps1*eps4*e', 'expected generator indices (at position 23)', 23),
    ((0, 2), 'x/3*eps1 - 2*eps2', 'expected a generator name (at position 0)', 0),
    ((9, 0), '5*e2*e3*e9*e9', 'repeated generator in a term (at position 11)', 11),
    ((8, 1), '- 3*e1*e6*e7*e8 - 6*e1*e2*e3*e5*e6*e7*e8*ep', 'expected generator indices (at position 42)', 42),
    ((5, 5), '1/2*e4 + 3/2*e4*e5*eps', 'expected generator indices (at position 22)', 22),
    ((12, 0), '2/3*e1*e3*e4*e9*e10*e11 + 7/2*e2*e6*e7*e11*', 'expected a generator name (at position 43)', 43),
    ((7, 0), '- 7*e1 + 9/2*e4*e5 - 3*e1*e2*e3*e4*e5*e6*', 'expected a generator name (at position 41)', 41),
    ((0, 2), '- 5*eps2 - 4/', 'expected a non-zero denominator (at position 13)', 13),
    ((5, 5), '- 5/2*e1*e4*e5*eps2*eps5 + 3*e4*e5*eps1*\u2003ps4*eps5', 'expected a generator name (at position 41)', 41),
    ((12, 0), '5\x1c2*e2*e3*e4*e5*e6*e7 - 8/3*e6*e8 + 1*e1*e3*e5*e8*e10', "unexpected character '2' (at position 2)", 2),
    ((5, 5), '5*e3*e4*e5*eps2 + 1/3*e3*e4*e5*eps2 eps4', "unexpected character 'e' (at position 36)", 36),
    ((2, 1), '4/3*e1p- 9/2*e1*e2', "unexpected character 'p' (at position 6)", 6),
    ((0, 6), '3*eps3*eps4 - 8/**eps1*eps3*eps5 + 9/2*eps1*eps3*eps4*eps5*eps6', 'expected a non-zero denominator (at position 16)', 16),
    ((2, 1), '- 9 + 3*e1*1ps1', 'expected a generator name (at position 11)', 11),
    ((2, 1), '1/3*e1*e2*- 1*eps1', 'expected a generator name (at position 10)', 10),
    ((8, 1), '9*e2*+4*e6*e8 + 8*e1*e2*e3*e5*e7*e8', 'expected a generator name (at position 5)', 5),
    ((3, 3), '1/3*e1*ep', 'expected generator indices (at position 8)', 8),
    ((12, 0), '- 1/3*e7*e8*e10*', 'expected a generator name (at position 16)', 16),
    ((8, 1), '3/2*e1*e2*e4*', 'expected a generator name (at position 13)', 13),
    ((8, 0), '- 1*e1*e4\x1ce7', "unexpected character 'e' (at position 10)", 10),
    ((3, 11), '- 2*eps2*e', 'expected generator indices (at position 10)', 10),
    ((5, 5), '8/3*e1*e3*e4*eps1*eps2*eps3*eps4 + 7/3*e2\u2003e4*eps3*eps5', "unexpected character 'e' (at position 42)", 42),
    ((7, 0), '1*e+*e2*e3 + 5*e2*e3*e4*e5', 'expected generator indices (at position 3)', 3),
    ((3, 3), '', 'empty expression (at position 0)', 0),
    ((7, 0), '- ', 'expected a generator name (at position 2)', 2),
    ((5, 5), '1/3*e2*e5*eps2*eps3 + 3*e2*e3*eps2*e', 'expected generator indices (at position 36)', 36),
    ((8, 0), '- 2*e3*', 'expected a generator name (at position 7)', 7),
    ((0, 2), '-e2 + 7/2*eps2', 'generator index 2 outside the signature (at position 1)', 1),
    ((3, 11), '4/3*e2*e3*eps1*eps5*eps6*eps8*\u0663ps10 + 1/2*e1*e3*eps4*eps5*eps6*eps7*eps8*eps11 + 5/3*eps4*eps6*eps8*eps9*eps10*eps11', 'expected a generator name (at position 30)', 30),
    ((3, 11), '2*e1*e2*eps1*eps7*eps9*', 'expected a generator name (at position 23)', 23),
    ((8, 0), '4*e4*e6*e7 - 9/2*\x1c1*e2*e4*e6*e7 + 5/3*e1*e2*e3*e6*e8', 'expected a generator name (at position 18)', 18),
    ((5, 5), '2/3*e2*e3*', 'expected a generator name (at position 10)', 10),
    ((5, 5), '- 5/2*e2*e3*e4*eps1*eps3 + 4*e1*e3*e4*eps1*eps2*eps4 + 8*e4*eps2*e2s4*eps5', "unexpected character 's' (at position 67)", 67),
    ((5, 5), '4/3*eps1*eps2*eps3 - 1/2*e2/eps5', "unexpected character '/' (at position 27)", 27),
    ((5, 5), '9*e1*', 'expected a generator name (at position 5)', 5),
    ((3, 3), '- 1*e3 + 1/2*e1*e2*e3*eps1*eps3 - 7*e2*e3*eps1*eps2*ep*3', 'expected generator indices (at position 53)', 53),
    ((5, 5), '2/3*e1*e2*eps2*eps3*eps4 + 7/3*\u20032*e3*e4*eps2*eps4*eps5', 'expected a generator name (at position 32)', 32),
    ((8, 0), '- ', 'expected a generator name (at position 2)', 2),
    ((0, 6), '2*eps1*eps2*eps4 - 3*eps1*eps2*eps3*eps4*eps59eps6', 'generator index 9 outside the signature (at position 41)', 41),
    ((0, 6), '- 3/2*eps2*eps4 + 6*epe1*eps2*eps4 + 5/3*eps1*eps3*eps5*eps6', 'expected generator indices (at position 21)', 21),
    ((3, 3), '- 4*e2*ep+1*eps2*eps3', 'expected generator indices (at position 8)', 8),
    ((0, 6), '- 2/3*eps6 + 1*eps3*eps4*eps6 + 2*eps1*eps2*eps3*e+s4*eps6', 'expected generator indices (at position 50)', 50),
    ((5, 5), '1*e.*e4*eps3', 'expected generator indices (at position 3)', 3),
    ((7, 0), '-', 'expected a generator name (at position 1)', 1),
    ((3, 3), '2*e1*ep', 'expected generator indices (at position 6)', 6),
    ((9, 0), '- 1/3*e1*e3*e4*e5*e7*e8*', 'expected a generator name (at position 24)', 24),
    ((7, 0), '- 7/3*e1*e3*e5*e7 - 7/2*e2ee4*e5*e7 + 4*e1*e2*e3*e4*e6*e7', "unexpected character 'e' (at position 26)", 26),
    ((7, 0), '3/2*e1*e3*e4 e7 - 7/3*e3*e6*e7 - 6*e4*e6*e7', "unexpected character 'e' (at position 13)", 13),
    ((3, 11), '- 7*e1*e2*e3*eps1*eps2*eps5*eps6*eps7*eps8*eps10 + 7/3*e2*e3*eps2*eps3*eps.*eps6*eps7*eps9*eps10 - 3*e1*eps4*eps5*eps8*eps9*eps10', 'expected generator indices (at position 74)', 74),
    ((3, 11), '2*e3*eps1*eps3*eps4*eps7*eps9 + 7/3*e2*e3*eps1*eps2*epss*eps10*eps11', 'expected generator indices (at position 55)', 55),
    ((2, 1), '- 9/e1*eps1', 'expected a non-zero denominator (at position 4)', 4),
    ((8, 0), '2*92*e5*e8 - 5/2*e3*e4*e5*e6*e8', 'expected a generator name (at position 2)', 2),
    ((2, 1), '- 3p2*e2 - 4/3*eps1', "unexpected character 'p' (at position 3)", 3),
    ((2, 1), '1/\x1c*e2 - 4*e1*eps1 + 4/3*e1*e2*eps1', 'expected a non-zero denominator (at position 2)', 2),
    ((9, 0), '1*e1*e3*e4*e9 - 2/3*e1 e4*e7*e8*e9', "unexpected character 'e' (at position 23)", 23),
    ((8, 0), '9*e1*e3*e5*ex', 'expected generator indices (at position 12)', 12),
    ((2, 1), _RUN, "number of 5000 digits is too long (at position 0)", 0),
    ((2, 1), f"{_RUN}/0", "number of 5000 digits is too long (at position 0)", 0),
    ((2, 1), f"2 + 1/{_RUN}*e1", "number of 5000 digits is too long (at position 6)", 6),
    ((2, 1), f"1/{'0' * 5000}", "number of 5000 digits is too long (at position 2)", 2),
    ((2, 1), f"1 - e{_RUN}", "number of 5000 digits is too long (at position 4)", 4),
    ((3, 11), f"-eps{_RUN}", "number of 5000 digits is too long (at position 1)", 1),
]


def test_parse_errors_are_pinned():
    wrong = []
    for (p, q), source, message, position in PINNED_ERRORS:
        with pytest.raises(ParseError) as err:
            parse_multivector(Signature(p, q), source)
        if (str(err.value), err.value.position) != (message, position):
            wrong.append((p, q, source[:60], str(err.value), err.value.position))
    assert not wrong


def test_edge_cases_equal_multivector_arithmetic():
    s12, s311 = Signature(12, 0), Signature(3, 11)
    g12 = [None] + [Multivector.generator(s12, i) for i in range(1, 13)]
    g311 = [None] + [Multivector.generator(s311, i) for i in range(1, 15)]
    # a digit run names one generator when it can, else single digits
    assert parse_multivector(s12, "e12") == g12[12]
    assert parse_multivector(s12, "e123") == g12[1] * g12[2] * g12[3]
    assert parse_multivector(s12, "e12*e1 - e10") == g12[12] * g12[1] - g12[10]
    assert parse_multivector(s311, "eps11") == g311[14]
    assert parse_multivector(s311, "eps11*e2*eps10") == g311[14] * g311[2] * g311[13]
    assert parse_multivector(s311, "e13*eps123") == g311[1] * g311[3] * g311[4] * g311[5] * g311[6]
    e1, e2, eps1 = (Multivector.generator(S21, i) for i in (1, 2, 3))
    one = Multivector.scalar(S21, 1)
    # cancelling terms and repeated blades over mixed denominators
    assert parse_multivector(S21, "e1 - e1") == Multivector.zero(S21)
    assert parse_multivector(S21, "e1*e2 + e2*e1") == Multivector.zero(S21)
    assert parse_multivector(S21, "1/2*e1 + 1/3*e1") == Fraction(1, 2) * e1 + Fraction(1, 3) * e1
    assert parse_multivector(S21, "1/2*e1 + 1/3*e2 + 1/6*e1 - 5/4 + 3/4") == (
        Fraction(2, 3) * e1 + Fraction(1, 3) * e2 - Fraction(1, 2) * one
    )
    # leading signs, and whitespace of any kind around every operator
    assert parse_multivector(S21, "+e1") == e1
    assert parse_multivector(S21, "-e1 + 2") == 2 * one - e1
    assert parse_multivector(S21, "- 1/2") == Fraction(-1, 2) * one
    spaced = " \u2003-\u20033/2\u2003*\u2003e2 *\te1\u2003+\x1ceps1\n-\u20031/6 "
    assert parse_multivector(S21, spaced) == (
        Fraction(-3, 2) * e2 * e1 + eps1 - Fraction(1, 6) * one
    )


@pytest.mark.parametrize("p,q", [(3, 1), (1, 3)])
def test_factors_multiply_in_the_order_written(p, q):
    sig = Signature(p, q)
    names = [f"e{i}" for i in range(1, p + 1)] + [f"eps{i}" for i in range(1, q + 1)]
    gens = [Multivector.generator(sig, i) for i in range(1, sig.n + 1)]
    for k in (2, 3):
        for order in itertools.permutations(range(sig.n), k):
            text = "*".join(names[i] for i in order)
            product = reduce(mul, (gens[i] for i in order))
            assert parse_multivector(sig, text) == product, text
            assert parse_multivector(sig, f"1 - 3/2*{text}") == 1 - Fraction(3, 2) * product, text
            with pytest.raises(ParseError, match="repeated generator"):
                parse_multivector(sig, f"{text}*{names[order[0]]}")
