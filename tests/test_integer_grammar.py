"""Property tests of parse_uint, the one integer grammar of CLI input."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aabeta.cipher import Ciphertext, format_ciphertext, parse_ciphertext
from aabeta.keys import parse_uint

# CPython refuses str<->int conversion of decimals longer than this
_DIGIT_LIMIT = sys.get_int_max_str_digits() or 4300

uints = st.integers(min_value=0, max_value=(1 << 20_000) - 1)
decimal_uints = st.integers(min_value=0, max_value=10 ** (_DIGIT_LIMIT - 300) - 1)
valid_forms = uints.map(hex) | decimal_uints.map(str)
intruders = st.sampled_from("+-_ \t\n") | st.characters(categories=["Nd"]).filter(
    lambda ch: not ch.isascii()
)


@settings(deadline=None)
@given(uints)
def test_hex_round_trip(x):
    assert parse_uint(hex(x)) == x


@settings(deadline=None)
@given(decimal_uints, st.integers(min_value=0, max_value=300))
def test_decimal_round_trip_with_leading_zeros(x, zeros):
    assert parse_uint(str(x)) == x
    assert parse_uint("0" * zeros + str(x)) == x


@settings(deadline=None)
@given(uints)
def test_ciphertext_text_round_trip(x):
    assert parse_ciphertext(format_ciphertext(Ciphertext(x))) == Ciphertext(x)


@settings(deadline=None)
@given(valid_forms, intruders, st.data())
def test_sign_underscore_space_or_non_ascii_digit_is_rejected(text, ch, data):
    i = data.draw(st.integers(min_value=0, max_value=len(text)))
    with pytest.raises(ValueError):
        parse_uint(text[:i] + ch + text[i:])
