import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aabeta.codec import EncodedMessage, capacity_bytes, decode, encode
from aabeta.errors import CapacityError, CodecError

import vectors


def test_capacity_values():
    assert capacity_bytes(16) == 7  # (3*16-1) + (16-3) = 60 free bits
    assert capacity_bytes(512) == 255
    assert capacity_bytes(8) == 3  # 28 free bits floored


def test_capacity_rejects_small_n():
    with pytest.raises(ValueError):
        capacity_bytes(7)


def test_empty_payload_round_trip():
    msg = encode(b"", 16)
    assert decode(msg) == b""


def test_small_round_trip():
    assert decode(encode(b"AB", 16)) == b"AB"


def test_full_capacity_round_trip():
    payload = bytes(range(7))
    assert decode(encode(payload, 16)) == payload
    payload = bytes(255 - i for i in range(7))
    assert decode(encode(payload, 16)) == payload


@pytest.mark.parametrize("n", [8, 9, 11, 16])
def test_every_length_round_trips(n):
    rng = random.Random(n)
    for length in range(capacity_bytes(n) + 1):
        for _ in range(20):
            payload = rng.randbytes(length)
            assert decode(encode(payload, n)) == payload


@st.composite
def payload_pairs(draw):
    """A bit size n in [8, 64] and two payloads of at most capacity_bytes(n) bytes."""
    n = draw(st.integers(min_value=8, max_value=64))
    payloads = st.binary(max_size=capacity_bytes(n))
    return n, draw(payloads), draw(payloads)


@settings(deadline=None)
@given(payload_pairs())
@example((8, b"", b"\x00"))  # shortest payloads: rank 0 and rank 1
@example((64, b"\xff" * 31, b"\x00" * 31))  # full capacity, last and first rank
def test_codec_is_a_bijection(case):
    n, p, q = case
    mp, mq = encode(p, n), encode(q, n)
    assert decode(mp) == p and decode(mq) == q
    assert ((mp.m1, mp.m2) == (mq.m1, mq.m2)) == (p == q)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_fuzz_round_trip(n):
    rng = random.Random(f"fuzz:{n}")
    cap = capacity_bytes(n)
    for _ in range(1000):
        payload = rng.randbytes(rng.randrange(cap + 1))
        assert decode(encode(payload, n)) == payload


@pytest.mark.parametrize("n", [8, 9, 16, 32, 64])
def test_encode_outputs_stay_strictly_inside_intervals(n):
    rng = random.Random(f"ivl:{n}")
    cap = capacity_bytes(n)
    lengths = list(range(cap + 1))
    for length in lengths:
        for payload in (b"\x00" * length, b"\xff" * length, rng.randbytes(length)):
            msg = encode(payload, n)
            assert (1 << (3 * n)) < msg.m1 < (1 << (3 * n + 1))
            assert (1 << (n - 2)) < msg.m2 < (1 << (n - 1))


def test_reference_message_parts_are_in_range():
    # the n=16 known-answer message pair satisfies both open intervals
    msg = EncodedMessage(vectors.M1_16, vectors.M2_16, 16)
    assert (1 << 48) < msg.m1 < (1 << 49)
    assert (1 << 14) < msg.m2 < (1 << 15)


def test_capacity_exceeded():
    with pytest.raises(CapacityError):
        encode(b"x" * 8, 16)


def test_message_constructor_rejects_out_of_interval():
    with pytest.raises(ValueError):
        EncodedMessage(1 << 48, vectors.M2_16, 16)  # closed endpoint
    with pytest.raises(ValueError):
        EncodedMessage(vectors.M1_16, 1 << 15, 16)


def test_decode_rejects_index_beyond_payload_space():
    n = 8
    msg = EncodedMessage((1 << 25) - 1, (1 << 7) - 1, n)  # near-maximal index
    with pytest.raises(CodecError):
        decode(msg)
