"""Byte payloads <-> the range-constrained message pair (m1, m2).

At bit size n a message is the pair m1 in (2^(3n), 2^(3n+1)) and
m2 in (2^(n-2), 2^(n-1)), both open intervals. Writing m1 = 2^(3n)+1+x1
and m2 = 2^(n-2)+1+x2 leaves a free index space of
(2^(3n)-1) * (2^(n-2)-1) values. Payloads of up to (4n-4)//8 bytes are
ranked (all shorter payloads first, then byte value) and the rank is
stored in that space, which makes the mapping a bijection onto an
initial segment: every payload round-trips, including length zero and
full capacity, and the length never needs a separate header field.
"""

from collections import namedtuple

from .errors import CapacityError, CodecError

__all__ = ["EncodedMessage", "capacity_bytes", "encode", "decode"]


class EncodedMessage(namedtuple("EncodedMessage", "m1 m2 n")):
    __slots__ = ()

    def __new__(cls, m1, m2, n):
        if n < 8:
            raise ValueError("n must be at least 8")
        if not (1 << (3 * n)) < m1 < (1 << (3 * n + 1)):
            raise ValueError(f"m1 outside (2^{3 * n}, 2^{3 * n + 1})")
        if not (1 << (n - 2)) < m2 < (1 << (n - 1)):
            raise ValueError(f"m2 outside (2^{n - 2}, 2^{n - 1})")
        return super().__new__(cls, m1, m2, n)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: keep it checked
        return cls(*iterable)


def capacity_bytes(n):
    """Largest payload length in whole bytes at bit size n."""
    if n < 8:
        raise ValueError("n must be at least 8")
    return (4 * n - 4) // 8


def _rank_base(length):
    # number of byte strings shorter than `length`
    return ((1 << (8 * length)) - 1) // 255


def encode(payload, n):
    """Map a byte payload to an in-range message pair (invertible)."""
    cap = capacity_bytes(n)
    if len(payload) > cap:
        raise CapacityError(
            f"payload of {len(payload)} bytes exceeds capacity {cap} at n={n}"
        )
    rank = _rank_base(len(payload)) + int.from_bytes(payload, "big")
    span2 = (1 << (n - 2)) - 1
    x1, x2 = divmod(rank, span2)
    # the capacity bound keeps the rank inside the index space
    assert x1 < (1 << (3 * n)) - 1
    return EncodedMessage((1 << (3 * n)) + 1 + x1, (1 << (n - 2)) + 1 + x2, n)


def decode(msg):
    """Recover the byte payload; inverse of encode."""
    n = msg.n
    x1 = msg.m1 - (1 << (3 * n)) - 1
    x2 = msg.m2 - (1 << (n - 2)) - 1
    rank = x1 * ((1 << (n - 2)) - 1) + x2
    # largest length with _rank_base(length) <= rank, i.e. 256^length <= 255*rank + 1
    length = ((255 * rank + 1).bit_length() - 1) // 8
    if length > capacity_bytes(n):
        raise CodecError("message index beyond the payload space")
    return (rank - _rank_base(length)).to_bytes(length, "big")
