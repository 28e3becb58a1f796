"""The record contract: every record is an immutable namedtuple.

Each record keeps its field order, positional and keyword constructor and
`Name(field=value, ...)` repr, and equals the plain tuple of its values.
"""

import pytest

from aabeta import attacks, bench, cipher, codec, keys, rabin

# (record class, its fields in order with one valid value each)
RECORDS = [
    (codec.EncodedMessage, {"m1": (1 << 24) + 1, "m2": 65, "n": 8}),
    (cipher.Ciphertext, {"c": 5}),
    (cipher.EphemeralPair, {"k1": 129, "k2": 130}),
    (cipher.EncryptionTrace, {"u": 1, "v": 2, "ciphertext": cipher.Ciphertext(3)}),
    (keys.PublicKey, {"n": 8, "e_a1": 1, "e_a2": 2}),
    (keys.PrivateKey, {"p": 7, "q": 11, "d": 3}),
    (keys.KeyPair, {"public": keys.PublicKey(8, 1, 2), "private": keys.PrivateKey(7, 11, 3)}),
    (keys.ValidationReport, {"violations": ["p-mod4: p != 3 (mod 4)"]}),
    (rabin.RabinKeyPair, {"N": 77, "p": 7, "q": 11}),
    (rabin.RedundancyStats, {"trials": 4, "ambiguous": 1}),
    (attacks.CongruenceParams, {"a": 1, "b": 2, "window_u": 3, "window_v": 4}),
    (attacks.AttackReport, {"attack": "lattice", "verdict": "recovered", "params": {"n": 8},
                            "diagnostics": {"scanned": 1}, "recovered": None}),
    (bench.BenchRow, {"scheme": "rsa", "n": 16, "keygen_ms": 1.0, "encrypt_ms": 2.0,
                      "decrypt_ms": 3.0, "reps": 5, "payload_bytes": 3}),
    (bench.RsaKeyPair, {"modulus": 77, "e": 7, "d": 43}),
]
# these hold a list or dicts, so they have no hash
_UNHASHABLE = {keys.ValidationReport, attacks.AttackReport}


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, values):
    positional = cls(*values.values())
    keyword = cls(**values)
    assert positional == keyword == tuple(values.values())
    assert cls._fields == tuple(values)
    if cls not in _UNHASHABLE:
        assert hash(positional) == hash(keyword)
    assert repr(positional) == (
        f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    )
    field = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(positional, field, getattr(positional, field))
    with pytest.raises(AttributeError):  # a subclass without __slots__ = () would allow this
        positional.extra = 1


def test_public_key_repr_keeps_the_dataclass_form():
    assert repr(keys.PublicKey(8, 1, 2)) == "PublicKey(n=8, e_a1=1, e_a2=2)"


@pytest.mark.parametrize(
    "record, change",
    [(codec.EncodedMessage((1 << 24) + 1, 65, 8), {"m2": 64}),
     (rabin.RabinKeyPair(77, 7, 11), {"N": 78})],
    ids=["EncodedMessage", "RabinKeyPair"],
)
def test_replace_runs_the_constructor_checks(record, change):
    with pytest.raises(ValueError):
        record._replace(**change)
