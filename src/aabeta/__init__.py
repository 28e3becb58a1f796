"""AA-beta public-key cryptosystem toolkit.

Key generation, encryption with guaranteed-unique square-root
decryption, a baseline Rabin implementation, a cryptanalysis lab, and
a timing harness.
"""

from .cipher import (
    Ciphertext,
    EphemeralPair,
    decrypt,
    encrypt,
)
from .codec import EncodedMessage, capacity_bytes, decode, encode
from .errors import (
    CapacityError,
    CodecError,
    CryptoError,
    FactoringFailure,
    GenerationFailure,
    InconsistentKey,
    InvalidCiphertext,
    NonResidueError,
    ParameterViolation,
)
from .keys import (
    KeyPair,
    PrivateKey,
    PublicKey,
    generate_keypair,
    validate_keypair,
)

__version__ = "0.1.0"

__all__ = [
    "Ciphertext",
    "EphemeralPair",
    "EncodedMessage",
    "KeyPair",
    "PrivateKey",
    "PublicKey",
    "capacity_bytes",
    "decode",
    "decrypt",
    "encode",
    "encrypt",
    "generate_keypair",
    "validate_keypair",
    "CryptoError",
    "CapacityError",
    "CodecError",
    "FactoringFailure",
    "GenerationFailure",
    "InconsistentKey",
    "InvalidCiphertext",
    "NonResidueError",
    "ParameterViolation",
]
