"""Exception types shared across the toolkit."""


class CryptoError(Exception):
    """Base class for all domain-level failures."""


class GenerationFailure(CryptoError):
    """Randomized generation exhausted its retry budget."""


class NonResidueError(CryptoError):
    """Value is not a quadratic residue for the given modulus."""


class CapacityError(CryptoError):
    """Payload does not fit the message space for the chosen parameter."""


class CodecError(CryptoError):
    """Message integers do not carry a well-formed payload."""


class InvalidCiphertext(CryptoError):
    """No candidate root satisfies the ciphertext equation."""


class ParameterViolation(CryptoError):
    """More than one candidate was accepted; key material breaks the uniqueness window."""


class FactoringFailure(CryptoError):
    """Root cross-sums shared no nontrivial factor with the key."""


class InconsistentKey(CryptoError):
    """Key material fails basic algebraic consistency."""
