"""Exception types shared across the package, and the integer check of settings."""

import numbers


class BcnnError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(BcnnError):
    """Tensor or layer shapes do not compose."""


class NonFiniteInput(BcnnError):
    """An input image holds a NaN or an infinite value."""


class NonRealInput(BcnnError):
    """An input image holds complex or non-numeric pixels."""


class NonBinaryEntry(BcnnError):
    """A value expected to be exactly +1 or -1 is not."""


class BudgetTooLarge(BcnnError):
    """Channel budget exceeds the number of channels in the layer."""


class InvalidConfig(BcnnError):
    """Configuration value outside its documented range."""


def check_integer(name: str, value):
    """Raise ``InvalidConfig`` naming the setting ``name`` unless ``value`` is
    an integer (a Python or numpy one; a float such as 2.0 is not)."""
    if not isinstance(value, numbers.Integral):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")


class MissingFile(BcnnError):
    """A required input file does not exist."""


class CorruptRecord(BcnnError):
    """Binary dataset file length is not a whole number of records."""


class DataExhausted(BcnnError):
    """Dataset has no samples to train on."""


class DivergedLoss(BcnnError):
    """Training loss or a trained weight became non-finite."""


class BadMagic(BcnnError):
    """Model file does not start with the expected magic bytes."""


class UnsupportedVersion(BcnnError):
    """Model file version is not understood by this reader."""


class TruncatedFile(BcnnError):
    """Model file ended before all declared payloads were read."""


class CorruptModelFile(BcnnError):
    """Model file has trailing bytes, an inconsistent descriptor, a
    non-finite parameter or a batch-norm eps <= 0; saving a model with such
    a parameter raises it too."""


class NonFiniteParameter(CorruptModelFile):
    """A parameter is NaN or infinite as a model file stores it; forward raises it too."""


class ReadOnlyParameter(BcnnError, ValueError):
    """A parameter the engine writes in place is read-only; the engine raises
    this before it writes anything."""
