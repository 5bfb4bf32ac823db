"""Exception types shared across the package."""


class BcnnError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(BcnnError):
    """Tensor or layer shapes do not compose."""


class NonFiniteInput(BcnnError):
    """An input image holds a NaN or an infinite value."""


class NonBinaryEntry(BcnnError):
    """A value expected to be exactly +1 or -1 is not."""


class BudgetTooLarge(BcnnError):
    """Channel budget exceeds the number of channels in the layer."""


class InvalidConfig(BcnnError):
    """Configuration value outside its documented range."""


class MissingFile(BcnnError):
    """A required input file does not exist."""


class CorruptRecord(BcnnError):
    """Binary dataset file length is not a whole number of records."""


class DataExhausted(BcnnError):
    """Dataset has no samples to train on."""


class DivergedLoss(BcnnError):
    """Training loss became non-finite."""


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
