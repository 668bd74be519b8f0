"""Exception types shared across the toolkit."""


class SpecfuseError(Exception):
    """Base class for all toolkit errors."""


class InvalidShapeError(SpecfuseError, ValueError):
    """A tensor shape is malformed (wrong rank, zero-sized axis, ...)."""


class InvalidParameterError(SpecfuseError, ValueError):
    """A scalar or structural parameter is out of its valid range."""


class ShapeMismatchError(SpecfuseError, ValueError):
    """Two operands that must share a shape do not."""


class InvalidPlanError(SpecfuseError, ValueError):
    """A fusion plan is inconsistent (bad alphas, broken mask partition, ...)."""


class DegenerateInputError(SpecfuseError, ValueError):
    """An input carries no usable signal (e.g. zero total energy)."""


class TensorFileError(SpecfuseError):
    """Base class for tensor file format errors."""


class BadMagicError(TensorFileError):
    """The file does not start with the expected magic bytes."""


class TruncatedPayloadError(TensorFileError):
    """The payload holds fewer values than the header declares."""


class NonFiniteValueError(TensorFileError, InvalidShapeError):
    """A file payload, tensor, spectrum or token array holds NaN or Inf values."""


class UnsupportedFormatError(TensorFileError):
    """Header fields (version, dtype, rank) or trailing bytes are unsupported."""
