"""Exception types shared across the package."""


class FcnAugError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(FcnAugError):
    """Structurally malformed dataset text (ragged lines, empty input)."""


class DataParseError(DataFormatError):
    """A field that should be numeric could not be parsed."""


class UnsupportedLabelError(FcnAugError):
    """A class label outside the {-1, 0, 1} mapping, or -1 and 0 in one file."""


class SplitError(FcnAugError):
    """A dataset cannot be split as requested."""


class ParameterError(FcnAugError):
    """An argument is outside its documented range."""


class InterpolationError(FcnAugError):
    """Too few knots for cubic spline interpolation."""


class ShapeError(FcnAugError):
    """Tensor shapes inconsistent with the operation's contract."""


class LabelError(FcnAugError):
    """A class index out of range for the logits it is paired with."""


class NumericError(FcnAugError):
    """A non-finite value where a finite one is required."""


class CheckpointError(FcnAugError):
    """A checkpoint document is missing, corrupt, or incompatible."""
