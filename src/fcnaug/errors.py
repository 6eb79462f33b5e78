"""Exception types shared across the package.

An :class:`InputError` is the caller's fault, a bad argument or input file, and
the CLI exits 2 on it; any other :class:`FcnAugError` is a runtime failure, exit 1.
"""


class FcnAugError(Exception):
    """Base class for all errors raised by this package."""


class InputError(FcnAugError):
    """Bad arguments or input data: the caller's fault, not the program's."""


class DataFormatError(InputError):
    """Structurally malformed dataset text (ragged lines, empty input)."""


class DataParseError(DataFormatError):
    """A field that should be numeric could not be parsed, or the text is not UTF-8."""


class UnsupportedLabelError(InputError):
    """A class label outside the {-1, 0, 1} mapping, or -1 and 0 in one file."""


class SplitError(InputError):
    """A dataset cannot be split as requested."""


class ParameterError(InputError):
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
