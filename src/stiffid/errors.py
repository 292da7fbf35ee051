"""Exception and warning types used across the package, and :func:`warn`."""

import sys
import warnings


class StiffidError(Exception):
    """Base class for all library errors."""


class InvalidArgument(StiffidError, ValueError):
    """An argument value is outside its documented range."""


class AlreadyCentered(StiffidError):
    """Field has already been shifted to its reference point."""


class EmptySelection(StiffidError):
    """Sensor region contains no nodes."""


class DegenerateGeometry(StiffidError):
    """Node layout leaves part of the rigid motion unobservable."""


class NonFiniteDeflection(StiffidError, ValueError):
    """Deflection is infinite or NaN, as when a field value overflows
    the fit, or the fit's residual sum of squares overflows."""


class NonFiniteCompliance(StiffidError, ValueError):
    """Assembled compliance matrix or its halfwidths are infinite or NaN,
    as when a wrench is too small for finite deflections."""


class EntryOutOfRange(StiffidError):
    """Rotation matrix entry outside the asin domain."""


class ZeroMagnitude(InvalidArgument):
    """Wrench component magnitude must be nonzero."""


class NotCanonical(StiffidError):
    """Wrench set is not a canonical single-component scheme."""


class RankDeficientWrenches(StiffidError):
    """Wrench matrix does not span all six load directions."""


class SingularCompliance(StiffidError):
    """Compliance matrix cannot be inverted."""


class InsufficientDof(StiffidError):
    """Not enough residual degrees of freedom to estimate noise."""


class TooFewRemaining(StiffidError):
    """Outlier removal would leave fewer than three nodes."""


class MissingCovariance(StiffidError):
    """Significance test needs one covariance per experiment."""


class InvalidPattern(InvalidArgument):
    """Mesh pattern parameters are inconsistent."""


class ManifestError(StiffidError):
    """Experiment manifest is missing or malformed."""

    def __init__(self, file: str, message: str):
        super().__init__(f"{file}: {message}")
        self.file = file
        self.message = message


class FieldFileError(StiffidError):
    """Displacement field file is malformed."""

    def __init__(self, file: str, line: int | None, message: str):
        where = f"{file}:{line}" if line is not None else file
        super().__init__(f"{where}: {message}")
        self.file = file
        self.line = line
        self.message = message


class LinearizationWarning(UserWarning):
    """Rotation amplitude is outside the small-angle regime."""


def warn(message: str, category: type[Warning] = UserWarning) -> None:
    """Issue a warning that names the first caller outside the package.

    Frames are matched on their module name, not their file: code that
    a dataclass generates reports ``<string>`` as its file."""
    frame, level = sys._getframe(1), 2
    while frame is not None and \
            frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
