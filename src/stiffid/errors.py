"""Exception and warning types used across the package."""


class StiffidError(Exception):
    """Base class for all library errors."""


class InvalidArgument(StiffidError, ValueError):
    """An argument value is outside its documented range."""


class AlreadyCentered(StiffidError):
    """Field has already been shifted to its reference point."""


class EmptyField(StiffidError):
    """Operation needs at least one node."""


class EmptySelection(StiffidError):
    """Sensor region contains no nodes."""


class DegenerateGeometry(StiffidError):
    """Node layout leaves part of the rigid motion unobservable."""


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
