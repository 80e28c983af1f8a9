"""Exception hierarchy shared across the package."""


class PfmixError(Exception):
    """Base class for all package errors."""


class DomainError(PfmixError):
    """A free-energy evaluation left its physical domain (e.g. a log argument
    went nonpositive).  Carries the offending grid index when the evaluation
    was pointwise on a field."""

    def __init__(self, message, index=None):
        super().__init__(message if index is None else f"{message} (grid index {index})")
        self.index = index


class RangeError(PfmixError):
    """A parameter is outside its admissible range."""


class ShapeError(PfmixError):
    """A matrix or field has the wrong shape or lacks required symmetry."""


class NumericalError(PfmixError):
    """A numerical routine (eigensolver, elliptic solve) failed to converge."""


class SolveError(NumericalError):
    """The pressure-like elliptic solve failed."""


class SingularExpansion(PfmixError):
    """An asymptotic expansion denominator vanished within tolerance."""


class DegenerateCase(PfmixError):
    """A classification quantity sits on a decision boundary; the verdict is
    reported as degenerate instead of guessed."""


class BlowupError(PfmixError):
    """A transient run produced NaN or left the free-energy domain."""

    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"{message} (step {step})")
        self.step = step


class FitError(PfmixError):
    """A growth-rate fit had excessive residual or an underflowed amplitude."""


class ConfigError(PfmixError):
    """A run configuration is malformed: unknown key, missing key, bad type."""
