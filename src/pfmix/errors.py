"""Exception hierarchy shared across the package."""


class PfmixError(Exception):
    """Base class for all package errors.  One raised over a batch of points
    or matrices may carry the flat index of its first bad one."""

    def __init__(self, message, index=None):
        super().__init__(message if index is None else f"{message} (grid index {index})")
        self.index = index


class DomainError(PfmixError):
    """A free-energy evaluation left its physical domain (e.g. a log argument
    went nonpositive).  Given more than one point, it carries the flat index
    of the first failing check's first bad point; a lone point has none."""


class RangeError(PfmixError):
    """A parameter is outside its admissible range."""


class ShapeError(PfmixError):
    """A matrix or field has the wrong shape or lacks required symmetry."""


class NumericalError(PfmixError):
    """A numerical routine failed to converge, or a matrix to classify is not finite."""


class SolveError(NumericalError):
    """The pressure-like elliptic solve failed."""


class SingularExpansion(PfmixError):
    """The long-wave expansion does not exist: p.C.p vanishes within tolerance."""


class BlowupError(PfmixError):
    """A transient run produced NaN or left the free-energy domain."""

    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"{message} (step {step})")
        self.step = step


class FitError(PfmixError):
    """A growth-rate fit had excessive residual or an underflowed amplitude."""


class ConfigError(PfmixError):
    """A run configuration is malformed: unknown key, missing key, bad type."""
