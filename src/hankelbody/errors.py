"""Exception types shared across the package."""


class HankelBodyError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(HankelBodyError):
    """An argument violated a documented precondition: a range, a zero (or
    nonzero) constant term."""


class DegenerateDenominator(HankelBodyError):
    """A Moebius-type denominator 1 - conj(w)*z vanished."""
