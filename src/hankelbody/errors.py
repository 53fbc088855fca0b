"""The package's one exception type."""


class InvalidInput(Exception):
    """An argument violated a documented precondition: a range, a zero (or
    nonzero) constant term, or a Moebius denominator 1 - conj(a)*z that
    vanished at the given points."""
