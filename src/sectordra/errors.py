"""Shared exception types and the integer-argument check."""


class ConvergenceError(RuntimeError):
    """An iterative routine ran out of iterations; indicates a bug."""


def is_index(value, least: int) -> bool:
    """True for a whole number >= least that a float can hold.

    float() of an int above about 1e308 raises OverflowError; such an index
    is rejected here, before any arithmetic on it could overflow.
    """
    try:
        return float(value).is_integer() and value >= least
    except OverflowError:
        return False
