"""Shared exception types, the integer-argument check and the JSON reader."""

import json


class ConvergenceError(RuntimeError):
    """An iterative routine ran out of iterations; indicates a bug."""


def is_index(value, least: int) -> bool:
    """True for a whole number >= least that a float can hold.

    A bool is not an index, although Python takes it for 0 or 1. float() of
    an int above about 1e308 raises OverflowError; such an index is
    rejected here, before any arithmetic on it could overflow.
    """
    if isinstance(value, bool):
        return False
    try:
        return float(value).is_integer() and value >= least
    except OverflowError:
        return False


def json_object(text: str, what: str) -> dict:
    """Parse `text` as one JSON object; ValueError naming `what` otherwise,
    also where nesting deep enough for RecursionError."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    return data
