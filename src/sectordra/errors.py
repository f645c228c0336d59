"""Shared exception types, the argument checks and the JSON reader.

`check_real` and `check_index` decide every scalar and integer argument of
the package: each refuses a bool, a string, None, a NaN, an infinity and a
number out of range with one ValueError wording naming the argument."""

import json
import math
import numbers
import sys

_MAX = sys.float_info.max


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
    except (OverflowError, TypeError, ValueError):  # also a string or None
        return False


def _shown(value) -> str:
    # a number as str() writes it, anything else (True, '1', None) as repr()
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return str(value) if real else repr(value)


def _bound(x: float) -> str:
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def check_real(value, what: str, low: float = 0.0, high: float = math.inf, *,
               closed: bool = False):
    """`value` when it is a finite real number, not a bool, above `low` (or
    equal to it where `closed`) and at most `high`; ValueError naming
    `what` and the value otherwise. `low` is finite. A string or None fails
    the comparisons with TypeError, a NaN fails each, and `value <= _MAX`
    refuses an infinity and an int too large for a float."""
    try:
        if ((low < value or closed and value == low) and value <= high
                and value <= _MAX and not isinstance(value, bool)):
            return value
    except (TypeError, ValueError):  # ValueError: an array of many values
        pass
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        rule = "a number"
    elif high < math.inf:
        rule = f"in {'[' if closed else '('}{_bound(low)}, {_bound(high)}]"
    elif closed:
        rule = f">= {_bound(low)}"
    else:
        rule = "positive and finite" if low == 0.0 else f"> {_bound(low)}"
    raise ValueError(f"{what} must be {rule}, got {_shown(value)}")


def check_index(value, what: str, least: int) -> int:
    """int(value) when `is_index(value, least)`; ValueError naming `what`
    and the value otherwise."""
    if type(value) is int and least <= value <= _MAX:  # most calls, at a third of the cost
        return value
    if is_index(value, least):
        return int(value)
    raise ValueError(f"{what} must be an integer >= {least}, got {_shown(value)}")


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
