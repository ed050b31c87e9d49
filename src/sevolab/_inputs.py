"""The library's one rule for scalar inputs: a value passes only if it is a
``numbers.Real`` and not a bool, a float can hold it, it lies in its stated
range, and it is a ``numbers.Integral`` where it counts something; it passes as
the float (for a count, the int) that every function checking it computes with and
the validated dataclasses hold: ``linear_norm`` takes sigma = np.float32(1.1) as
1.100000023841858.  Nothing is coerced: True is not 1, '1' is not a number, and
NaN or 10**400 lies in no range.  Arrays pass :func:`require_reals`; a value a
run resolves passes :func:`auto_or_positive`; a space dimension passes :func:`dimension`."""

import math
import numbers

import numpy as np


def require(value, name: str, lo=-math.inf, hi=math.inf, closed: str = "", integral: bool = False):
    """value as a float (an int if ``integral``) if the rule takes it, else
    ValueError "<name> must ..., got <value>".  The range runs from lo to hi, lo
    finite unless the range is all reals; an end is excluded unless ``closed``
    holds its bracket ("[" for lo, "]" for hi), so an excluded infinite end keeps
    the value finite.  A float strictly inside passes on a first, inline-cheap test."""
    if type(value) is float and lo < value < hi and not integral:
        return value
    typed = (isinstance(value, numbers.Integral if integral else numbers.Real)
             and not isinstance(value, bool))
    try:
        number = float(value) if typed else math.nan
    except OverflowError:  # an integer or fraction beyond the largest float
        number, hi = math.nan, min(hi, np.finfo(float).max)
    if (lo <= number if "[" in closed else lo < number) \
            and (number <= hi if "]" in closed else number < hi):
        return int(value) if integral else number
    left, right = ("[" if "[" in closed else "("), ("]" if "]" in closed else ")")
    if lo == -math.inf:
        must = "be finite"
    elif hi < math.inf:
        must = f"{'be an integer' if integral else 'lie'} in {left}{lo:g}, {hi:g}{right}"
    else:
        kind = "an integer " if integral else "finite and " if right == ")" else ""
        bound = "positive" if (lo, left) == (0, "(") else f"{'>=' if left == '[' else '>'} {lo:g}"
        must = f"be {kind}{bound}"
    got = repr(value) if typed else f"{value!r}, a {type(value).__name__}"
    raise ValueError(f"{name} must {must}, got {got}")


def dimension(value, name: str) -> int:
    """value as an int if :func:`require` takes it as a space dimension the
    library computes in: an integer in [1, 3]."""
    return require(value, name, 1, 3, "[]", integral=True)


def auto_or_positive(value, name: str):
    """``"auto"``, or value as a float if :func:`require` takes it as a finite real
    > 0, else ValueError '<name> must be positive: "auto" or a finite real > 0,
    got <value>'."""
    if isinstance(value, str) and value == "auto":
        return value
    try:
        return require(value, name, 0.0)
    except ValueError:
        raise ValueError(f'{name} must be positive: "auto" or a finite real > 0, '
                         f'got {value!r}') from None


def require_reals(values, name: str) -> np.ndarray:
    """values as a float array (0-d for a number) if numpy reads them (a
    number, a sequence or an array) as integers or finite floats, else
    ValueError "<name> must ..., got <values>"; so no bool, string, complex,
    object, NaN or infinity passes, whatever its shape."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind in "iu" or (kind == "f" and np.isfinite(array).all()):
        return array.astype(float, copy=False)
    if kind == "f":
        raise ValueError(f"{name} must be finite, got {values!r}")
    raise ValueError(f"{name} must hold integers or floats only, got {values!r} "
                     f"(dtype kind {kind!r})")
