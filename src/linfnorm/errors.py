"""Exception types shared across the solver modules, and the check that
every numeric setting goes through."""

import numbers


class LinfNormError(Exception):
    """Base class for all errors raised by this package."""


class SingularShift(LinfNormError):
    """D(s) is exactly or numerically singular at the requested shift.

    Signals that the shift sits (numerically) on a pole; the caller must
    move to a different shift.
    """

    def __init__(self, s, rcond=None):
        self.s = s
        self.rcond = rcond
        msg = f"D(s) is numerically singular at s = {s}"
        if rcond is not None:
            msg += f" (rcond estimate {rcond:.2e})"
        super().__init__(msg)


class DimensionMismatch(LinfNormError):
    """Matrix dimensions are inconsistent with the declared structure."""


class ParseError(LinfNormError):
    """A manifest or matrix file could not be parsed."""


class PencilSingular(LinfNormError):
    """The level-set eigenvalue pencil is numerically singular."""


class NoConvergence(LinfNormError):
    """An inner solver exhausted its iteration budget."""


class InvalidBound(LinfNormError):
    """An evaluated value exceeded the certified envelope bound.

    Certifies that the user-supplied curvature bound was wrong.
    """


class AllShiftsSingular(LinfNormError):
    """Every initial interpolation point, or every certification candidate,
    hit a numerically singular D(s)."""


def check_setting(name, value, ok, what, kind=numbers.Real):
    """``value`` when it is a ``kind`` number, not a bool, for which
    ``ok(value)`` holds; otherwise a ValueError naming ``name``.

    A bool is not read as 1 or 0.  numpy numbers are numbers, but a numpy
    bool is not a ``numbers.Real``, nor is an array, even a 0-d one.
    """
    if isinstance(value, kind) and not isinstance(value, bool) and ok(value):
        return value
    raise ValueError(f"{name} must be {what}, got {value!r}")
