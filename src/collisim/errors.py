"""Exception types shared across the package, and the one rule for a value's kind."""

import numbers

import numpy as np


class ConfigError(ValueError):
    """A simulation configuration is inconsistent or out of range."""


class IntegrityError(RuntimeError):
    """A propagated state violated positivity/trace beyond tolerance.

    Carries the step at which it was found, if known.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class NotConvergedError(RuntimeError):
    """A steady-state analysis was requested before convergence.

    Carries the last observed drift so callers can report it.
    """

    def __init__(self, message, drift=None):
        super().__init__(message)
        self.drift = drift


# the types of each kind (builtins first, to be quick) and the words after "must be"
KINDS = {"integer": ((int, numbers.Integral), "an integer"),
         "real": ((float, int, numbers.Real), "a real number"),
         "matrix": (np.ndarray, "a numpy array")}


def check_kind(name: str, value, kind: str, low=None):
    """``value``, or a ``ConfigError`` naming ``name`` unless it is of ``kind`` (a matrix of
    dtype kind "iufc") and not below ``low``.  A bool is never a number."""
    types, words = KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types) \
            or (kind == "matrix" and value.dtype.kind not in "iufc") \
            or (low is not None and value < low):
        raise ConfigError(f"{name} must be {words}{'' if low is None else f' >= {low}'}, "
                          f"got {value!r}")
    return value
