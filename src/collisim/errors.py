"""Exception types shared across the package."""


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
