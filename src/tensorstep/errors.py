"""Exception types shared across the library."""


class TensorStepError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(TensorStepError):
    """Operands have incompatible dimensions."""


class NonsmoothPointError(TensorStepError):
    """A derivative was requested at a point where it does not exist."""


class SingularPointError(TensorStepError):
    """A second derivative was requested at a point where it blows up."""


class StartPointError(TensorStepError):
    """The objective is not finite at the start point of a run."""


class SubsolverError(TensorStepError):
    """An inner solver exhausted its iteration budget.

    Carries the best iterate seen so far and its gradient-norm residual so
    callers can decide whether to accept it anyway.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class ConfigError(TensorStepError):
    """An experiment configuration failed validation.

    ``problems`` is a list of human-readable ``field: message`` strings.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class InsufficientDataError(TensorStepError):
    """Not enough usable points for a rate fit."""
