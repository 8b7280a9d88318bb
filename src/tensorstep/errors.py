"""Exception types shared across the library."""


class TensorStepError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(TensorStepError):
    """Operands have incompatible dimensions."""


class StartPointError(TensorStepError):
    """The objective is not finite at the start point of a run."""


class SubsolverError(TensorStepError):
    """A model subproblem could not be solved.

    Raised when an inner solver exhausts its iteration budget, when the
    smooth model is not finite at a trial step, when the secular root cannot
    be bracketed or does not converge (only non-finite or overflowing data
    reach these), when a quartic solution misses its stationarity tolerance,
    and when a quartic with ``b = 0`` has a curvature matrix that is not
    positive definite.
    Carries the best iterate seen so far and its residual, where the solver
    has them, so callers can decide whether to accept it anyway.
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
