import numpy as np
import pytest

from tensorstep import LogisticProblem


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def moment_calls(monkeypatch):
    """One entry per pass of the logistic moment eigenvalues (``_moment_maxima``)."""
    calls = []
    original = LogisticProblem._moment_maxima

    def counted(problem):
        calls.append("_moment_maxima")
        return original(problem)

    monkeypatch.setattr(LogisticProblem, "_moment_maxima", counted)
    return calls


def central_diff_grad(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def central_diff_jacobian(g, x, h=1e-6):
    """Central finite-difference Jacobian of a vector function (e.g. a gradient)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((g(x + e) - g(x - e)) / (2 * h))
    return np.column_stack(cols)


def symmetrized_fd_hessian(g, x, h=1e-6):
    jac = central_diff_jacobian(g, x, h)
    return 0.5 * (jac + jac.T)
