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


def sphere_grid_norm(tensor):
    """Largest ``||T[s]^2||`` over a 120 x 240 polar grid of the unit sphere in R^3.

    A brute-force oracle for ``t3_norm_estimate`` in dimension 3; the grid is
    itself only a lower bound of the true maximum.
    """
    phis = np.linspace(0, 2 * np.pi, 240, endpoint=False)
    best = 0.0
    for th in np.linspace(0, np.pi, 120):
        dirs = np.column_stack([np.sin(th) * np.cos(phis), np.sin(th) * np.sin(phis),
                                np.full(phis.size, np.cos(th))])
        proj = tensor.rows @ dirs.T
        vals = (tensor.weights[:, None] * proj * proj).T @ tensor.rows
        best = max(best, float(np.linalg.norm(vals, axis=1).max()))
    return best
