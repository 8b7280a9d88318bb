"""Dense vector/matrix/third-order tensor kernels used throughout the library.

Provides the power-prox family ``d_p(x) = ||x||^p / p`` with analytic first and
second derivatives, two interchangeable representations of symmetric
third-order tensors (a dense ``(n, n, n)`` array and a rank-one-sum operator
that never materializes the full tensor), operator-norm computation for
symmetric matrices, and a randomized lower-bound estimator for the induced
norm of a symmetric third-order tensor.

All operations are pure and deterministic given explicit seeds, so they are
safe to evaluate concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CapacityError,
    DimensionMismatchError,
    EstimationError,
    NonsmoothPointError,
    SingularPointError,
)

#: Largest dimension for which dense third-order tensors may be materialized.
DENSE_TENSOR_MAX_DIM = 100


# ---------------------------------------------------------------------------
# power prox d_p and derivatives
# ---------------------------------------------------------------------------

def dp_value(x: np.ndarray, p: int) -> float:
    """Value of the power prox ``d_p(x) = ||x||^p / p`` (Euclidean norm)."""
    if p < 1:
        raise ValueError(f"power prox needs p >= 1, got {p}")
    return float(np.linalg.norm(x) ** p / p)


def dp_grad(x: np.ndarray, p: int) -> np.ndarray:
    """Gradient ``||x||^(p-2) x`` of the power prox.

    For ``p >= 3`` the gradient extends continuously to zero at ``x = 0``.
    ``p = 1`` is nonsmooth at the origin and raises there; callers that
    optimize through it must use the smooth model instead.
    """
    x = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(x))
    if p == 1:
        if nrm == 0.0:
            raise NonsmoothPointError("d_1 has no gradient at x = 0")
        return x / nrm
    if p < 1:
        raise ValueError(f"power prox needs p >= 1, got {p}")
    if p == 2:
        return x.copy()
    if nrm == 0.0:
        return np.zeros_like(x)
    return nrm ** (p - 2) * x


def dp_hess(x: np.ndarray, p: int) -> np.ndarray:
    """Hessian ``(p-2) ||x||^(p-4) x x^T + ||x||^(p-2) I`` of the power prox.

    Satisfies ``dp_hess(x, p) >= ||x||^(p-2) I`` in the semidefinite order.
    ``p = 3`` has unbounded curvature at the origin and raises there; for
    ``p >= 4`` the Hessian extends continuously to the zero matrix.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if p < 2:
        raise ValueError(f"dp_hess needs p >= 2, got {p}")
    if p == 2:
        return np.eye(n)
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        if p == 3:
            raise SingularPointError("d_3 has no Hessian at x = 0")
        return np.zeros((n, n))
    return (p - 2) * nrm ** (p - 4) * np.outer(x, x) + nrm ** (p - 2) * np.eye(n)


# ---------------------------------------------------------------------------
# symmetric third-order tensors
# ---------------------------------------------------------------------------

class SymTensor3:
    """Symmetric third-order tensor exposing directional contractions.

    Concrete forms implement ``apply`` (one contraction, a symmetric matrix),
    ``apply2`` (two contractions, a vector) and ``apply3`` (three
    contractions, a scalar), plus ``as_dense`` where materialization is
    allowed.
    """

    dim: int

    def apply(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply2(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply3(self, s: np.ndarray) -> float:
        raise NotImplementedError

    def as_dense(self) -> np.ndarray:
        raise NotImplementedError

    def _check_dim(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.shape != (self.dim,):
            raise DimensionMismatchError(
                f"direction has shape {s.shape}, tensor dimension is {self.dim}"
            )
        return s


class DenseSymTensor3(SymTensor3):
    """Fully materialized symmetric tensor, allowed up to dimension 100."""

    def __init__(self, entries: np.ndarray, validate: bool = True):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 3 or len(set(entries.shape)) != 1:
            raise DimensionMismatchError(f"expected cubic array, got shape {entries.shape}")
        n = entries.shape[0]
        if n > DENSE_TENSOR_MAX_DIM:
            raise CapacityError(
                f"dense third-order tensors are limited to n <= {DENSE_TENSOR_MAX_DIM}, got {n}"
            )
        if validate:
            scale = max(1.0, float(np.abs(entries).max()))
            for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                dev = float(np.abs(entries - entries.transpose(perm)).max())
                if dev > 1e-12 * scale:
                    raise ValueError(
                        f"tensor not symmetric: deviation {dev:.3e} under permutation {perm}"
                    )
        self.entries = entries
        self.dim = n

    def apply(self, s):
        s = self._check_dim(s)
        return np.einsum("ijk,k->ij", self.entries, s)

    def apply2(self, s):
        s = self._check_dim(s)
        return np.einsum("ijk,j,k->i", self.entries, s, s)

    def apply3(self, s):
        s = self._check_dim(s)
        return float(np.einsum("ijk,i,j,k->", self.entries, s, s, s))

    def as_dense(self):
        return self.entries

    def __sub__(self, other: "SymTensor3") -> "DenseSymTensor3":
        return DenseSymTensor3(self.entries - other.as_dense(), validate=False)


class RankOneSumTensor3(SymTensor3):
    """Operator form ``sum_j w_j a_j (x) a_j (x) a_j`` given rows and weights.

    Covers exact and sampled third derivatives of row-structured objectives
    (and their differences: over one shared ``rows`` array by subtracting
    weights, otherwise by concatenating rows with signed weights) without
    ever building the ``n^3`` array.
    """

    def __init__(self, rows: np.ndarray, weights: np.ndarray, dim: int | None = None):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        weights = np.asarray(weights, dtype=float).ravel()
        if rows.size == 0:
            if dim is None:
                raise ValueError("empty rank-one sum needs an explicit dimension")
            rows = rows.reshape(0, dim)
        if rows.shape[0] != weights.size:
            raise DimensionMismatchError(
                f"{rows.shape[0]} rows but {weights.size} weights"
            )
        self.rows = rows
        self.weights = weights
        self.dim = rows.shape[1] if dim is None else dim

    def apply(self, s):
        s = self._check_dim(s)
        proj = self.rows @ s
        return (self.rows * (self.weights * proj)[:, None]).T @ self.rows

    def apply2(self, s):
        s = self._check_dim(s)
        proj = self.rows @ s
        return (self.weights * proj * proj) @ self.rows

    def apply3(self, s):
        s = self._check_dim(s)
        proj = self.rows @ s
        return float(np.dot(self.weights, proj ** 3))

    def as_dense(self):
        if self.dim > DENSE_TENSOR_MAX_DIM:
            raise CapacityError(
                f"dense form limited to n <= {DENSE_TENSOR_MAX_DIM}, got {self.dim}"
            )
        w = self.weights
        return np.einsum("j,ji,jk,jl->ikl", w, self.rows, self.rows, self.rows, optimize=True)

    def __sub__(self, other: "SymTensor3") -> "SymTensor3":
        if isinstance(other, RankOneSumTensor3):
            if other.rows is self.rows:
                return RankOneSumTensor3(self.rows, self.weights - other.weights, dim=self.dim)
            rows = np.vstack([self.rows, other.rows])
            weights = np.concatenate([self.weights, -other.weights])
            return RankOneSumTensor3(rows, weights, dim=self.dim)
        return DenseSymTensor3(self.as_dense() - other.as_dense(), validate=False)


def zero_tensor3(n: int) -> RankOneSumTensor3:
    """The zero tensor in operator form (works for any dimension)."""
    return RankOneSumTensor3(np.zeros((0, n)), np.zeros(0), dim=n)


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------

def opnorm_mat(mat: np.ndarray, tol: float = 1e-10, max_iter: int = 20000,
               seed: int = 0) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    Uses a full symmetric eigendecomposition up to ``n = 200`` and power
    iteration with tolerance ``tol`` above that. Raises ``EstimationError``
    if power iteration does not settle within ``max_iter`` sweeps.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise DimensionMismatchError(f"expected square matrix, got {mat.shape}")
    if n <= 200:
        return float(np.abs(np.linalg.eigvalsh(mat)).max())
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(max_iter):
        w = mat @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v_new = w / nw
        rayleigh = float(v_new @ (mat @ v_new))
        residual = float(np.linalg.norm(mat @ v_new - rayleigh * v_new))
        if residual <= tol * max(1.0, abs(rayleigh)):
            return abs(rayleigh)
        v = v_new
    raise EstimationError(f"power iteration did not converge in {max_iter} sweeps")


def t3_norm_estimate(tensor: SymTensor3, n_dirs: int = 64, seed: int = 0,
                     refine_iters: int = 25) -> float:
    """Lower-bound estimate of ``max_{||s||=1} ||T[s]^2||``.

    Takes the best value over ``n_dirs`` random unit directions, each refined
    by a handful of projected-ascent steps on the sphere. Directions are drawn
    sequentially from one seeded stream, so the estimate is monotone
    nondecreasing in ``n_dirs`` for a fixed seed. The true maximum is NP-hard
    to certify; treat the result strictly as a lower bound (downstream
    condition checks apply a safety factor).
    """
    if n_dirs < 1:
        raise ValueError("need at least one probe direction")
    rng = np.random.default_rng(seed)
    n = tensor.dim
    best = 0.0
    for _ in range(n_dirs):
        s = rng.standard_normal(n)
        nrm = np.linalg.norm(s)
        if nrm == 0.0:
            continue
        s /= nrm
        val = float(np.linalg.norm(tensor.apply2(s)))
        step = 0.5
        for _ in range(refine_iters):
            v = tensor.apply2(s)
            grad = tensor.apply(s) @ v  # ascent direction for ||T[s]^2||^2
            tang = grad - (grad @ s) * s
            gn = float(np.linalg.norm(tang))
            if gn <= 1e-14 * max(1.0, val * val):
                break
            improved = False
            while step >= 1e-8:
                cand = s + step * tang / gn
                cand /= np.linalg.norm(cand)
                cand_val = float(np.linalg.norm(tensor.apply2(cand)))
                if cand_val > val + 1e-16:
                    s, val = cand, cand_val
                    step = min(step * 2.0, 0.5)
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        best = max(best, val)
    return best
