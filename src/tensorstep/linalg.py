"""Vector, matrix and third-order tensor kernels used throughout the library.

Provides the one representation of symmetric third-order tensors
(``RankOneSumTensor3``, a rank-one-sum operator that never materializes the
``n^3`` array), the operator norm of a symmetric matrix (its largest absolute
eigenvalue, from ``eigvalsh``), and a randomized lower-bound estimator for the
induced norm of a symmetric third-order tensor. The power prox
``d_p(x) = ||x||^p / p``, which the analysis uses and no run evaluates, lives
with the other lemma checks in ``tests/lemmas.py``.

All operations are pure and deterministic given explicit seeds, so they are
safe to evaluate concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError


# ---------------------------------------------------------------------------
# symmetric third-order tensors
# ---------------------------------------------------------------------------

class RankOneSumTensor3:
    """Symmetric tensor ``sum_j w_j a_j (x) a_j (x) a_j`` given rows and weights.

    Exposes the directional contractions ``apply`` (one contraction, a
    symmetric matrix), ``apply2`` (two contractions, a vector) and ``apply3``
    (three contractions, a scalar). Covers exact and sampled third
    derivatives of row-structured objectives (and their differences: over one
    shared ``rows`` array by subtracting weights, otherwise by concatenating
    rows with signed weights) without ever building the ``n^3`` array.
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

    def _check_dim(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.shape != (self.dim,):
            raise DimensionMismatchError(
                f"direction has shape {s.shape}, tensor dimension is {self.dim}"
            )
        return s

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
        return float(np.dot(self.weights * proj * proj, proj))

    def __sub__(self, other: "RankOneSumTensor3") -> "RankOneSumTensor3":
        if other.rows is self.rows:
            return RankOneSumTensor3(self.rows, self.weights - other.weights, dim=self.dim)
        rows = np.vstack([self.rows, other.rows])
        weights = np.concatenate([self.weights, -other.weights])
        return RankOneSumTensor3(rows, weights, dim=self.dim)


def zero_tensor3(n: int) -> RankOneSumTensor3:
    """The zero tensor in operator form (works for any dimension)."""
    return RankOneSumTensor3(np.zeros((0, n)), np.zeros(0), dim=n)


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------

def opnorm_mat(mat: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix (full ``eigvalsh``)."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise DimensionMismatchError(f"expected square matrix, got {mat.shape}")
    return float(np.abs(np.linalg.eigvalsh(mat)).max())


#: Projected-ascent steps per probe direction in ``t3_norm_estimate``.
NORM_REFINE_ITERS = 25


def t3_norm_estimate(tensor: RankOneSumTensor3, n_dirs: int = 64, seed: int = 0) -> float:
    """Lower-bound estimate of ``max_{||s||=1} ||T[s]^2||``.

    Takes the best value over ``n_dirs`` random unit directions, each refined
    by up to ``NORM_REFINE_ITERS`` projected-ascent steps on the sphere.
    Directions are drawn sequentially from one seeded stream, so the estimate
    is monotone nondecreasing in ``n_dirs`` for a fixed seed. The true maximum is NP-hard
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
        for _ in range(NORM_REFINE_ITERS):
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
