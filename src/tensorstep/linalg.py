"""Vector, matrix and third-order tensor kernels used throughout the library.

Provides the one representation of symmetric third-order tensors
(``RankOneSumTensor3``, a rank-one-sum operator that never materializes the
``n^3`` array), a symmetric matrix built only when it is read densely
(``LazyMatrix``), whose row-sum form (``RowSumMatrix``) takes its product
with a vector in the same pass over the rows as a tensor contraction, the
operator norm of a symmetric matrix (its largest absolute eigenvalue, from
``eigvalsh``), and a lower bound of the induced norm of a symmetric
third-order tensor by the power method from seeded random directions
(``t3_norm_estimate``). The power prox
``d_p(x) = ||x||^p / p``, which the analysis uses and no run evaluates, lives
with the other lemma checks in ``tests/lemmas.py``.

Row reductions walk their rows in slices of ``ROW_BLOCK`` consecutive rows
(``row_slice_sum``). A contraction streams its rows twice, once to project
them on the direction and once to accumulate the weighted rows; a slice is
small enough to stay in the core's cache between the two, so each row is
fetched from memory once instead of twice. The same slices bound the
temporaries of the problem oracles' reductions (``problems``). With at most
``ROW_BLOCK`` rows there is one slice and the reduction is its unsliced
expression, bit for bit.

All operations are pure and deterministic given explicit seeds, so they are
safe to evaluate concurrently.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import DimensionMismatchError


#: Rows per slice of a row reduction. A slice of 2048 rows of n=50 floats
#: is 800 KB, which a 2 MB L2 cache keeps between its two passes; of 512 to
#: 8192 rows, 2048 gave the fastest ITM solve at n=50, m=20000.
ROW_BLOCK = 2048


def row_slice_sum(m: int, part):
    """Sum of ``part(sl)`` over consecutive slices ``sl`` of ``ROW_BLOCK`` rows of ``m``.

    The first part is the accumulator (so ``part`` must return a fresh array
    or a scalar), and with ``m <= ROW_BLOCK`` the result is the one part
    ``part(slice(0, ROW_BLOCK))`` itself, bitwise the unsliced reduction. An
    empty ``m`` still takes one (empty) slice, so the result keeps its shape.
    """
    starts = range(0, max(m, 1), ROW_BLOCK)
    return functools.reduce(operator.iadd,
                            (part(slice(i, i + ROW_BLOCK)) for i in starts))


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
    rows with signed weights) without ever building the ``n^3`` array. Each
    contraction projects and accumulates one slice of rows at a time
    (``row_slice_sum``).
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

        def part(sl):
            rows = self.rows[sl]
            proj = rows @ s
            return (rows * (self.weights[sl] * proj)[:, None]).T @ rows

        return row_slice_sum(self.rows.shape[0], part)

    def apply2(self, s):
        s = self._check_dim(s)

        def part(sl):
            rows = self.rows[sl]
            proj = rows @ s
            weighted = self.weights[sl] * proj
            weighted *= proj  # bitwise ``weights * proj * proj``, one temporary fewer
            return weighted @ rows

        return row_slice_sum(self.rows.shape[0], part)

    def apply3(self, s):
        s = self._check_dim(s)

        def part(sl):
            proj = self.rows[sl] @ s
            return float(np.dot(self.weights[sl] * proj * proj, proj))

        return row_slice_sum(self.rows.shape[0], part)

    def __sub__(self, other: "RankOneSumTensor3") -> "RankOneSumTensor3":
        if other.rows is self.rows:
            return RankOneSumTensor3(self.rows, self.weights - other.weights, dim=self.dim)
        rows = np.vstack([self.rows, other.rows])
        weights = np.concatenate([self.weights, -other.weights])
        return RankOneSumTensor3(rows, weights, dim=self.dim)


class LazyMatrix:
    """A symmetric n-by-n matrix that ``build`` makes on the first ``dense()``, once.

    ``products(third, s)`` is the 2-by-n array whose rows are ``B s`` and
    ``T[s]^2`` for a ``RankOneSumTensor3`` ``third``: here ``dense() @ s`` and
    ``third.apply2(s)``, so the matrix is built for it.
    """

    def __init__(self, build):
        self._build, self._dense = build, None

    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self._build()
        return self._dense

    def products(self, third: RankOneSumTensor3, s: np.ndarray) -> np.ndarray:
        out = np.empty((2, s.size))
        np.matmul(self.dense(), s, out=out[0])
        out[1] = third.apply2(s)
        return out


class RowSumMatrix(LazyMatrix):
    """``rows^T diag(weights) rows + ridge I``, a ``LazyMatrix`` kept as the row
    sum it reduces; ``build`` makes the same matrix densely.

    When ``third`` sums over the same ``rows``, ``products(third, s)`` never
    builds the matrix: with ``p = rows @ s``, ``B s`` and ``T[s]^2`` are
    ``sum_j weights_j p_j a_j + ridge s`` and ``sum_j w3_j p_j^2 a_j``,
    Hessian-free products (Pearlmutter, Neural Comput. 1994) that share the
    projection ``p``, so each slice of rows is projected once and accumulated
    once for both, the two passes of one contraction.
    """

    def __init__(self, rows: np.ndarray, weights: np.ndarray, ridge: float, build):
        super().__init__(build)
        self.rows, self.weights, self.ridge = rows, weights, ridge

    def products(self, third: RankOneSumTensor3, s: np.ndarray) -> np.ndarray:
        if third.rows is not self.rows:
            return super().products(third, s)

        def part(sl):
            block = self.rows[sl]
            proj = block @ s
            coef = np.empty((2, proj.size))
            np.multiply(self.weights[sl], proj, out=coef[0])
            np.multiply(third.weights[sl], proj, out=coef[1])
            coef[1] *= proj
            return coef @ block

        out = row_slice_sum(self.rows.shape[0], part)
        out[0] += self.ridge * s
        return out


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


#: Power steps per probe direction in ``t3_norm_estimate``.
NORM_REFINE_ITERS = 25


def t3_norm_estimate(tensor: RankOneSumTensor3, n_dirs: int = 64, seed: int = 0) -> float:
    """Lower-bound estimate of ``max_{||s||=1} ||T[s]^2||`` by the power method.

    From each of ``n_dirs`` random unit directions, takes up to
    ``NORM_REFINE_ITERS`` steps of the symmetric power method
    ``s <- T[s]^2 / ||T[s]^2||`` (Kolda and Mayo, SIAM J. Matrix Anal. Appl.
    32, 2011), stopping early when ``T[s]^2 = 0``, and returns the largest
    ``||T[s]^2||`` seen. A symmetric tensor attains its norm on the
    diagonal, so the iteration needs only ``apply2``, and a sign flip does
    no harm because ``T[-s]^2 = T[s]^2``. Every evaluated ``s`` is a unit
    vector, so the result is a lower bound whether or not the iteration
    converges. Directions are drawn sequentially from one seeded stream, so
    the estimate is monotone nondecreasing in ``n_dirs`` for a fixed seed.
    The true maximum is NP-hard to certify; treat the result strictly as a
    lower bound (downstream condition checks apply a safety factor).
    """
    if n_dirs < 1:
        raise ValueError("need at least one probe direction")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_dirs):
        v = rng.standard_normal(tensor.dim)
        val = float(np.linalg.norm(v))
        for _ in range(NORM_REFINE_ITERS):
            if val == 0.0:
                break
            v = tensor.apply2(v / val)
            val = float(np.linalg.norm(v))
            best = max(best, val)
    return best
