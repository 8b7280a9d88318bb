"""Convex test objectives with analytic derivatives through order three.

Two problem families are shipped:

* ``QuadraticProblem`` -- ``f(x) = x^T A x / 2 - b^T x`` with ``A`` positive
  semidefinite (a single-component finite sum, third derivative zero).
* ``LogisticProblem`` -- ridge-regularized logistic loss over labeled feature
  rows, ``f(x) = mean_j log(1 + exp(-y_j a_j^T x)) + mu ||x||^2 / 2``.
  The same class serves the finite-sum (offline) setting and, built over a
  large seeded pool with i.i.d.-with-replacement draws, the online setting.

Every batch quantity is a weighted sum with multiplicity weights over the rows
its draw touches, so it costs O(batch * n) rather than O(m * n). A draw that
touches every row (a full offline batch) takes the exact derivatives' all-rows
path and is bitwise identical to them; results are bit-stable for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .linalg import RankOneSumTensor3, zero_tensor3

#: sup over t of |phi^(i)(t)| for the logistic link phi(t) = log(1 + e^-t),
#: orders i = 1..4. The third-order bound is sqrt(3)/18, attained at
#: sigmoid(t) = (3 -+ sqrt(3))/6; the fourth-order bound 1/8 is attained at 0.
LOGISTIC_LINK_BOUNDS = (1.0, 0.25, math.sqrt(3.0) / 18.0, 0.125)

#: Lipschitz floor used for quadratics, where the top derivative is exactly
#: zero but the methods require sigma >= L_p > 0.
LIPSCHITZ_FLOOR = 1e-8


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def link_value(t):
    """log(1 + e^-t), overflow-safe."""
    return np.logaddexp(0.0, -np.asarray(t, dtype=float))


def link_d1(t):
    return -_sigmoid(-np.asarray(t, dtype=float))


def link_d2(t):
    s = _sigmoid(np.asarray(t, dtype=float))
    return s * (1.0 - s)


def link_d3(t):
    s = _sigmoid(np.asarray(t, dtype=float))
    return s * (1.0 - s) * (1.0 - 2.0 * s)


@dataclass(frozen=True)
class LipschitzProfile:
    """Certified constants on a ball of radius ``radius`` around a center.

    ``L[i]`` bounds the Lipschitz constant of the i-th derivative (``L[0]``
    is the Lipschitz constant of ``f`` itself, i.e. a bound on the gradient
    norm). ``M[i-1]`` bounds the uniform per-sample deviation of the i-th
    derivative in the online setting; zero for deterministic problems.
    """

    L: tuple
    M: tuple
    radius: float

    def lip(self, order: int) -> float:
        return self.L[order]

    def deviation(self, order: int) -> float:
        return self.M[order - 1]


@dataclass(frozen=True)
class StochasticDraw:
    """Component selection for one mini-batch.

    Offline draws always carry explicit distinct indices. Very large online
    draws carry the multiplicity vector over the pool instead (the count
    vector of ``size`` i.i.d. uniform picks is multinomial, so drawing it
    directly is the same distribution at O(pool) cost).
    """

    indices: np.ndarray | None
    size: int
    counts: np.ndarray | None = None


class QuadraticProblem:
    """f(x) = x^T A x / 2 - b^T x with A symmetric positive semidefinite."""

    mode = "offline"

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        n = b.size
        if A.shape != (n, n):
            raise DimensionMismatchError(f"A has shape {A.shape}, b has size {n}")
        dev = float(np.abs(A - A.T).max())
        if dev > 1e-12 * max(1.0, float(np.abs(A).max())):
            raise ValueError("A must be symmetric")
        eigs = np.linalg.eigvalsh(A)
        if eigs.min() < -1e-10 * max(1.0, eigs.max()):
            raise ValueError(f"A must be PSD, min eigenvalue {eigs.min():.3e}")
        self.A = 0.5 * (A + A.T)
        self.b = b
        self.dim = n
        self.m = 1
        self._eig_max = float(eigs.max())

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ (self.A @ x) - self.b @ x)

    def gradient(self, x):
        return self.A @ np.asarray(x, dtype=float) - self.b

    def hessian(self, x):
        return self.A.copy()

    def third(self, x) -> RankOneSumTensor3:
        return zero_tensor3(self.dim)

    def batch_gradient(self, x, indices):
        return self.gradient(x)

    def batch_hessian(self, x, indices):
        return self.hessian(x)

    def batch_third(self, x, indices):
        return self.third(x)

    def draw(self, batch_size, rng) -> StochasticDraw:
        if batch_size > self.m:
            raise ValueError(f"offline batch size {batch_size} exceeds m = {self.m}")
        return StochasticDraw(np.zeros(batch_size, dtype=np.int64), batch_size)

    def lipschitz_profile(self, x0, radius) -> LipschitzProfile:
        if radius <= 0:
            raise ValueError("radius must be positive")
        reach = float(np.linalg.norm(x0)) + radius
        L0 = self._eig_max * reach + float(np.linalg.norm(self.b))
        return LipschitzProfile(
            L=(L0, self._eig_max, LIPSCHITZ_FLOOR, LIPSCHITZ_FLOOR),
            M=(0.0, 0.0, 0.0),
            radius=float(radius),
        )


class LogisticProblem:
    """Ridge-regularized logistic loss over labeled feature rows.

    Parameters
    ----------
    features : (m, n) array
        One feature row per component.
    labels : (m,) array of +-1
    mu : float
        Ridge weight; ``mu > 0`` makes the minimizer unique.
    mode : {"offline", "online"}
        Offline draws sample components without replacement; online treats
        the rows as a concrete sample pool and draws i.i.d. with replacement.
    clamp : float or None
        Feature-norm bound certified at generation time (online deviation
        bounds need it); inferred from the data when absent.
    """

    def __init__(self, features, labels, mu=0.0, mode="offline", clamp=None):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float).ravel()
        if features.ndim != 2 or features.shape[0] != labels.size:
            raise DimensionMismatchError(
                f"features {features.shape} incompatible with {labels.size} labels"
            )
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be in {-1, +1}")
        if mu < 0:
            raise ValueError("ridge weight must be nonnegative")
        if mode not in ("offline", "online"):
            raise ValueError(f"unknown sampling mode {mode!r}")
        self.features = features
        self.labels = labels
        self.mu = float(mu)
        self.mode = mode
        self.m, self.dim = features.shape
        self.clamp = float(clamp) if clamp is not None else float(
            np.linalg.norm(features, axis=1).max()
        )

    # -- weighted reductions: one code path over all rows or a row subset ---
    #
    # ``rows=None`` reduces over all m rows with one weight per row; exact
    # derivatives and draws that touch every row take it, so a full batch is
    # bitwise the exact derivative. Any other draw passes its support rows.

    def _margins(self, x, rows=None):
        """Selected rows, their labels and their margins ``y_j a_j^T x``."""
        features = self.features if rows is None else self.features[rows]
        labels = self.labels if rows is None else self.labels[rows]
        return features, labels, labels * (features @ np.asarray(x, dtype=float))

    def _weights_from_indices(self, batch):
        """``(rows, weights)``: a draw's support rows and multiplicity weights.

        ``rows`` is ``None`` when the draw touches all ``m`` rows.
        """
        if isinstance(batch, StochasticDraw) and batch.counts is not None:
            counts, size = batch.counts, batch.size
        else:
            if isinstance(batch, StochasticDraw):
                batch = batch.indices
            indices = np.asarray(batch, dtype=np.int64)
            if indices.size == 0:
                raise ValueError("empty batch")
            counts, size = np.bincount(indices, minlength=self.m), indices.size
        weights = counts.astype(float) / size
        rows = np.flatnonzero(counts)
        if rows.size == self.m:
            return None, weights
        return rows, weights[rows]

    def _weighted_value(self, x, w):
        x = np.asarray(x, dtype=float)
        _, _, t = self._margins(x)
        return float(w @ link_value(t) + 0.5 * self.mu * (x @ x))

    def _weighted_gradient(self, x, w, rows=None):
        x = np.asarray(x, dtype=float)
        features, labels, t = self._margins(x, rows)
        coef = w * link_d1(t) * labels
        return features.T @ coef + self.mu * x

    def _weighted_hessian(self, x, w, rows=None):
        features, _, t = self._margins(x, rows)
        coef = w * link_d2(t)
        return (features * coef[:, None]).T @ features + self.mu * np.eye(self.dim)

    def _weighted_third(self, x, w, rows=None) -> RankOneSumTensor3:
        features, labels, t = self._margins(x, rows)
        return RankOneSumTensor3(features, w * link_d3(t) * labels)

    # -- exact derivatives ---------------------------------------------------

    def value(self, x):
        return self._weighted_value(x, self._full_weights())

    def gradient(self, x):
        return self._weighted_gradient(x, self._full_weights())

    def hessian(self, x):
        return self._weighted_hessian(x, self._full_weights())

    def third(self, x) -> RankOneSumTensor3:
        return self._weighted_third(x, self._full_weights())

    def _full_weights(self):
        return np.full(self.m, 1.0 / self.m)

    # -- batch access --------------------------------------------------------

    def batch_gradient(self, x, indices):
        rows, w = self._weights_from_indices(indices)
        return self._weighted_gradient(x, w, rows)

    def batch_hessian(self, x, indices):
        rows, w = self._weights_from_indices(indices)
        return self._weighted_hessian(x, w, rows)

    def batch_third(self, x, indices) -> RankOneSumTensor3:
        rows, w = self._weights_from_indices(indices)
        return self._weighted_third(x, w, rows)

    #: Online draws above this size are drawn as multinomial counts.
    COUNT_DRAW_THRESHOLD = 1_000_000

    def draw(self, batch_size, rng) -> StochasticDraw:
        """Draw component indices: without replacement offline, i.i.d. online."""
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.mode == "offline":
            if batch_size > self.m:
                raise ValueError(f"offline batch size {batch_size} exceeds m = {self.m}")
            idx = rng.choice(self.m, size=batch_size, replace=False)
            return StochasticDraw(np.asarray(idx, dtype=np.int64), batch_size)
        if batch_size > self.COUNT_DRAW_THRESHOLD:
            counts = rng.multinomial(batch_size, np.full(self.m, 1.0 / self.m))
            return StochasticDraw(None, batch_size, counts=counts)
        idx = rng.integers(0, self.m, size=batch_size)
        return StochasticDraw(np.asarray(idx, dtype=np.int64), batch_size)

    # -- constants -----------------------------------------------------------

    def lipschitz_profile(self, x0, radius) -> LipschitzProfile:
        """Certify L_0..L_3 and online deviation bounds M_1..M_3.

        The i-th derivative of one row term is phi^(i) scaled by an i-fold
        outer power of the row, so its Lipschitz constant is bounded by
        ``max_j ||a_j||^(i+1) sup|phi^(i+1)|``; the ridge shifts L_1 by mu and
        the gradient bound by ``mu (||x0|| + radius)``. Deviation bounds use
        the certified feature-norm clamp, and cancel the ridge (it is common
        to every sample).
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        norms = np.linalg.norm(self.features, axis=1)
        amax = float(norms.max()) if norms.size else 0.0
        reach = float(np.linalg.norm(x0)) + radius
        s1, s2, s3, s4 = LOGISTIC_LINK_BOUNDS
        L0 = amax * s1 + self.mu * reach
        L1 = amax ** 2 * s2 + self.mu
        L2 = amax ** 3 * s3
        L3 = amax ** 4 * s4
        rho = self.clamp
        M1 = 2.0 * rho * s1
        M2 = 2.0 * rho ** 2 * s2
        M3 = 2.0 * rho ** 3 * s3
        return LipschitzProfile(
            L=(L0, L1, max(L2, LIPSCHITZ_FLOOR), max(L3, LIPSCHITZ_FLOOR)),
            M=(M1, M2, M3),
            radius=float(radius),
        )


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def make_quadratic(n: int, seed: int = 0, cond: float = 10.0) -> QuadraticProblem:
    """Random SPD quadratic with eigenvalues spread over [1/cond, 1]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0 / cond, 1.0, n)
    A = (q * eigs) @ q.T
    b = rng.standard_normal(n) / math.sqrt(n)
    return QuadraticProblem(0.5 * (A + A.T), b)


def make_logistic(n: int, m: int, seed: int = 0, mu: float = 1e-3,
                  row_scale: float = 1.0, flip_fraction: float = 0.1,
                  mode: str = "offline") -> LogisticProblem:
    """Synthetic logistic instance with planted labels and optional flips."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, n)) * (row_scale / math.sqrt(n))
    w_star = rng.standard_normal(n)
    w_star /= np.linalg.norm(w_star)
    labels = np.where(rows @ w_star >= 0, 1.0, -1.0)
    if flip_fraction > 0:
        flips = rng.random(m) < flip_fraction
        labels[flips] *= -1.0
    return LogisticProblem(rows, labels, mu=mu, mode=mode)


def make_online_logistic(n: int, pool: int = 8192, seed: int = 0, mu: float = 1e-3,
                         clamp: float = 1.0, flip_fraction: float = 0.1) -> LogisticProblem:
    """Online-setting logistic objective over a seeded clamped-Gaussian pool.

    The pool is the concrete sampling distribution: the objective is its
    average, online draws are i.i.d. with replacement from it, and the norm
    clamp ``||a|| <= clamp`` makes the uniform deviation bounds hold.
    """
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((pool, n))
    norms = np.linalg.norm(rows, axis=1)
    rows *= np.minimum(1.0, clamp / np.maximum(norms, 1e-300))[:, None]
    w_star = rng.standard_normal(n)
    w_star /= np.linalg.norm(w_star)
    labels = np.where(rows @ w_star >= 0, 1.0, -1.0)
    if flip_fraction > 0:
        flips = rng.random(pool) < flip_fraction
        labels[flips] *= -1.0
    return LogisticProblem(rows, labels, mu=mu, mode="online", clamp=clamp)
