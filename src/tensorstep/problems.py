"""Convex test objectives with analytic derivatives through order three.

Two problem families are shipped:

* ``QuadraticProblem`` -- ``f(x) = x^T A x / 2 - b^T x`` with ``A`` positive
  semidefinite (a single-component finite sum, third derivative zero).
* ``LogisticProblem`` -- ridge-regularized logistic loss over labeled feature
  rows, ``f(x) = mean_j log(1 + exp(-y_j a_j^T x)) + mu ||x||^2 / 2``.
  The same class serves the finite-sum (offline) setting and, built over a
  large seeded pool with i.i.d.-with-replacement draws, the online setting.

Every batch quantity is computed as a weighted sum over the full row set with
multiplicity weights, so the reduction order is fixed: a full offline batch is
bitwise identical to the exact derivative, and results are bit-stable for a
given seed.
"""

from __future__ import annotations

import json
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

    kind = "quadratic"
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

    # single-component access: a quadratic is its own single component
    def component_value(self, j, x):
        self._check_index(j)
        return self.value(x)

    def component_gradient(self, j, x):
        self._check_index(j)
        return self.gradient(x)

    def component_hessian(self, j, x):
        self._check_index(j)
        return self.hessian(x)

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

    def _check_index(self, j):
        if not 0 <= j < self.m:
            raise IndexError(f"component index {j} out of range for m = {self.m}")

    def to_dict(self):
        return {"kind": self.kind, "A": self.A.tolist(), "b": self.b.tolist()}

    @classmethod
    def from_dict(cls, data):
        return cls(np.asarray(data["A"]), np.asarray(data["b"]))


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
    meta : dict
        Generator parameters kept for serialization/replay.
    """

    kind = "logistic-finite-sum"

    def __init__(self, features, labels, mu=1e-3, mode="offline", clamp=None, meta=None):
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
        self.meta = dict(meta or {})

    # -- weighted reductions: the single code path for exact and sampled ----

    def _margins(self, x):
        return self.labels * (self.features @ np.asarray(x, dtype=float))

    def _weights_from_indices(self, batch):
        if isinstance(batch, StochasticDraw):
            if batch.counts is not None:
                return batch.counts.astype(float) / batch.size
            batch = batch.indices
        indices = np.asarray(batch, dtype=np.int64)
        if indices.size == 0:
            raise ValueError("empty batch")
        counts = np.bincount(indices, minlength=self.m)
        return counts.astype(float) / indices.size

    def _weighted_value(self, x, w):
        x = np.asarray(x, dtype=float)
        t = self._margins(x)
        return float(w @ link_value(t) + 0.5 * self.mu * (x @ x))

    def _weighted_gradient(self, x, w):
        x = np.asarray(x, dtype=float)
        t = self._margins(x)
        coef = w * link_d1(t) * self.labels
        return self.features.T @ coef + self.mu * x

    def _weighted_hessian(self, x, w):
        t = self._margins(x)
        coef = w * link_d2(t)
        return (self.features * coef[:, None]).T @ self.features + self.mu * np.eye(self.dim)

    def _third_weights(self, x, w):
        t = self._margins(x)
        return w * link_d3(t) * self.labels

    # -- exact derivatives ---------------------------------------------------

    def value(self, x):
        return self._weighted_value(x, self._full_weights())

    def gradient(self, x):
        return self._weighted_gradient(x, self._full_weights())

    def hessian(self, x):
        return self._weighted_hessian(x, self._full_weights())

    def third(self, x) -> RankOneSumTensor3:
        return RankOneSumTensor3(self.features, self._third_weights(x, self._full_weights()))

    def _full_weights(self):
        return np.full(self.m, 1.0 / self.m)

    # -- per-component and batch access --------------------------------------

    def component_value(self, j, x):
        self._check_index(j)
        x = np.asarray(x, dtype=float)
        t = self.labels[j] * (self.features[j] @ x)
        return float(link_value(np.array([t]))[0] + 0.5 * self.mu * (x @ x))

    def component_gradient(self, j, x):
        self._check_index(j)
        x = np.asarray(x, dtype=float)
        t = np.array([self.labels[j] * (self.features[j] @ x)])
        return link_d1(t)[0] * self.labels[j] * self.features[j] + self.mu * x

    def component_hessian(self, j, x):
        self._check_index(j)
        t = np.array([self.labels[j] * (self.features[j] @ np.asarray(x, dtype=float))])
        a = self.features[j]
        return link_d2(t)[0] * np.outer(a, a) + self.mu * np.eye(self.dim)

    def batch_gradient(self, x, indices):
        return self._weighted_gradient(x, self._weights_from_indices(indices))

    def batch_hessian(self, x, indices):
        return self._weighted_hessian(x, self._weights_from_indices(indices))

    def batch_third(self, x, indices) -> RankOneSumTensor3:
        w3 = self._third_weights(x, self._weights_from_indices(indices))
        return RankOneSumTensor3(self.features, w3)

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

    def _check_index(self, j):
        if not 0 <= j < self.m:
            raise IndexError(f"component index {j} out of range for m = {self.m}")

    # -- serialization --------------------------------------------------------

    def to_dict(self):
        data = {
            "kind": self.kind,
            "mu": self.mu,
            "mode": self.mode,
            "clamp": self.clamp,
        }
        if self.meta.get("generator"):
            data["generator"] = self.meta["generator"]
        else:
            data["features"] = self.features.tolist()
            data["labels"] = self.labels.tolist()
        return data

    @classmethod
    def from_dict(cls, data):
        if "generator" in data:
            gen = dict(data["generator"])
            name = gen.pop("name")
            if name == "synthetic-logistic":
                return make_logistic(**gen)
            if name == "online-logistic":
                return make_online_logistic(**gen)
            raise ValueError(f"unknown generator {name!r}")
        return cls(
            np.asarray(data["features"]),
            np.asarray(data["labels"]),
            mu=data.get("mu", 0.0),
            mode=data.get("mode", "offline"),
            clamp=data.get("clamp"),
        )


def problem_from_dict(data) -> QuadraticProblem | LogisticProblem:
    kind = data.get("kind")
    if kind == "quadratic":
        return QuadraticProblem.from_dict(data)
    if kind == "logistic-finite-sum":
        return LogisticProblem.from_dict(data)
    raise ValueError(f"unknown problem kind {kind!r}")


def problem_to_json(problem) -> str:
    return json.dumps(problem.to_dict(), sort_keys=True)


def problem_from_json(text) -> QuadraticProblem | LogisticProblem:
    return problem_from_dict(json.loads(text))


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
    meta = {"generator": {
        "name": "synthetic-logistic", "n": n, "m": m, "seed": seed, "mu": mu,
        "row_scale": row_scale, "flip_fraction": flip_fraction, "mode": mode,
    }}
    return LogisticProblem(rows, labels, mu=mu, mode=mode, meta=meta)


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
    meta = {"generator": {
        "name": "online-logistic", "n": n, "pool": pool, "seed": seed, "mu": mu,
        "clamp": clamp, "flip_fraction": flip_fraction,
    }}
    return LogisticProblem(rows, labels, mu=mu, mode="online", clamp=clamp, meta=meta)
