"""Convex test objectives with analytic derivatives through order three.

Two problem families are shipped:

* ``QuadraticProblem`` -- ``f(x) = x^T A x / 2 - b^T x`` with ``A`` positive
  semidefinite (a single-component finite sum, third derivative zero).
* ``LogisticProblem`` -- ridge-regularized logistic loss over labeled feature
  rows, ``f(x) = mean_j log(1 + exp(-y_j a_j^T x)) + mu ||x||^2 / 2``.
  The same class serves the finite-sum (offline) setting and, built over a
  large seeded pool with i.i.d.-with-replacement draws, the online setting.

Each states a strong-convexity modulus ``mu`` (f is ``mu``-strongly convex;
0 when no modulus is known), from which ``methods.reference_solution``
certifies the gap of its optimum.

A draw is ``(rows, weights)``: the rows its picks touch and their multiplicity
weights. A batch quantity is the weighted sum over those rows, so it costs
O(support * n) rather than O(m * n). A draw that touches every row (a full
offline batch) has ``rows=None``, takes the exact derivatives' all-rows path
and is bitwise identical to them; results are bit-stable for a given seed.
A sampled gradient or Hessian whose support covers at least ``DENSE_SUPPORT``
of the rows also takes the all-rows path, with zero weights off the support:
streaming every row as a view beats gathering most of them. The rule sits in
the reduction, not in ``draw``, and a sampled third derivative always keeps
only its support rows.

Gradients and Hessians reduce over slices of at most ``linalg.ROW_BLOCK``
rows, so the scaled-feature temporary of a Hessian is one slice, not the whole
feature matrix, and a sampled draw gathers its support rows one slice at a
time instead of copying them all. With at most ``ROW_BLOCK`` rows there is one
slice, and the reduction is the unsliced expression bit for bit. A Hessian is
the Gram matrix of its sqrt-weighted slices, ``scaled.T @ scaled``, which numpy
computes with BLAS syrk at half the flops of a general product and which is
bitwise symmetric. ``hessian_operator`` hands a Hessian out unbuilt, as a
``linalg.LazyMatrix`` that calls ``hessian`` or ``batch_hessian`` on its
first dense read; an all-rows Hessian is a ``linalg.RowSumMatrix`` of its row
weights and ridge, whose product with a vector shares the third derivative's
pass over the same rows and never forms the n-by-n matrix. The margins
``y_j a_j^T x`` of all rows are kept for the last point evaluated, so the
value and every derivative at one iterate, exact or sampled, share one pass
over the features: support rows gather their margins from the kept ones.

``lipschitz_profile`` certifies the constants on a ball around a start
point. A logistic problem's L_1..L_3, which set the gradient step and the
tensor steps' regularization, are moment bounds: they read the top
eigenvalues ``lambda_2`` of ``(1/m) sum_j a_j a_j^T`` and ``lambda_4`` of
``(1/m) sum_j ||a_j||^2 a_j a_j^T``, both computed in one pass over the rows
when the profile is built. L_0 and the per-sample ranges that size the
mini-batches are still bounds of the longest row.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ProblemScaleError
from .linalg import (LazyMatrix, RankOneSumTensor3, RowSumMatrix, row_slice_sum,
                     zero_tensor3)

#: sup over t of |phi^(i)(t)| for the logistic link phi(t) = log(1 + e^-t),
#: orders i = 1..4. The third-order bound is sqrt(3)/18, attained at
#: sigmoid(t) = (3 -+ sqrt(3))/6; the fourth-order bound 1/8 is attained at 0.
LOGISTIC_LINK_BOUNDS = (1.0, 0.25, math.sqrt(3.0) / 18.0, 0.125)

#: Longest feature row whose certified constants are finite: ``L_3`` grows
#: as the fourth power of the row norm and ``M_3`` as the third power of the
#: norm clamp, and both stay below the float range up to this norm.
MAX_ROW_NORM = sys.float_info.max ** 0.25

#: Longest linear term ``b`` of a quadratic whose certified constants are
#: finite: beyond it the squared gradient coordinates of its model (``b_i^2``
#: at the origin) overflow.
MAX_LINEAR_NORM = sys.float_info.max ** 0.5

#: Floor of every certified constant, which the methods divide by (sigma >= L_p,
#: the gradient step 1/L_1, the batch ranges 2 L_{i-1}): a quadratic's top
#: derivative is exactly zero, and so is every constant of all-zero features.
LIPSCHITZ_FLOOR = 1e-8

#: Support fraction of m from which a sampled gradient or Hessian reduces
#: over all rows, with zero weights off its support, instead of gathering.
#: Milliseconds per call at n=50, m=20000 (offline draws, warm margins, BLAS
#: on 1 thread, 2-core x86 machine, best of 21 repeats):
#:
#:   support / m          0.3   0.5   0.6   0.7   0.8   0.9
#:   gradient, gathered  0.57  0.83  1.16  1.13  1.28  1.31
#:   gradient, all rows  0.86  0.96  0.84  0.84  1.04  1.00
#:   Hessian, gathered   2.14  4.01  4.95  4.92  5.66  6.38
#:   Hessian, all rows   5.04  5.49  5.76  4.99  5.42  5.35
#:
#: The gradient breaks even near 0.5 and the Hessian near 0.7. A sampled
#: third derivative keeps its support rows at any fraction: the inner loop
#: contracts it many times per outer step, and a support ``apply2`` stayed
#: cheaper than an all-rows one up to 0.9 (0.67 vs 0.80 ms).
DENSE_SUPPORT = 0.7


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-t) without overflow, and without boolean masks.

    With ``e = exp(-|t|)`` (never above 1, so never overflowing) the two
    branches ``1 / (1 + exp(-t))`` for t >= 0 and ``exp(t) / (1 + exp(t))``
    for t < 0 become ``1 / (1 + e)`` and ``e / (1 + e)``: the same operands
    in the same operations, so the result is bitwise the two-branch masked
    form, including at +-0 and +-inf (a NaN stays NaN). ``np.where`` picks
    the branch elementwise, which avoids the masked gathers and scatters.
    """
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    return np.where(t >= 0, 1.0 / d, e / d)


def link_value(t):
    """log(1 + e^-t), overflow-safe.

    ``log1p(exp(-|t|)) + max(-t, 0)`` takes the branches of numpy's scalar
    ``logaddexp(0, -t)`` (the exponential of a non-positive number, never
    overflowing) without its per-element dispatch, several times faster; it
    agrees with ``logaddexp`` to a few ulp, including at +-inf and NaN.
    """
    t = np.asarray(t, dtype=float)
    return np.log1p(np.exp(-np.abs(t))) + np.maximum(-t, 0.0)


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
    """Certified constants of a problem on a ball around a center.

    ``L[i]`` bounds the Lipschitz constant of the i-th derivative (``L[0]``
    bounds the gradient norm). Every entry is a float, computed when the
    profile is built. ``S[i-1]`` is the per-sample range that sizes the order-i
    mini-batch in the concentration lemma of the problem's setting: ``2
    L_{i-1}`` offline, ``M_i + L_{i-1}`` online, where ``M_i`` bounds the
    uniform per-sample deviation and ``L_{i-1}`` is a bound that every single
    sample obeys.
    """

    L: tuple[float, ...]
    S: tuple[float, ...]

    def lip(self, order: int) -> float:
        return self.L[order]

    def range(self, order: int) -> float:
        return self.S[order - 1]


class QuadraticProblem:
    """f(x) = x^T A x / 2 - b^T x with A symmetric positive semidefinite.

    ``mu`` is its strong-convexity modulus: ``max(0, lambda_min - n eps_mach
    lambda_max)`` from the eigenvalues of A, which lowers the computed
    ``lambda_min`` by the error bound of ``eigvalsh`` so that it stays a lower
    bound on the true one. It is 0 for a singular A.
    """

    mode = "offline"

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        n = b.size
        if A.shape != (n, n):
            raise DimensionMismatchError(f"A has shape {A.shape}, b has size {n}")
        # by halves, so that neither A + A.T nor A - A.T can overflow
        half, half_t = 0.5 * A, 0.5 * A.T
        if float(np.abs(half - half_t).max()) > 0.5e-12 * max(1.0, float(np.abs(A).max())):
            raise ValueError("A must be symmetric")
        self.A = half + half_t
        eigs = np.linalg.eigvalsh(self.A)
        if eigs.min() < -1e-10 * max(1.0, eigs.max()):
            raise ValueError(f"A must be PSD, min eigenvalue {eigs.min():.3e}")
        self.b = b
        self.dim = n
        self.m = 1
        self._eig_max = float(eigs.max())
        self.mu = max(0.0, float(eigs.min()) - n * np.finfo(float).eps * self._eig_max)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ (self.A @ x) - self.b @ x)

    def gradient(self, x):
        return self.A @ np.asarray(x, dtype=float) - self.b

    def hessian(self, x):
        return self.A.copy()

    def third(self, x) -> RankOneSumTensor3:
        return zero_tensor3(self.dim)

    def hessian_operator(self, x, draw=None):
        """``hessian(x)`` as a ``linalg.LazyMatrix``; every draw is the one component."""
        return LazyMatrix(functools.partial(self.hessian, x))

    def batch_gradient(self, x, draw):
        return self.gradient(x)

    def batch_third(self, x, draw):
        return self.third(x)

    def draw(self, batch_size, rng):
        """The one component, whole: ``(None, [1.0])``."""
        if batch_size > self.m:
            raise ValueError(f"offline batch size {batch_size} exceeds m = {self.m}")
        return None, np.ones(1)

    def lipschitz_profile(self, x0, radius) -> LipschitzProfile:
        """Certify L_0..L_3 (``L_1`` is the top eigenvalue of ``A``, L_2 = L_3 = 0),
        each floored at ``LIPSCHITZ_FLOOR``, and the offline ranges ``2 L_{i-1}``.

        Raises ``ProblemScaleError`` when ``||b||`` or L_0 exceeds
        ``MAX_LINEAR_NORM``; ``||b||`` is taken by ``math.hypot``, which scales
        its operands and returns inf, not a warning, when the norm overflows.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        b_norm = math.hypot(*self.b.tolist())
        if not b_norm <= MAX_LINEAR_NORM:
            raise ProblemScaleError(
                f"linear term norm ||b|| = {b_norm:.3e} exceeds {MAX_LINEAR_NORM:.3e}, "
                "beyond which the model's squared gradient coordinates overflow")
        reach = float(np.linalg.norm(x0)) + radius
        L0 = self._eig_max * reach + b_norm
        if not L0 <= MAX_LINEAR_NORM:
            raise ProblemScaleError(
                f"gradient bound L_0 = {L0:.3e} of curvature lambda_max(A) = {self._eig_max:.3e} "
                f"exceeds {MAX_LINEAR_NORM:.3e}, beyond which squared gradients overflow")
        L = tuple(max(c, LIPSCHITZ_FLOOR) for c in (L0, self._eig_max, 0.0, 0.0))
        return LipschitzProfile(L=L, S=tuple(2.0 * c for c in L[:3]))


class LogisticProblem:
    """Ridge-regularized logistic loss over labeled feature rows.

    Parameters
    ----------
    features : (m, n) array
        One feature row per component.
    labels : (m,) array of +-1
        Features and labels are not to be changed after construction: the
        margins kept for the last point evaluated are keyed on the point only.
    mu : float
        Ridge weight, and so the strong-convexity modulus of f; ``mu > 0``
        makes the minimizer unique.
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
        with np.errstate(over="ignore"):
            # a row whose squared norm overflows gets norm inf, which
            # lipschitz_profile rejects
            self._row_norm_max = float(np.linalg.norm(features, axis=1).max(initial=0.0))
        self.clamp = float(clamp) if clamp is not None else self._row_norm_max
        self._margin_memo = None  # (x, margins of all rows at x), see _margins
        # the all-rows weights of every exact derivative, built once
        self._full_weights = np.full(self.m, 1.0 / self.m)
        self._full_weights.flags.writeable = False

    # -- weighted reductions: one code path over all rows or a row subset ---
    #
    # ``rows=None`` reduces over all m rows with one weight per row; exact
    # derivatives and draws that touch every row take it, so a full batch is
    # bitwise the exact derivative. Any other draw passes its support rows.
    # Gradients and Hessians sum over slices of at most ROW_BLOCK rows
    # (``_row_slice_sum``), so their temporaries stay at slice size, and take
    # the all-rows path for supports of at least DENSE_SUPPORT * m rows.

    def _margins(self, x, rows=None):
        """Selected rows, their labels and their margins ``y_j a_j^T x``.

        The margins of all rows are kept for the last ``x`` seen (a copy, so
        that a caller who changes ``x`` in place gets fresh ones): the value
        and every derivative at one point, exact or sampled, share one pass
        over the features. Support rows gather their margins from the kept
        ones, so on a cold memo a support draw pays one all-rows pass.
        """
        x = np.asarray(x, dtype=float)
        memo = self._margin_memo
        if memo is None or not np.array_equal(memo[0], x):
            memo = self._margin_memo = (x.copy(), self.labels * (self.features @ x))
        if rows is None:
            return self.features, self.labels, memo[1]
        return self.features[rows], self.labels[rows], memo[1][rows]

    def _row_slice_sum(self, x, rows, w, coef, part):
        """Sum of ``part(features, c)`` over row slices, ``c = coef(margins, labels, w)``.

        All rows (``rows=None``) take their coefficients in one pass over the
        shared margins and are sliced as views. A support of fewer than
        ``DENSE_SUPPORT * m`` rows is gathered slice by slice, margins
        included; a larger one scatters its weights over all m rows (zeros
        elsewhere) and takes the all-rows path, which is cheaper there.
        """
        features, labels, t = self._margins(x)
        if rows is not None and rows.size >= DENSE_SUPPORT * self.m:
            full = np.zeros(self.m)
            full[rows] = w
            rows, w = None, full
        if rows is None:
            c = coef(t, labels, w)
            return row_slice_sum(self.m, lambda sl: part(features[sl], c[sl]))

        def gathered(sl):
            picked = rows[sl]
            return part(features[picked], coef(t[picked], labels[picked], w[sl]))

        return row_slice_sum(rows.size, gathered)

    def _weighted_value(self, x, w):
        x = np.asarray(x, dtype=float)
        _, _, t = self._margins(x)
        return float(w @ link_value(t) + 0.5 * self.mu * (x @ x))

    def _weighted_gradient(self, x, rows, w):
        x = np.asarray(x, dtype=float)
        grad = self._row_slice_sum(
            x, rows, w, lambda t, labels, w: w * link_d1(t) * labels,
            lambda features, c: features.T @ c)
        return grad + self.mu * x

    def _weighted_hessian(self, x, rows, w):
        """Gram of the sqrt-weighted row slices, plus the ridge.

        The coefficients ``w * link_d2`` are never negative, so each slice
        contributes ``scaled.T @ scaled`` with ``scaled = features * sqrt(c)``:
        numpy sends that product to BLAS syrk, which does half the flops of
        a general product and returns a bitwise symmetric matrix, and sums of
        symmetric slices stay bitwise symmetric.
        """
        def gram(features, root):
            scaled = features * root[:, None]
            return scaled.T @ scaled

        hess = self._row_slice_sum(
            x, rows, w, lambda t, labels, w: np.sqrt(w * link_d2(t)), gram)
        return hess + self.mu * np.eye(self.dim)

    def _weighted_third(self, x, rows, w) -> RankOneSumTensor3:
        features, labels, t = self._margins(x, rows)
        return RankOneSumTensor3(features, w * link_d3(t) * labels)

    # -- exact derivatives ---------------------------------------------------

    def value(self, x):
        return self._weighted_value(x, self._full_weights)

    def gradient(self, x):
        return self._weighted_gradient(x, None, self._full_weights)

    def hessian(self, x):
        return self._weighted_hessian(x, None, self._full_weights)

    def third(self, x) -> RankOneSumTensor3:
        return self._weighted_third(x, None, self._full_weights)

    def hessian_operator(self, x, draw=None):
        """``hessian(x)`` (``draw`` None) or ``batch_hessian(x, draw)`` as a
        ``linalg.LazyMatrix``, built on its first dense read.

        The exact Hessian and a draw that touches every row are a
        ``linalg.RowSumMatrix`` over ``features``, the rows that ``third(x)``
        and such a draw's ``batch_third`` sum over, so a product with both
        takes one pass and never forms the n-by-n matrix.
        """
        if draw is None:
            build, weights = functools.partial(self.hessian, x), self._full_weights
        else:
            build, weights = functools.partial(self.batch_hessian, x, draw), draw[1]
            if draw[0] is not None:
                return LazyMatrix(build)
        _, _, t = self._margins(x)
        return RowSumMatrix(self.features, weights * link_d2(t), self.mu, build)

    # -- batch access --------------------------------------------------------

    def batch_gradient(self, x, draw):
        return self._weighted_gradient(x, *draw)

    def batch_hessian(self, x, draw):
        return self._weighted_hessian(x, *draw)

    def batch_third(self, x, draw) -> RankOneSumTensor3:
        return self._weighted_third(x, *draw)

    #: Online draws above this size are drawn as multinomial counts.
    COUNT_DRAW_THRESHOLD = 1_000_000

    def draw(self, batch_size, rng):
        """``(rows, weights)`` of ``batch_size`` picks: distinct offline, i.i.d. online.

        ``rows`` (increasing) is ``None`` when the picks touch all ``m`` rows;
        ``weights`` is each row's picks over ``batch_size``. Offline picks are
        distinct, so their rows are the sorted picks, each weighing
        ``1 / batch_size``, with no count vector over all m rows. Online draws above
        ``COUNT_DRAW_THRESHOLD`` pick the multinomial count vector directly,
        the same distribution at O(m) cost.
        """
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.mode == "offline":
            if batch_size > self.m:
                raise ValueError(f"offline batch size {batch_size} exceeds m = {self.m}")
            picks = rng.choice(self.m, size=batch_size, replace=False)
            weights = np.full(batch_size, 1.0 / batch_size)
            return (None if batch_size == self.m else np.sort(picks)), weights
        if batch_size > self.COUNT_DRAW_THRESHOLD:
            counts = rng.multinomial(batch_size, np.full(self.m, 1.0 / self.m))
        else:
            counts = np.bincount(rng.integers(0, self.m, size=batch_size),
                                 minlength=self.m)
        weights = counts / batch_size
        rows = np.flatnonzero(counts)
        if rows.size == self.m:
            return None, weights
        return rows, weights[rows]

    # -- constants -----------------------------------------------------------

    def _moment_maxima(self) -> tuple[float, float]:
        """``(lambda_2, lambda_4)``: the top eigenvalues of ``(1/m) sum_j a_j a_j^T``
        and ``(1/m) sum_j ||a_j||^2 a_j a_j^T``, from one pass over the rows.

        Each row slice contributes the Grams (BLAS syrk) of its rows and of
        its rows scaled by ``||a_j|| / sqrt(m)``, stacked, with the norms
        taken per slice so that no length-m vector outlives a slice. The
        first sum is divided by m afterwards. Its entries are at most ``m
        max_j ||a_j||^2`` and the second's at most ``max_j ||a_j||^4``, so
        rows within ``MAX_ROW_NORM`` overflow neither.
        """
        root_m = math.sqrt(self.m)

        def grams(sl):
            rows = self.features[sl]
            scaled = rows * (np.linalg.norm(rows, axis=1) / root_m)[:, None]
            return np.stack((rows.T @ rows, scaled.T @ scaled))

        second, fourth = row_slice_sum(self.m, grams)
        return (float(np.linalg.eigvalsh(second / self.m)[-1]),
                float(np.linalg.eigvalsh(fourth)[-1]))

    def lipschitz_profile(self, x0, radius) -> LipschitzProfile:
        """Certify L_0..L_3 and the per-sample ranges of orders 1..3.

        L_1..L_3 are moment bounds, with ``s_i = sup|phi^(i)|`` and
        ``(lambda_2, lambda_4)`` from ``_moment_maxima``:

        * ``L_1 = s_2 lambda_2 + mu``, because ``H(x) = (1/m) sum_j
          phi''(y_j a_j^T x) a_j a_j^T + mu I <= s_2 A^T A / m + mu I``;
        * ``L_2 = s_3 sqrt(lambda_2 lambda_4)`` and ``L_3 = s_4 lambda_4``, which
          bound the norms of the average loss's third and fourth derivatives
          (the ridge term is quadratic).

        For the order-k derivative (k = 3, 4) three facts make it a proof:

        * a symmetric tensor's norm is its supremum on the diagonal,
          ``max_{||h||=1} |D^k f(x)[h]^k|``;
        * ``|D^k f(x)[h]^k| = |(1/m) sum_j phi^(k)(y_j a_j^T x) (a_j^T h)^k|
          <= s_k (1/m) sum_j |a_j^T h|^k``;
        * for a unit ``h``, ``(1/m) sum_j (a_j^T h)^2 <= lambda_2`` and, as
          ``(a^T h)^4 <= ||a||^2 (a^T h)^2``, ``(1/m) sum_j (a_j^T h)^4 <=
          h^T [(1/m) sum_j ||a_j||^2 a_j a_j^T] h <= lambda_4``. That bounds
          the k = 4 sum by ``lambda_4``, and Cauchy-Schwarz bounds the k = 3
          sum by ``sqrt((1/m) sum_j (a_j^T h)^2 (1/m) sum_j (a_j^T h)^4) <=
          sqrt(lambda_2 lambda_4)``.

        Each is the smaller of the moment bound and the worst-row bound
        ``s_(i+1) max_j ||a_j||^(i+1)`` (plus mu for L_1): one row term's i-th
        derivative is phi^(i) scaled by an i-fold outer power of the row. As
        ``lambda_2 <= max_j ||a_j||^2`` and ``lambda_4 <= max_j ||a_j||^4``,
        the minimum changes nothing in exact arithmetic; it guards rounding
        near ``MAX_ROW_NORM``. The offline and online settings certify the
        same L_1..L_3. Both moment eigenvalues are computed once, when the
        profile is built, so every run pays for both: a p=3 run, which reads
        only L_3, also pays ``lambda_2``, and a gradient run, which reads
        only L_1, also pays ``lambda_4``. Nothing is cached on the problem,
        so each profile computes them afresh.

        L_0 and the per-sample ranges stay worst-row bounds: L_0 is ``s_1
        max_j ||a_j|| + mu (||x0|| + radius)``. Each constant is floored at
        ``LIPSCHITZ_FLOOR``. The order-i range is ``2 L_{i-1}`` offline;
        online it is ``M_i + L_{i-1}``, with the per-sample deviation bound
        ``M_i = 2 clamp^i sup|phi^(i)|`` from the certified feature-norm clamp,
        which cancels the ridge (it is common to every sample). The ranges
        take L_0..L_2 from the worst-row bounds, which a single sample's
        derivative obeys and a moment bound does not, so they and the batch
        sizes they give read no moment eigenvalue. Raises
        ``ProblemScaleError`` when a row or the clamp is longer than
        ``MAX_ROW_NORM``, where these constants overflow, and when the ridge
        terms ``mu (||x0|| + radius)`` and ``mu`` make L_0 or L_1 overflow.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        amax = self._row_norm_max
        if not max(amax, self.clamp) <= MAX_ROW_NORM:
            raise ProblemScaleError(
                f"largest feature row norm {amax:.3e} (norm clamp {self.clamp:.3e}) "
                f"exceeds {MAX_ROW_NORM:.3e}, beyond which the certified constants overflow")
        reach = float(np.linalg.norm(x0)) + radius
        s1, s2, s3, s4 = LOGISTIC_LINK_BOUNDS
        worst_row = (amax * s1 + self.mu * reach, amax ** 2 * s2 + self.mu,
                     amax ** 3 * s3, amax ** 4 * s4)
        if not (math.isfinite(worst_row[0]) and math.isfinite(worst_row[1])):
            raise ProblemScaleError(f"ridge weight mu = {self.mu:.3e} on a ball of reach "
                                    f"{reach:.3e} overflows the certified L_0 and L_1")
        worst_row = tuple(max(c, LIPSCHITZ_FLOOR) for c in worst_row)
        lam2, lam4 = self._moment_maxima()
        moment = (s2 * lam2 + self.mu, s3 * math.sqrt(lam2) * math.sqrt(lam4), s4 * lam4)
        L = (worst_row[0], *(max(min(bound, worst), LIPSCHITZ_FLOOR)
                             for bound, worst in zip(moment, worst_row[1:])))
        if self.mode == "offline":
            return LipschitzProfile(L=L, S=tuple(2.0 * c for c in worst_row[:3]))
        rho = self.clamp
        M = (2.0 * rho * s1, 2.0 * rho ** 2 * s2, 2.0 * rho ** 3 * s3)
        return LipschitzProfile(L=L, S=tuple(m + c for m, c in zip(M, worst_row)))


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def make_quadratic(n: int, seed: int = 0, cond: float = 10.0) -> QuadraticProblem:
    """Random SPD quadratic with eigenvalues spread over [1/cond, 1].

    Raises ``ValueError`` when ``1/cond`` is not finite.
    """
    if not math.isfinite(1.0 / cond):
        raise ValueError(f"cond {cond:g} is too small: 1/cond overflows")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0 / cond, 1.0, n)
    A = (q * eigs) @ q.T
    b = rng.standard_normal(n) / math.sqrt(n)
    return QuadraticProblem(A, b)


def make_logistic(n: int, m: int, seed: int = 0, mu: float = 1e-3,
                  row_scale: float = 1.0, flip_fraction: float = 0.1,
                  mode: str = "offline") -> LogisticProblem:
    """Synthetic logistic instance with planted labels and optional flips."""
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        rows = rng.standard_normal((m, n)) * (row_scale / math.sqrt(n))
    if not np.all(np.isfinite(rows)):
        raise ProblemScaleError(f"feature row scale {row_scale:.3e} overflows the features; "
                                f"rows beyond {MAX_ROW_NORM:.3e} have no finite constants")
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
    with np.errstate(over="ignore"):
        # a ratio that overflows is above 1, where the minimum keeps the row
        rows *= np.minimum(1.0, clamp / np.maximum(norms, 1e-300))[:, None]
    w_star = rng.standard_normal(n)
    w_star /= np.linalg.norm(w_star)
    labels = np.where(rows @ w_star >= 0, 1.0, -1.0)
    if flip_fraction > 0:
        flips = rng.random(pool) < flip_fraction
        labels[flips] *= -1.0
    return LogisticProblem(rows, labels, mu=mu, mode="online", clamp=clamp)
