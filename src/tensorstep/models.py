"""Inexact Taylor models and their regularized majorants.

Given approximate derivatives ``G_1..G_p`` at a center ``x``, this module
builds

* the inexact Taylor polynomial ``phi(s) = f(x) + sum_i G_i[s]^i / i!``,
* the convex majorant ``omega(s) = phi(s)
  + sum_i kappa_i eps^((p-i+1)/p) d_i(s) / (i-1)! + sigma d_{p+1}(s) / (p-1)!``,
  which upper-bounds ``f(x+s)`` whenever the per-order inexactness condition
  holds and ``sigma >= L_p``, and
* the smooth majorant ``zeta``, obtained from ``omega`` by replacing every
  odd power of ``||s||`` through ``||s|| <= ||s||^2/(2 alpha) + alpha/2`` with
  ``alpha = eps^(1/p)``, so that only even powers remain and the model is
  twice differentiable everywhere. At the shipped orders ``p = 2`` and
  ``p = 3`` those are ``zeta - phi = z0 + z2 ||s||^2 + z4 ||s||^4``; the one
  statement of ``(z0, z2, z4)`` is ``zeta_radial_coefficients``, which
  ``TaylorModel`` and both subsolvers read.

The optimizer always minimizes ``zeta``, so this module evaluates only
``phi``, ``zeta`` and the gradient of ``zeta``. ``omega`` (whose ``d_1`` term
has a kink at the origin), the derivatives of ``phi``, the Hessian of
``zeta`` and the Taylor-residual and Hessian-sandwich checks are analysis
quantities no run evaluates; they live with the other lemma checks in
``tests/lemmas.py``.

The run path does not evaluate ``zeta`` through ``TaylorModel``: the order-3
inner loop (``subsolvers.bregman_minimize_zeta``) evaluates the model and its
gradient from ``DerivativeBundle.taylor_terms`` projected on an eigenbasis,
the Hessian's own or an earlier one's, the same way in either
(``subsolvers.EigenbasisZeta``), and the order-2 step is one quartic solve.
``TaylorModel`` is the direct evaluation in the original coordinates that
checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import LazyMatrix, RankOneSumTensor3


class DerivativeBundle:
    """Possibly inexact derivatives at a center point.

    The model order ``p`` is read off the bundle: 3 when ``third`` (a
    rank-one-sum operator) is present, 2 otherwise. ``sampling.sample_bundle``
    is the one builder of bundles in the library.

    ``hess`` is given as the n-by-n Hessian or as a ``linalg.LazyMatrix``,
    which is built on the first read of ``hess``, once, and never if nothing
    reads it; ``sample_bundle`` passes the problem's ``hessian_operator``.
    The factorization of ``hess`` (by an order-3 call given no eigenbasis, or
    by the order-2 solve), the order-2 residual, ``sampling.verify_condition``
    and ``TaylorModel`` read it. The order-3 inner loop takes the Hessian only
    through ``taylor_terms``, on any basis, which on an exact logistic bundle
    (a ``linalg.RowSumMatrix`` over the rows of ``third``) does without it.
    """

    def __init__(self, x: np.ndarray, value: float, grad: np.ndarray, hess,
                 third: RankOneSumTensor3 | None):
        n = x.size
        if grad.shape != (n,):
            raise ValueError(f"gradient shape {grad.shape} != ({n},)")
        self.x, self.value, self.grad, self.third = x, value, grad, third
        if not isinstance(hess, LazyMatrix):
            hess = LazyMatrix(lambda matrix=self._checked(hess): matrix)
        self._hess = hess

    def _checked(self, hess: np.ndarray) -> np.ndarray:
        n = self.x.size
        if hess.shape != (n, n):
            raise ValueError(f"Hessian shape {hess.shape} != ({n}, {n})")
        return hess

    @property
    def hess(self) -> np.ndarray:
        return self._checked(self._hess.dense())

    @property
    def p(self) -> int:
        return 2 if self.third is None else 3

    @property
    def dim(self) -> int:
        return self.x.size

    def taylor_terms(self, h: np.ndarray) -> np.ndarray:
        """The 2-by-n array whose rows are ``B h`` and ``T[h]^2``, with ``B =
        hess`` and ``T = third`` (``p = 3``): the products the quadratic and
        cubic terms of the model take at ``h``
        (``linalg.LazyMatrix.products``). On an exact logistic bundle they
        come from one pass over the rows and ``hess`` is not built; otherwise
        they are ``hess @ h`` and ``third.apply2(h)``.
        """
        return self._hess.products(self.third, h)


@dataclass(frozen=True)
class InexactnessBudget:
    """Target accuracy eps plus per-order tolerances kappa_1..kappa_p."""

    eps: float
    kappas: tuple

    def __post_init__(self):
        # NaN passes every comparison that rejects a bound, so finiteness is asked first
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"target accuracy eps must be positive and finite, got {self.eps!r}")
        if not all(math.isfinite(k) and k >= 0 for k in self.kappas):
            raise ValueError(f"tolerances kappas must be nonnegative and finite, "
                             f"got {self.kappas!r}")

    @property
    def p(self) -> int:
        return len(self.kappas)

    def kappa(self, order: int) -> float:
        return self.kappas[order - 1]

    def eps_power(self, order: int) -> float:
        """eps^((p - order + 1) / p), the scale attached to order ``order``."""
        return self.eps ** ((self.p - order + 1) / self.p)


@dataclass(frozen=True)
class ModelConfig:
    """Regularization sigma and Bregman parameter tau of the model.

    The model order is the budget's and the bundle's; ``tau`` is read only
    by the order-3 Bregman inner loop, whose relative-smoothness constants
    need ``tau > 2``.
    """

    sigma: float
    tau: float = 4.0

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 2):
            raise ValueError(f"finite tau > 2 required, got {self.tau!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")

    @classmethod
    def coupled(cls, lip_top: float, kappa_top: float, tau: float) -> "ModelConfig":
        """Order-3 config with sigma from ``2 sigma + 2 kappa_t = 3 tau^2 (L_3 + kappa_t)``.

        With ``tau > 2`` this gives ``sigma > L_3``.
        """
        sigma = 1.5 * tau * tau * (lip_top + kappa_top) - kappa_top
        return cls(sigma=sigma, tau=tau)


def zeta_radial_coefficients(budget: InexactnessBudget, config: ModelConfig) -> tuple:
    """Coefficients ``(z0, z2, z4)`` of ``zeta - phi = z0 + z2 ||s||^2 + z4 ||s||^4``.

    Assembled by applying the smoothing split to each radial term of
    ``omega - phi``: the order-i term has weight ``kappa_i eps^((p-i+1)/p)/i!``
    on ``||s||^i`` and the top term weight ``p sigma / (p+1)!`` on
    ``||s||^(p+1)``; odd powers ``||s||^i`` split into
    ``eps^(-1/p)/2 ||s||^(i+1) + eps^(1/p)/2 ||s||^(i-1)``. At ``p = 2`` and
    ``p = 3`` only the powers 0, 2 and 4 occur; any other order raises
    ``ValueError``. Each coefficient adds its terms in the order of the
    powers they come from, the order the golden traces were recorded in.
    """
    p = budget.p
    if p not in (2, 3):
        raise ValueError(f"the smooth model has powers 0, 2 and 4 only at p = 2 or 3, not {p}")
    alpha = budget.eps ** (1.0 / p)
    # w[i-1] weighs ||s||^i: the split ||s|| and ||s||^3, the kept ||s||^2 and, at p = 3, ||s||^4
    w = [budget.kappa(i) * budget.eps_power(i) / math.factorial(i) for i in range(1, p + 1)]
    w.append(p * config.sigma / math.factorial(p + 1))
    z0 = 0.5 * w[0] * alpha
    z2 = 0.5 * w[0] / alpha + w[1] + 0.5 * w[2] * alpha
    z4 = 0.5 * w[2] / alpha + (w[3] if p == 3 else 0.0)
    return z0, z2, z4


class TaylorModel:
    """Evaluator for ``phi`` and ``zeta`` built from one bundle."""

    def __init__(self, bundle: DerivativeBundle, budget: InexactnessBudget,
                 config: ModelConfig):
        if budget.p != bundle.p:
            raise ValueError(f"order mismatch: bundle p={bundle.p}, budget p={budget.p}")
        self.bundle = bundle
        self.budget = budget
        self.config = config
        self.z0, self.z2, self.z4 = zeta_radial_coefficients(budget, config)

    # -- inexact Taylor polynomial -------------------------------------------

    def phi(self, s: np.ndarray) -> float:
        b = self.bundle
        s = np.asarray(s, dtype=float)
        val = b.value + float(b.grad @ s) + 0.5 * float(s @ (b.hess @ s))
        if b.p >= 3:
            val += b.third.apply3(s) / 6.0
        return val

    # -- smooth majorant zeta ---------------------------------------------------

    def zeta(self, s: np.ndarray) -> float:
        s = np.asarray(s, dtype=float)
        r2 = float(s @ s)
        return self.phi(s) + self.z0 + (self.z2 + self.z4 * r2) * r2

    def zeta_grad(self, s: np.ndarray) -> np.ndarray:
        b = self.bundle
        s = np.asarray(s, dtype=float)
        r2 = float(s @ s)
        g = b.grad + b.hess @ s
        if b.p >= 3:
            g = g + 0.5 * b.third.apply2(s)
        return g + (2.0 * self.z2 + 4.0 * self.z4 * r2) * s
