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
  ``alpha = eps^(1/p)``, so that only even powers (plus the top split term)
  remain and the model is twice differentiable everywhere.

The optimizer always minimizes ``zeta``, so this module evaluates only
``phi``, ``zeta`` and the gradient of ``zeta``. ``omega`` (whose ``d_1`` term
has a kink at the origin), the derivatives of ``phi``, the Hessian of
``zeta`` and the Taylor-residual and Hessian-sandwich checks are analysis
quantities no run evaluates; they live with the other lemma checks in
``tests/lemmas.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SubsolverError
from .linalg import RankOneSumTensor3


@dataclass(frozen=True)
class DerivativeBundle:
    """Possibly inexact derivatives of orders 1..p at a center point.

    ``third`` is present iff ``p >= 3``, as a rank-one-sum operator.
    """

    x: np.ndarray
    value: float
    grad: np.ndarray
    hess: np.ndarray
    third: RankOneSumTensor3 | None
    p: int

    def __post_init__(self):
        n = self.x.size
        if self.grad.shape != (n,):
            raise ValueError(f"gradient shape {self.grad.shape} != ({n},)")
        if self.hess.shape != (n, n):
            raise ValueError(f"Hessian shape {self.hess.shape} != ({n}, {n})")
        if self.p < 2:
            raise ValueError(f"model order must be >= 2, got {self.p}")
        if self.p >= 3 and self.third is None:
            raise ValueError("order-3 bundle needs a third-derivative tensor")
        if self.p == 2 and self.third is not None:
            raise ValueError("order-2 bundle must not carry a third derivative")

    @property
    def dim(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class InexactnessBudget:
    """Target accuracy eps plus per-order tolerances kappa_1..kappa_p."""

    eps: float
    kappas: tuple

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("target accuracy must be positive")
        if any(k < 0 for k in self.kappas):
            raise ValueError("tolerances must be nonnegative")

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
    """Model order p, regularization sigma and Bregman parameter tau."""

    p: int
    sigma: float
    tau: float = 4.0

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("model order must be >= 2")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @classmethod
    def coupled(cls, lip_top: float, kappa_top: float, tau: float = 4.0) -> "ModelConfig":
        """Order-3 config with sigma from ``2 sigma + 2 kappa_t = 3 tau^2 (L_3 + kappa_t)``.

        Requires ``tau > 2``, which also guarantees ``sigma > L_3``.
        """
        if tau <= 2:
            raise ValueError("the coupled configuration needs tau > 2")
        sigma = 1.5 * tau * tau * (lip_top + kappa_top) - kappa_top
        return cls(p=3, sigma=sigma, tau=tau)


def zeta_radial_coefficients(budget: InexactnessBudget, config: ModelConfig) -> dict:
    """Coefficients of the even-power expansion of ``zeta - phi``.

    Returns a map ``power -> coefficient`` (power 0 is the constant term).
    Assembled by applying the smoothing split to each radial term of
    ``omega - phi``: the order-i term has weight ``kappa_i eps^((p-i+1)/p)/i!``
    on ``||s||^i`` and the top term weight ``p sigma / (p+1)!`` on
    ``||s||^(p+1)``; odd powers ``||s||^i`` split into
    ``eps^(-1/p)/2 ||s||^(i+1) + eps^(1/p)/2 ||s||^(i-1)``.
    """
    p = config.p
    eps = budget.eps
    alpha = eps ** (1.0 / p)
    coeffs: dict[int, float] = {}

    def add(power: int, coef: float) -> None:
        if coef != 0.0:
            coeffs[power] = coeffs.get(power, 0.0) + coef

    def place(power: int, coef: float) -> None:
        if power % 2 == 0:
            add(power, coef)
        else:
            add(power + 1, 0.5 * coef / alpha)
            add(power - 1, 0.5 * coef * alpha)

    for i in range(1, p + 1):
        place(i, budget.kappa(i) * budget.eps_power(i) / math.factorial(i))
    place(p + 1, p * config.sigma / math.factorial(p + 1))
    return coeffs


class TaylorModel:
    """Evaluator for ``phi`` and ``zeta`` built from one bundle."""

    def __init__(self, bundle: DerivativeBundle, budget: InexactnessBudget,
                 config: ModelConfig):
        if budget.p != bundle.p or config.p != bundle.p:
            raise ValueError(
                f"order mismatch: bundle p={bundle.p}, budget p={budget.p}, "
                f"config p={config.p}"
            )
        self.bundle = bundle
        self.budget = budget
        self.config = config
        self._zeta_coeffs = zeta_radial_coefficients(budget, config)

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
        val = self.phi(s)
        for power, coef in self._zeta_coeffs.items():
            val += coef * r2 ** (power // 2)
        return val

    def zeta_grad(self, s: np.ndarray) -> np.ndarray:
        return self.zeta_and_grad(s)[1]

    def zeta_and_grad(self, s: np.ndarray) -> tuple:
        """``(zeta(s), grad zeta(s))`` from one contraction ``T[s]^2``.

        The cubic term comes from ``T[s]^3 = <T[s]^2, s>``, so the value
        costs no ``apply3`` pass; it agrees with ``zeta`` up to rounding.
        Raises ``SubsolverError`` when the value or gradient overflows.
        """
        b = self.bundle
        s = np.asarray(s, dtype=float)
        r2 = float(s @ s)
        hs = b.hess @ s
        g = b.grad + hs
        val = b.value + float(b.grad @ s) + 0.5 * float(s @ hs)
        if b.p >= 3:
            v = b.third.apply2(s)
            g = g + 0.5 * v
            val += float(v @ s) / 6.0
        try:
            for power, coef in self._zeta_coeffs.items():
                val += coef * r2 ** (power // 2)
                if power >= 2:
                    g = g + coef * power * r2 ** (power // 2 - 1) * s
        except OverflowError:
            val = math.inf
        if not (math.isfinite(val) and np.isfinite(g).all()):
            raise SubsolverError(
                f"smooth model is not finite at ||s|| = {math.sqrt(r2):.3e}")
        return val, g
