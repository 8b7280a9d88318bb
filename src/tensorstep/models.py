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

The optimizer always minimizes ``zeta``; ``omega`` is kept for analysis and
verification (its ``d_1`` term has a kink at the origin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonsmoothPointError
from .linalg import SymTensor3, dp_value, opnorm_mat
from .problems import LipschitzProfile


@dataclass(frozen=True)
class DerivativeBundle:
    """Possibly inexact derivatives of orders 1..p at a center point.

    ``third`` is present iff ``p >= 3``; dense or operator form both work.
    """

    x: np.ndarray
    value: float
    grad: np.ndarray
    hess: np.ndarray
    third: SymTensor3 | None
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


def coupling_residual(config: ModelConfig, lip_top: float, kappa_top: float) -> float:
    """How far ``2 sigma + 2 kappa_t - 3 tau^2 (L_3 + kappa_t)`` is from zero."""
    return 2.0 * config.sigma + 2.0 * kappa_top - 3.0 * config.tau ** 2 * (lip_top + kappa_top)


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


@dataclass(frozen=True)
class SmoothModelP3:
    """The order-3 smooth model written as ``phi + C2 d_2 + C4 d_4 + constant``."""

    C2: float
    C4: float
    constant: float

    @classmethod
    def from_budget(cls, budget: InexactnessBudget, config: ModelConfig) -> "SmoothModelP3":
        if config.p != 3 or budget.p != 3:
            raise ValueError("SmoothModelP3 requires p = 3")
        kg, kb, kt = budget.kappas
        e23 = budget.eps ** (2.0 / 3.0)
        return cls(
            C2=(kg + kb + kt / 6.0) * e23,
            C4=config.sigma / 2.0 + kt / 3.0,
            constant=0.5 * kg * budget.eps ** (4.0 / 3.0),
        )


class TaylorModel:
    """Evaluator for ``phi``, ``omega`` and ``zeta`` built from one bundle."""

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

    def phi_grad(self, s: np.ndarray) -> np.ndarray:
        b = self.bundle
        s = np.asarray(s, dtype=float)
        g = b.grad + b.hess @ s
        if b.p >= 3:
            g = g + 0.5 * b.third.apply2(s)
        return g

    def phi_hess(self, s: np.ndarray) -> np.ndarray:
        b = self.bundle
        s = np.asarray(s, dtype=float)
        h = b.hess.copy()
        if b.p >= 3:
            h = h + b.third.apply(s)
        return h

    # -- regularized majorant omega -------------------------------------------

    def omega(self, s: np.ndarray) -> float:
        s = np.asarray(s, dtype=float)
        p = self.config.p
        val = self.phi(s)
        for i in range(1, p + 1):
            coef = self.budget.kappa(i) * self.budget.eps_power(i) / math.factorial(i - 1)
            val += coef * dp_value(s, i)
        val += self.config.sigma / math.factorial(p - 1) * dp_value(s, p + 1)
        return val

    def omega_grad(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        p = self.config.p
        nrm = float(np.linalg.norm(s))
        if nrm == 0.0 and self.budget.kappa(1) > 0:
            raise NonsmoothPointError("omega has a d_1 kink at s = 0; probe at s != 0")
        g = self.phi_grad(s)
        for i in range(1, p + 1):
            coef = self.budget.kappa(i) * self.budget.eps_power(i) / math.factorial(i - 1)
            if coef == 0.0:
                continue
            if i == 1:
                g = g + coef * (s / nrm)
            elif nrm > 0.0:
                g = g + coef * nrm ** (i - 2) * s
        g = g + self.config.sigma / math.factorial(p - 1) * nrm ** (p - 1) * s
        return g

    # -- smooth majorant zeta ---------------------------------------------------

    @property
    def zeta_coefficients(self) -> dict:
        return dict(self._zeta_coeffs)

    def zeta(self, s: np.ndarray) -> float:
        s = np.asarray(s, dtype=float)
        r2 = float(s @ s)
        val = self.phi(s)
        for power, coef in self._zeta_coeffs.items():
            val += coef * r2 ** (power // 2)
        return val

    def zeta_grad(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        r2 = float(s @ s)
        g = self.phi_grad(s)
        for power, coef in self._zeta_coeffs.items():
            if power >= 2:
                g = g + coef * power * r2 ** (power // 2 - 1) * s
        return g

    def zeta_hess(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        n = s.size
        r2 = float(s @ s)
        h = self.phi_hess(s)
        for power, coef in self._zeta_coeffs.items():
            if power < 2:
                continue
            h = h + coef * power * r2 ** (power // 2 - 1) * np.eye(n)
            if power >= 4:
                h = h + coef * power * (power - 2) * r2 ** (power // 2 - 2) * np.outer(s, s)
        return h


# ---------------------------------------------------------------------------
# verification reports (test mode: exact derivatives available)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Measured residuals of f, grad f, hess f against the model bounds."""

    value_lhs: float
    value_rhs: float
    grad_lhs: float
    grad_rhs: float
    hess_lhs: float
    hess_rhs: float

    @property
    def value_ok(self):
        return self.value_lhs <= self.value_rhs + 1e-8 * max(1.0, self.value_rhs)

    @property
    def grad_ok(self):
        return self.grad_lhs <= self.grad_rhs + 1e-8 * max(1.0, self.grad_rhs)

    @property
    def hess_ok(self):
        return self.hess_lhs <= self.hess_rhs + 1e-8 * max(1.0, self.hess_rhs)

    @property
    def all_ok(self):
        return self.value_ok and self.grad_ok and self.hess_ok


def residual_bound_report(problem, bundle: DerivativeBundle, budget: InexactnessBudget,
                          profile: LipschitzProfile, s: np.ndarray) -> ResidualReport:
    """Check the three Taylor-residual inequalities at one displacement.

    The right-hand sides use the certified top Lipschitz constant plus the
    *measured* per-order deviation terms at this displacement (so the
    kappa-dependent parts hold by construction and the substantive content is
    the top-order remainder).
    """
    s = np.asarray(s, dtype=float)
    p = bundle.p
    x = bundle.x
    nrm = float(np.linalg.norm(s))
    lip = profile.lip(p)

    e1 = bundle.grad - problem.gradient(x)
    e2 = bundle.hess - problem.hessian(x)
    dev_vec = [float(np.linalg.norm(e1)), float(np.linalg.norm(e2 @ s))]
    dev_mat = [float(opnorm_mat(e2))]
    if p >= 3:
        e3 = bundle.third - problem.third(x)
        dev_vec.append(float(np.linalg.norm(e3.apply2(s))))
        dev_mat.append(float(opnorm_mat(e3.apply(s))))

    model = TaylorModel(bundle, budget, ModelConfig(p=p, sigma=max(lip, 1e-300)))

    value_rhs = lip * nrm ** (p + 1) / math.factorial(p + 1)
    grad_rhs = lip * nrm ** p / math.factorial(p)
    hess_rhs = lip * nrm ** (p - 1) / math.factorial(p - 1)
    for i in range(1, p + 1):
        value_rhs += dev_vec[i - 1] * nrm / math.factorial(i)
        grad_rhs += dev_vec[i - 1] / math.factorial(i - 1)
    for i in range(2, p + 1):
        hess_rhs += dev_mat[i - 2] / math.factorial(i - 2)

    fx = problem.value(x + s)
    gx = problem.gradient(x + s)
    hx = problem.hessian(x + s)
    return ResidualReport(
        value_lhs=abs(fx - model.phi(s)),
        value_rhs=value_rhs,
        grad_lhs=float(np.linalg.norm(gx - model.phi_grad(s))),
        grad_rhs=grad_rhs,
        hess_lhs=float(opnorm_mat(hx - model.phi_hess(s))),
        hess_rhs=hess_rhs,
    )


@dataclass(frozen=True)
class SandwichReport:
    """Eigenvalue margins for ``0 <= hess f(x+s) <= hess phi(s) + shift I``."""

    lower_margin: float
    upper_margin: float
    tol: float = 1e-8

    @property
    def ok(self):
        return self.lower_margin >= -self.tol and self.upper_margin >= -self.tol


def hessian_sandwich_report(problem, bundle: DerivativeBundle, budget: InexactnessBudget,
                            config: ModelConfig, s: np.ndarray,
                            profile: LipschitzProfile, tol: float = 1e-8) -> SandwichReport:
    """Verify the two-sided Hessian bound at one displacement.

    The scalar shift is ``sum_{i>=2} kappa_i eps^((p-i+1)/p) ||s||^(i-2)/(i-2)!
    + L_p ||s||^(p-1)/(p-1)!`` with the budget's target tolerances.
    """
    s = np.asarray(s, dtype=float)
    p = bundle.p
    nrm = float(np.linalg.norm(s))
    model = TaylorModel(bundle, budget, config)
    shift = profile.lip(p) * nrm ** (p - 1) / math.factorial(p - 1)
    for i in range(2, p + 1):
        shift += budget.kappa(i) * budget.eps_power(i) * nrm ** (i - 2) / math.factorial(i - 2)
    hx = problem.hessian(bundle.x + s)
    upper = model.phi_hess(s) + shift * np.eye(s.size) - hx
    return SandwichReport(
        lower_margin=float(np.linalg.eigvalsh(hx).min()),
        upper_margin=float(np.linalg.eigvalsh(0.5 * (upper + upper.T)).min()),
        tol=tol,
    )
