"""Executable checks of the lemmas behind the inexact tensor method.

The library ships only what a run evaluates: the smooth majorant ``zeta`` and
its gradient, the quartic and Bregman solvers and the problem oracles. The
quantities the analysis reasons about, which no run evaluates, live here and
are called from the tests only:

* the power prox ``d_p(x) = ||x||^p / p`` (``dp_value``, ``dp_grad``,
  ``dp_hess``) with the curvature bound ``hess d_p(x) >= ||x||^(p-2) I`` that
  the convexity of the regularized models rests on. ``d_1`` has no gradient
  and ``d_3`` no Hessian at the origin (``NonsmoothPointError``,
  ``SingularPointError``);
* the derivatives of the inexact Taylor polynomial (``phi_grad``,
  ``phi_hess``), the nonsmooth majorant ``omega`` (``omega``, ``omega_grad``),
  which upper-bounds ``f(x + s)`` when the per-order inexactness condition
  holds and ``sigma >= L_p``, and the Hessian of ``zeta`` (``zeta_hess``);
* the Taylor-residual bounds of an inexact model on the value, gradient and
  Hessian (``residual_bound_report``) and the two-sided Hessian bound
  ``0 <= hess f(x+s) <= hess phi(s) + shift I`` (``hessian_sandwich_report``);
* the sigma coupling ``2 sigma + 2 kappa_3 = 3 tau^2 (L_3 + kappa_3)``
  (``coupling_residual``) and the relative-smoothness sandwich
  ``hess rho <= hess zeta <= k(tau) hess rho`` of the Bregman inner solver
  (``rho_hessian``);
* a first-order minimizer of ``zeta`` (``generic_model_minimize``) that
  cross-checks the quartic and Bregman solvers at any order;
* per-component derivatives (``component_value``, ``component_gradient``,
  ``component_hessian``), whose average is the exact derivative, the
  unbiasedness behind the sampled bundles of the stochastic method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tensorstep import QuadraticProblem, SubsolverError, TaylorModel
from tensorstep.errors import TensorStepError
from tensorstep.linalg import opnorm_mat
from tensorstep.models import (
    DerivativeBundle,
    InexactnessBudget,
    ModelConfig,
    zeta_radial_coefficients,
)
from tensorstep.problems import LipschitzProfile, link_d1, link_d2, link_value
from tensorstep.subsolvers import rho_reference_coefficients


class NonsmoothPointError(TensorStepError):
    """A derivative was requested at a point where it does not exist."""


class SingularPointError(TensorStepError):
    """A second derivative was requested at a point where it blows up."""


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
    ``p = 1`` is nonsmooth at the origin and raises there.
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
# derivatives of phi, the majorant omega and the Hessian of zeta
# ---------------------------------------------------------------------------

def phi_grad(model: TaylorModel, s: np.ndarray) -> np.ndarray:
    b = model.bundle
    s = np.asarray(s, dtype=float)
    g = b.grad + b.hess @ s
    if b.p >= 3:
        g = g + 0.5 * b.third.apply2(s)
    return g


def phi_hess(model: TaylorModel, s: np.ndarray) -> np.ndarray:
    b = model.bundle
    s = np.asarray(s, dtype=float)
    h = b.hess.copy()
    if b.p >= 3:
        h = h + b.third.apply(s)
    return h


def omega(model: TaylorModel, s: np.ndarray) -> float:
    """``phi(s) + sum_i kappa_i eps^((p-i+1)/p) d_i(s) / (i-1)! + sigma d_{p+1}(s) / (p-1)!``."""
    s = np.asarray(s, dtype=float)
    p = model.config.p
    val = model.phi(s)
    for i in range(1, p + 1):
        coef = model.budget.kappa(i) * model.budget.eps_power(i) / math.factorial(i - 1)
        val += coef * dp_value(s, i)
    val += model.config.sigma / math.factorial(p - 1) * dp_value(s, p + 1)
    return val


def omega_grad(model: TaylorModel, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    p = model.config.p
    nrm = float(np.linalg.norm(s))
    if nrm == 0.0 and model.budget.kappa(1) > 0:
        raise NonsmoothPointError("omega has a d_1 kink at s = 0; probe at s != 0")
    g = phi_grad(model, s)
    for i in range(1, p + 1):
        coef = model.budget.kappa(i) * model.budget.eps_power(i) / math.factorial(i - 1)
        if coef == 0.0:
            continue
        if i == 1:
            g = g + coef * (s / nrm)
        elif nrm > 0.0:
            g = g + coef * nrm ** (i - 2) * s
    g = g + model.config.sigma / math.factorial(p - 1) * nrm ** (p - 1) * s
    return g


def zeta_hess(model: TaylorModel, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    n = s.size
    r2 = float(s @ s)
    h = phi_hess(model, s)
    for power, coef in zeta_radial_coefficients(model.budget, model.config).items():
        if power < 2:
            continue
        h = h + coef * power * r2 ** (power // 2 - 1) * np.eye(n)
        if power >= 4:
            h = h + coef * power * (power - 2) * r2 ** (power // 2 - 2) * np.outer(s, s)
    return h


# ---------------------------------------------------------------------------
# Taylor-residual bounds and the Hessian sandwich (exact derivatives available)
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
        grad_lhs=float(np.linalg.norm(gx - phi_grad(model, s))),
        grad_rhs=grad_rhs,
        hess_lhs=float(opnorm_mat(hx - phi_hess(model, s))),
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
    upper = phi_hess(model, s) + shift * np.eye(s.size) - hx
    return SandwichReport(
        lower_margin=float(np.linalg.eigvalsh(hx).min()),
        upper_margin=float(np.linalg.eigvalsh(0.5 * (upper + upper.T)).min()),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# the sigma coupling and the Bregman reference function
# ---------------------------------------------------------------------------

def coupling_residual(config: ModelConfig, lip_top: float, kappa_top: float) -> float:
    """How far ``2 sigma + 2 kappa_t - 3 tau^2 (L_3 + kappa_t)`` is from zero."""
    return 2.0 * config.sigma + 2.0 * kappa_top - 3.0 * config.tau ** 2 * (lip_top + kappa_top)


def rho_hessian(h: np.ndarray, B: np.ndarray, budget: InexactnessBudget,
                config: ModelConfig) -> np.ndarray:
    """Hessian of the reference function at ``h``."""
    beta_b, a_coef, Q = rho_reference_coefficients(budget, config)
    h = np.asarray(h, dtype=float)
    n = h.size
    r2 = float(h @ h)
    return beta_b * B + a_coef * np.eye(n) + Q * (2.0 * np.outer(h, h) + r2 * np.eye(n))


# ---------------------------------------------------------------------------
# first-order cross-check of the model solvers
# ---------------------------------------------------------------------------

def generic_model_minimize(bundle: DerivativeBundle, budget: InexactnessBudget,
                           config: ModelConfig, grad_tol: float = 1e-9,
                           max_iter: int = 20000) -> np.ndarray:
    """Backtracking gradient descent on the smooth model.

    Trial steps are seeded with the Barzilai-Borwein length and safeguarded
    by an Armijo backtracking line search, which keeps the descent usable on
    the badly scaled quartic models without any second-order information.
    """
    model = TaylorModel(bundle, budget, config)
    h = np.zeros(bundle.dim)
    val = model.zeta(h)
    g = model.zeta_grad(h)
    step = 1.0
    prev_h = None
    prev_g = None
    for _ in range(max_iter):
        gn = float(np.linalg.norm(g))
        if gn <= grad_tol:
            return h
        if prev_h is not None:
            dh = h - prev_h
            dg = g - prev_g
            denom = float(dh @ dg)
            if denom > 0:
                step = float(dh @ dh) / denom
        step = min(max(step, 1e-18), 1e12)
        accepted = False
        trial = step
        while trial > 1e-18:
            cand = h - trial * g
            cand_val = model.zeta(cand)
            if cand_val <= val - 1e-4 * trial * gn * gn:
                prev_h, prev_g = h, g
                h, val = cand, cand_val
                g = model.zeta_grad(h)
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            # no representable decrease is left when the Armijo margin falls
            # below the float resolution of the model value
            if 1e-4 * step * gn * gn < np.finfo(float).eps * max(1.0, abs(val)):
                return h
            raise SubsolverError("descent line search stalled", best=h, residual=gn)
    raise SubsolverError(
        f"descent exhausted {max_iter} iterations",
        best=h, residual=float(np.linalg.norm(model.zeta_grad(h))),
    )


# ---------------------------------------------------------------------------
# per-component derivatives
# ---------------------------------------------------------------------------

def _check_index(problem, j):
    if not 0 <= j < problem.m:
        raise IndexError(f"component index {j} out of range for m = {problem.m}")


def component_value(problem, j, x):
    _check_index(problem, j)
    if isinstance(problem, QuadraticProblem):
        # a quadratic is its own single component
        return problem.value(x)
    x = np.asarray(x, dtype=float)
    t = problem.labels[j] * (problem.features[j] @ x)
    return float(link_value(np.array([t]))[0] + 0.5 * problem.mu * (x @ x))


def component_gradient(problem, j, x):
    _check_index(problem, j)
    if isinstance(problem, QuadraticProblem):
        return problem.gradient(x)
    x = np.asarray(x, dtype=float)
    t = np.array([problem.labels[j] * (problem.features[j] @ x)])
    return link_d1(t)[0] * problem.labels[j] * problem.features[j] + problem.mu * x


def component_hessian(problem, j, x):
    _check_index(problem, j)
    if isinstance(problem, QuadraticProblem):
        return problem.hessian(x)
    t = np.array([problem.labels[j] * (problem.features[j] @ np.asarray(x, dtype=float))])
    a = problem.features[j]
    return link_d2(t)[0] * np.outer(a, a) + problem.mu * np.eye(problem.dim)
