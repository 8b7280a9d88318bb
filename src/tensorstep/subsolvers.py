"""Minimizers for the smooth model at one outer iteration.

The workhorse is ``solve_regularized_quartic``: the global minimizer of

    q(h) = <c, h> + beta/2 <B h, h> + a/2 ||h||^2 + b/4 ||h||^4

via one symmetric eigendecomposition of ``beta B`` followed by monotone
scalar root finding. Writing ``mu = a + b ||h||^2``, stationarity reads
``(beta B + mu I) h = -c`` and ``||h(mu)||`` is strictly decreasing in
``mu``, so the scalar equation has a unique root; global optimality
additionally requires ``beta B + mu I >= 0``, which pins ``mu`` to the
boundary in the trust-region-style hard case (``c`` orthogonal to the bottom
eigenspace), resolved by an eigenvector correction.

For ``p = 3``, ``bregman_minimize_zeta`` runs the relative-smoothness
proximal-gradient iteration

    h_{k+1} = argmin { <grad zeta(h_k), h> + k(tau) * breg_rho(h_k, h) }

with reference function ``rho(h) = (1 - 2/tau)(<B h, h>/2 + C2 d_2(h))
+ Q d_4(h)`` and ``k(tau) = (tau + 2)/(tau - 2)``; under the sigma coupling
``2 sigma + 2 kappa_t = 3 tau^2 (L_3 + kappa_t)`` the model satisfies
``hess rho <= hess zeta <= k(tau) hess rho``, and the model value decreases
monotonically with a linear rate. Each inner step is one regularized quartic
in the fixed matrix ``B``: the loop factors ``B`` once and solves every step
with the eigenbasis core of ``solve_regularized_quartic``, hard case
included, but without its residual postcondition, which would cost one more
n-by-n product per step. A step then costs one contraction ``T[h]^2``, one
n-by-n product and one secular solve: ``grad zeta(h)`` and ``zeta(h)`` both
come from the one ``T[h]^2``, the value through ``T[h]^3 = <T[h]^2, h>``.

``solve_model_p2`` reduces the even-power order-2 model to a single quartic
solve; ``generic_model_minimize`` is a first-order fallback used for
cross-checks at any order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SubsolverError
from .models import (
    DerivativeBundle,
    InexactnessBudget,
    ModelConfig,
    SmoothModelP3,
    TaylorModel,
)

logger = logging.getLogger(__name__)

#: Required stationarity residual of the quartic solver, relative to max(1, ||c||).
QUARTIC_RESIDUAL_TOL = 1e-10

#: Absolute model-gradient norm at which the inner Bregman loop stops.
INNER_GRAD_TOL = 1e-9

#: Scalar tolerance of the secular root finder.
SECULAR_TOL = 1e-14


@dataclass(frozen=True)
class RegularizedQuartic:
    """Data of ``<c,h> + beta/2 <B h,h> + a/2 ||h||^2 + b/4 ||h||^4``."""

    c: np.ndarray
    B: np.ndarray
    beta: float = 1.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("quadratic/quartic weights must be nonnegative")
        if self.b == 0.0 and self.a == 0.0:
            raise ValueError("need b > 0 or a > 0 for a well-posed subproblem")

    def value(self, h: np.ndarray) -> float:
        h = np.asarray(h, dtype=float)
        r2 = float(h @ h)
        return float(self.c @ h) + 0.5 * self.beta * float(h @ (self.B @ h)) \
            + 0.5 * self.a * r2 + 0.25 * self.b * r2 * r2

    def grad(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        r2 = float(h @ h)
        return self.c + self.beta * (self.B @ h) + (self.a + self.b * r2) * h


@dataclass
class InnerStats:
    """Per-call record of the inner loop, kept for diagnostics and tests."""

    iterations: int = 0
    zeta_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)


def _secular_root(lam: np.ndarray, c2: np.ndarray, b: float) -> float:
    """Unique root of ``chi(mu) = b sum c2_j/(lam_j+mu)^2 - mu`` above ``-lam_min``.

    ``lam`` already includes the ``a`` shift. Strictly decreasing chi makes a
    safeguarded Newton/bisection hybrid unconditionally convergent.
    """
    lam_min = float(lam.min())
    mu_lo = max(0.0, -lam_min)
    # open the bracket just off the pole when the bottom eigenvalue is active
    bump = max(1e-300, 1e-14 * max(1.0, abs(lam_min)))

    def chi(mu):
        d = lam + mu
        return b * float(np.sum(c2 / (d * d))) - mu

    def chi_prime(mu):
        d = lam + mu
        return -2.0 * b * float(np.sum(c2 / (d * d * d))) - 1.0

    lo = mu_lo + (bump if mu_lo > 0 else 0.0)
    while chi(lo) < 0.0 and mu_lo > 0.0 and lo > mu_lo:
        # came in past the root because of the bump; shrink it
        bump *= 0.5
        lo = mu_lo + bump
        if bump < 1e-300:
            break
    hi = max(1.0, 2.0 * lo + 1.0)
    while chi(hi) > 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise SubsolverError("secular bracket expansion failed")
    mu = min(max(0.5 * (lo + hi), lo), hi)
    for _ in range(200):
        val = chi(mu)
        if val > 0.0:
            lo = mu
        else:
            hi = mu
        step = val / chi_prime(mu)
        nxt = mu - step
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - mu) <= SECULAR_TOL * max(1.0, abs(mu)):
            return nxt
        mu = nxt
    return mu


def solve_regularized_quartic(q: RegularizedQuartic) -> np.ndarray:
    """Global minimizer of a regularized quartic, to tight stationarity.

    Postcondition: ``||grad q(h*)|| <= 1e-10 * max(1, ||c||)``.
    """
    c = np.asarray(q.c, dtype=float)
    mat = q.beta * 0.5 * (q.B + q.B.T)
    lam_b, vecs = np.linalg.eigh(mat)
    if lam_b[0] < -1e-12 * max(1.0, abs(lam_b[-1])):
        logger.info("quartic subproblem: curvature matrix indefinite, "
                    "bottom eigenvalue %.3e handled via the shifted secular path",
                    lam_b[0])
    h = _minimize_in_eigenbasis(c, lam_b, vecs, q.a, q.b)

    residual = float(np.linalg.norm(q.grad(h)))
    tol = QUARTIC_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(c)))
    if residual > tol:
        raise SubsolverError(
            f"quartic stationarity residual {residual:.3e} exceeds {tol:.3e}",
            best=h, residual=residual,
        )
    return h


def _minimize_in_eigenbasis(c, lam_b, vecs, a, b):
    """Global minimizer of the quartic with ``beta B = vecs diag(lam_b) vecs^T``."""
    lam = lam_b + a
    ct = vecs.T @ c
    c2 = ct * ct

    if b == 0.0:
        if lam.min() <= 0.0:
            raise SubsolverError(
                "b = 0 requires beta B + a I to be positive definite",
                residual=float(lam.min()),
            )
        return vecs @ (-ct / lam)

    lam_min = float(lam.min())
    mu_lo = max(0.0, -lam_min)
    if mu_lo > 0.0:
        bottom = lam - lam_min <= 1e-12 * max(1.0, abs(lam_min))
        proj = float(np.sqrt(np.sum(c2[bottom])))
        if proj <= 1e-13 * max(1.0, float(np.linalg.norm(c))):
            denom = lam[~bottom] + mu_lo
            r2_interior = float(np.sum(c2[~bottom] / (denom * denom)))
            if b * r2_interior <= mu_lo:
                # hard case: boundary solution, padded along the bottom eigenvector
                coeff = np.zeros(c.size)
                coeff[~bottom] = -ct[~bottom] / denom
                coeff[np.argmax(bottom)] += math.sqrt(max(0.0, mu_lo / b - r2_interior))
                return vecs @ coeff
    mu = _secular_root(lam, c2, b)
    return vecs @ (-ct / np.maximum(lam + mu, 1e-300))


# ---------------------------------------------------------------------------
# order-3 Bregman inner loop
# ---------------------------------------------------------------------------

def relative_smoothness_constant(tau: float) -> float:
    """k(tau) = (tau + 2) / (tau - 2), the proved relative-smoothness constant."""
    if tau <= 2:
        raise ValueError("tau > 2 required")
    return (tau + 2.0) / (tau - 2.0)


def rho_reference_coefficients(budget: InexactnessBudget, config: ModelConfig):
    """Coefficients ``(beta_B, a, Q)`` of the Bregman reference function.

    ``rho(h) = beta_B (<B h, h>/2) + a d_2(h) + Q d_4(h)`` with
    ``beta_B = 1 - 2/tau``, ``a = beta_B C2`` and
    ``Q = C4 - (sigma + kappa_t) / (3 tau)``; the last form eliminates
    ``L_3 + kappa_t`` through the sigma coupling, which is a precondition of
    the order-3 path.
    """
    smp3 = SmoothModelP3.from_budget(budget, config)
    tau = config.tau
    beta_b = 1.0 - 2.0 / tau
    kt = budget.kappa(3)
    Q = smp3.C4 - (config.sigma + kt) / (3.0 * tau)
    if Q <= 0.0:
        raise ValueError(
            "reference quartic weight must be positive; is sigma coupled to tau?"
        )
    return beta_b, beta_b * smp3.C2, Q


def rho_hessian(h: np.ndarray, B: np.ndarray, budget: InexactnessBudget,
                config: ModelConfig) -> np.ndarray:
    """Hessian of the reference function at ``h`` (for the sandwich checks)."""
    beta_b, a_coef, Q = rho_reference_coefficients(budget, config)
    h = np.asarray(h, dtype=float)
    n = h.size
    r2 = float(h @ h)
    return beta_b * B + a_coef * np.eye(n) + Q * (2.0 * np.outer(h, h) + r2 * np.eye(n))


def bregman_minimize_zeta(bundle: DerivativeBundle, budget: InexactnessBudget,
                          config: ModelConfig, max_inner: int = 200):
    """Minimize the order-3 smooth model by Bregman proximal gradient.

    Preconditions: ``p = 3``; ``sigma``, ``kappa_3`` and ``tau`` satisfy the
    coupling ``2 sigma + 2 kappa_3 = 3 tau^2 (L_3 + kappa_3)`` (use
    ``ModelConfig.coupled``). Each inner argmin is a regularized quartic in
    the fixed matrix ``B``, so its eigendecomposition is computed once and
    reused across all inner steps. Each step then costs one contraction
    ``T[h]^2``, one n-by-n product and one secular solve: the recorded
    ``zeta(h)`` comes with ``grad zeta(h)`` from ``TaylorModel.zeta_and_grad``
    through ``T[h]^3 = <T[h]^2, h>``. Stops once ``||grad zeta(h)|| <=
    INNER_GRAD_TOL`` and returns ``(h, InnerStats)``; raises
    ``SubsolverError`` carrying the best iterate when that takes more than
    ``max_inner`` steps, and ``SubsolverError`` when the model overflows.
    """
    if bundle.p != 3:
        raise ValueError("the Bregman path is the p = 3 solver")

    model = TaylorModel(bundle, budget, config)
    ktau = relative_smoothness_constant(config.tau)
    beta_b, a_coef, Q = rho_reference_coefficients(budget, config)

    B = 0.5 * (bundle.hess + bundle.hess.T)
    lam_b, vecs = np.linalg.eigh(ktau * beta_b * B)
    stats = InnerStats()

    h = np.zeros(bundle.dim)
    val, g = model.zeta_and_grad(h)  # g equals the bundle gradient at h = 0
    stats.zeta_values.append(val)
    stats.grad_norms.append(float(np.linalg.norm(g)))

    a_q = ktau * a_coef
    b_q = ktau * Q
    for _ in range(max_inner):
        if stats.grad_norms[-1] <= INNER_GRAD_TOL:
            return h, stats
        r2 = float(h @ h)
        grad_rho = beta_b * (B @ h) + a_coef * h + Q * r2 * h
        c = g - ktau * grad_rho
        h = _minimize_in_eigenbasis(c, lam_b, vecs, a_q, b_q)
        val, g = model.zeta_and_grad(h)
        stats.iterations += 1
        stats.zeta_values.append(val)
        stats.grad_norms.append(float(np.linalg.norm(g)))
    raise SubsolverError(
        f"inner loop exhausted {max_inner} steps, residual "
        f"{stats.grad_norms[-1]:.3e}",
        best=h, residual=stats.grad_norms[-1],
    )


# ---------------------------------------------------------------------------
# order-2 direct solver and generic fallback
# ---------------------------------------------------------------------------

def solve_model_p2(bundle: DerivativeBundle, budget: InexactnessBudget,
                   config: ModelConfig) -> np.ndarray:
    """Exact minimizer of the order-2 smooth model.

    The even-power model contains only ``||s||^2`` and ``||s||^4`` beyond the
    quadratic polynomial, so it maps directly onto one regularized quartic:
    quadratic weight ``2 * (kappa_1/2 + kappa_2/2 + sigma/6) eps^(1/2)`` and
    quartic weight ``4 * (sigma/6) eps^(-1/2)``.
    """
    if bundle.p != 2:
        raise ValueError("solve_model_p2 requires an order-2 bundle")
    zeta_coeffs = TaylorModel(bundle, budget, config).zeta_coefficients
    a = 2.0 * zeta_coeffs.get(2, 0.0)
    b = 4.0 * zeta_coeffs.get(4, 0.0)
    q = RegularizedQuartic(c=bundle.grad, B=bundle.hess, beta=1.0, a=a, b=b)
    return solve_regularized_quartic(q)


def generic_model_minimize(bundle: DerivativeBundle, budget: InexactnessBudget,
                           config: ModelConfig, grad_tol: float = 1e-9,
                           max_iter: int = 20000) -> np.ndarray:
    """Backtracking gradient descent on the smooth model (validation fallback).

    Trial steps are seeded with the Barzilai-Borwein length and safeguarded
    by an Armijo backtracking line search, which keeps the fallback usable on
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
