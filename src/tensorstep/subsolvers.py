"""Minimizers for the smooth model at one outer iteration.

The workhorse is ``solve_regularized_quartic``: the global minimizer of

    q(h) = <c, h> + <B h, h>/2 + a/2 ||h||^2 + b/4 ||h||^4

via one symmetric eigendecomposition of ``B`` followed by monotone
scalar root finding. Writing ``mu = a + b ||h||^2``, stationarity reads
``(B + mu I) h = -c`` and ``||h(mu)||`` is strictly decreasing in
``mu``, so the scalar equation has a unique root; global optimality
additionally requires ``B + mu I >= 0``, which pins ``mu`` to the
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
n-by-n matrix-vector product per step. A step then costs one contraction
``T[h]^2``, one secular solve and four n-by-n matrix-vector products:
``B h`` for ``grad rho(h)``, ``hess h`` inside ``TaylorModel.zeta_and_grad``,
and the two changes of eigenbasis, ``vecs^T c`` and ``vecs`` times the
solution's coefficients. ``grad zeta(h)`` and ``zeta(h)`` both come from the
one ``T[h]^2``, the value through ``T[h]^3 = <T[h]^2, h>``.
The secular solve is warm-started from the previous step's ``mu``, which
moves little from step to step, so it typically takes 4 to 7 evaluations of
the secular function, the two that open its bracket included.

``solve_model_p2`` reduces the even-power order-2 model to a single quartic
solve. The Hessian of the reference function and the first-order minimizer
that cross-checks these solvers are lemma checks, kept in ``tests/lemmas.py``.
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
    TaylorModel,
    zeta_radial_coefficients,
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
    """Data of ``<c,h> + <B h,h>/2 + a/2 ||h||^2 + b/4 ||h||^4``."""

    c: np.ndarray
    B: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        if self.a < 0 or self.b <= 0:
            raise ValueError("need a quadratic weight a >= 0 and a quartic weight b > 0")

    def grad(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        r2 = float(h @ h)
        return self.c + self.B @ h + (self.a + self.b * r2) * h


@dataclass
class InnerStats:
    """Per-call record of the inner loop, kept for diagnostics and tests."""

    iterations: int = 0
    zeta_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)


def _secular_root(lam: np.ndarray, c2: np.ndarray, b: float, mu0=None) -> float:
    """Unique root of ``chi(mu) = b sum c2_j/(lam_j+mu)^2 - mu`` above ``-lam_min``.

    ``lam`` already includes the ``a`` shift. Strictly decreasing chi makes a
    safeguarded Newton/bisection hybrid unconditionally convergent. A guess
    ``mu0`` strictly inside the cold bracket starts the iteration in place of
    the bracket midpoint; any other guess is ignored. Convergence is tested
    before the bracket safeguard, so a Newton step that lands on the root is
    returned rather than replaced by a bisection. Raises ``SubsolverError``
    when the iteration does not converge, which only non-finite data reach.
    """
    lam_min = float(lam.min())
    mu_lo = max(0.0, -lam_min)
    # open the bracket just off the pole when the bottom eigenvalue is active
    bump = max(1e-300, 1e-14 * max(1.0, abs(lam_min)))

    def chi(mu):
        d = lam + mu
        return b * float((c2 / (d * d)).sum()) - mu

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
    mu = mu0 if mu0 is not None and lo < mu0 < hi else 0.5 * (lo + hi)
    for _ in range(200):
        # chi and chi' share one d = lam + mu
        d = lam + mu
        d2 = d * d
        val = b * float((c2 / d2).sum()) - mu
        if val > 0.0:
            lo = mu
        else:
            hi = mu
        step = val / (-2.0 * b * float((c2 / (d2 * d)).sum()) - 1.0)
        nxt = mu - step
        if abs(nxt - mu) <= SECULAR_TOL * max(1.0, abs(mu)):
            return nxt
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        mu = nxt
    raise SubsolverError("secular root did not converge in 200 steps")


def solve_regularized_quartic(q: RegularizedQuartic) -> np.ndarray:
    """Global minimizer of a regularized quartic, to tight stationarity.

    Postcondition: ``||grad q(h*)|| <= 1e-10 * max(1, ||c||)``.
    """
    c = np.asarray(q.c, dtype=float)
    mat = 0.5 * (q.B + q.B.T)
    lam_b, vecs = _eigh(mat)
    if lam_b[0] < -1e-12 * max(1.0, abs(lam_b[-1])):
        logger.info("quartic subproblem: curvature matrix indefinite, "
                    "bottom eigenvalue %.3e handled via the shifted secular path",
                    lam_b[0])
    h, _ = _minimize_in_eigenbasis(c, lam_b, vecs, q.a, q.b)

    residual = float(np.linalg.norm(q.grad(h)))
    tol = QUARTIC_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(c)))
    if residual > tol:
        raise SubsolverError(
            f"quartic stationarity residual {residual:.3e} exceeds {tol:.3e}",
            best=h, residual=residual,
        )
    return h


def _eigh(mat: np.ndarray):
    """``np.linalg.eigh`` of a symmetric curvature matrix that must be finite.

    Raises ``SubsolverError`` when it is not (an overflowing Hessian), which
    LAPACK would otherwise report as eigenvalues that did not converge.
    """
    if not np.all(np.isfinite(mat)):
        raise SubsolverError("curvature matrix of the model is not finite")
    return np.linalg.eigh(mat)


def _minimize_in_eigenbasis(c, lam_b, vecs, a, b, mu0=None):
    """Global minimizer of the quartic with ``B = vecs diag(lam_b) vecs^T``.

    Returns ``(h, mu)`` with ``mu = b ||h||^2``, the shift of ``lam_b + a`` at
    the solution; ``mu0``, a guess of it, warm-starts the secular root.
    """
    lam = lam_b + a
    ct = vecs.T @ c
    c2 = ct * ct
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
                return vecs @ coeff, mu_lo
    mu = _secular_root(lam, c2, b, mu0)
    return vecs @ (-ct / np.maximum(lam + mu, 1e-300)), mu


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
    ``Q = C4 - (sigma + kappa_t) / (3 tau)``, where the order-3 smooth model
    is ``phi + C2 d_2 + C4 d_4`` plus a constant:
    ``C2 = (kappa_1 + kappa_2 + kappa_3/6) eps^(2/3)`` and
    ``C4 = sigma/2 + kappa_3/3``. The form of ``Q`` eliminates
    ``L_3 + kappa_t`` through the sigma coupling, which is a precondition of
    the order-3 path.
    """
    kg, kb, kt = budget.kappas
    C2 = (kg + kb + kt / 6.0) * budget.eps ** (2.0 / 3.0)
    C4 = config.sigma / 2.0 + kt / 3.0
    tau = config.tau
    beta_b = 1.0 - 2.0 / tau
    Q = C4 - (config.sigma + kt) / (3.0 * tau)
    if Q <= 0.0:
        raise ValueError(
            "reference quartic weight must be positive; is sigma coupled to tau?"
        )
    return beta_b, beta_b * C2, Q


def bregman_minimize_zeta(bundle: DerivativeBundle, budget: InexactnessBudget,
                          config: ModelConfig, max_inner: int = 200):
    """Minimize the order-3 smooth model by Bregman proximal gradient.

    Preconditions: ``p = 3``; ``sigma``, ``kappa_3`` and ``tau`` satisfy the
    coupling ``2 sigma + 2 kappa_3 = 3 tau^2 (L_3 + kappa_3)`` (use
    ``ModelConfig.coupled``). Each inner argmin is a regularized quartic in
    the fixed matrix ``B``, so its eigendecomposition is computed once and
    reused across all inner steps. Each step then costs one contraction
    ``T[h]^2``, four n-by-n matrix-vector products (``B h``, ``hess h`` and
    the two changes of eigenbasis) and one secular solve, warm-started from
    the previous step's ``mu``: the recorded ``zeta(h)`` comes with
    ``grad zeta(h)`` from ``TaylorModel.zeta_and_grad`` through
    ``T[h]^3 = <T[h]^2, h>``. Stops once ``||grad zeta(h)|| <=
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
    lam_b, vecs = _eigh(ktau * beta_b * B)
    stats = InnerStats()

    h = np.zeros(bundle.dim)
    val, g = model.zeta_and_grad(h)  # g equals the bundle gradient at h = 0
    stats.zeta_values.append(val)
    stats.grad_norms.append(float(np.linalg.norm(g)))

    a_q = ktau * a_coef
    b_q = ktau * Q
    mu = None  # secular shift of the previous step, the next step's warm start
    for _ in range(max_inner):
        if stats.grad_norms[-1] <= INNER_GRAD_TOL:
            return h, stats
        r2 = float(h @ h)
        grad_rho = beta_b * (B @ h) + a_coef * h + Q * r2 * h
        c = g - ktau * grad_rho
        h, mu = _minimize_in_eigenbasis(c, lam_b, vecs, a_q, b_q, mu)
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
# order-2 direct solver
# ---------------------------------------------------------------------------

def solve_model_p2(bundle: DerivativeBundle, budget: InexactnessBudget,
                   config: ModelConfig) -> np.ndarray:
    """Exact minimizer of the order-2 smooth model.

    The even-power model contains only ``||s||^2`` and ``||s||^4`` beyond the
    quadratic polynomial, so it maps directly onto one regularized quartic:
    quadratic weight ``2 * (kappa_1/2 + kappa_2/2 + sigma/6) eps^(1/2)`` and
    quartic weight ``4 * (sigma/6) eps^(-1/2)``.
    """
    if bundle.p != 2 or budget.p != 2:
        raise ValueError("solve_model_p2 requires an order-2 bundle and budget")
    zeta_coeffs = zeta_radial_coefficients(budget, config)
    a = 2.0 * zeta_coeffs.get(2, 0.0)
    b = 4.0 * zeta_coeffs.get(4, 0.0)
    q = RegularizedQuartic(c=bundle.grad, B=bundle.hess, a=a, b=b)
    return solve_regularized_quartic(q)
