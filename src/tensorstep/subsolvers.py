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
in the fixed matrix ``k(tau) (1 - 2/tau) B``, so the loop factors the
Hessian ``B = vecs diag(lam) vecs^T`` once and keeps its iterate as the
eigen-coefficients ``y`` of ``h = vecs y``. In those coordinates ``B`` is
the diagonal ``lam``, so ``zeta(h)``, ``grad zeta(h)`` and the Bregman
linearization are elementwise in ``lam``, ``vecs^T grad`` and ``y``; each
inner argmin is solved by the coefficient core that
``solve_regularized_quartic`` also uses, hard case included, but without its
residual postcondition. A step then costs one contraction ``T[h]^2``, two
n-by-n matrix-vector products, ``h = vecs y`` for the contraction and
``vecs^T T[h]^2`` to bring it back, and one secular solve. The value comes
from the same contraction through ``T[h]^3 = <T[h]^2, h>``.
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
    c_norm = float(np.linalg.norm(c))
    coeff, _ = _quartic_coefficients(vecs.T @ c, lam_b + q.a, q.b, c_norm=c_norm)
    h = vecs @ coeff

    residual = float(np.linalg.norm(q.grad(h)))
    tol = QUARTIC_RESIDUAL_TOL * max(1.0, c_norm)
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


def _quartic_coefficients(ct, lam, b, mu0=None, c_norm=None):
    """Eigen-coefficients of the global minimizer of a regularized quartic.

    The quartic is ``<c,h> + <B h,h>/2 + a/2 ||h||^2 + b/4 ||h||^4`` with
    ``B = vecs diag(lam_B) vecs^T``; the arguments are its data in that
    eigenbasis, ``ct = vecs^T c`` and ``lam = lam_B + a``. Returns ``(y, mu)``:
    the minimizer is ``vecs y``, and ``mu = b ||y||^2`` is the shift of
    ``lam`` at the solution; ``mu0``, a guess of it, warm-starts the secular
    root. ``c_norm`` is ``||c||``, the scale of the hard-case test
    (``||ct||`` when not given).
    """
    c2 = ct * ct
    lam_min = float(lam.min())
    mu_lo = max(0.0, -lam_min)
    if mu_lo > 0.0:
        bottom = lam - lam_min <= 1e-12 * max(1.0, abs(lam_min))
        proj = float(np.sqrt(np.sum(c2[bottom])))
        if c_norm is None:
            c_norm = float(np.linalg.norm(ct))
        if proj <= 1e-13 * max(1.0, c_norm):
            denom = lam[~bottom] + mu_lo
            r2_interior = float(np.sum(c2[~bottom] / (denom * denom)))
            if b * r2_interior <= mu_lo:
                # hard case: boundary solution, padded along the bottom eigenvector
                coeff = np.zeros(ct.size)
                coeff[~bottom] = -ct[~bottom] / denom
                coeff[np.argmax(bottom)] += math.sqrt(max(0.0, mu_lo / b - r2_interior))
                return coeff, mu_lo
    mu = _secular_root(lam, c2, b, mu0)
    return -ct / np.maximum(lam + mu, 1e-300), mu


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


class EigenbasisZeta:
    """The order-3 smooth model ``zeta`` in the eigenbasis of the Hessian.

    With the symmetrized Hessian ``B = vecs diag(lam) vecs^T`` and a point
    ``h = vecs y``, ``zeta(h)`` and ``vecs^T grad zeta(h)`` are elementwise in
    ``lam``, ``y`` and ``vecs^T grad``, plus one contraction ``T[h]^2``
    brought into the eigenbasis; the cubic term of the value is
    ``T[h]^3 = <vecs^T T[h]^2, y>``. This is the evaluation the inner loop of
    ``bregman_minimize_zeta`` takes in place of ``TaylorModel.zeta`` and
    ``TaylorModel.zeta_grad``.
    """

    def __init__(self, bundle: DerivativeBundle, budget: InexactnessBudget,
                 config: ModelConfig):
        self.bundle = bundle
        # zeta - phi = z0 + z2 r^2 + z4 r^4 at order 3
        coeffs = zeta_radial_coefficients(budget, config)
        self.z0, self.z2, self.z4 = (coeffs.get(power, 0.0) for power in (0, 2, 4))
        self.lam, self.vecs = _eigh(0.5 * (bundle.hess + bundle.hess.T))
        self.gt = self.vecs.T @ bundle.grad

    def value_and_grad(self, y: np.ndarray, h: np.ndarray) -> tuple:
        """``(zeta(h), vecs^T grad zeta(h))`` at ``h = vecs y``."""
        b = self.bundle
        vt = self.vecs.T @ b.third.apply2(h)
        r2 = float(y @ y)
        ly = self.lam * y
        g = self.gt + ly + 0.5 * vt + (2.0 * self.z2 + 4.0 * self.z4 * r2) * y
        val = (b.value + float(self.gt @ y) + 0.5 * float(ly @ y)
               + float(vt @ y) / 6.0 + self.z0 + (self.z2 + self.z4 * r2) * r2)
        return val, g


def bregman_minimize_zeta(bundle: DerivativeBundle, budget: InexactnessBudget,
                          config: ModelConfig, max_inner: int = 200):
    """Minimize the order-3 smooth model by Bregman proximal gradient.

    Preconditions: ``p = 3``; ``sigma``, ``kappa_3`` and ``tau`` satisfy the
    coupling ``2 sigma + 2 kappa_3 = 3 tau^2 (L_3 + kappa_3)`` (use
    ``ModelConfig.coupled``). Each inner argmin is a regularized quartic in
    a fixed multiple of ``B``, so the eigendecomposition of ``B`` itself is
    computed once, and the iterate is kept as its coefficients ``y`` in that
    eigenbasis. Each step then costs one contraction ``T[h]^2``, two n-by-n
    matrix-vector products (``h = vecs y`` and ``vecs^T T[h]^2``) and one
    secular solve, warm-started from the previous step's ``mu``; ``zeta(h)``,
    ``grad zeta(h)`` and the Bregman linearization are elementwise in the
    eigenvalues, with the cubic term of the value from
    ``T[h]^3 = <T[h]^2, h>``. Stops once ``||grad zeta(h)|| <=
    INNER_GRAD_TOL`` and returns ``(h, InnerStats)``; raises
    ``SubsolverError`` carrying the last iterate when that takes more than
    ``max_inner`` steps, and ``SubsolverError`` when the model is not finite.
    """
    if bundle.p != 3 or budget.p != 3:
        raise ValueError("the Bregman path is the p = 3 solver")

    ktau = relative_smoothness_constant(config.tau)
    beta_b, a_coef, Q = rho_reference_coefficients(budget, config)
    zeta = EigenbasisZeta(bundle, budget, config)
    # every step's quartic: curvature k(tau) (beta_b B + a_coef I), quartic weight k(tau) Q
    lam_q = ktau * beta_b * zeta.lam + ktau * a_coef
    b_q = ktau * Q
    stats = InnerStats()

    y = np.zeros(bundle.dim)
    h = np.zeros(bundle.dim)
    mu = None  # secular shift of the previous step, the next step's warm start
    while True:
        val, g = zeta.value_and_grad(y, h)
        r2 = float(y @ y)
        g_norm = float(np.linalg.norm(g))
        if not (math.isfinite(val) and math.isfinite(g_norm)):
            raise SubsolverError(
                f"smooth model is not finite at ||s|| = {math.sqrt(r2):.3e}")
        stats.zeta_values.append(val)
        stats.grad_norms.append(g_norm)
        if g_norm <= INNER_GRAD_TOL:
            return h, stats
        if stats.iterations == max_inner:
            raise SubsolverError(
                f"inner loop exhausted {max_inner} steps, residual {g_norm:.3e}",
                best=h, residual=g_norm,
            )
        # in eigen coordinates k(tau) grad rho(h) is (lam_q + b_q r^2) y, so this is vecs^T c
        y, mu = _quartic_coefficients(g - (lam_q + b_q * r2) * y, lam_q, b_q, mu)
        h = zeta.vecs @ y
        stats.iterations += 1


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
