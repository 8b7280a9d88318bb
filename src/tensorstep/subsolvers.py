"""Minimizers for the smooth model at one outer iteration.

Both model orders minimize the smooth model through one subproblem, the
global minimizer of the regularized quartic

    q(h) = <c, h> + <B h, h>/2 + a/2 ||h||^2 + b/4 ||h||^4

in the eigenbasis of ``B``, the model's Hessian or a fixed multiple of it,
which ``EigenbasisZeta`` factors, or at order 3 takes from an earlier outer
step (see below); the scalar root of ``solve_regularized_quartic`` does the
rest. Writing ``mu = a + b ||h||^2``,
stationarity reads ``(B + mu I) h = -c``, and global optimality requires
``B + mu I >= 0``: ``mu`` lies at or above the pole
``mu_lo = max(0, -lambda_min(B + a I))``. The unknown is the distance
``t = mu - mu_lo`` above the pole, so each ``lambda_j + mu`` keeps full
relative precision however close the root is (Nesterov, Math. Program.
2021). In the hard case (More & Sorensen 1983) ``c`` has no weight at all on
the pole's eigenvectors, ``mu = mu_lo``, and an eigenvector correction
completes the solution.

For ``p = 3``, ``bregman_minimize_zeta`` runs the relative-smoothness
proximal-gradient iteration

    h_{k+1} = argmin { <grad zeta(h_k), h> + L_k * breg_rho(h_k, h) }

with reference function ``rho(h) = (1 - 2/tau)(<B h, h>/2 + C2 d_2(h))
+ Q d_4(h)``. Under the sigma coupling ``2 sigma + 2 kappa_t = 3 tau^2
(L_3 + kappa_t)`` the model satisfies ``hess rho <= hess zeta <= k(tau) hess
rho`` with ``k(tau) = (tau + 2)/(tau - 2)``, so ``L_k = k(tau)`` decreases
the model monotonically at the linear rate ``1 - 1/k(tau)`` (Lu, Freund &
Nesterov, arXiv:1610.05708). That constant is the worst case: at
``tau = 4`` and ``kappa = 0`` the model's quartic weight is only 1.2 times
rho's, and at ``k(tau) = 3`` each step shrinks the model gradient by a
factor near ``1 - 1.2/3 = 0.6``. So ``L_k`` is
found by backtracking. Each step first tries ``max(1, SHRINK L_{k-1})``, a
call's first step ``L_{-1}`` (see below) when ``1 <= L_{-1} <= CONSTANT_CAP
k(tau)`` and ``max(1, SHRINK k(tau))`` otherwise, and accepts the trial
``h+`` at constant ``L`` when

    zeta(h+) <= zeta(h_k) + <grad zeta(h_k), h+ - h_k> + L breg_rho(h+, h_k),

the descent inequality the rate proof uses. Every trial takes that test, at
``k(tau)`` too, where the sandwich proves it in exact arithmetic. A trial that
fails it, or does not move the iterate, is rejected and retried at
``min(CONSTANT_CAP k(tau), GROW L)``, and a trial rejected at that cap
raises ``SubsolverError``. That one rule holds on every eigenbasis the loop
is given (see below).

``L_{-1}`` is the last constant the previous outer step's call accepted,
which the model step carries to the next call with its step and its basis.
The models of consecutive outer steps are nearly equal, and so are the
constants that pass their tests, which stay below ``k(tau)`` (on the calls
that ``CONSTANT_CAP`` counts, at most 0.9 ``k(tau)``, the cold first trial,
and at most 0.71 ``k(tau)`` on a stale basis), so a call that starts again
from ``SHRINK k(tau)`` spends its first steps at constants that its model
does not need. A carried constant the next
model does not pass is rejected and grown as any trial is; one outside
``[1, CONSTANT_CAP k(tau)]``, and a first call, start from ``SHRINK k(tau)``.
Only the first trial changes: the test and the stop are the same, so a call
that starts from a carried constant keeps every property of a cold one
stated here.

The loop stops once

    ||grad zeta(h)|| <= max(INNER_GRAD_TOL, INNER_REL_TOL ||grad f(x)||),

with ``||grad f(x)|| = ||vecs^T grad f(x)||`` (``vecs`` is orthogonal) taken
once per call. This is the inexact tensor step of Grapiglia & Nesterov
(arXiv:1907.13023), which accepts an approximate model minimizer ``x+`` once
the model gradient there is at most ``theta ||grad f(x+)||``; the gradient
at ``x`` stands in for the one at ``x+``, which the loop does not have.
Doikov & Nesterov (arXiv:2002.09403) keep the rate of tensor methods with
inner accuracies that tighten in the same way as the outer iterates
converge. The stop decides only where the loop ends, not what a returned
step satisfies: every accepted step lowers ``zeta`` and the start is no
worse than ``zeta(0)``, so wherever ``zeta`` majorizes ``f``, any returned
``h`` has ``f(x + h) <= zeta(h) <= zeta(0) = f(x) + z0`` (``z0 = 0`` on an
exact bundle), and an exact run stays monotone however early the loop
stops. Near a minimizer of ``f``, ``INNER_REL_TOL ||grad f(x)||`` falls
below the floor ``INNER_GRAD_TOL``, and a run's last steps are solved to
that absolute tolerance. The relative stop also keeps most calls off the
rounding floor of ``zeta``, where the descent test cannot tell a constant
that holds from one that does not (see below).

Each trial is one regularized quartic in ``L (1 - 2/tau) B``, so the loop
factors the Hessian ``B = vecs diag(lam) vecs^T`` once and keeps its
iterate as the eigen-coefficients ``y`` of ``h = vecs y``. In those
coordinates ``rho``, its Bregman distance and each inner argmin are
elementwise in ``lam`` and ``y``, and each argmin is one
``solve_regularized_quartic``, hard case included. The model is read only
through the bundle's ``taylor_terms(h)``, the rows ``B h`` and ``T[h]^2``,
projected on ``vecs``: ``vecs^T grad zeta(h)`` is ``gt`` plus one projection
of ``B h + T[h]^2 / 2`` plus the radial terms, and ``zeta(h) - zeta(0)`` sums
``<gt, y>``, ``<vecs^T B h, y>/2``, ``<vecs^T T[h]^2, y>/6`` (the cubic term
``T[h]^3 = <T[h]^2, h>``) and the radial terms. On an exact logistic bundle
both rows come from one pass over the rows that the Hessian and the third
derivative sum over, Hessian-free products (Pearlmutter, Neural Comput.
1994), so no trial reads the dense Hessian (``models.DerivativeBundle``). A
trial costs that pass, the n-by-n products ``h = vecs y``, ``vecs^T (B h +
T[h]^2 / 2)`` for the gradient and ``vecs^T`` of both rows for the value,
and one secular solve. An
accepted trial's rows serve the next step, so only a rejected trial costs an
extra pass. The test compares ``zeta(h) - zeta(0)``, summed without
``f(x)``, whose rounding would otherwise decide it long before the
stop. The secular solve is warm-started from the previous
step's shift ``mu``, scaled by the ratio of the constants (at the solution
``mu = L Q ||y||^2``), so it typically takes 3 to 6 evaluations of the
secular function, the one that opens its bracket included.

The loop itself is warm-started from the previous outer step ``h0``, which
moves little from one outer step to the next. It starts at ``alpha h0``, the
minimizer of ``zeta`` on the line through 0 and ``h0``: with ``yp = vecs^T h0``
and ``(by, vt)`` the projections of the rows at ``h0``, ``zeta(alpha h0) -
zeta(0)`` is the quartic ``alpha A1 + alpha^2 A2 + alpha^3 A3 + alpha^4 A4``
with ``A1 = <gt, yp>``, ``A2 = <by, yp>/2 + z2 r^2``, ``A3 = <vt, yp>/6`` and
``A4 = z4 r^4`` (``r = ||yp||``), so ``alpha`` is the best real root of its
cubic derivative, or 0 (the cold start) when none goes below 0. The start is
no worse than 0, so the accepted step still has ``zeta(h) <= zeta(0)``. The
first evaluation of the loop scales the rows at ``h0`` to its start, ``B h``
by ``alpha`` and ``T[h]^2`` by ``alpha^2``, so a warm-started call costs no
more passes than a cold one, which is the same path with ``h0 = 0``.

The loop also runs on a stale eigenbasis: ``rho`` built on ``vecs diag(lam)
vecs^T``, the last Hessian the run factored, while ``zeta`` keeps this
step's exact gradient, ``B`` and third derivative and is evaluated as above,
in whatever orthonormal basis ``vecs`` is. Relative smoothness survives a
reference that is spectrally close to ``B`` (Lu, Freund & Nesterov), but
``k(tau)`` is then no longer proved, and ``rho``'s curvature stays ``beta_B
lam + a`` on the stale eigenvalues: a step may need a constant above
``k(tau)``, which the cap leaves room for. A step on a stale basis factors
nothing and, on an exact logistic bundle, builds no Hessian at all: the
factorization and the dense Hessian, both paid only when the basis is
refreshed, are the cost of an outer step at large n (Doikov, Chayti & Jaggi,
"Second-order optimization with lazy Hessians", arXiv:2212.00781).

The basis is all that tells a stale call from a fresh one: the rule for the
constant, the evaluation and the stop are the same, and a call given the
basis it would factor itself takes the fresh call's trials bitwise. The cap
also ends a call at the rounding floor of ``zeta``, on any basis, where the
test can fail at every constant: the model change it compares is rounding,
and a larger constant only shrinks the decrease it predicts. A call reaches
that floor only when its stop is the absolute ``INNER_GRAD_TOL``, near a
minimizer of ``f``; the relative stop ends calls farther out, where a step's
predicted decrease is well above the rounding of ``zeta(0)``. An accepted
step lowers ``zeta`` on any basis, and the stop rule is the same, because
``vecs`` is orthogonal and ``||vecs^T grad zeta|| = ||grad zeta||`` and
``||gt|| = ||grad f(x)||``: a stale call that converges returns a step as
valid as a fresh call's. Which basis a call gets is the model step's choice
(``methods._model_method``), which redoes a step whose stale call raised on
a fresh factorization.

``solve_model_p2`` reduces the even-power order-2 model to a single quartic
solve on the same factorization. The Hessian of the reference function and
the first-order minimizer that cross-checks these solvers are lemma checks,
kept in ``tests/lemmas.py``.
"""

from __future__ import annotations

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

#: Required stationarity residual of the order-2 step, relative to max(1, ||grad f||).
QUARTIC_RESIDUAL_TOL = 1e-10

#: Floor of the inner Bregman loop's stop: it stops at a model-gradient norm
#: of at most INNER_REL_TOL ||grad f(x)||, or this absolute norm when larger.
INNER_GRAD_TOL = 1e-9

#: Scalar tolerance of the secular root finder.
SECULAR_TOL = 1e-14

#: Inner Bregman steps after which ``bregman_minimize_zeta`` gives up.
MAX_INNER_STEPS = 200

#: An inner step first tries this multiple of the last accepted
#: relative-smoothness constant, and at least 1; a call's first step tries the
#: constant its caller carried from the previous call, or this multiple of k(tau).
SHRINK = 0.9

#: A rejected trial's constant times this, and at most CONSTANT_CAP times
#: k(tau), is the next trial's.
GROW = 1.2

#: A trial's constant may grow to this multiple of k(tau), on any
#: eigenbasis, and a call raises when a trial is rejected there. Over the 711
#: calls, 38 fresh and 673 stale, of the itm-p3 and stm-p3 golden configs and
#: of the three order-3 benchmark workloads at seeds 1 to 10, no call raised
#: and every accepted constant was at most 0.9 k(tau), the cold first trial
#: SHRINK k(tau) (0.71 k(tau) on the stale calls). 89 trials were rejected,
#: each below k(tau) in a step that then accepted a larger constant; 33 of
#: them were a call's first trial, the constant carried from the previous
#: call. A call that runs on to the floor INNER_GRAD_TOL can fail the test at
#: every constant, its model change at the rounding of zeta(0), and raises
#: here.
CONSTANT_CAP = 10.0

#: The inner loop stops once ||grad zeta(h)|| is at most this multiple of
#: ||grad f(x)||, the gradient at the outer iterate, or INNER_GRAD_TOL.
INNER_REL_TOL = 1e-3


@dataclass
class InnerStats:
    """Per-call record of the inner loop.

    ``iterations`` counts accepted steps. ``zeta_values`` and ``grad_norms``
    hold ``zeta`` and ``||grad zeta||`` at the start and after each accepted
    step, and ``constants`` the relative-smoothness constant of each accepted
    step. ``rejected`` holds ``(step, constant)`` for each rejected trial,
    in order, where ``step`` counts the steps accepted before it. ``basis``
    is the ``(lam, vecs)`` that ``rho`` was built on, which the model step
    passes to its next call, with the last of ``constants`` as its
    ``const0``.
    """

    iterations: int = 0
    zeta_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    constants: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    basis: tuple = ()


def _secular_root(s: np.ndarray, c2: np.ndarray, b: float, mu_lo: float,
                  t0=None) -> float:
    """Root ``t > 0`` of ``chi(t) = b sum c2_j/(s_j+t)^2 - (mu_lo + t)``.

    ``t`` is the distance of the shift ``mu = mu_lo + t`` above the pole, and
    ``s = lam + mu_lo`` (``lam`` includes the ``a`` shift) is exactly 0 on the
    pole entries; the caller has taken out the hard case, which has no root.
    chi is decreasing and convex: safeguarded Newton/bisection converges on
    ``(0, hi]``. A cold solve starts at ``sqrt(w / (mu_lo + hi))``, below the
    root for a pole weight ``w > 0``, or else at the midpoint; a guess ``t0``
    strictly inside the bracket replaces that start. The stop test
    ``SECULAR_TOL max(1, t)`` is ``SECULAR_TOL t`` above a pole
    (``mu_lo > 0``); it comes before the safeguard, so a Newton step that
    lands on the root is returned. Raises ``SubsolverError`` when the
    iteration does not converge, which only non-finite data reach.
    """
    def chi(t):
        d = s + t
        return b * float((c2 / d / d).sum()) - (mu_lo + t)

    lo, hi = 0.0, 1.0
    while chi(hi) > 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise SubsolverError("secular bracket expansion failed")
    w = b * float(c2[s == 0.0].sum())
    cold = math.sqrt(w / (mu_lo + hi)) if w > 0.0 else 0.5 * (lo + hi)
    t = t0 if t0 is not None and lo < t0 < hi else cold
    for _ in range(200):
        # chi and chi' share one ratio c2 / (s + t)^2, divided twice: d * d
        # overflows where the ratio is still finite
        d = s + t
        ratio = c2 / d / d
        val = b * float(ratio.sum()) - (mu_lo + t)
        if val > 0.0:
            lo = t
        else:
            hi = t
        step = val / (-2.0 * b * float((ratio / d).sum()) - 1.0)
        nxt = t - step
        if abs(nxt - t) <= SECULAR_TOL * (t if mu_lo > 0.0 else max(1.0, t)):
            return nxt
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        t = nxt
    raise SubsolverError("secular root did not converge in 200 steps")


def solve_regularized_quartic(ct, lam, b, mu0=None):
    """Eigen-coefficients of the global minimizer of a regularized quartic.

    The quartic is ``<c,h> + <B h,h>/2 + a/2 ||h||^2 + b/4 ||h||^4`` with
    ``B = vecs diag(lam_B) vecs^T``; the arguments are its data in that
    eigenbasis, ``ct = vecs^T c`` and ``lam = lam_B + a``, so a weight ``a``
    of either sign is only a shift of ``lam``. Returns ``(y, mu)``:
    the minimizer is ``vecs y``, and ``mu = b ||y||^2`` is the shift of
    ``lam`` at the solution; ``mu0``, a guess of it, warm-starts the secular
    root. With ``mu_lo = max(0, -min(lam))`` and ``s = lam + mu_lo``, exactly
    0 on the pole entries, ``mu = mu_lo + t``. The hard case has ``ct`` exactly
    0 there and ``b ||ct/s||^2 <= mu_lo`` on the rest: then ``mu = mu_lo``, and
    ``y`` is padded along the first pole entry to ``b ||y||^2 = mu_lo``.
    Raises ``ValueError`` unless the quartic weight ``b`` is positive and
    finite.
    """
    # NaN passes b <= 0, so finiteness is asked first
    if not (math.isfinite(b) and b > 0):
        raise ValueError(f"need a finite quartic weight b > 0, got {b!r}")
    c2 = ct * ct
    mu_lo = max(0.0, -float(lam.min()))
    s = lam + mu_lo
    pole = s == 0.0
    if pole.any() and not c2[pole].any():
        rest = ~pole
        r2_rest = float(np.sum(c2[rest] / (s[rest] * s[rest])))
        if b * r2_rest <= mu_lo:
            coeff = np.zeros(ct.size)
            coeff[rest] = -ct[rest] / s[rest]
            coeff[np.argmax(pole)] = math.sqrt(max(0.0, mu_lo / b - r2_rest))
            return coeff, mu_lo
    t = _secular_root(s, c2, b, mu_lo, None if mu0 is None else mu0 - mu_lo)
    return -ct / (s + t), mu_lo + t


# ---------------------------------------------------------------------------
# order-3 Bregman inner loop
# ---------------------------------------------------------------------------

def relative_smoothness_constant(tau: float) -> float:
    """k(tau) = (tau + 2) / (tau - 2), the proved relative-smoothness constant."""
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
    """The smooth model ``zeta`` in an eigenbasis of a Hessian.

    Construction factors the symmetrized Hessian ``B = vecs diag(lam)
    vecs^T``, on which both orders solve their quartics, unless it is given
    ``basis``, the ``(lam, vecs)`` of an earlier Hessian (a stale basis). It
    raises ``SubsolverError`` when the ``B`` it factors is not finite (an
    overflowing Hessian), which LAPACK would report as eigenvalues that did
    not converge. At order 3 the evaluation does not depend on which basis
    it holds: with ``h = vecs y``, ``zeta(h)`` and ``vecs^T grad zeta(h)``
    come from the bundle's ``taylor_terms(h)``, the rows ``B h`` and
    ``T[h]^2``, projected on ``vecs``, and from ``y`` and ``gt = vecs^T
    grad``; the cubic term of the value is ``T[h]^3 = <vecs^T T[h]^2, y>``.
    ``change_and_grad`` is the evaluation the inner loop of
    ``bregman_minimize_zeta`` takes in place of ``TaylorModel.zeta`` and
    ``TaylorModel.zeta_grad``.
    """

    def __init__(self, bundle: DerivativeBundle, budget: InexactnessBudget,
                 config: ModelConfig, basis=None):
        self.bundle = bundle
        # zeta - phi = z0 + z2 r^2 + z4 r^4
        self.z0, self.z2, self.z4 = zeta_radial_coefficients(budget, config)
        self.value0 = bundle.value + self.z0
        if basis is None:
            mat = 0.5 * (bundle.hess + bundle.hess.T)
            if not np.all(np.isfinite(mat)):
                raise SubsolverError("curvature matrix of the model is not finite")
            basis = np.linalg.eigh(mat)
        self.lam, self.vecs = basis
        self.gt = self.vecs.T @ bundle.grad

    def change_and_grad(self, y: np.ndarray, h: np.ndarray, terms=None) -> tuple:
        """``(zeta(h) - zeta(0), vecs^T grad zeta(h))`` at ``h = vecs y``.

        ``terms``, when given, is the bundle's ``taylor_terms(h)``, which is
        then not taken. The change is summed without ``zeta(0) = value0 =
        f(x) + z0``, so it keeps the precision of its own size rather than
        that of ``f(x)``.
        """
        if terms is None:
            terms = self.bundle.taylor_terms(h)
        by, vt = terms @ self.vecs
        r2 = float(y @ y)
        # one projection of B h + T[h]^2 / 2 rounds less than a sum of two
        g = self.gt + self.vecs.T @ (terms[0] + 0.5 * terms[1])
        change = (float(self.gt @ y) + 0.5 * float(by @ y) + float(vt @ y) / 6.0
                  + (self.z2 + self.z4 * r2) * r2)
        return change, g + (2.0 * self.z2 + 4.0 * self.z4 * r2) * y

    def line_start(self, h0: np.ndarray) -> tuple:
        """``(y, h, terms)`` at ``alpha h0``, the minimizer of ``zeta`` on the
        line through 0 and ``h0``, with ``terms``, the bundle's
        ``taylor_terms(h)``, scaled from those at ``h0``: ``B h`` by ``alpha``
        and ``T[h]^2`` by ``alpha^2``. ``alpha`` is 0 when no point of the
        line lies below ``zeta(0)``."""
        yp = self.vecs.T @ h0
        terms = self.bundle.taylor_terms(h0)
        by, vt = terms @ self.vecs
        r2 = float(yp @ yp)
        alpha = _quartic_line_minimizer(
            float(self.gt @ yp),
            0.5 * float(by @ yp) + self.z2 * r2,
            float(vt @ yp) / 6.0,
            self.z4 * r2 * r2,
        )
        if alpha == 0.0:
            zero = np.zeros(h0.size)
            return zero, zero, np.zeros_like(terms)
        return alpha * yp, alpha * h0, np.array([[alpha], [alpha * alpha]]) * terms


def _quartic_line_minimizer(a1: float, a2: float, a3: float, a4: float) -> float:
    """Minimizer of ``a1 t + a2 t^2 + a3 t^3 + a4 t^4`` over real ``t``, or 0
    when no root of its derivative gives a finite value below 0, or any
    coefficient is not finite or ``a4 <= 0``, or a coefficient of the
    derivative scaled to a monic cubic is not finite."""
    coeffs = (a1, a2, a3, a4)
    if not (all(math.isfinite(c) for c in coeffs) and a4 > 0.0):
        return 0.0
    # np.roots makes the cubic monic itself, and an overflowing quotient
    # reaches its eigenvalue solver as inf; these are the quotients it takes
    lead = 4.0 * a4
    monic = [3.0 * a3 / lead, 2.0 * a2 / lead, a1 / lead]
    if not all(math.isfinite(c) for c in monic):
        return 0.0
    best, low = 0.0, 0.0
    # the real parts of complex roots are extra candidates, never the minimizer
    for t in np.roots([1.0, *monic]).real.tolist():
        value = (((a4 * t + a3) * t + a2) * t + a1) * t
        if value < low and math.isfinite(value):
            best, low = t, value
    return best


@np.errstate(over="ignore")
def bregman_minimize_zeta(bundle: DerivativeBundle, budget: InexactnessBudget,
                          config: ModelConfig, h0=None, basis=None, const0=None):
    """Minimize the order-3 smooth model by Bregman proximal gradient.

    Preconditions: ``p = 3``; ``sigma``, ``kappa_3`` and ``tau`` satisfy the
    coupling ``2 sigma + 2 kappa_3 = 3 tau^2 (L_3 + kappa_3)`` (use
    ``ModelConfig.coupled``). Each inner argmin is a regularized quartic in
    a multiple of ``B``, so ``EigenbasisZeta`` factors ``B`` itself once,
    and the iterate is kept as its coefficients ``y`` in that eigenbasis.
    Each step backtracks its relative-smoothness constant in ``[1,
    CONSTANT_CAP k(tau)]`` (see the module docstring): a trial costs one
    ``taylor_terms(h)``, the rows ``B h`` and ``T[h]^2`` (one pass over the
    rows on an exact logistic bundle, no Hessian built), four n-by-n
    matrix-vector products (``h = vecs y``, ``vecs^T`` of each row and
    ``vecs^T (B h + T[h]^2 / 2)``) and one secular solve, warm-started from
    the previous step's ``mu``; ``rho``, the Bregman linearization and the
    descent test are elementwise in the eigenvalues.

    ``basis``, the ``InnerStats.basis`` of an earlier call, replaces the
    factorization: ``rho`` is built on that stale eigenbasis and the Hessian
    is not factored; the model, its evaluation, its minimizer, the descent
    test every trial takes and the stop rule are those of a fresh call.

    The loop starts at ``alpha h0``, the minimizer of ``zeta`` on the line
    through 0 and the guess ``h0`` (the previous outer step; 0 when not
    given, which starts the loop at 0): a quartic in ``alpha`` whose
    coefficients come from one ``taylor_terms(h0)``, which the first
    evaluation reuses as ``alpha B h0`` and ``alpha^2 T[h0]^2``. So a call
    that takes ``k`` steps and rejects ``r`` trials takes ``taylor_terms``
    ``k + r + 1`` times, one less for each rejected trial that did not move
    the iterate, and ``zeta`` at the start is at most ``zeta(0)``.

    ``const0``, the last constant the previous call accepted, is the first
    step's first trial when ``1 <= const0 <= CONSTANT_CAP k(tau)``;
    otherwise, and when it is not given, that trial is ``max(1, SHRINK
    k(tau))``, so a call given a constant outside that range is the cold
    call bitwise. It changes only where the backtracking starts: the descent
    test and the stop are those of a call without it.

    Stops once ``||grad zeta(h)|| <= max(INNER_GRAD_TOL, INNER_REL_TOL
    ||grad f(x)||)``, the inexact tensor step of Grapiglia & Nesterov
    (arXiv:1907.13023) with the gradient at ``x`` standing in for theirs at
    the new point (see the module docstring), and returns ``(h,
    InnerStats)``. Every accepted step lowers ``zeta`` and the start is no
    worse than ``zeta(0)``, so where ``zeta`` majorizes ``f`` any returned
    ``h`` has ``f(x + h) <= zeta(h) <= zeta(0)``, whichever stop ended the
    loop. Raises ``SubsolverError`` carrying the last iterate
    and its residual when that takes more than ``MAX_INNER_STEPS`` steps, or
    when a step rejects its trial at ``CONSTANT_CAP k(tau)``, which at the
    rounding floor of ``zeta`` can happen on any basis; and
    ``SubsolverError`` when the model is not finite, which is then the only
    report of an overflow: numpy's overflow warnings are off for the call.
    """
    if bundle.p != 3 or budget.p != 3:
        raise ValueError("the Bregman path is the p = 3 solver")

    ktau = relative_smoothness_constant(config.tau)
    cap = CONSTANT_CAP * ktau
    beta_b, a_coef, Q = rho_reference_coefficients(budget, config)
    zeta = EigenbasisZeta(bundle, budget, config, basis)
    # the quadratic part of rho in eigen coordinates: grad rho(h) is (curv + Q r^2) y
    curv = beta_b * zeta.lam + a_coef
    stats = InnerStats(basis=(zeta.lam, zeta.vecs))

    y, h, terms = zeta.line_start(np.zeros(bundle.dim) if h0 is None
                                  else np.asarray(h0, dtype=float))
    change, g = zeta.change_and_grad(y, h, terms)
    const, mu = ktau, None  # the last accepted constant and its secular shift
    carried = const0 is not None and 1.0 <= const0 <= cap
    start = const0 if carried else max(1.0, SHRINK * ktau)  # the next step's first trial
    tol = max(INNER_GRAD_TOL, INNER_REL_TOL * float(np.linalg.norm(zeta.gt)))
    while True:
        r2 = float(y @ y)
        g_norm = float(np.linalg.norm(g))
        val = zeta.value0 + change
        if not (math.isfinite(val) and math.isfinite(g_norm)):
            raise SubsolverError(
                f"smooth model is not finite at ||s|| = {math.sqrt(r2):.3e}")
        stats.zeta_values.append(val)
        stats.grad_norms.append(g_norm)
        if g_norm <= tol:
            return h, stats
        if stats.iterations == MAX_INNER_STEPS:
            raise SubsolverError(
                f"inner loop exhausted {MAX_INNER_STEPS} steps, residual {g_norm:.3e}",
                best=h, residual=g_norm,
            )
        trial = start
        while True:
            # the secular shift scales with the constant: mu = trial Q ||y_next||^2
            guess = None if mu is None else mu * (trial / const)
            lam_q, b_q = trial * curv, trial * Q
            # trial grad rho(h) is (lam_q + b_q r^2) y, so this is vecs^T c
            y_next, mu_next = solve_regularized_quartic(
                g - (lam_q + b_q * r2) * y, lam_q, b_q, guess)
            dval = 0.0  # a trial that does not move the iterate proves nothing
            if not np.array_equal(y_next, y):
                h_next = zeta.vecs @ y_next
                change_next, g_next = zeta.change_and_grad(y_next, h_next)
                dval = change_next - change
                if _descends(dval, g, y, y_next - y, curv, Q, trial):
                    break
            stats.rejected.append((stats.iterations, trial))
            if trial == cap:
                raise SubsolverError(
                    f"descent test failed at constant {trial:.3e} (model change "
                    f"{dval:.1e}), step {stats.iterations + 1}, residual {g_norm:.3e}",
                    best=h, residual=g_norm,
                )
            trial = min(cap, GROW * trial)
        stats.iterations += 1
        stats.constants.append(trial)
        start = max(1.0, SHRINK * trial)
        y, h, change, g, const, mu = y_next, h_next, change_next, g_next, trial, mu_next

def _descends(dval, g, y, d, curv, Q, const) -> bool:
    """Whether ``zeta(h + d) - zeta(h) = dval`` is at most
    ``<g, d> + const D_rho(y + d, y)``, all in eigen coordinates.

    With ``rho(y) = <curv y, y>/2 + Q ||y||^4/4``, the Bregman distance is
    ``<curv d, d>/2 + Q/4 ((||y + d||^2 - ||y||^2)^2 + 2 ||y||^2 ||d||^2)``,
    which sums terms of one sign for ``curv >= 0`` instead of subtracting
    values of ``rho``. A value that is not finite fails.
    """
    dd = float(d @ d)
    dr2 = float((2.0 * y + d) @ d)
    bregman = 0.5 * float((curv * d) @ d) + 0.25 * Q * (dr2 * dr2 + 2.0 * float(y @ y) * dd)
    return dval <= float(g @ d) + const * bregman


# ---------------------------------------------------------------------------
# order-2 direct solver
# ---------------------------------------------------------------------------

def solve_model_p2(bundle: DerivativeBundle, budget: InexactnessBudget,
                   config: ModelConfig) -> np.ndarray:
    """Exact minimizer of the order-2 smooth model.

    The even-power model contains only ``z2 ||s||^2 + z4 ||s||^4`` beyond the
    quadratic polynomial, so it is one regularized quartic, solved on the
    factorization of ``EigenbasisZeta`` as
    ``vecs solve_regularized_quartic(gt, lam + 2 z2, 4 z4)``. Raises
    ``SubsolverError``, carrying ``h`` and its residual, unless
    ``||grad f + B h + (2 z2 + 4 z4 ||h||^2) h||`` is at most
    ``QUARTIC_RESIDUAL_TOL max(1, ||grad f||)``.
    """
    if bundle.p != 2 or budget.p != 2:
        raise ValueError("solve_model_p2 requires an order-2 bundle and budget")
    zeta = EigenbasisZeta(bundle, budget, config)
    a, b = 2.0 * zeta.z2, 4.0 * zeta.z4
    y, _ = solve_regularized_quartic(zeta.gt, zeta.lam + a, b)
    h = zeta.vecs @ y

    residual = float(np.linalg.norm(bundle.grad + bundle.hess @ h + (a + b * float(h @ h)) * h))
    tol = QUARTIC_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(bundle.grad)))
    if residual > tol:
        raise SubsolverError(
            f"quartic stationarity residual {residual:.3e} exceeds {tol:.3e}",
            best=h, residual=residual,
        )
    return h
