"""Mini-batch derivative estimation and concentration-based batch sizing.

Batch sizes come from two tensor concentration bounds, instantiated with
explicit constants. Both take the deviation target
``t = kappa_i eps^((p-i+1)/p)`` of the ``InexactnessBudget`` and the
per-sample range ``s_i = profile.range(i)`` that the problem certifies for
its setting (``M_i + L_{i-1}`` online, ``2 L_{i-1}`` offline):

* online (i.i.d. samples): the tail ``k0^(i n) * 2 exp(-t^2 n_i / (2 s_i^2))``
  with ``k0 = 2 i / ln(3/2)`` gives
  ``n_i = ceil( (2 s_i^2 / t^2) (i n ln k0 + ln(2/delta)) )``;
* offline (without replacement from ``m`` components): the smallest
  ``n_i <= m`` with
  ``t^2 n_i^2 / (2 s_i^2 (n_i + 1)(1 - n_i/m)) >= i n ln k0 + ln(2/delta)``;
  the left side is monotone and blows up at ``n_i = m``, so the full batch
  is always a valid fallback.

The exponent ``i * n`` is the sum of axis lengths of an order-``i`` tensor
over R^n. Sample sets are drawn independently per derivative order, and the
failure probability is split evenly across orders.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linalg import opnorm_mat, t3_norm_estimate
from .models import DerivativeBundle, InexactnessBudget
from .problems import LipschitzProfile

#: Sentinel returned when a zero tolerance forces exact derivatives.
EXACT = "exact"

#: Largest batch a draw can take: numpy's samplers count in int64.
MAX_BATCH = int(np.iinfo(np.int64).max)

#: The exact and the sampled oracle of each derivative order, by name: they
#: are looked up on the problem at call time. Order 2 takes one oracle for
#: both, which hands the Hessian out unbuilt (``problems``' ``hessian_operator``).
ORACLES = (("gradient", "batch_gradient"), ("hessian_operator", "hessian_operator"),
           ("third", "batch_third"))

#: Safety factor applied to the order-3 norm estimate, a power-method lower
#: bound (``linalg.t3_norm_estimate``), before comparing against kappa_3.
THIRD_ORDER_SAFETY = 2.0


@dataclass(frozen=True)
class BatchPlan:
    """Batch sizes of orders 1, 2, ... in ``sizes``; ``EXACT`` marks an exact derivative."""

    sizes: tuple

    def __post_init__(self):
        if any((s != EXACT and s < 1) for s in self.sizes):
            raise ValueError("batch sizes must be at least 1")


def _log_terms(order: int, dim: int, delta: float) -> float:
    k0 = 2.0 * order / math.log(1.5)
    ratio = 2.0 / delta
    # a subnormal delta overflows 2 / delta, not its logarithm
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(2.0) - math.log(delta)
    return order * dim * math.log(k0) + log_ratio


def batch_size_online(order: int, budget: InexactnessBudget, delta: float,
                      dim: int, profile: LipschitzProfile):
    """Sufficient i.i.d. batch size for the order-``order`` derivative.

    Returns the sentinel ``EXACT`` when ``kappa == 0`` (only exact
    derivatives can meet a zero tolerance), and at least 1 otherwise: a
    deviation target far above the deviation bound needs a single sample.
    A size that is not finite (the squared target underflows to 0) or that
    exceeds ``MAX_BATCH`` cannot be drawn, and raises ``ConfigError``.
    ``delta`` is in (0, 1], as ``plan_batches`` checks.
    """
    kappa = budget.kappa(order)
    if kappa == 0.0:
        return EXACT
    t = kappa * budget.eps_power(order)
    s = profile.range(order)
    tt = t * t
    size = 2.0 * s * s / tt * _log_terms(order, dim, delta) if tt > 0 else math.inf
    if not size <= MAX_BATCH:
        raise ConfigError([
            f"kappa, eps: the order-{order} online batch for kappa {kappa:g} and "
            f"eps {budget.eps:g} is {size:.3g} samples, beyond the {MAX_BATCH} that can be drawn"])
    return max(1, int(math.ceil(size)))


def batch_size_offline(order: int, budget: InexactnessBudget, delta: float,
                       m: int, dim: int, profile: LipschitzProfile):
    """Smallest without-replacement batch size meeting the tail bound.

    Never exceeds ``m``: the variance factor vanishes at the full batch, so
    ``m`` satisfies the bound for any positive deviation target. The tail
    predicate is monotone in ``n``, so ``bisect`` finds its first ``n`` in
    ``1 .. m-1``, and ``m`` when there is none. ``delta`` is in (0, 1], as
    ``plan_batches`` checks.
    """
    if m < 1:
        raise ValueError("need at least one component")
    kappa = budget.kappa(order)
    if kappa == 0.0:
        return EXACT
    t = kappa * budget.eps_power(order)
    s = profile.range(order)
    rhs = _log_terms(order, dim, delta)

    def satisfied(n):
        return t * t * n * n / (2.0 * s * s * (n + 1) * (1.0 - n / m)) >= rhs

    return 1 + bisect.bisect_left(range(1, m), True, key=satisfied)


def plan_batches(budget: InexactnessBudget, delta: float, problem,
                 profile: LipschitzProfile) -> BatchPlan:
    """Per-order plan with the failure probability split evenly across orders.

    Raises ``ConfigError`` when ``delta / p`` underflows to 0, whose
    ``ln(2/delta)`` term has no value.
    """
    if not 0 < delta <= 1:
        raise ValueError("confidence delta must be in (0, 1]")
    per_order_delta = delta / budget.p
    if per_order_delta == 0.0:
        raise ConfigError([f"delta: {delta:g} split over {budget.p} orders underflows to 0"])
    sizes = []
    for i in range(1, budget.p + 1):
        if problem.mode == "offline":
            sizes.append(batch_size_offline(i, budget, per_order_delta, problem.m,
                                            problem.dim, profile))
        else:
            sizes.append(batch_size_online(i, budget, per_order_delta, problem.dim,
                                           profile))
    return BatchPlan(tuple(sizes))


def sample_bundle(problem, x, plan: BatchPlan, rng,
                  value: float | None = None) -> DerivativeBundle:
    """The derivative bundle at ``x`` of order ``len(plan.sizes)``, sampled per ``plan``.

    The one builder of the bundles a run takes: an all-``EXACT`` plan (and
    then no ``rng``) gives the exact bundle. Every order takes the same step,
    orders 1, 2, 3 in turn, since the ``rng`` stream follows that order: an
    ``EXACT`` entry calls the order's exact oracle in ``ORACLES``; a size
    draws the order's own ``(rows, weights)`` pair with ``problem.draw`` and
    calls its batch oracle, which reduces over those support rows only, so it
    costs its support rather than ``m``. The oracles are looked up on
    ``problem`` at each call, and a two-entry plan touches no third-order
    method and leaves ``third`` empty. An ``EXACT`` entry and a draw that
    touches every row (``rows=None``: offline, a full batch) take the
    all-rows reduction of the exact derivatives, which is why they reproduce
    them bitwise. A logistic gradient or Hessian whose support covers at
    least ``problems.DENSE_SUPPORT`` of the rows takes that all-rows path
    too, with zero weights off the support. Every order, sampled or exact,
    reads the margins the problem keeps for ``x``, so the bundle makes one
    pass over the features (none when ``f(x)`` was just evaluated). The
    Hessian is handed over unbuilt and built on the first read of the
    bundle's ``hess``; its draw is taken here all the same, so the ``rng``
    stream does not move. The bundle value is the exact ``f(x)``: ``value``
    when the caller already has it, else one ``problem.value`` call.
    """
    x = np.asarray(x, dtype=float)
    derivatives = [getattr(problem, exact)(x) if size == EXACT
                   else getattr(problem, batch)(x, problem.draw(size, rng))
                   for size, (exact, batch) in zip(plan.sizes, ORACLES)]
    grad, hess, third = derivatives + [None] * (len(ORACLES) - len(derivatives))
    value = problem.value(x) if value is None else value
    return DerivativeBundle(x=x, value=value, grad=grad, hess=hess, third=third)


@dataclass(frozen=True)
class ConditionReport:
    """Measured per-order deviation ratios against their tolerances.

    ``ratios[i-1]`` estimates ``sup_s ||(G_i - D^i f)[s]^(i-1)|| /
    (eps^((p-i+1)/p) ||s||^(i-1))``; the order-3 entry is a lower bound, by
    the power method from seeded random directions, and its pass flag
    applies the declared safety factor.
    """

    ratios: tuple
    passes: tuple


def verify_condition(problem, bundle: DerivativeBundle, budget: InexactnessBudget,
                     rng) -> ConditionReport:
    """Compare sampled derivatives against exact ones, order by order.

    Orders 1 and 2 are exact (vector norm, symmetric operator norm); order 3
    takes the power-method lower bound ``t3_norm_estimate``, seeded from
    ``rng`` and contracting the difference tensor only by ``apply2``, with
    ``THIRD_ORDER_SAFETY`` folded into the pass threshold. Requires exact
    derivatives (test mode).
    """
    p = bundle.p
    x = bundle.x
    ratios = []
    passes = []

    r1 = float(np.linalg.norm(bundle.grad - problem.gradient(x))) / budget.eps_power(1)
    ratios.append(r1)
    passes.append(r1 <= budget.kappa(1))

    r2 = float(opnorm_mat(bundle.hess - problem.hessian(x))) / budget.eps_power(2)
    ratios.append(r2)
    passes.append(r2 <= budget.kappa(2))

    if p >= 3:
        seed = int(rng.integers(0, 2 ** 31 - 1))
        err = bundle.third - problem.third(x)
        est = t3_norm_estimate(err, n_dirs=32, seed=seed)
        r3 = est / budget.eps_power(3)
        ratios.append(r3)
        passes.append(THIRD_ORDER_SAFETY * r3 <= budget.kappa(3))

    return ConditionReport(tuple(ratios), tuple(passes))
