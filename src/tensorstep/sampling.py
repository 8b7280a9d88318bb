"""Mini-batch derivative estimation and concentration-based batch sizing.

Batch sizes come from two tensor concentration bounds, instantiated with
explicit constants:

* online (i.i.d. samples): the tail ``k0^(i n) * 2 exp(-t^2 n_i / (2 s_i^2))``
  with ``k0 = 2 i / ln(3/2)`` gives
  ``n_i = ceil( (2 s_i^2 / t^2) (i n ln k0 + ln(2/delta)) )`` where
  ``t = kappa_i eps^((p-i+1)/p)`` and ``s_i = M_i + L_{i-1}``;
* offline (without replacement from ``m`` components): the smallest
  ``n_i <= m`` with
  ``t^2 n_i^2 / (2 s_i^2 (n_i + 1)(1 - n_i/m)) >= i n ln k0 + ln(2/delta)``,
  with range proxy ``s_i = 2 L_{i-1}``; the left side is monotone and blows
  up at ``n_i = m``, so the full batch is always a valid fallback.

The exponent ``i * n`` is the sum of axis lengths of an order-``i`` tensor
over R^n. Sample sets are drawn independently per derivative order, and the
failure probability is split evenly across orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import opnorm_mat, t3_norm_estimate
from .models import DerivativeBundle, InexactnessBudget
from .problems import LipschitzProfile

#: Sentinel returned when a zero tolerance forces exact derivatives.
EXACT = "exact"

#: Safety factor applied to the randomized (lower-bound) order-3 norm
#: estimate before comparing against kappa_3.
THIRD_ORDER_SAFETY = 2.0


@dataclass(frozen=True)
class BatchPlan:
    """Per-order batch sizes; ``EXACT`` marks an exact derivative."""

    sizes: tuple

    def __post_init__(self):
        if any((s != EXACT and s < 1) for s in self.sizes):
            raise ValueError("batch sizes must be at least 1")

    def size(self, order: int):
        return self.sizes[order - 1]


def _log_terms(order: int, dim: int, delta: float) -> float:
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    k0 = 2.0 * order / math.log(1.5)
    return order * dim * math.log(k0) + math.log(2.0 / delta)


def batch_size_online(order: int, kappa: float, eps: float, delta: float,
                      dim: int, profile: LipschitzProfile, p: int):
    """Sufficient i.i.d. batch size for the order-``order`` derivative.

    Returns the sentinel ``EXACT`` when ``kappa == 0`` (only exact
    derivatives can meet a zero tolerance).
    """
    if kappa == 0.0:
        return EXACT
    if kappa < 0 or eps <= 0:
        raise ValueError("need kappa > 0 and eps > 0")
    t = kappa * eps ** ((p - order + 1) / p)
    s = profile.deviation(order) + profile.lip(order - 1)
    return int(math.ceil(2.0 * s * s / (t * t) * _log_terms(order, dim, delta)))


def batch_size_offline(order: int, kappa: float, eps: float, delta: float,
                       m: int, dim: int, profile: LipschitzProfile, p: int):
    """Smallest without-replacement batch size meeting the tail bound.

    Never exceeds ``m``: the variance factor vanishes at the full batch, so
    ``m`` satisfies the bound for any positive deviation target.
    """
    if m < 1:
        raise ValueError("need at least one component")
    if kappa == 0.0:
        return EXACT
    t = kappa * eps ** ((p - order + 1) / p)
    s = 2.0 * profile.lip(order - 1)
    rhs = _log_terms(order, dim, delta)

    def satisfied(n):
        if n >= m:
            return True
        return t * t * n * n / (2.0 * s * s * (n + 1) * (1.0 - n / m)) >= rhs

    lo, hi = 1, m
    if satisfied(lo):
        return lo
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


def plan_batches(budget: InexactnessBudget, delta: float, problem,
                 profile: LipschitzProfile) -> BatchPlan:
    """Per-order plan with the failure probability split evenly across orders."""
    if not 0 < delta <= 1:
        raise ValueError("confidence delta must be in (0, 1]")
    p = budget.p
    per_order_delta = delta / p
    sizes = []
    for i in range(1, p + 1):
        if problem.mode == "offline":
            sizes.append(batch_size_offline(i, budget.kappa(i), budget.eps,
                                            per_order_delta, problem.m,
                                            problem.dim, profile, p))
        else:
            sizes.append(batch_size_online(i, budget.kappa(i), budget.eps,
                                           per_order_delta, problem.dim,
                                           profile, p))
    return BatchPlan(tuple(sizes))


def sample_bundle(problem, x, plan: BatchPlan, p: int, rng,
                  value: float | None = None) -> DerivativeBundle:
    """Averaged sampled derivatives with independent draws per order.

    An ``EXACT`` entry (or, offline, a full batch) reproduces the exact
    derivative bitwise, since exact evaluation and batch averaging share one
    weighted-reduction code path. The bundle value is the exact ``f(x)``:
    ``value`` when the caller already has it, else one ``problem.value`` call.
    """
    x = np.asarray(x, dtype=float)

    def batch(order):
        size = plan.size(order)
        if size == EXACT:
            return None
        return problem.draw(size, rng)

    idx1 = batch(1)
    grad = problem.gradient(x) if idx1 is None else problem.batch_gradient(x, idx1)
    idx2 = batch(2)
    hess = problem.hessian(x) if idx2 is None else problem.batch_hessian(x, idx2)
    third = None
    if p >= 3:
        idx3 = batch(3)
        third = problem.third(x) if idx3 is None else problem.batch_third(x, idx3)
    value = problem.value(x) if value is None else value
    return DerivativeBundle(x=x, value=value, grad=grad, hess=hess, third=third, p=p)


@dataclass(frozen=True)
class ConditionReport:
    """Measured per-order deviation ratios against their tolerances.

    ``ratios[i-1]`` estimates ``sup_s ||(G_i - D^i f)[s]^(i-1)|| /
    (eps^((p-i+1)/p) ||s||^(i-1))``; the order-3 entry is a randomized lower
    bound and its pass flag applies the declared safety factor.
    """

    ratios: tuple
    passes: tuple


def verify_condition(problem, bundle: DerivativeBundle, budget: InexactnessBudget,
                     rng=None) -> ConditionReport:
    """Compare sampled derivatives against exact ones, order by order.

    Orders 1 and 2 are exact (vector norm, symmetric operator norm); order 3
    uses the randomized lower-bound estimator with ``THIRD_ORDER_SAFETY``
    folded into the pass threshold. Requires exact derivatives (test mode).
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
        seed = int(rng.integers(0, 2 ** 31 - 1)) if rng is not None else 0
        err = bundle.third - problem.third(x)
        est = t3_norm_estimate(err, n_dirs=32, seed=seed)
        r3 = est / budget.eps_power(3)
        ratios.append(r3)
        passes.append(THIRD_ORDER_SAFETY * r3 <= budget.kappa(3))

    return ConditionReport(tuple(ratios), tuple(passes))
