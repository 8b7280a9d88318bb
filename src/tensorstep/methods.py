"""The outer loop shared by every method, and the rate-theory calculators.

The stochastic tensor method (STM) is the inexact tensor method (ITM) with
sampled derivatives, and the first-order baselines take the same stopping
rules, so one private loop drives them all. At each iterate it evaluates
``f(x)`` and then checks, in order: the gap target (``f(x) - f_ref <=
eps``), the iteration cap, and, when ``grad_stop > 0``, the gradient floor
on the oracle's gradient. It then takes the step and stops once the
recorded step norm falls to ``step_stop``. A method supplies only two
callables:

* an oracle ``(k, x, fx) -> (bundle, used)``: derivatives at ``x`` (anything
  with a ``grad``) and the per-order component counts spent on them, given
  the loop's ``fx = f(x)`` so that a bundle needs no second value call;
* a step ``(x, bundle) -> (x_next, step_norm, inner_iters)``.

The method passes in ``f(x0)`` from ``_start_value``, which rejects a start
point whose value is not finite before anything else is computed there.

``itm_run`` takes the exact bundle and minimizes the smooth regularized
model. ``stm_run`` sizes per-order mini-batches from the concentration
lemmas, samples the bundle, and takes the same model step.
``bench.gd_baseline`` takes a (momentum) gradient step.

The theory-side calculators mirror the convergence analysis:

* ``theoretical_residual_bound(t, ...)`` evaluates the objective-residual
  bound after ``t + 1`` iterations,
* ``iteration_budget`` solves the iteration count ``T`` from
  ``(T+p+1)^p = (p+1)^(p+2)/(p+1)! * (L_p + p sigma)/eps * D^(p+1)``,
* ``kappa_defaults`` produces the per-order tolerance choice
  ``kappa_i ~ L^((i-1)/p) i! / D^((p-i+1)/p)``. As printed, those values are
  inconsistent with the budget: the order-1 term alone contributes
  ``2 (p+1) eps`` to the bound, so the residual target can never be met.
  ``kappa_defaults`` therefore scales order ``i`` by ``1 / (2 (p+1)^(i+1))``,
  which makes every term of the bound at the budget at most ``eps / (p+1)``
  and the total at most ``eps``.

Whether a sampled bundle meets the per-order inexactness condition is
checked outside the loop, by ``sampling.verify_condition`` (the CLI's
``verify-condition`` subcommand).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StartPointError
from .models import DerivativeBundle, InexactnessBudget, ModelConfig
from .problems import LipschitzProfile
from .sampling import EXACT, plan_batches, sample_bundle
from .subsolvers import bregman_minimize_zeta, solve_model_p2

#: Step-norm floor below which a run is declared converged.
STEP_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# theory calculators
# ---------------------------------------------------------------------------

def kappa_defaults(lip_top: float, diameter: float, p: int) -> tuple:
    """Per-order inexactness tolerances for an eps-accurate run.

    The paper's choice scaled by ``1/(2 (p+1)^(i+1))`` per order, so that the
    residual bound evaluated at the iteration budget is at most ``eps``.
    """
    if lip_top <= 0 or diameter <= 0:
        raise ValueError("need positive Lipschitz constant and diameter")
    out = []
    for i in range(1, p + 1):
        raw = lip_top ** ((i - 1) / p) * math.factorial(i) / diameter ** ((p - i + 1) / p)
        raw /= 2.0 * (p + 1) ** (i + 1)
        out.append(raw)
    return tuple(out)


def iteration_budget(eps: float, lip_top: float, sigma: float, diameter: float,
                     p: int) -> int:
    """Iteration count sufficient for an eps-solution under the default kappas."""
    if p < 2:
        raise ValueError("tensor methods need p >= 2")
    if min(eps, lip_top, sigma, diameter) <= 0:
        raise ValueError("all budget inputs must be positive")
    rhs = (p + 1) ** (p + 2) / math.factorial(p + 1) * (lip_top + p * sigma) / eps \
        * diameter ** (p + 1)
    return max(0, math.ceil(rhs ** (1.0 / p) - (p + 1)))


def theoretical_residual_bound(t: float, kappas, eps: float, diameter: float,
                               lip_top: float, sigma: float, p: int) -> float:
    """Objective-residual bound after ``t + 1`` iterations.

    ``2 sum_i kappa_i eps^((p-i+1)/p) D^i / i! * (p+1)^i / (t+p+1)^(i-1)
    + (L_p + p sigma)/(p+1)! * (p+1)^(p+1) / (t+p+1)^p * D^(p+1)``.
    """
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    base = t + p + 1
    total = (lip_top + p * sigma) / math.factorial(p + 1) \
        * (p + 1) ** (p + 1) / base ** p * diameter ** (p + 1)
    for i in range(1, p + 1):
        total += 2.0 * kappas[i - 1] * eps ** ((p - i + 1) / p) * diameter ** i \
            / math.factorial(i) * (p + 1) ** i / base ** (i - 1)
    return total


# ---------------------------------------------------------------------------
# run configuration and traces
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Everything needed to drive one deterministic or stochastic run."""

    p: int = 3
    eps: float = 1e-6
    kappa: object = "exact"          # "exact" | "corollary" | explicit sequence
    tau: float = 4.0
    diameter: float | None = None    # needed by the corollary kappa policy
    max_iter: int = 100
    seed: int = 0
    mode: str = "deterministic"      # "deterministic" | "stochastic"
    delta: float = 0.1
    grad_stop: float = 0.0           # optional gradient-norm stop (0 = off)
    step_stop: float = STEP_FLOOR

    def __post_init__(self):
        if self.p not in (2, 3):
            raise ValueError("shipped problems exercise p in {2, 3}")
        if self.eps <= 0:
            raise ValueError("target accuracy must be positive")
        if self.kappa == "corollary" and (self.diameter is None or self.diameter <= 0):
            raise ValueError("the corollary kappa policy needs a positive diameter")
        if self.mode not in ("deterministic", "stochastic"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    f: float
    step_norm: float
    inner_iters: int
    batch: tuple                      # (n1, n2, n3); zeros where unused
    grad_calls: int                   # cumulative sampled-derivative counts
    hess_calls: int
    third_calls: int


@dataclass
class RunTrace:
    records: list = field(default_factory=list)
    status: str = "running"
    f_ref: float | None = None
    x_final: np.ndarray | None = None

    def gaps(self):
        if self.f_ref is None:
            raise ValueError("trace has no reference value")
        return np.array([r.f - self.f_ref for r in self.records])

    def iterations(self):
        return np.array([r.k for r in self.records])

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]


def monotonicity_guard(trace: RunTrace, tol: float = 1e-12) -> list:
    """Iteration indices where the objective increased beyond ``tol``.

    Must be empty for exact deterministic runs; stochastic runs report
    violations without failing.
    """
    out = []
    for prev, cur in zip(trace.records, trace.records[1:]):
        if cur.f > prev.f + tol * max(1.0, abs(prev.f)):
            out.append(cur.k)
    return out


# ---------------------------------------------------------------------------
# bundles, policies, stepping
# ---------------------------------------------------------------------------

def exact_bundle(problem, x, p: int, value: float | None = None) -> DerivativeBundle:
    """Bundle of exact derivatives at ``x`` (third in operator form).

    ``value`` is ``f(x)`` when the caller already has it.
    """
    x = np.asarray(x, dtype=float)
    return DerivativeBundle(
        x=x, value=problem.value(x) if value is None else value,
        grad=problem.gradient(x),
        hess=problem.hessian(x), third=problem.third(x) if p >= 3 else None, p=p,
    )


def resolve_kappas(config: RunConfig, profile: LipschitzProfile) -> tuple:
    if config.kappa == "exact":
        return tuple(0.0 for _ in range(config.p))
    if config.kappa == "corollary":
        return kappa_defaults(profile.lip(config.p), config.diameter, config.p)
    kappas = tuple(float(k) for k in config.kappa)
    if len(kappas) != config.p:
        raise ValueError(f"expected {config.p} tolerances, got {len(kappas)}")
    return kappas


def resolve_model_config(config: RunConfig, profile: LipschitzProfile,
                         kappas: tuple) -> ModelConfig:
    """Model regularization: the tau coupling for p=3, sigma = L_p at p=2.

    The order-3 path has no free sigma, because the proved
    relative-smoothness constants of the inner solver require the coupling.
    """
    lip_top = profile.lip(config.p)
    if config.p == 3:
        return ModelConfig.coupled(lip_top, kappas[2], tau=config.tau)
    return ModelConfig(p=config.p, sigma=lip_top, tau=config.tau)


def model_step(bundle: DerivativeBundle, budget: InexactnessBudget,
               mconfig: ModelConfig):
    """Minimize the smooth model; returns ``(step, inner_iterations)``."""
    if bundle.p == 2:
        return solve_model_p2(bundle, budget, mconfig), 1
    step, stats = bregman_minimize_zeta(bundle, budget, mconfig)
    return step, stats.iterations


# ---------------------------------------------------------------------------
# the outer loop
# ---------------------------------------------------------------------------

def _finish(trace: RunTrace, status: str, k: int, fx: float, calls) -> RunTrace:
    trace.records.append(IterationRecord(k, fx, 0.0, 0, (0, 0, 0), *calls))
    trace.status = status
    return trace


def _start_value(problem, x0) -> float:
    """``f(x0)``, checked before any constant or derivative is computed at ``x0``.

    Raises ``StartPointError`` when it is not finite.
    """
    fx0 = problem.value(x0)
    if not math.isfinite(fx0):
        raise StartPointError(
            f"f(x0) = {fx0} is not finite at the start point "
            f"(max |x0_i| = {float(np.abs(x0).max(initial=0.0)):.3e})")
    return fx0


def _outer_loop(problem, x0, fx0, config: RunConfig, f_ref, oracle, step) -> RunTrace:
    """Drive ``oracle`` and ``step`` (see the module docstring) to a stop.

    ``fx0`` is ``f(x0)`` from ``_start_value``. Reads only ``eps``,
    ``max_iter``, ``grad_stop`` and ``step_stop`` from ``config``. Every stop
    appends a closing record with zero step.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = fx0
    trace = RunTrace(f_ref=f_ref)
    calls = (0, 0, 0)
    for k in itertools.count():
        trace.x_final = x
        if f_ref is not None and fx - f_ref <= config.eps:
            return _finish(trace, "gap-target", k, fx, calls)
        if k == config.max_iter:
            return _finish(trace, "max-iter", k, fx, calls)
        bundle, used = oracle(k, x, fx)
        calls = tuple(c + u for c, u in zip(calls, used))
        if config.grad_stop > 0 and float(np.linalg.norm(bundle.grad)) <= config.grad_stop:
            return _finish(trace, "grad-floor", k, fx, calls)
        x_next, step_norm, inner_iters = step(x, bundle)
        trace.records.append(IterationRecord(
            k, fx, step_norm, inner_iters, used, *calls))
        x = trace.x_final = x_next
        fx = problem.value(x)
        if step_norm <= config.step_stop:
            return _finish(trace, "step-floor", k + 1, fx, calls)


def _model_method(problem, x0, config: RunConfig):
    """``f(x0)``, then the certified profile, budget and model step shared by ITM and STM."""
    fx0 = _start_value(problem, x0)
    profile = default_profile(problem, x0)
    kappas = resolve_kappas(config, profile)
    budget = InexactnessBudget(config.eps, kappas)
    mconfig = resolve_model_config(config, profile, kappas)

    def step(x, bundle):
        h, inner_iters = model_step(bundle, budget, mconfig)
        return x + h, float(np.linalg.norm(h)), inner_iters

    return fx0, profile, budget, step


def itm_run(problem, x0, config: RunConfig, f_ref=None) -> RunTrace:
    """Deterministic inexact tensor method on exact derivatives.

    Each bundle counts as one full pass, ``m`` component calls per order.
    With exact bundles the run is monotone.
    """
    fx0, _, _, step = _model_method(problem, x0, config)
    used = (problem.m, problem.m, problem.m if config.p >= 3 else 0)

    def oracle(k, x, fx):
        return exact_bundle(problem, x, config.p, fx), used

    return _outer_loop(problem, x0, fx0, config, f_ref, oracle, step)


def stm_run(problem, x0, config: RunConfig, f_ref=None) -> RunTrace:
    """Stochastic tensor method with lemma-sized per-order mini-batches.

    Not monotone: the inexactness condition holds only with probability
    ``1 - delta`` per iteration, so objective increases are recorded by the
    guard rather than treated as failures.
    """
    fx0, profile, budget, step = _model_method(problem, x0, config)
    rng = np.random.default_rng(config.seed)

    def oracle(k, x, fx):
        plan = plan_batches(budget, config.delta, problem, profile)
        bundle = sample_bundle(problem, x, plan, config.p, rng, fx)
        used = tuple(problem.m if s == EXACT else s for s in plan.sizes)
        return bundle, used + (0,) * (3 - config.p)

    return _outer_loop(problem, x0, fx0, config, f_ref, oracle, step)


# ---------------------------------------------------------------------------
# reference solutions and default constants
# ---------------------------------------------------------------------------

def default_profile(problem, x0) -> LipschitzProfile:
    """Certify constants on the ball of radius ``4 max(1, ||x0||)`` around ``x0``."""
    radius = 4.0 * max(1.0, float(np.linalg.norm(x0)))
    return problem.lipschitz_profile(np.asarray(x0, dtype=float), radius)


def reference_solution(problem, x0=None, grad_tol: float = 1e-12,
                       max_iter: int = 300):
    """Approximate minimizer via the exact order-2 method.

    With zero tolerances the model epsilon only scales the regularizer, so it
    is pinned at 1 to keep the quartic term benign; the run is then a Newton
    method damped by a constant ``d_2`` term, which converges only linearly.
    It stops at ``grad_tol`` or after ``max_iter`` steps, whichever comes
    first, and returns ``(x_star, f_star)`` either way: on logistic n=50,
    m=20000 it stops at ``max_iter`` 300 with ``||grad f|| ~ 4.5e-6``.
    """
    x0 = np.zeros(problem.dim) if x0 is None else np.asarray(x0, dtype=float)
    config = RunConfig(p=2, eps=1.0, kappa="exact", max_iter=max_iter,
                       grad_stop=grad_tol, step_stop=1e-15)
    trace = itm_run(problem, x0, config)
    return trace.x_final, problem.value(trace.x_final)
