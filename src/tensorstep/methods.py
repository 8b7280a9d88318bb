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

Every method starts from ``checked_start``: ``f(x0)``, rejected when it is
not finite before anything else is computed at ``x0``, then the certified
constants there. ITM and STM take their budget and sigma from
``resolve_model`` and share one model step: ``solve_model_p2`` at p=2 (one
inner iteration), ``bregman_minimize_zeta`` at p=3, warm-started from the
previous outer step and from the last relative-smoothness constant its inner
loop accepted, the first constant the next call tries. At p=3 the model is
exact at every step, but its Bregman reference is built on the eigenbasis of
the last Hessian the step factored, whose ``eigh`` dominates a wide step. The
step factors again only when a call on that stale basis raises, and then
redoes the step on the fresh basis, which later steps keep; the redo starts
from the same carried constant. Every call evaluates the model the same
way, through the bundle's ``taylor_terms``, and backtracks its constant by
the same rule (``subsolvers``): a stale call differs only in its basis. A
step's ``inner_iters`` counts the call whose step it took. A bundle builds its
dense Hessian only when something reads it (``models.DerivativeBundle``),
which on an exact bundle at p=3 only the factorization does: an exact run
builds one Hessian per ``eigh``, at p=2 one per step, and none for an
oracle call that ends the run.

``itm_run`` takes the exact bundle. ``stm_run`` sizes per-order mini-batches
from the concentration lemmas and samples the bundle. ``gd_baseline`` takes
a (momentum) gradient step. ``reference_solution`` runs the exact p=2 ITM to
the gradient floor at which the problem's strong-convexity modulus ``mu``
certifies ``f(x) - f_star <= eps_mach``, the optimum that gaps are measured
from.

The theory-side calculator ``kappa_defaults`` produces the per-order
tolerance choice ``kappa_i ~ L^((i-1)/p) i! / D^((p-i+1)/p)``. As printed,
those values are inconsistent with the paper's iteration budget ``T``, the
root of ``(T+p+1)^p = (p+1)^(p+2)/(p+1)! * (L_p + p sigma)/eps * D^(p+1)``:
the order-1 term alone contributes ``2 (p+1) eps`` to the objective-residual
bound, so the residual target can never be met. ``kappa_defaults`` therefore
scales order ``i`` by ``1 / (2 (p+1)^(i+1))``, which makes every term of the
bound at the budget at most ``eps / (p+1)`` and the total at most ``eps``.
The budget and the bound, which no run evaluates, are computed in
``tests/lemmas.py``.

Whether a sampled bundle meets the per-order inexactness condition is
checked outside the loop, by ``sampling.verify_condition`` (the CLI's
``verify-condition`` subcommand).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, StartPointError, SubsolverError
from .models import DerivativeBundle, InexactnessBudget, ModelConfig
from .problems import LipschitzProfile
from .sampling import EXACT, BatchPlan, plan_batches, sample_bundle
from .subsolvers import bregman_minimize_zeta, solve_model_p2

#: Step-norm floor below which a run is declared converged.
STEP_FLOOR = 1e-12

#: Machine epsilon of a float: the gap ``reference_solution`` certifies.
EPS_MACH = float(np.finfo(float).eps)


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


# ---------------------------------------------------------------------------
# run configuration and traces
# ---------------------------------------------------------------------------

def _is_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, that is finite as a float."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


@dataclass
class RunConfig:
    """Everything needed to drive one deterministic or stochastic run.

    ``kappa`` is ``"exact"``, ``"corollary"`` or ``p`` finite non-negative
    tolerances, which are kept as a tuple of floats.
    """

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
        # a NaN eps or a max_iter that never equals k would silently disable the stop
        if not (_is_real(self.eps) and self.eps > 0):
            raise ValueError(f"target accuracy must be positive and finite, got {self.eps!r}")
        if isinstance(self.kappa, str):
            valid = self.kappa in ("exact", "corollary")
        else:
            try:
                kappas = tuple(self.kappa)
            except TypeError:
                kappas = ()
            valid = len(kappas) == self.p and all(_is_real(k) and k >= 0 for k in kappas)
            if valid:
                self.kappa = tuple(float(k) for k in kappas)
        if not valid:
            raise ValueError(f"kappa must be 'exact', 'corollary' or {self.p} finite "
                             f"non-negative kappas, got {self.kappa!r}")
        if isinstance(self.max_iter, bool) or not (
                isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 0):
            raise ValueError(f"max_iter must be a non-negative integer, got {self.max_iter!r}")
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
    """Bundle of exact derivatives of orders 1..p at ``x``: ``sample_bundle``
    on an all-``EXACT`` plan.

    ``value`` is ``f(x)`` when the caller already has it.
    """
    return sample_bundle(problem, x, BatchPlan((EXACT,) * p), None, value)


def resolve_model(config: RunConfig, profile: LipschitzProfile):
    """``(budget, mconfig)``: the run's inexactness budget and model regularization.

    kappa is zero (``"exact"``), ``kappa_defaults`` (``"corollary"``) or the
    explicit sequence. sigma is L_p at p=2, whose solve does not read tau, and
    the tau coupling at p=3, whose inner solver's proved relative-smoothness
    constants require it. Corollary tolerances that are not finite (a
    ``diameter`` so small that ``1/diameter`` overflows) raise ``ConfigError``,
    as does a finite tau whose coupled sigma overflows.
    """
    p, lip_top = config.p, profile.lip(config.p)
    if config.kappa == "exact":
        kappas = (0.0,) * p
    elif config.kappa == "corollary":
        kappas = kappa_defaults(lip_top, config.diameter, p)
        if not all(map(math.isfinite, kappas)):
            shown = ", ".join(f"{k:.3g}" for k in kappas)
            raise ConfigError([f"diameter: {config.diameter:g} makes the corollary "
                               f"tolerances ({shown}) overflow"])
    else:
        kappas = config.kappa
    budget = InexactnessBudget(config.eps, kappas)
    if p == 3:
        tau = config.tau
        if math.isfinite(tau) and math.isinf(1.5 * tau * tau * (lip_top + kappas[2])):
            raise ConfigError([f"tau: the coupled sigma overflows at tau = {tau:g}, "
                               f"L_3 = {lip_top:.3g}, kappa_3 = {kappas[2]:.3g}"])
        return budget, ModelConfig.coupled(lip_top, kappas[2], tau)
    return budget, ModelConfig(sigma=lip_top)


# ---------------------------------------------------------------------------
# the outer loop
# ---------------------------------------------------------------------------

def _finish(trace: RunTrace, status: str, k: int, fx: float, calls) -> RunTrace:
    trace.records.append(IterationRecord(k, fx, 0.0, 0, (0, 0, 0), *calls))
    trace.status = status
    return trace


def checked_start(problem, x0):
    """``(f(x0), profile)``: the start value, checked, then the certified constants.

    ``f(x0)`` is evaluated with numpy's overflow and invalid-value warnings
    off, and a value that is not finite raises ``StartPointError``, so that
    error is the only report of an overflow at the start. Only a finite start
    gets its constants certified, by ``default_profile``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        fx0 = problem.value(x0)
    if not math.isfinite(fx0):
        raise StartPointError(
            f"f(x0) = {fx0} is not finite at the start point "
            f"(max |x0_i| = {float(np.abs(x0).max(initial=0.0)):.3e})")
    return fx0, default_profile(problem, x0)


def _outer_loop(problem, x0, fx0, config: RunConfig, f_ref, oracle, step) -> RunTrace:
    """Drive ``oracle`` and ``step`` (see the module docstring) to a stop.

    ``fx0`` is ``f(x0)`` from ``checked_start``. Reads only ``eps``,
    ``max_iter``, ``grad_stop`` and ``step_stop`` from ``config``. Every stop
    appends a closing record with zero step.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = fx0
    trace = RunTrace(f_ref=f_ref, x_final=x)
    calls = (0, 0, 0)
    for k in itertools.count():
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
    """The checked start, profile, budget and model step shared by ITM and STM."""
    fx0, profile = checked_start(problem, x0)
    budget, mconfig = resolve_model(config, profile)
    last = None  # the previous step
    basis = None  # the eigenbasis rho was last built on
    const = None  # the last relative-smoothness constant an inner step accepted

    def step(x, bundle):
        nonlocal last, basis, const
        if bundle.p == 2:
            h, inner_iters = solve_model_p2(bundle, budget, mconfig), 1
        else:
            stats = None
            if basis is not None:
                try:
                    h, stats = bregman_minimize_zeta(bundle, budget, mconfig, last, basis,
                                                     const0=const)
                except SubsolverError:
                    pass  # the step is redone on a fresh factorization
            if stats is None:
                h, stats = bregman_minimize_zeta(bundle, budget, mconfig, last,
                                                 const0=const)
            basis, inner_iters = stats.basis, stats.iterations
            if stats.constants:
                const = stats.constants[-1]
        last = h
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
        bundle = sample_bundle(problem, x, plan, rng, fx)
        used = tuple(problem.m if s == EXACT else s for s in plan.sizes)
        return bundle, used + (0,) * (3 - config.p)

    return _outer_loop(problem, x0, fx0, config, f_ref, oracle, step)


def gd_baseline(problem, x0, config: RunConfig, f_ref=None,
                accelerated: bool = False) -> RunTrace:
    """Plain or Nesterov-accelerated gradient descent with 1/L_1 steps.

    Reads only the stopping rules of ``config`` (``eps``, ``max_iter``,
    ``grad_stop``, ``step_stop``).
    """
    fx0, profile = checked_start(problem, x0)
    lr = 1.0 / profile.lip(1)
    x_prev = np.asarray(x0, dtype=float)
    used = (problem.m, 0, 0)

    def oracle(k, x, fx):
        nonlocal x_prev
        y = x + (k - 1.0) / (k + 2.0) * (x - x_prev) if accelerated and k > 0 else x
        x_prev = x
        return SimpleNamespace(x=y, grad=problem.gradient(y)), used

    def step(x, bundle):
        x_next = bundle.x - lr * bundle.grad
        return x_next, float(np.linalg.norm(x_next - x)), 0

    return _outer_loop(problem, x0, fx0, config, f_ref, oracle, step)


# ---------------------------------------------------------------------------
# reference solutions and default constants
# ---------------------------------------------------------------------------

def default_profile(problem, x0) -> LipschitzProfile:
    """Certify constants on the ball of radius ``4 max(1, ||x0||)`` around ``x0``."""
    radius = 4.0 * max(1.0, float(np.linalg.norm(x0)))
    return problem.lipschitz_profile(np.asarray(x0, dtype=float), radius)


def reference_solution(problem, x0=None):
    """Approximate minimizer via the exact order-2 method: ``(x_star, f_star)``.

    With zero tolerances the model epsilon only scales the regularizer, so it
    is pinned at 1 to keep the quartic term benign; the run is then a Newton
    method damped by the constant ``d_2`` term ``L_2 / 3``. It returns its last
    iterate and the value the run recorded there.

    The stop is certified by the problem's strong-convexity modulus
    ``problem.mu``: a ``mu``-strongly convex f has ``f(x) - f_star <=
    ||grad f(x)||^2 / (2 mu)`` (Nesterov, *Lectures on Convex Optimization*,
    2018, Thm 2.1.10). The run stops at the gradient floor ``max(1e-12,
    sqrt(2 mu eps_mach))``, where that bound is at most ``eps_mach``, or when a
    step falls below 1e-15. On logistic n=50, m=20000 (``mu`` = 1e-3) it
    reaches the floor, 6.7e-10, in 15 steps.

    A run that does not reach the floor, because it is still descending or
    because its gradient rounds above the floor at ``x*``, stops at 300 steps.
    With ``mu > 0`` its last iterate is accepted when one more gradient
    certifies ``||grad f||^2 / (2 mu) <= eps_mach max(1, |f|)``, and
    ``SubsolverError`` is raised, with that certified gap, when it does not.
    With ``mu == 0`` there is no certificate, and the recorded values decide:
    with sigma = L_2 the model bounds f from above, so in exact arithmetic
    every step lowers f, and a step that does not shows the run at the
    rounding floor of f. The run returns if some step did not lower f, and
    raises ``SubsolverError`` if every step did: it was still descending, and
    its last iterate is no optimum to measure gaps from.
    """
    x0 = np.zeros(problem.dim) if x0 is None else np.asarray(x0, dtype=float)
    mu = problem.mu
    config = RunConfig(p=2, eps=1.0, kappa="exact", max_iter=300,
                       grad_stop=max(1e-12, math.sqrt(2.0 * EPS_MACH * mu)), step_stop=1e-15)
    trace = itm_run(problem, x0, config)
    x_ref, f_ref = trace.x_final, trace.final.f
    if trace.status != "max-iter":
        return x_ref, f_ref
    cap = f"reference solve stopped at its {config.max_iter}-step cap"
    if mu > 0:
        grad_norm = float(np.linalg.norm(problem.gradient(x_ref)))
        gap, tol = grad_norm * grad_norm / (2.0 * mu), EPS_MACH * max(1.0, abs(f_ref))
        if gap <= tol:
            return x_ref, f_ref
        raise SubsolverError(
            f"{cap} with certified gap ||grad f||^2/(2 mu) = {gap:.3e} above "
            f"{tol:.3e} (f = {f_ref:.6e}, mu = {mu:.3e})", best=x_ref)
    values = [r.f for r in trace.records]
    if all(b < a for a, b in zip(values, values[1:])):
        raise SubsolverError(
            f"{cap} with mu = 0, no certified gap, and f lowered at every step "
            f"(f = {f_ref:.6e})", best=x_ref)
    return x_ref, f_ref
