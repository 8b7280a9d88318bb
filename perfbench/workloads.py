"""Seeded solver workloads, the independent optimum f*, and correctness checks.

Every workload solves the same kind of problem: ridge-regularized logistic
regression from ``tensorstep.make_logistic``. The library is reached only
through its public API, looked up at call time on ``tensorstep.methods`` so
that the span tracer's wrappers are seen.

Seeding. The instance for a seed is the generator's instance for base seed 0
with its rows permuted and its columns permuted and sign-flipped, all drawn
from the seed. Those maps leave the objective, its conditioning and the
start point ``x0 = 0`` unchanged up to rounding, so every seed poses the
same task in different inputs. Drawing fresh generator seeds instead changes
the task itself: on n=50, m=20000, seeds 0..4 stop ITM at k = 25..28 and
leave ``reference_solution`` between 5e-11 and 3.3e-9 above f*, a spread
far wider than any regression bound. Base seed 0 is the instance on which
``reference_solution`` stops at ``max-iter`` 3.3e-9 above f*, so that known
defect shows on every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import tensorstep
from tensorstep import methods

#: Generator seed of the base instance every workload seed is mapped from.
BASE_INSTANCE_SEED = 0

#: Gradient-norm target of the independent Newton optimum.
NEWTON_GRAD_TOL = 1e-12
NEWTON_MAX_ITER = 50

#: ``reference-logistic`` must end within this relative distance of f*. It
#: catches gross failures only; the known 3.3e-9 excess is reported as
#: ``final_gap``, not hidden.
REFERENCE_GAP_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One fixed solver call on a seeded logistic instance.

    ``method`` is ``itm`` (ITM p=3, exact derivatives, stops at gap ``eps``),
    ``stm`` (offline STM p=3 with explicit ``kappa``, fixed ``max_iter``) or
    ``reference`` (``reference_solution``, its own p=2 settings).
    """

    name: str
    method: str
    n: int
    m: int
    eps: float = 1e-6
    max_iter: int = 100
    kappa: tuple | None = None
    delta: float = 0.1


WORKLOADS = {w.name: w for w in (
    Workload("itm-logistic", "itm", n=50, m=20000, eps=5e-2, max_iter=200),
    Workload("reference-logistic", "reference", n=50, m=20000),
    Workload("stm-sampled", "stm", n=50, m=20000, eps=1e-2, max_iter=30,
             kappa=(10.0, 10.0, 10.0)),
    Workload("itm-wide", "itm", n=300, m=600, eps=1e-3, max_iter=400),
)}


# ---------------------------------------------------------------------------
# independent objective and optimum
# ---------------------------------------------------------------------------

def objective(problem, x) -> float:
    """The logistic objective, evaluated without the library's oracle."""
    margins = problem.labels * (problem.features @ x)
    return float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * problem.mu * (x @ x))


def _sigmoid_of_minus_margin(problem, x) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, problem.labels * (problem.features @ x)))


def objective_gradient(problem, x) -> np.ndarray:
    coef = _sigmoid_of_minus_margin(problem, x) * problem.labels
    return problem.mu * x - problem.features.T @ coef / problem.m


def newton_optimum(problem):
    """Damped Newton with Armijo backtracking; returns ``(x*, f*)``.

    Once the Newton decrement is below rounding the full step is taken
    without a line search, since f can no longer resolve the decrease.
    Raises ``RuntimeError`` if the gradient target is not met.
    """
    a = problem.features
    x = np.zeros(problem.dim)
    fx = objective(problem, x)
    for _ in range(NEWTON_MAX_ITER):
        grad = objective_gradient(problem, x)
        if np.linalg.norm(grad) <= NEWTON_GRAD_TOL:
            return x, fx
        sig = _sigmoid_of_minus_margin(problem, x)
        hess = (a * (sig * (1.0 - sig))[:, None]).T @ a / problem.m
        hess[np.diag_indices_from(hess)] += problem.mu
        step = np.linalg.solve(hess, -grad)
        slope = float(grad @ step)
        t = 1.0
        if -slope > 1e-12 * max(1.0, abs(fx)):
            while objective(problem, x + t * step) > fx + 0.25 * t * slope:
                t *= 0.5
        x = x + t * step
        fx = objective(problem, x)
    raise RuntimeError(f"Newton optimum not reached in {NEWTON_MAX_ITER} steps")


# ---------------------------------------------------------------------------
# set-up, solve, check
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    problem: object
    x0: np.ndarray
    f_star: float

    @property
    def floor(self) -> float:
        """Numerical floor of a gap, as ``tensorstep.bench.fit_rate`` uses it."""
        return 100.0 * np.finfo(float).eps * abs(self.f_star)


def build_instance(workload: Workload, seed: int) -> Instance:
    """Problem, start point and f* for ``seed``: the timed set-up."""
    rng = np.random.default_rng(seed % 2 ** 64)
    base = tensorstep.make_logistic(workload.n, workload.m, seed=BASE_INSTANCE_SEED)
    rows = rng.permutation(workload.m)
    cols = rng.permutation(workload.n)
    signs = rng.choice((-1.0, 1.0), size=workload.n)
    problem = tensorstep.LogisticProblem(
        base.features[rows][:, cols] * signs, base.labels[rows], mu=base.mu)
    _, f_star = newton_optimum(problem)
    return Instance(problem, np.zeros(workload.n), f_star)


@dataclass
class Outcome:
    trace: object            # the RunTrace of the run that produced x_final
    x_final: np.ndarray


def solve(workload: Workload, inst: Instance, seed: int) -> Outcome:
    """The one library call a workload times."""
    if workload.method == "itm":
        config = methods.RunConfig(p=3, eps=workload.eps, max_iter=workload.max_iter)
        trace = methods.itm_run(inst.problem, inst.x0, config, f_ref=inst.f_star)
        return Outcome(trace, trace.x_final)
    if workload.method == "stm":
        config = methods.RunConfig(p=3, eps=workload.eps, kappa=workload.kappa,
                                   delta=workload.delta, max_iter=workload.max_iter,
                                   seed=seed % 2 ** 64, mode="stochastic")
        trace = methods.stm_run(inst.problem, inst.x0, config, f_ref=inst.f_star)
        return Outcome(trace, trace.x_final)
    return _solve_reference(inst)


def _solve_reference(inst: Instance) -> Outcome:
    # reference_solution returns only (x, f); its RunTrace, which carries the
    # iteration and oracle counts, is kept by wrapping the itm_run it calls.
    captured = []
    inner = methods.itm_run

    def keep_trace(*args, **kwargs):
        trace = inner(*args, **kwargs)
        captured.append(trace)
        return trace

    methods.itm_run = keep_trace
    try:
        x_ref, _ = methods.reference_solution(inst.problem, inst.x0)
    finally:
        methods.itm_run = inner
    return Outcome(captured[-1], np.asarray(x_ref))


def check(workload: Workload, inst: Instance, out: Outcome) -> list:
    """Failed correctness conditions of one solve; empty when it is correct."""
    errors = []
    trace = out.trace
    f_final = objective(inst.problem, out.x_final)
    if f_final < inst.f_star - inst.floor:
        errors.append(f"final f {f_final!r} below f* {inst.f_star!r}")
    if workload.method == "itm":
        if trace.status != "gap-target":
            errors.append(f"status {trace.status!r}, expected 'gap-target'")
        bad = methods.monotonicity_guard(trace)
        if bad:
            errors.append(f"objective increased at iterations {bad}")
    elif workload.method == "stm":
        if trace.status != "max-iter":
            errors.append(f"status {trace.status!r}, expected 'max-iter'")
        m = inst.problem.m
        full = [r.k for r in trace.records[:-1] if not (r.batch[1] < m and r.batch[2] < m)]
        if full:
            errors.append(f"order-2/3 batches not sampled at iterations {full}")
        if f_final >= objective(inst.problem, inst.x0):
            errors.append("final f not below f(x0)")
    else:
        tol = REFERENCE_GAP_TOL * max(1.0, abs(inst.f_star))
        if f_final - inst.f_star > tol:
            errors.append(f"reference gap {f_final - inst.f_star:.3e} exceeds {tol:.1e}")
    return errors


def final_gap(inst: Instance, out: Outcome) -> float:
    return max(objective(inst.problem, out.x_final) - inst.f_star, inst.floor)


def oracle_calls(out: Outcome) -> int:
    last = out.trace.final
    return last.grad_calls + last.hess_calls + last.third_calls


def outer_iters(out: Outcome) -> int:
    return out.trace.final.k


def inner_steps(out: Outcome) -> int:
    return sum(r.inner_iters for r in out.trace.records)
