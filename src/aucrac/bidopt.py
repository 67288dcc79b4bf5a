"""Node-side resource optimizer.

A worker prices a task by searching the box of admissible resource
profiles (each coordinate below the node capacity) for the cheapest one.
The search objective is the penalized cost surface below. It is affine,
so its box minimum is a corner chosen per axis by the sign of the
constant gradient. The projected descent and the brute-force grid oracle
are kept as independent witnesses for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintError, DivergenceError, InfeasibleError, InputError

_BOX_SHRINK = 1e-12  # keeps the closed search box inside the open upper face


@dataclass(frozen=True)
class OptimizerParams:
    """Capacities and weights for one optimizer invocation."""

    e_i: float                 # cycles/s capacity
    m_i: float                 # MB capacity
    p_i: float                 # watts capacity
    alpha1: float = 1.0
    alpha2: float = 1.0
    phi_i: float = 1.0         # time constant of the node
    omega_max: float = math.inf  # execution time budget
    lambda4: float = 0.0       # multiplier on the execution time budget term
    lower_bound: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("e_i", "m_i", "p_i", "alpha1", "alpha2", "phi_i"):
            v = getattr(self, name)
            if not v > 0:
                raise ConstraintError(f"optimizer.{name}", f"must be positive, got {v!r}")
        # an infinite budget (the default) leaves the cycle axis unbounded
        if not self.omega_max > 0:
            raise ConstraintError("optimizer.omega_max", f"must be positive, got {self.omega_max!r}")
        # a multiplier on an inequality budget is never negative
        if not (math.isfinite(self.lambda4) and self.lambda4 >= 0):
            raise ConstraintError("optimizer.lambda4",
                                  f"must be a non-negative finite number, got {self.lambda4!r}")
        lb = tuple(float(v) for v in self.lower_bound)
        if len(lb) != 3 or any(v < 0 for v in lb):
            raise ConstraintError("optimizer.lower_bound", f"must be three non-negative numbers, got {self.lower_bound!r}")
        object.__setattr__(self, "lower_bound", lb)

    @property
    def capacities(self) -> tuple:
        return (self.e_i, self.m_i, self.p_i)


@dataclass(frozen=True)
class CriticalPoint:
    """Where the optimizer landed, reported the way a descent reports it."""

    e_j: float
    m_j: float
    p_j: float
    gradient_norm: float
    iterations: int
    converged: bool

    @property
    def point(self) -> tuple:
        return (self.e_j, self.m_j, self.p_j)


def lagrangian_value(point, params: OptimizerParams) -> float:
    """Penalized cost surface at a resource profile (e_j, m_j, p_j)."""
    e_j, m_j, p_j = point
    k = (params.e_i + params.alpha1 * params.m_i + params.alpha2 * params.p_i) / 3.0
    blend = e_j / (3.0 * params.e_i) + m_j / (3.0 * params.m_i) + p_j / (3.0 * params.p_i)
    penalty = ((1.0 - e_j / params.e_i)
               + (1.0 - m_j / params.m_i)
               + (1.0 - p_j / params.p_i)) / 9.0
    # an inactive multiplier contributes nothing even when the budget is infinite
    budget = 0.0
    if params.lambda4 != 0.0:
        budget = params.lambda4 * (params.phi_i * e_j / params.e_i - params.omega_max)
    return k * blend + penalty + budget


def lagrangian_gradient(point, params: OptimizerParams) -> tuple:
    """Analytic gradient of lagrangian_value. The surface is affine, so it is constant."""
    k = (params.e_i + params.alpha1 * params.m_i + params.alpha2 * params.p_i) / 3.0
    ge = k / (3.0 * params.e_i) - 1.0 / (9.0 * params.e_i) + params.lambda4 * params.phi_i / params.e_i
    gm = k / (3.0 * params.m_i) - 1.0 / (9.0 * params.m_i)
    gp = k / (3.0 * params.p_i) - 1.0 / (9.0 * params.p_i)
    return (ge, gm, gp)


def cost_at(point, params: OptimizerParams) -> float:
    """Plain (unpenalized) cost of a resource profile, up to the node's price scale."""
    e_j, m_j, p_j = point
    return (e_j / params.e_i + params.alpha1 * m_j / params.m_i
            + params.alpha2 * p_j / params.p_i) / 3.0


def projected_descent(value_fn, grad_fn, start, box, learning_rate, tolerance, max_iter):
    """Generic projected gradient descent over an axis-aligned box.

    The reported residual is the norm of the projected step displacement
    divided by the step size; at interior points it equals the raw
    gradient norm, and it vanishes exactly at a box face the descent
    direction keeps pushing against. The step size is halved whenever a
    step would increase the objective, down to a floor of 1e-12.
    """
    lo, hi = box
    x = [min(max(v, l), h) for v, l, h in zip(start, lo, hi)]
    fx = value_fn(x)
    if not math.isfinite(fx):
        raise DivergenceError(f"objective is not finite at the start point {tuple(x)}")
    psi = learning_rate
    iterations = 0
    while True:
        g = grad_fn(x)
        stepped = [min(max(xi - psi * gi, l), h) for xi, gi, l, h in zip(x, g, lo, hi)]
        residual = math.sqrt(sum((xi - si) ** 2 for xi, si in zip(x, stepped))) / psi
        if residual < tolerance:
            return tuple(x), residual, iterations, True
        if iterations >= max_iter:
            return tuple(x), residual, iterations, False
        fs = value_fn(stepped)
        if not math.isfinite(fs):
            raise DivergenceError(f"objective became non-finite at {tuple(stepped)}")
        if fs > fx and psi >= 1e-12:
            psi = psi / 2.0
            continue
        x, fx = stepped, fs
        iterations += 1


def _box(params: OptimizerParams) -> tuple:
    lo = params.lower_bound
    hi = tuple(c * (1.0 - _BOX_SHRINK) for c in params.capacities)
    for name, l, h in zip(("e_i", "m_i", "p_i"), lo, hi):
        if l > h:
            raise InfeasibleError(f"lower bound {l:g} exceeds the {name} capacity box")
    return lo, hi


def optimize(params: OptimizerParams) -> CriticalPoint:
    """Closed-form box minimum of the affine surface.

    Per axis: the lower bound where the gradient is positive, the open
    upper face where it is negative, and the box midpoint where it is
    zero, which is where a descent started at the midpoint stays. The
    cycle allocation is then capped at the time budget,
    e_j <= omega_max * e_i / phi_i; a lower bound already over the
    budget is infeasible, as it is for grid_oracle.
    """
    lo, hi = _box(params)
    if params.phi_i * lo[0] / params.e_i > params.omega_max:
        raise InfeasibleError(
            f"lower bound {lo[0]:g} cycles/s already exceeds the execution time budget")
    grad = lagrangian_gradient(lo, params)
    if not all(math.isfinite(g) for g in grad):
        raise DivergenceError(f"gradient is not finite: {grad}")
    e_j, m_j, p_j = (l if g > 0 else h if g < 0 else (l + c) / 2.0
                     for g, l, h, c in zip(grad, lo, hi, params.capacities))
    point = (max(lo[0], min(e_j, params.omega_max * params.e_i / params.phi_i)), m_j, p_j)
    if not math.isfinite(lagrangian_value(point, params)):
        raise DivergenceError(f"objective is not finite at the box minimum {point}")
    return CriticalPoint(e_j=point[0], m_j=point[1], p_j=point[2],
                         gradient_norm=0.0, iterations=0, converged=True)


def grid_oracle(params: OptimizerParams, grid_resolution: int = 64) -> tuple:
    """Exhaustive arg-min of the plain cost over a uniform grid of the feasible box.

    Feasible means every coordinate strictly below capacity and the
    execution time within the budget. Ties break to the lexicographically
    smallest grid index. Serves as a certified lower-bound witness at its
    resolution: the true box minimum lies within one grid cell's cost span.
    """
    if grid_resolution < 8:
        raise InputError(f"grid_resolution must be at least 8, got {grid_resolution}")
    lo, _ = _box(params)  # validates the box is non-empty
    res = grid_resolution

    def axis(idx: int):
        l, cap = lo[idx], params.capacities[idx]
        step = (cap - l) / res
        return [l + i * step for i in range(res)]

    e_vals = [v for v in axis(0) if params.phi_i * v / params.e_i <= params.omega_max]
    if not e_vals:
        raise InfeasibleError("no admissible cycle allocation satisfies the execution time budget")
    m_vals = axis(1)
    p_vals = axis(2)

    ce = [v / (3.0 * params.e_i) for v in e_vals]
    cm = [params.alpha1 * v / (3.0 * params.m_i) for v in m_vals]
    cp = [params.alpha2 * v / (3.0 * params.p_i) for v in p_vals]

    best = math.inf
    best_point = None
    for i, ei in enumerate(ce):
        for j, mj in enumerate(cm):
            part = ei + mj
            for k, pk in enumerate(cp):
                cost = part + pk
                if cost < best:
                    best = cost
                    best_point = (e_vals[i], m_vals[j], p_vals[k])
    return best_point
