"""Resource profile optimizer: surface values, gradient, descent, oracle."""

import math
import time

import pytest

from aucrac.bidopt import (OptimizerParams, _box, cost_at, grid_oracle,
                           lagrangian_gradient, lagrangian_value, optimize,
                           projected_descent)
from aucrac.errors import (ConstraintError, DivergenceError, InfeasibleError,
                           InputError)
from aucrac.rng import new_rng

UNIT = OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0)


def test_surface_value_at_origin_is_one_third():
    # blend term zero, penalty (1+1+1)/9
    assert lagrangian_value((0.0, 0.0, 0.0), UNIT) == pytest.approx(1 / 3)


def test_surface_value_at_capacities_is_one():
    assert lagrangian_value((1.0, 1.0, 1.0), UNIT) == pytest.approx(1.0)


def test_gradient_frozen_values():
    g = lagrangian_gradient((0.3, 0.3, 0.3), UNIT)
    assert g == pytest.approx((2 / 9, 2 / 9, 2 / 9))
    # the budget multiplier shifts only the first component
    shifted = OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0, lambda4=5.0, phi_i=1.0)
    ge, gm, gp = lagrangian_gradient((0.3, 0.3, 0.3), shifted)
    assert ge == pytest.approx(2 / 9 + 5.0)
    assert (gm, gp) == pytest.approx((2 / 9, 2 / 9))


def test_gradient_is_position_independent():
    params = OptimizerParams(e_i=3.0, m_i=7.0, p_i=2.0, alpha1=0.6, alpha2=1.4)
    assert lagrangian_gradient((0.1, 0.2, 0.3), params) == pytest.approx(
        lagrangian_gradient((2.0, 5.0, 1.0), params))


def test_gradient_matches_finite_differences_spot_check():
    params = OptimizerParams(e_i=2.0, m_i=5.0, p_i=3.0, alpha1=0.8, alpha2=1.2,
                             lambda4=0.4, phi_i=2.0, omega_max=10.0)
    x = (1.0, 2.0, 1.5)
    h = 1e-6
    g = lagrangian_gradient(x, params)
    for axis in range(3):
        lo = list(x)
        hi = list(x)
        lo[axis] -= h
        hi[axis] += h
        fd = (lagrangian_value(hi, params) - lagrangian_value(lo, params)) / (2 * h)
        assert g[axis] == pytest.approx(fd, rel=1e-6)


def test_cost_at_is_the_unpenalized_blend():
    params = OptimizerParams(e_i=2.0, m_i=4.0, p_i=8.0, alpha1=0.5, alpha2=2.0)
    assert cost_at((2.0, 4.0, 8.0), params) == pytest.approx((1 + 0.5 + 2.0) / 3)
    assert cost_at((0.0, 0.0, 0.0), params) == 0.0


def test_params_reject_nonpositive_capacity():
    with pytest.raises(ConstraintError):
        OptimizerParams(e_i=0.0, m_i=1.0, p_i=1.0)


def test_params_reject_bad_lower_bound():
    with pytest.raises(ConstraintError):
        OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0, lower_bound=(-0.1, 0, 0))
    with pytest.raises(ConstraintError):
        OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0, lower_bound=(0, 0))


@pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
def test_params_reject_a_negative_or_non_finite_multiplier(value):
    # a multiplier on an inequality budget is never negative; a negative
    # one would flip the e-gradient and send the minimum to the upper face
    with pytest.raises(ConstraintError, match="lambda4"):
        OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0, omega_max=2.0, lambda4=value)


@pytest.mark.parametrize("value", [0.0, -1.0, -math.inf, math.nan])
def test_params_reject_a_non_positive_or_nan_budget(value):
    with pytest.raises(ConstraintError, match="omega_max"):
        OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0, omega_max=value)


def test_params_accept_an_infinite_budget():
    assert OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0).omega_max == math.inf
    assert optimize(OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0, omega_max=math.inf)).converged


# --- generic descent ------------------------------------------------------

def test_descent_marches_a_linear_slope_to_the_corner():
    value = lambda x: x[0] + x[1] + x[2]
    grad = lambda x: (1.0, 1.0, 1.0)
    box = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    point, residual, iterations, converged = projected_descent(
        value, grad, (0.9, 0.5, 0.2), box, 0.1, 1e-10, 1000)
    assert converged
    assert point == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    assert residual < 1e-10
    assert iterations < 20


def test_descent_residual_vanishes_only_at_a_pinned_face():
    # a slope pushing up and out of the box pins at the upper face
    value = lambda x: -x[0]
    grad = lambda x: (-1.0, 0.0, 0.0)
    box = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    point, residual, _, converged = projected_descent(
        value, grad, (0.5, 0.5, 0.5), box, 0.1, 1e-10, 1000)
    assert converged
    assert point[0] == pytest.approx(1.0)
    assert residual < 1e-10


def test_descent_halves_steps_on_a_bowl():
    # quadratic bowl: a huge step overshoots until halving tames it
    value = lambda x: (x[0] - 0.3) ** 2
    grad = lambda x: (2 * (x[0] - 0.3), 0.0, 0.0)
    box = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    point, _, _, converged = projected_descent(
        value, grad, (0.9, 0.0, 0.0), box, 50.0, 1e-9, 10000)
    assert converged
    assert point[0] == pytest.approx(0.3, abs=1e-6)


def test_descent_flags_nonconvergence_when_iterations_run_out():
    value = lambda x: x[0]
    grad = lambda x: (1e-4, 0.0, 0.0)  # crawls, cannot pin within 50 steps
    box = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    _, _, iterations, converged = projected_descent(
        value, grad, (0.5, 0.5, 0.5), box, 0.1, 1e-30, 50)
    assert not converged
    assert iterations == 50


def test_descent_raises_on_nonfinite_objective():
    value = lambda x: float("nan")
    grad = lambda x: (1.0, 1.0, 1.0)
    with pytest.raises(DivergenceError):
        projected_descent(value, grad, (0.5, 0.5, 0.5),
                          ((0, 0, 0), (1, 1, 1)), 0.1, 1e-8, 100)


# --- optimize and the oracle ----------------------------------------------

def test_optimize_converges_to_lower_corner_on_unit_box():
    cp = optimize(UNIT)
    assert cp.converged
    assert cp.point == (0.0, 0.0, 0.0)
    assert cp.gradient_norm == 0.0
    assert cp.iterations == 0


def test_optimize_returns_the_lower_corner_at_real_node_capacities():
    # every gradient component is positive, so the minimum is (0, 0, 0);
    # a fixed-step descent on this scale runs out of iterations far from it
    params = OptimizerParams(e_i=5e9, m_i=8192.0, p_i=200.0)
    assert all(g > 0 for g in lagrangian_gradient((0.0, 0.0, 0.0), params))
    cp = optimize(params)
    assert cp.converged
    assert cp.point == (0.0, 0.0, 0.0)
    t0 = time.perf_counter()
    for _ in range(100):
        optimize(params)
    assert time.perf_counter() - t0 < 0.1  # well under 1 ms a call


def test_optimize_takes_the_upper_face_on_a_falling_axis():
    # capacities summing below 1 make the penalty outweigh the blend
    params = OptimizerParams(e_i=0.2, m_i=0.2, p_i=0.2)
    assert all(g < 0 for g in lagrangian_gradient((0.0, 0.0, 0.0), params))
    _, hi = _box(params)
    assert optimize(params).point == hi
    assert all(v < c for v, c in zip(hi, params.capacities))


def test_optimize_stays_at_the_midpoint_of_a_flat_axis():
    params = OptimizerParams(e_i=0.25, m_i=0.25, p_i=0.5, lower_bound=(0.05, 0.0, 0.1))
    assert lagrangian_gradient((0.0, 0.0, 0.0), params) == (0.0, 0.0, 0.0)
    assert optimize(params).point == (0.15, 0.125, 0.3)


def test_optimize_raises_when_the_surface_is_not_finite():
    # an active multiplier on an unbounded budget sends the value to -inf
    with pytest.raises(DivergenceError):
        optimize(OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0, lambda4=0.5))
    with pytest.raises(DivergenceError):
        optimize(OptimizerParams(e_i=math.inf, m_i=1.0, p_i=1.0))
    # a subnormal capacity overflows the gradient while the value stays finite
    with pytest.raises(DivergenceError, match="gradient"):
        optimize(OptimizerParams(e_i=1e-320, m_i=1.0, p_i=1.0))


def test_descent_from_the_midpoint_lands_on_the_closed_form_corner():
    # the descent stays as an independent reference on unit-scale boxes,
    # where its fixed step settings converge
    rng = new_rng(271)
    for _ in range(40):
        scale = rng.choice([0.1, 1.0, 10.0])
        caps = tuple(rng.uniform(0.05, 1.0) * scale for _ in range(3))
        lb = tuple(rng.uniform(0.0, 0.3) * c for c in caps) if rng.random() < 0.5 else (0, 0, 0)
        params = OptimizerParams(e_i=caps[0], m_i=caps[1], p_i=caps[2],
                                 alpha1=rng.uniform(0.5, 2), alpha2=rng.uniform(0.5, 2),
                                 omega_max=5.0, lower_bound=lb,
                                 lambda4=rng.uniform(0, 1) if rng.random() < 0.5 else 0.0)
        lo, hi = _box(params)
        midpoint = tuple((l + c) / 2 for l, c in zip(lo, caps))
        point, _, _, converged = projected_descent(
            lambda x: lagrangian_value(x, params), lambda x: lagrangian_gradient(x, params),
            midpoint, (lo, hi), 0.1, 1e-8, 100_000)
        assert converged
        assert optimize(params).point == pytest.approx(point, abs=1e-12)


def test_optimize_respects_a_nonzero_lower_bound():
    params = OptimizerParams(e_i=4.0, m_i=4.0, p_i=4.0, lower_bound=(1.0, 0.5, 2.0))
    cp = optimize(params)
    assert cp.converged
    assert cp.point == pytest.approx((1.0, 0.5, 2.0), abs=1e-9)


def test_optimize_rejects_lower_bound_above_capacity():
    with pytest.raises(InfeasibleError):
        optimize(OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0, lower_bound=(2.0, 0, 0)))


def test_optimize_rejects_a_lower_bound_over_the_time_budget():
    # phi * 0.5 / 1 = 0.5 s already exceeds the 0.1 s budget
    params = OptimizerParams(1, 1, 1, phi_i=1, omega_max=0.1, lower_bound=(0.5, 0, 0))
    with pytest.raises(InfeasibleError):
        optimize(params)
    with pytest.raises(InfeasibleError):
        grid_oracle(params, 16)


def test_optimize_caps_the_cycle_allocation_at_the_time_budget():
    # a falling cycle axis heads for the upper face; the budget stops it first
    params = OptimizerParams(e_i=0.2, m_i=0.2, p_i=0.2, phi_i=2.0, omega_max=0.5)
    assert lagrangian_gradient((0.0, 0.0, 0.0), params)[0] < 0
    cp = optimize(params)
    assert cp.e_j == 0.5 * 0.2 / 2.0
    assert params.phi_i * cp.e_j / params.e_i <= params.omega_max
    _, hi = _box(params)
    assert (cp.m_j, cp.p_j) == hi[1:]
    # a flat cycle axis keeps its midpoint only while the budget allows it
    flat = OptimizerParams(e_i=0.25, m_i=0.25, p_i=0.5, omega_max=0.2)
    assert lagrangian_gradient((0.0, 0.0, 0.0), flat)[0] == 0.0
    assert optimize(flat).e_j == 0.2 * 0.25
    # a budget the lower bound meets exactly leaves the lower bound in place
    edge = OptimizerParams(e_i=0.2, m_i=0.2, p_i=0.2, omega_max=0.5, lower_bound=(0.1, 0, 0))
    assert optimize(edge).e_j == 0.1


def test_a_slack_budget_never_moves_the_optimum():
    rng = new_rng(419)
    for _ in range(50):
        caps = tuple(rng.uniform(0.05, 1.0) for _ in range(3))
        params = OptimizerParams(e_i=caps[0], m_i=caps[1], p_i=caps[2],
                                 alpha1=rng.uniform(0.5, 2), alpha2=rng.uniform(0.5, 2))
        slack = OptimizerParams(e_i=caps[0], m_i=caps[1], p_i=caps[2],
                                alpha1=params.alpha1, alpha2=params.alpha2,
                                omega_max=params.phi_i * 1.01)
        assert optimize(slack).point == optimize(params).point


def test_objective_never_increases_along_the_run():
    params = OptimizerParams(e_i=3.0, m_i=5.0, p_i=2.0, alpha1=0.9, alpha2=1.1)
    midpoint = tuple(c / 2 for c in params.capacities)
    cp = optimize(params)
    assert lagrangian_value(cp.point, params) <= lagrangian_value(midpoint, params) + 1e-12


def test_oracle_finds_the_corner_of_a_rising_cost():
    best = grid_oracle(UNIT, grid_resolution=16)
    assert best == pytest.approx((0.0, 0.0, 0.0))


def test_oracle_respects_lower_bound_corner():
    params = OptimizerParams(e_i=4.0, m_i=4.0, p_i=4.0, lower_bound=(1.0, 0.5, 2.0))
    assert grid_oracle(params, 16) == pytest.approx((1.0, 0.5, 2.0))


def test_finer_oracle_grids_never_get_worse():
    params = OptimizerParams(e_i=2.0, m_i=6.0, p_i=3.0, alpha1=0.7, alpha2=1.8)
    coarse = cost_at(grid_oracle(params, 16), params)
    fine = cost_at(grid_oracle(params, 64), params)
    assert fine <= coarse + 1e-12


def test_oracle_filters_axis_by_time_budget():
    # phi e / e_i <= budget keeps only the small cycle allocations
    params = OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0, phi_i=1.0, omega_max=0.5,
                             lower_bound=(0.4, 0.0, 0.0))
    best = grid_oracle(params, 16)
    assert params.phi_i * best[0] / params.e_i <= params.omega_max


def test_oracle_raises_when_budget_empties_the_axis():
    params = OptimizerParams(e_i=1.0, m_i=1.0, p_i=1.0, phi_i=1.0, omega_max=0.1,
                             lower_bound=(0.5, 0.0, 0.0))
    with pytest.raises(InfeasibleError):
        grid_oracle(params, 16)


def test_oracle_rejects_too_coarse_grids():
    with pytest.raises(InputError):
        grid_oracle(UNIT, grid_resolution=4)


def test_optimize_agrees_with_oracle_on_random_boxes():
    rng = new_rng(314)
    for _ in range(10):
        caps = (rng.uniform(2, 9), rng.uniform(2, 9), rng.uniform(2, 9))
        lb = (rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1))
        params = OptimizerParams(e_i=caps[0], m_i=caps[1], p_i=caps[2],
                                 alpha1=rng.uniform(0.5, 2), alpha2=rng.uniform(0.5, 2),
                                 lower_bound=lb)
        cp = optimize(params)
        assert cp.converged
        oracle = grid_oracle(params, 32)
        # rising linear cost: both must land on the lower-bound corner
        assert cp.point == pytest.approx(oracle, abs=1e-8)
        assert cost_at(cp.point, params) <= cost_at(oracle, params) + 1e-10
