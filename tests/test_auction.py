"""Sealed-bid resolution, bid optimization, and the literal batch procedure."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aucrac.auction import (allocate_tasks_literal, expected_utility,
                            mn_revenue, optimal_bid_numeric,
                            run_sealed_auction, win_probability)
from aucrac.core import Bid, BidDistribution, Task
from aucrac.errors import ConstraintError, InputError

U01 = BidDistribution.uniform(0.0, 1.0)


def _task(value=None):
    return Task(id="t0", data_in=10.0, data_out=1.0, cycles=1e9, memory=64.0,
                power=5.0, deadline=10.0, td_max=3.0, value=value)


def _bid(node, amount, t=0.0, eligible=1):
    return Bid(node_id=node, task_id="t0", amount=amount, submit_time=t,
               eligible=eligible)


# --- win probability ------------------------------------------------------

def test_win_probability_highest_rule_is_cdf_power():
    assert win_probability(0.3, U01, n=2, win_rule="highest") == pytest.approx(0.3)
    assert win_probability(0.3, U01, n=4, win_rule="highest") == pytest.approx(0.3 ** 3)


def test_win_probability_lowest_rule_is_survival_power():
    assert win_probability(0.3, U01, n=2, win_rule="lowest") == pytest.approx(0.7)
    assert win_probability(0.3, U01, n=4, win_rule="lowest") == pytest.approx(0.7 ** 3)


def test_win_probability_moves_the_right_way_with_the_bid():
    lo = win_probability(0.2, U01, n=3, win_rule="lowest")
    hi = win_probability(0.8, U01, n=3, win_rule="lowest")
    assert lo > hi
    assert win_probability(0.8, U01, n=3, win_rule="highest") > \
        win_probability(0.2, U01, n=3, win_rule="highest")


def test_win_probability_needs_two_bidders():
    with pytest.raises(InputError):
        win_probability(0.5, U01, n=1)


def test_empirical_distribution_cdf_and_guard():
    dist = BidDistribution.empirical((3.0, 1.0, 2.0))  # sorts on construction
    assert dist.cdf(2.0) == pytest.approx(2 / 3)
    assert dist.support_lo == 1.0 and dist.support_hi == 3.0
    thin = BidDistribution.empirical((1.0,))
    with pytest.raises(InputError):
        win_probability(0.5, thin, n=2)


# --- expected utility and bid choice --------------------------------------

def test_utility_is_zero_when_bidding_the_value():
    assert expected_utility(0.6, 0.6, U01, n=3, eligible=1) == 0.0


def test_utility_is_zero_when_ineligible():
    assert expected_utility(0.2, 0.9, U01, n=3, eligible=0) == 0.0


def test_utility_rejects_bad_eligibility():
    with pytest.raises(InputError):
        expected_utility(0.2, 0.9, U01, n=3, eligible=2)


def test_numeric_bid_frozen_values_highest_rule():
    assert optimal_bid_numeric(1.0, U01, n=2, win_rule="highest") == pytest.approx(0.5, abs=2e-3)
    assert optimal_bid_numeric(1.0, U01, n=4, win_rule="highest") == pytest.approx(0.75, abs=2e-3)
    assert optimal_bid_numeric(0.8, U01, n=2, win_rule="highest") == pytest.approx(0.4, abs=2e-3)


def test_numeric_bid_beats_the_closed_form_in_expectation():
    b = optimal_bid_numeric(0.8, U01, n=3, win_rule="highest")
    u_numeric = expected_utility(b, 0.8, U01, n=3, eligible=1, win_rule="highest")
    # bidding the value itself earns nothing
    u_closed = expected_utility(0.8, 0.8, U01, n=3, eligible=1, win_rule="highest")
    assert u_numeric > u_closed


def test_numeric_bid_guards():
    with pytest.raises(InputError):
        optimal_bid_numeric(0.5, U01, n=2, grid=10)
    below = BidDistribution.uniform(2.0, 3.0)
    with pytest.raises(InputError):
        optimal_bid_numeric(1.0, below, n=2)


# --- sealed auction resolution --------------------------------------------

def test_lowest_rule_picks_the_cheapest_eligible_bid():
    bids = [_bid("wn2", 5.0), _bid("wn0", 3.0), _bid("wn1", 4.0)]
    out = run_sealed_auction(_task(), bids, win_rule="lowest")
    assert out.winner == "wn0"
    assert out.payment == 3.0  # first price: paid its own bid
    assert {b.node_id for b in out.losing_bids} == {"wn1", "wn2"}


def test_highest_rule_picks_the_priciest_bid():
    bids = [_bid("wn2", 5.0), _bid("wn0", 3.0), _bid("wn1", 4.0)]
    out = run_sealed_auction(_task(), bids, win_rule="highest")
    assert out.winner == "wn2"
    assert out.payment == 5.0


def test_ineligible_bids_never_win():
    bids = [_bid("wn0", 1.0, eligible=0), _bid("wn1", 9.0, eligible=1)]
    out = run_sealed_auction(_task(), bids, win_rule="lowest")
    assert out.winner == "wn1"


def test_no_eligible_bid_means_no_winner():
    bids = [_bid("wn0", 1.0, eligible=0), _bid("wn1", 2.0, eligible=0)]
    out = run_sealed_auction(_task(), bids, win_rule="lowest")
    assert out.winner is None
    assert out.payment == 0.0
    assert len(out.losing_bids) == 2


def test_ties_break_on_time_then_node_id():
    out = run_sealed_auction(_task(), [_bid("wn5", 2.0, t=1.0),
                                       _bid("wn3", 2.0, t=0.5)], win_rule="lowest")
    assert out.winner == "wn3"  # earlier submission
    out = run_sealed_auction(_task(), [_bid("wn5", 2.0, t=1.0),
                                       _bid("wn3", 2.0, t=1.0)], win_rule="lowest")
    assert out.winner == "wn3"  # smaller id


def test_winner_is_scale_invariant():
    bids = [_bid("a", 3.0), _bid("b", 5.0), _bid("c", 4.0)]
    scaled = [_bid(b.node_id, b.amount * 7.5) for b in bids]
    assert run_sealed_auction(_task(), bids, win_rule="lowest").winner == \
        run_sealed_auction(_task(), scaled, win_rule="lowest").winner


def test_empty_bid_list_is_an_error():
    with pytest.raises(InputError):
        run_sealed_auction(_task(), [])


def test_auction_config_guards():
    with pytest.raises(ConstraintError, match="win_rule"):
        run_sealed_auction(_task(), [_bid("wn0", 1.0)], win_rule="median")


# --- literal batch allocation ---------------------------------------------

def test_literal_trace_funnels_to_the_last_worker():
    # worker values 3, 5, 7; tasks valued 4 then 6.
    # standing bids start at zero, so no bid ever reaches a task value
    # before the fallback, and both tasks land on the last worker.
    tasks = [_task(value=4.0), _task(value=6.0)]
    alloc = allocate_tasks_literal([3.0, 5.0, 7.0], tasks)
    assert alloc.order == (0, 1, 2)
    assert alloc.assignments == (2, 2)
    assert alloc.bids == (0.0, 0.0, 6.0)


def test_literal_standing_bid_can_capture_later_tasks():
    # carried-in standing bid 3 at the first position catches a value-2 task
    tasks = [_task(value=2.0)]
    alloc = allocate_tasks_literal([1.0, 5.0, 9.0], tasks, initial_bids=[3.0, 0.0, 0.0])
    assert alloc.assignments == (0,)
    assert alloc.bids == (3.0, 0.0, 0.0)  # max(3, 2) stays 3


def test_literal_orders_workers_by_ascending_value():
    alloc = allocate_tasks_literal([9.0, 1.0, 5.0], [])
    assert alloc.order == (1, 2, 0)


def test_literal_order_is_stable_for_equal_values():
    alloc = allocate_tasks_literal([5.0, 5.0, 1.0], [])
    assert alloc.order == (2, 0, 1)


def test_literal_single_worker_takes_everything():
    tasks = [_task(value=4.0), _task(value=1.0)]
    alloc = allocate_tasks_literal([2.0], tasks)
    assert alloc.assignments == (0, 0)
    assert alloc.bids == (4.0,)  # raised to 4, then held there


@given(st.lists(st.floats(), min_size=1, max_size=8),
       st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e300)),
                max_size=12))
def test_literal_from_zero_bids_only_the_last_bid_rises(values, task_values):
    # whatever the worker values, NaN included: a zero bid takes only a
    # zero-valued task and stays zero, so positive values fall through
    alloc = allocate_tasks_literal(values, [_task(value=v) for v in task_values])
    n = len(values)
    assert alloc.assignments == tuple(n - 1 if v > 0 else 0 for v in task_values)
    assert alloc.bids[:-1] == (0.0,) * (n - 1)
    assert alloc.bids[-1] == max(task_values, default=0.0)


def test_literal_guards():
    with pytest.raises(InputError):
        allocate_tasks_literal([], [])
    with pytest.raises(InputError):
        allocate_tasks_literal([1.0], [_task(value=None)])
    with pytest.raises(InputError):
        allocate_tasks_literal([1.0, 2.0], [], initial_bids=[0.0])


# --- manager revenue ------------------------------------------------------

def test_revenue_charges_per_input_megabyte():
    assert mn_revenue(_task(), unit_price=0.5) == pytest.approx(5.0)
    assert mn_revenue(_task(), unit_price=0.0) == 0.0


def test_revenue_rejects_negative_price():
    with pytest.raises(InputError):
        mn_revenue(_task(), unit_price=-0.5)
