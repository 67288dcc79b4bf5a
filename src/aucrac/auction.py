"""Sealed-bid, first-price task auctions run by the manager node.

Two resolution modes exist. The repaired mode picks the best eligible
bid under the configured win rule. The literal mode reproduces the batch
allocation procedure exactly, degenerate funneling included: standing
bids start at zero and only the last ever rises, so a task of positive
value goes to the highest ask (ties to the later node), a zero-valued one
to the lowest. The engine computes that pick in closed form, tested
against `allocate_tasks_literal`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import WIN_RULES, AuctionOutcome, BidDistribution, Task
from .errors import ConstraintError, InputError


def win_probability(bid: float, dist: BidDistribution, n: int, win_rule: str = "lowest") -> float:
    """Chance that one bid beats the other n-1 independent rival bids."""
    if n < 2:
        raise InputError(f"need at least two bidders, got n={n}")
    if dist.kind == "empirical" and len(dist.samples) < 2:
        raise InputError("empirical distribution needs at least two samples")
    cdf = dist.cdf(bid)
    if win_rule == "highest":
        return cdf ** (n - 1)
    if win_rule == "lowest":
        return (1.0 - cdf) ** (n - 1)
    raise InputError(f"unknown win rule {win_rule!r}")


def expected_utility(bid: float, value: float, dist: BidDistribution, n: int,
                     eligible: int, win_rule: str = "lowest") -> float:
    """Win probability times the margin (value - bid), gated by eligibility."""
    if eligible not in (0, 1):
        raise InputError(f"eligible must be 0 or 1, got {eligible!r}")
    return win_probability(bid, dist, n, win_rule) * (value - bid) * eligible


def optimal_bid_numeric(value: float, dist: BidDistribution, n: int,
                        win_rule: str = "lowest", grid: int = 1000) -> float:
    """Grid arg-max of expected utility over [support lo, min(value, support hi)]."""
    if grid < 100:
        raise InputError(f"grid must be at least 100, got {grid}")
    lo = dist.support_lo
    hi = min(value, dist.support_hi)
    if hi < lo:
        raise InputError(f"no admissible bid: value {value:g} sits below the support start {lo:g}")
    best_bid = lo
    best_u = -float("inf")
    for i in range(grid + 1):
        b = lo + (hi - lo) * i / grid
        u = expected_utility(b, value, dist, n, 1, win_rule)
        if u > best_u:
            best_u = u
            best_bid = b
    return best_bid


def run_sealed_auction(task: Task, bids, win_rule: str = "lowest") -> AuctionOutcome:
    """Resolve one task. First price: the winner is paid its own bid.

    Ineligible bids never win. Ties break on earlier submit_time, then on
    the smaller node id, so resolution is deterministic.
    """
    if win_rule not in WIN_RULES:
        raise ConstraintError("auction.win_rule", f"must be one of {WIN_RULES}, got {win_rule!r}")
    bids = list(bids)
    if not bids:
        raise InputError("bids must be non-empty")
    eligible = [b for b in bids if b.eligible == 1]
    if not eligible:
        return AuctionOutcome(task_id=task.id, winner=None, payment=0.0,
                              losing_bids=tuple(bids))
    sign = 1.0 if win_rule == "lowest" else -1.0
    winner = min(eligible, key=lambda b: (sign * b.amount, b.submit_time, b.node_id))
    losers = tuple(b for b in bids if b is not winner)
    return AuctionOutcome(task_id=task.id, winner=winner.node_id,
                          payment=winner.amount, losing_bids=losers)


@dataclass(frozen=True)
class LiteralAllocation:
    """Output of the literal batch procedure."""

    order: tuple        # original indices of the workers, sorted by ascending value
    assignments: tuple  # per task, a position into `order`
    bids: tuple         # standing bids, aligned with `order`


def allocate_tasks_literal(values, tasks, initial_bids=None) -> LiteralAllocation:
    """Batch allocation, transcribed step for step.

    Workers are sorted by ascending value. Standing bids start at zero
    (or at `initial_bids` to continue a previous batch). Each task goes
    to the first worker whose standing bid already reaches the task
    value, falling back to the last (highest-value) worker, whose
    standing bid is then raised to the task value. With zero-initialized
    bids the fallback funnels every task with a positive value to that
    last worker; this is preserved, not repaired.
    """
    values = list(values)
    if not values:
        raise InputError("values must be non-empty")
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    if initial_bids is None:
        bids = [0.0] * len(values)
    else:
        bids = [float(b) for b in initial_bids]
        if len(bids) != len(values):
            raise InputError("initial_bids length must match values")
    assignments = []
    for task in tasks:
        if task.value is None:
            raise InputError(f"task {task.id} has no value set")
        chosen = len(values) - 1
        for pos in range(len(values)):
            if bids[pos] >= task.value:
                chosen = pos
                break
        assignments.append(chosen)
        bids[chosen] = max(bids[chosen], task.value)
    return LiteralAllocation(order=tuple(order), assignments=tuple(assignments),
                             bids=tuple(bids))


def mn_revenue(task: Task, unit_price: float) -> float:
    """What the manager charges the device for one offloaded task."""
    if unit_price < 0:
        raise InputError(f"unit_price must be non-negative, got {unit_price!r}")
    return task.data_in * unit_price
