"""Nisan-Ronen's randomized mechanism for two machines (extension).

The paper's related-work section highlights the randomized
7/4-approximation mechanism for scheduling on two machines from [30]
(later generalized to ``n`` machines by Mu'alem and Schapira).  We include
a reconstruction as an optional extension of the mechanism library:

For each task independently, a fair coin picks a *favored* machine; the
task is then sold through a **biased Vickrey auction** with bias
``beta = 4/3``: the favored machine ``i`` wins iff ``y_i <= beta * y_other``
and is paid its threshold ``beta * y_other``; otherwise the other machine
wins and is paid its threshold ``y_i / beta``.  Every realized auction is a
monotone allocation with threshold payments, hence truthful, so the
randomized mechanism is *universally* truthful; its expected makespan is
within 7/4 of optimal on two machines.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Sequence, Tuple

from ..scheduling.problem import SchedulingProblem
from ..scheduling.schedule import Schedule
from .base import Bids, CentralizedMechanism


def biased_auction(bids: Tuple[float, float], favored: int,
                   beta: float) -> Tuple[int, float]:
    """Run one biased Vickrey auction between two bids.

    Returns ``(winner, payment_to_winner)``.  ``favored`` wins on ties of
    the biased comparison.
    """
    if beta < 1:
        raise ValueError("beta must be at least 1")
    other = 1 - favored
    if bids[favored] <= beta * bids[other]:
        return favored, beta * bids[other]
    return other, bids[favored] / beta


class RandomizedTwoMachines(CentralizedMechanism):
    """The biased-coin randomized mechanism for exactly two machines.

    Parameters
    ----------
    rng:
        Coin source; the realized mechanism depends on it.
    beta:
        Auction bias (4/3 gives the 7/4 expected approximation).
    coins:
        Optional pre-committed coin vector (one favored machine per task);
        used by the exact-expectation analysis to enumerate outcomes.
    """

    def __init__(self, rng: Optional[random.Random] = None,
                 beta: float = 4.0 / 3.0,
                 coins: Optional[Sequence[int]] = None) -> None:
        if rng is None and coins is None:
            raise ValueError("provide an rng or explicit coins")
        self.rng = rng
        self.beta = beta
        self.coins = list(coins) if coins is not None else None
        self._last_coins: List[int] = []

    def _draw_coins(self, num_tasks: int) -> List[int]:
        if self.coins is not None:
            if len(self.coins) != num_tasks:
                raise ValueError("coin vector length mismatch")
            return list(self.coins)
        return [self.rng.randrange(2) for _ in range(num_tasks)]

    def allocate(self, bids: Bids) -> Schedule:
        if bids.num_agents != 2:
            raise ValueError("this mechanism is defined for exactly 2 machines")
        self._last_coins = self._draw_coins(bids.num_tasks)
        assignment = []
        for task, favored in enumerate(self._last_coins):
            column = bids.task_times(task)
            winner, _ = biased_auction((column[0], column[1]), favored,
                                       self.beta)
            assignment.append(winner)
        return Schedule(assignment, 2)

    def payments(self, bids: Bids, schedule: Schedule) -> List[float]:
        totals = [0.0, 0.0]
        for task, favored in enumerate(self._last_coins):
            column = bids.task_times(task)
            winner, payment = biased_auction((column[0], column[1]), favored,
                                             self.beta)
            if winner != schedule.agent_of(task):
                raise RuntimeError("payments called with a mismatched schedule")
            totals[winner] += payment
        return totals


class BiasedRandomNMachines(CentralizedMechanism):
    """A natural n-machine generalization of the biased mechanism.

    The paper's related work points at Mu'alem and Schapira's
    generalization of the 2-machine randomized mechanism to ``n``
    machines; this class implements the natural per-task construction
    (documented as a reconstruction — we *measure* its approximation
    behaviour rather than claim their exact ratio):

    For each task independently, a uniformly random machine ``F`` is
    favored.  ``F`` wins iff ``y_F <= beta * min_{k != F} y_k``; otherwise
    the overall lowest bidder wins (ties to the lowest index).  Both rules
    are monotone in every agent's bid, so threshold payments make each
    coin realization truthful (hence the mechanism is universally
    truthful):

    * the favored machine's threshold is ``beta * min_others``;
    * a non-favored winner ``i``'s threshold is
      ``min(m2, y_F / beta)`` where ``m2`` is the minimum bid among
      machines other than ``i`` and ``F``.

    With ``beta = 1`` every realization degenerates to the Vickrey
    auction, i.e. exactly MinWork.
    """

    def __init__(self, rng: Optional[random.Random] = None,
                 beta: float = 4.0 / 3.0,
                 coins: Optional[Sequence[int]] = None) -> None:
        if rng is None and coins is None:
            raise ValueError("provide an rng or explicit coins")
        if beta < 1:
            raise ValueError("beta must be at least 1")
        self.rng = rng
        self.beta = beta
        self.coins = list(coins) if coins is not None else None
        self._last_coins: List[int] = []

    def _draw_coins(self, bids: Bids) -> List[int]:
        if self.coins is not None:
            if len(self.coins) != bids.num_tasks:
                raise ValueError("coin vector length mismatch")
            if any(not 0 <= c < bids.num_agents for c in self.coins):
                raise ValueError("coin values must be machine indices")
            return list(self.coins)
        return [self.rng.randrange(bids.num_agents)
                for _ in range(bids.num_tasks)]

    def _task_winner(self, column: Tuple[float, ...],
                     favored: int) -> int:
        min_others = min(bid for k, bid in enumerate(column) if k != favored)
        if column[favored] <= self.beta * min_others:
            return favored
        lowest = min(column)
        return column.index(lowest)

    def allocate(self, bids: Bids) -> Schedule:
        if bids.num_agents < 2:
            raise ValueError("need at least two machines")
        self._last_coins = self._draw_coins(bids)
        assignment = [
            self._task_winner(bids.task_times(task), favored)
            for task, favored in enumerate(self._last_coins)
        ]
        return Schedule(assignment, bids.num_agents)

    def payments(self, bids: Bids, schedule: Schedule) -> List[float]:
        totals = [0.0] * bids.num_agents
        for task, favored in enumerate(self._last_coins):
            column = bids.task_times(task)
            winner = schedule.agent_of(task)
            if winner != self._task_winner(column, favored):
                raise RuntimeError("payments called with a mismatched "
                                   "schedule")
            min_others = min(bid for k, bid in enumerate(column)
                             if k != favored)
            if winner == favored:
                totals[winner] += self.beta * min_others
            else:
                rest = [bid for k, bid in enumerate(column)
                        if k not in (winner, favored)]
                m2 = min(rest) if rest else float("inf")
                totals[winner] += min(m2, column[favored] / self.beta)
        return totals


def expected_makespan(bids: SchedulingProblem,
                      beta: float = 4.0 / 3.0) -> float:
    """Exact expected makespan of the randomized mechanism (2 machines).

    Enumerates all ``2^m`` coin vectors, so use only for small ``m``.
    """
    if bids.num_agents != 2:
        raise ValueError("defined for exactly 2 machines")
    m = bids.num_tasks
    total = 0.0
    for coins in itertools.product((0, 1), repeat=m):
        mechanism = RandomizedTwoMachines(coins=coins, beta=beta)
        schedule = mechanism.allocate(bids)
        total += schedule.makespan(bids)
    return total / (2 ** m)
