"""Phase III outcome resolution: first price, winner, second price.

All three resolutions are degree resolutions:

* **first price** (eq. (12)) — on the aggregate ``E = sum_k e_k`` *in the
  exponent*, using the published ``Lambda_i = z1^{E(alpha_i)}``; the degree
  of ``E`` is ``max_k tau_k = sigma - min_k y_k``, so the first passing
  candidate yields ``y* = sigma - tau*``;
* **winner** (eq. (14)) — on each agent's ``f_l`` in plaintext, using the
  disclosed share rows: the winner is the agent whose ``f`` has degree
  exactly ``y*`` (its bid), ties broken by smallest pseudonym;
* **second price** (eq. (15) + (12)) — as the first price, but on
  ``Lambda'_i = Lambda_i / z1^{e_*(alpha_i)}``, the aggregates with the
  winner divided out.

Resolution never requires *specific* agents' values: any ``degree + 1``
valid points do (that is how the protocol routes around deviators whose
published values fail verification, per the Theorem 4 discussion).  A
:class:`ResolutionError` is raised when fewer valid points remain than the
threshold needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto.fastexp import PublicValueCache
from ..crypto.interpolation import resolve_degree, resolve_degree_in_exponent
from ..crypto.modular import NULL_COUNTER, OperationCounter
from .exceptions import DMWError
from .parameters import DMWParameters


class ResolutionError(DMWError):
    """Raised when a degree resolution cannot be completed.  ``missing``
    names the publishers absent from a price resolution's valid set."""

    def __init__(self, message: str, missing: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.missing = tuple(missing)


def resolve_first_price(parameters: DMWParameters,
                        lambda_values: Dict[int, int],
                        counter: OperationCounter = NULL_COUNTER,
                        cache: Optional[PublicValueCache] = None
                        ) -> Tuple[int, int]:
    """Resolve the first price from the valid published ``Lambda`` values.

    Parameters
    ----------
    lambda_values:
        ``agent index -> Lambda_i`` for agents whose published values passed
        eq. (11).  Invalid/withheld publishers are simply absent.
    cache:
        Optional per-execution :class:`PublicValueCache`: every honest
        agent resolves the same public inputs, so the resolution result is
        memoised (the analytic cost is still charged per agent).

    Returns
    -------
    (first_price, degree):
        ``y* = sigma - tau*`` and the resolved degree ``tau*``.

    Raises
    ------
    ResolutionError
        If too few valid values remain (fewer than ``tau* + 1`` for every
        candidate ``tau*``) or no candidate degree passes.
    """
    return _resolve_price("first-price", parameters, lambda_values, counter,
                          cache)


def _resolve_price(name: str, parameters: DMWParameters,
                   lambda_values: Dict[int, int], counter: OperationCounter,
                   cache: Optional[PublicValueCache]) -> Tuple[int, int]:
    """Eq. (12) on ``lambda_values``; ``name`` says which price failed."""
    indices = sorted(lambda_values)
    missing = sorted(set(range(parameters.num_agents)) - set(indices))
    points = [parameters.pseudonyms[i] for i in indices]
    values = [lambda_values[i] for i in indices]
    candidates = parameters.first_price_degree_candidates()
    if len(points) < min(candidates) + 1:
        raise ResolutionError(
            "only %d valid Lambda values; cannot resolve any candidate degree"
            % len(points), missing)
    degree = resolve_degree_in_exponent(parameters.group, points, values,
                                        candidates=candidates,
                                        counter=counter, cache=cache)
    if degree is None:
        raise ResolutionError(
            "no candidate degree passed %s resolution (corrupted "
            "aggregate or too few shares)" % name, missing)
    return parameters.bid_for_degree(degree), degree


def identify_winner(parameters: DMWParameters,
                    first_price: int,
                    disclosed_rows: Dict[int, Dict[int, Tuple[int, int]]],
                    claimants: Optional[Sequence[int]] = None,
                    counter: OperationCounter = NULL_COUNTER,
                    cache: Optional[PublicValueCache] = None) -> int:
    """Eq. (14): find the (unique, lowest-pseudonym) winner.

    Parameters
    ----------
    first_price:
        ``y*`` from :func:`resolve_first_price`.
    disclosed_rows:
        ``discloser index -> {agent index -> (f value, h value)}`` for the
        rows that passed :func:`~repro.core.verification.verify_f_disclosure`.
    claimants:
        Agents that announced ``bid == y*``.  Their ``f``-polynomials are
        tested first (each test costs only ``O(y*^2)`` multiplications);
        if no claim survives — a claimant lied, or the true winner stayed
        silent — the test falls back to scanning every agent, which is
        always possible because the ``f``-shares are already public.
        ``None`` (or an exhausted claim list) means "scan everyone".

    Returns
    -------
    The winning agent's index.

    Raises
    ------
    ResolutionError
        If fewer than ``first_price + 1`` valid rows exist, or no agent's
        ``f`` resolves to degree ``y*`` (which contradicts a valid first
        price and indicates corruption).
    """
    needed = first_price + 1
    disclosers = sorted(disclosed_rows,
                        key=lambda k: parameters.pseudonyms[k])[:needed]
    if len(disclosers) < needed:
        raise ResolutionError(
            "winner identification needs %d valid disclosure rows, got %d"
            % (needed, len(disclosed_rows))
        )
    points = [parameters.pseudonyms[k] for k in disclosers]

    def has_degree_y_star(agent: int) -> bool:
        values = [disclosed_rows[k][agent][0] for k in disclosers]
        resolved = resolve_degree(points, values, parameters.group.q,
                                  candidates=[first_price], counter=counter,
                                  cache=cache)
        return resolved == first_price

    if claimants is not None:
        winners = [agent for agent in claimants if has_degree_y_star(agent)]
        if winners:
            return min(winners, key=lambda i: parameters.pseudonyms[i])
        # No claim survived: fall through to the exhaustive scan.
    winners: List[int] = [agent for agent in range(parameters.num_agents)
                          if has_degree_y_star(agent)]
    if not winners:
        raise ResolutionError(
            "no agent's f-polynomial has degree y*=%d; inconsistent transcript"
            % first_price
        )
    # More than one passer means a tie on the minimum bid; the smallest
    # pseudonym wins (step III.3).
    return min(winners, key=lambda i: parameters.pseudonyms[i])


def resolve_second_price(parameters: DMWParameters,
                         lambda_values_excluding_winner: Dict[int, int],
                         counter: OperationCounter = NULL_COUNTER,
                         cache: Optional[PublicValueCache] = None
                         ) -> Tuple[int, int]:
    """Resolve ``y**`` from the winner-excluded aggregates (steps III.4).

    Same mechanics as :func:`resolve_first_price`; the caller supplies the
    verified ``Lambda'_i`` values.
    """
    return _resolve_price("second-price", parameters,
                          lambda_values_excluding_winner, counter, cache)
