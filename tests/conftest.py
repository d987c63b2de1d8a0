"""Shared fixtures: cached cryptographic groups and standard instances."""

import random

import pytest

from repro.core.parameters import DMWParameters
from repro.crypto.groups import fixture_group
from repro.scheduling.problem import SchedulingProblem


@pytest.fixture(scope="session")
def group_small():
    """A cached 56-bit Schnorr group with generators (fast, deterministic)."""
    return fixture_group("small")


@pytest.fixture(scope="session")
def group_tiny():
    """A cached 40-bit Schnorr group (for heavier sweeps)."""
    return fixture_group("tiny")


@pytest.fixture()
def rng():
    """Fresh deterministic randomness per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def params5(group_small):
    """Standard DMW parameters: n=5 agents, c=1, W={1,2,3}."""
    return DMWParameters.generate(5, fault_bound=1,
                                  group_parameters=group_small)


@pytest.fixture(scope="session")
def params4(group_small):
    """DMW parameters: n=4 agents, c=1, W={1,2}."""
    return DMWParameters.generate(4, fault_bound=1,
                                  group_parameters=group_small)


@pytest.fixture()
def problem53():
    """A fixed 5-agent, 3-task instance with values in W={1,2,3}."""
    return SchedulingProblem([
        [2, 1, 3],
        [3, 2, 1],
        [1, 3, 2],
        [2, 2, 2],
        [3, 1, 1],
    ])


@pytest.fixture()
def problem42():
    """A fixed 4-agent, 2-task instance with values in W={1,2}."""
    return SchedulingProblem([
        [2, 1],
        [1, 2],
        [2, 2],
        [1, 1],
    ])


#: Stands for deleting a field in :func:`_single_field_mutants`.
_DELETE = object()


def _fields(node):
    """Yield ``(container, key)`` for every field under ``node``.  A list
    is mutated through its first element only, since every element of a
    document list has the same shape."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node[:1]))
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _fields(value)


def _single_field_mutants(document):
    """Apply each single-field mutation to ``document`` in place, yielding
    ``(container, key, value)`` while it holds: every field is deleted
    (``value`` is then a sentinel), then set to ``None``, ``"s"``,
    ``[]``, ``{}``, 1.5, -1 and ``True``.  The field is restored when
    the generator resumes, so ``document`` ends as it began."""
    for parent, key in list(_fields(document)):
        original = parent[key]
        for value in (_DELETE, None, "s", [], {}, 1.5, -1, True):
            if value is _DELETE:
                del parent[key]
            else:
                parent[key] = value
            yield parent, key, value
            if value is _DELETE and isinstance(parent, list):
                parent.insert(key, original)
            else:
                parent[key] = original


@pytest.fixture()
def single_field_mutants():
    """The single-field mutations a document reader must survive: it
    loads each mutated document or raises its named error."""
    return _single_field_mutants
