"""Violating fixture for DMW011: task-path writes to module globals."""

from concurrent.futures import ProcessPoolExecutor

_SPEC = None
_RESULTS = {}
_SEEN = []


def _init(spec):
    # Sanctioned: the initializer is the one allowed writer.
    global _SPEC
    _SPEC = spec


def _record(task):
    _RESULTS[task] = task
    _SEEN.append(task)


def _work(task):
    global _SPEC
    _SPEC = task
    _record(task)
    return task


def run_pool(spec, tasks):
    with ProcessPoolExecutor(initializer=_init, initargs=(spec,)) as pool:
        futures = [pool.submit(_work, task) for task in tasks]
    return [future.result() for future in futures]
