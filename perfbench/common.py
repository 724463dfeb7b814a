"""What every workload shares: operations, answer checks and paths."""

import dataclasses
import gc
import time
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


_REFERENCE_MATRIX = np.random.default_rng(0).normal(size=(12, 12)) / 4


def time_reference():
    """Seconds taken by a fixed task that does not use gptkit: small numpy
    calls made from a Python loop, like gptkit's inner loops (about 1 ms on
    the reference machine).  Garbage collection is off while it runs, so
    that the size of the caller's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        v = np.ones(12)
        s = 0.0
        for i in range(150):
            v = _REFERENCE_MATRIX @ v
            v /= np.abs(v).max()
            s += float(v[i % 12]) * (i % 7)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class WrongAnswer(Exception):
    """gptkit returned an answer that the benchmark's check rejects."""


def require(condition, message):
    if not condition:
        raise WrongAnswer(message)


@dataclasses.dataclass
class Op:
    """One call into gptkit, made once per round.

    ``call`` takes no arguments and returns gptkit's answer; ``check``
    raises WrongAnswer when that answer is wrong.  ``mutants`` gives
    deliberately wrong variants of a correct answer, which ``check`` must
    reject; the self-check of every run feeds them in.
    """

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    mutants: Callable[[object], list]


@dataclasses.dataclass
class Workload:
    ops: list
    # kinds of the operations behind headline_ms in the results file
    headline: tuple
    # figures named after the operations, from {kind: operation times}, for
    # the results file
    details: Callable[[dict], dict]
    # peak RSS is that of the largest child process, not of this one
    children_rss: bool = False
    cleanup: Callable[[], None] = lambda: None


def best_of(n, value_of, target, tol, what):
    """Checks for n operations that are starts of one local search.

    The last check of each round requires the best value of the n starts
    to reach ``target`` within ``tol``; a single start may stop short.
    """
    seen = []

    def make(i):
        def check(result):
            seen.append(value_of(result))
            if i == n - 1:
                best = max(seen)
                seen.clear()
                require(abs(best - target) <= tol,
                        f"{what}: best of {n} starts is {best!r}")
        return check

    return [make(i) for i in range(n)]
