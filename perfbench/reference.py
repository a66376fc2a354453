"""A fixed reference computation that gauges how fast the host runs right now.

On a shared host the same call can run up to twice as slow for whole
minutes while neighbours are busy, and no estimator inside one run removes
a slowdown that lasts the whole run. So each timed call runs between two
runs of this reference computation, and its time is also given in
reference seconds:

    wall seconds × REF_S / (mean of the reference's time just before and after)

On an idle host where the reference takes REF_S, reference seconds equal
wall seconds; when the host runs the reference 1.5 times slower, a call
that took 1.5 s of wall time reads 1 reference second.

The reference is exact Gaussian elimination over Fractions on a fixed
{-1, 0, 1} matrix: the same interpreter-bound mix of small-integer and
Fraction arithmetic, list building and comparisons that `nwe`'s oracle
runs. It is the benchmark's own code, so a change to `nwe` cannot change
it, and the collector is off while it runs, so the heap the program leaves
behind does not change its time either.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# The reference's median time on the idle 2-CPU host the benchmark was
# tuned on (Python 3.11).
REF_S = 0.02

_MATRIX = tuple(
    tuple(row)
    for row in (lambda rng: [[rng.choice((-1, 0, 0, 1)) for _ in range(24)] for _ in range(18)])(random.Random(0))
)
_RANK = 18


def _eliminate(rows) -> int:
    ncols = len(rows[0])
    pivots: list[int] = []
    reduced: list[list[Fraction]] = []
    for raw in rows:
        r = [Fraction(x) for x in raw]
        for p, row in zip(pivots, reduced):
            c = r[p]
            if c:
                r = [x - c * y for x, y in zip(r, row)]
        pc = next((k for k in range(ncols) if r[k]), None)
        if pc is None:
            continue
        lead = r[pc]
        r = [x / lead for x in r]
        for idx, row in enumerate(reduced):
            c = row[pc]
            if c:
                reduced[idx] = [x - c * y for x, y in zip(row, r)]
        pivots.append(pc)
        reduced.append(r)
    return len(pivots)


def reference_seconds() -> float:
    """Wall seconds of one run of the reference computation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rank = _eliminate(_MATRIX)
        seconds = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if rank != _RANK:
        raise RuntimeError(f"reference elimination gave rank {rank}, not {_RANK}")
    return seconds


def beside_reference(calls) -> list[tuple[float, float]]:
    """Run each call in turn, with the reference before the first and after each.

    Every call returns the wall seconds it measured itself. Returns, per
    call, its wall seconds and its reference seconds (see the module text).
    """
    out = []
    before = reference_seconds()
    for call in calls:
        wall = call()
        after = reference_seconds()
        out.append((wall, wall * 2 * REF_S / (before + after)))
        before = after
    return out
