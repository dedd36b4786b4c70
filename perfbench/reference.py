"""A fixed reference workload that puts item times at one machine speed.

The speed of a shared VM drifts by tens of percent over seconds to
minutes, so the wall time of the same item differs between runs for
reasons that have nothing to do with the program.  The benchmark therefore
times ``reference()``, a fixed piece of pure-Python work that uses only
the standard library, right before every item and once after the last
one.  Like the solver, it does big-rational arithmetic and churns through
more objects than fit in the CPU's first-level caches: a reference that
stays inside them missed the slowdowns that a neighbour's cache traffic
causes, and tracked the slowest items much worse.  An item's time ``t`` is reported
as ``t * REF_MS / r``, where ``r`` is the mean of the reference times
right before and right after the item: its time at the speed at which
``reference()`` takes ``REF_MS``.  The speed changes over tens of
milliseconds too, so the two nearest references track it best.

A change to ``fourlines`` moves ``t`` and not ``r``, so it shows in full;
a change in machine speed moves both, so it cancels.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

#: The reference's wall time, in ms, at the reporting speed.  It is the
#: median of ``reference()`` measured on a 2-vCPU x86-64 VM with CPython 3.11.
REF_MS = 4.5

_rng = random.Random(20121222)
#: Rationals of about 100 bits, the size the solver meets at coefficient bound 10**30.
_MATRIX = [[Fraction(_rng.randrange(-10**30, 10**30), _rng.randrange(1, 10**30)) for _ in range(5)]
           for _ in range(5)]
#: Ints sorted and indexed in a dict per call, about 0.7 MB of objects.
_KEYS = 8000


def _det(m) -> Fraction:
    m = [row[:] for row in m]
    n, d = len(m), Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        if p != c:
            m[c], m[p], d = m[p], m[c], -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return d


def reference() -> float:
    """Run the reference work once; return its wall time in seconds."""
    start = time.perf_counter()
    keys = sorted((i * 2654435761) % 1000003 for i in range(_KEYS))
    index = {k: i for i, k in enumerate(keys)}
    _det(_MATRIX)
    seconds = time.perf_counter() - start
    if len(index) != _KEYS:
        raise AssertionError("reference work went wrong")
    return seconds


def at_reference_speed(times, refs) -> list:
    """Scale item times to the reference speed.

    ``refs[i]`` is the reference timed just before item ``i``, and
    ``refs[-1]`` the one after the last item, so ``len(refs) == len(times) + 1``.
    """
    if len(refs) != len(times) + 1:
        raise ValueError("need one reference time before each item and one after the last")
    scale = 2 * REF_MS / 1000
    return [t * scale / (before + after) for t, before, after in zip(times, refs, refs[1:])]
