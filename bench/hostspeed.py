"""Host speed, measured with a fixed exact computation.

The benchmark runs on shared hosts whose speed changes by up to 1.8x over
seconds to minutes.  Every timed ksmooth call is bracketed by two timings
of ``reference()``, and its time is scaled by ``REFERENCE_S`` over the
mean of the two: the result is the time the call would take on a host
where the reference takes exactly ``REFERENCE_S``.  The reference uses the
standard library alone, so no change to ksmooth can change it, and it does
what ksmooth spends its time on: ``Fraction`` arithmetic driven by Python
loops.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the reference time that scaled times are quoted at
REFERENCE_S = 1.0e-3
_N = 7
_MATRIX = [[Fraction((3 * i + 5 * j + i * j) % 13 - 6, 1 + (2 * i + j) % 7) for j in range(_N)]
           for i in range(_N)]


def reference() -> list[list[Fraction]]:
    """Gauss-Jordan elimination of a fixed 7x7 rational matrix."""
    rows = [row[:] for row in _MATRIX]
    for c in range(_N):
        piv = rows[c][c] or Fraction(1)
        rows[c] = [x / piv for x in rows[c]]
        for r in range(_N):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return rows


def reference_s() -> float:
    """Seconds one ``reference()`` takes right now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between reference times ``before`` and ``after``,
    scaled to a host where the reference takes ``REFERENCE_S``."""
    return seconds * 2.0 * REFERENCE_S / (before + after)
