"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

#: a percentile is reported only when at least this many samples lie
#: beyond it, so one outlier cannot set it
MIN_SAMPLES_BEYOND = 10


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-th percentile in ``n`` samples
    (exact arithmetic: ``0.99 * 1000`` must be rank 990, not 991)."""
    return math.ceil(Fraction(str(q)) * n / 100)


def samples_needed(q: float) -> int:
    """Smallest sample count for which :func:`percentile` accepts ``q``."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"q must be in (0, 100), got {q}")
    n = MIN_SAMPLES_BEYOND
    while n - _rank(q, n) < MIN_SAMPLES_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`ValueError` unless at least :data:`MIN_SAMPLES_BEYOND`
    samples lie strictly beyond the returned rank, so a run that is too
    short to support the percentile fails loudly instead of reporting
    its maximum.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"q must be in (0, 100), got {q}")
    ordered = sorted(values)
    rank = _rank(q, len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {max(beyond, 0)} beyond "
            f"it; at least {MIN_SAMPLES_BEYOND} are required "
            f"({samples_needed(q)} samples)")
    return float(ordered[rank - 1])

