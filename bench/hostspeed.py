"""Host-speed calibration.

The machines this benchmark runs on share their cores and caches with other
tenants, and their speed drifts by 20-50% within seconds to minutes.  Every
timed interval is therefore bracketed by calibration windows, in which a
fixed pass (an interpreter loop, vectorised numpy work and float-to-text
formatting, the three kinds of work qclab does) runs repeatedly.  An
interval of t seconds with calibration medians c_before and c_after is
reported as

    t * REFERENCE_S / ((c_before + c_after) / 2),

the seconds it would take on a host where one pass takes REFERENCE_S, about
what it takes on an idle 2-core Xeon (family 6, model 143) at 2.0 GHz.
Each window lasts WINDOW_SHARE of the interval it brackets, and at least
MIN_WINDOW_S, so long intervals get long windows; a window of a few passes
cannot track a drift that lasts seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.055
WINDOW_SHARE = 0.15
MIN_WINDOW_S = 0.2

_SAMPLES = np.linspace(0.0, 1.0, 400_000)
_FLOATS = _SAMPLES[:40_000].tolist()


def _interpreter() -> int:
    total = 0
    for i in range(200_000):
        total += i * i
    return total


def _vectorised() -> float:
    return float(np.sum(np.sort(np.sin(_SAMPLES) * 3.0 + _SAMPLES)))


def _formatting() -> int:
    return len("\n".join(["%.17g" % v for v in _FLOATS]))


def _timed(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def calibrate(interval: float) -> float:
    """Median seconds of one calibration pass, over a window of
    max(WINDOW_SHARE * ``interval``, MIN_WINDOW_S) seconds."""
    window = max(WINDOW_SHARE * interval, MIN_WINDOW_S)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < window:
        passes.append(_timed(_interpreter) + _timed(_vectorised) + _timed(_formatting))
    return statistics.median(passes)


def to_reference(seconds: float, before: float, after: float) -> float:
    """An interval rescaled to the reference host speed, from the
    calibrations taken just before and just after it."""
    return seconds * 2.0 * REFERENCE_S / (before + after)
