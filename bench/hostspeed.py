"""Host-speed calibration: a fixed kernel timed between ops.

The shared host runs the same op on the same input up to 2x slower for
seconds to minutes at a time, and the kernel slows with it.  The kernel
is plain interpreter work, as most of the library's time is: over ten
50-s tower2d runs on the reference host, a run's mean op time rose with
its median kernel time to the power 0.82 (correlation 0.89), against
0.52 for a kernel of small numpy solves.  An op's wall time times REF_S
over the kernel's local median time is the op's time at the reference
host's full speed.  The kernel never calls cechkit, so no change to the
library moves it.
"""

from __future__ import annotations

import statistics
import time

# The kernel's time on the reference host at full speed (README.md, Load).
REF_S = 0.0051
WINDOW = 5  # samples on each side of an op that set its local speed


def kernel() -> int:
    """Integer arithmetic in a Python loop; about 5 ms at full speed."""
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    return acc


def sample() -> float:
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scales(samples: list[float]) -> list[float]:
    """REF_S over the median of samples[i - WINDOW .. i + 1 + WINDOW], for
    each i but the last: sample i is taken just before op i and sample
    i + 1 just after it."""
    out = []
    for i in range(len(samples) - 1):
        window = samples[max(0, i - WINDOW) : i + 2 + WINDOW]
        out.append(REF_S / statistics.median(window))
    return out
