"""The host's speed, measured with reference work of the benchmark's own.

On a virtual machine shared with other tenants, pure-Python code runs at
two speeds about 1.5x apart, switching every few tens of milliseconds,
and the share of time at the slow speed drifts over minutes.  The worker
and the set-up timing interleave recounts of a fixed design with the
work they time, and scale the times they report by the reference's
nominal time over its measured mean: a time in ms "at reference speed".
The reference is this file's code, the same for every commit of mpart,
so a change to mpart moves corrected times as it moves raw ones.
"""

from __future__ import annotations

from time import perf_counter

import oracle

# Recounting (7,3,1) x (7,3,1), built here from the Fano plane so that no
# file the benchmark does not own can change the reference work.
FANO = ((0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (0, 4, 5), (1, 5, 6), (0, 2, 6))
REFERENCE = oracle.Design(("A", "B"), (7, 7), tuple((a, b) for a in FANO for b in FANO))
# Its median time on a 2-vCPU Intel Xeon virtual machine (Python 3.11).
REFERENCE_NOMINAL_S = 0.25e-3
# Reference time run after each timed op, as a share of the op's time.
REFERENCE_SHARE = 0.1


def reference(seconds: float) -> tuple[float, int]:
    """Recount REFERENCE until at least ``seconds`` have passed (at least
    once); return the time spent recounting and the number of recounts."""
    spent, count = 0.0, 0
    while not count or spent < seconds:
        start = perf_counter()
        oracle.balance(REFERENCE)
        spent += perf_counter() - start
        count += 1
    return spent, count


def scale(spent: float, count: int) -> float:
    """The factor that brings times taken while ``count`` recounts took
    ``spent`` seconds to reference speed."""
    return REFERENCE_NOMINAL_S * count / spent
