"""Machine-speed probe for scaling timings taken on a shared host.

The processor's speed on a shared host drifts by tens of percent over tens
of seconds.  ``SpeedProbe`` times a fixed loop of tuple, float and dict
allocations right before and right after each timed call, and ``run.py``
scales the call's wall time to a machine on which the loop takes
``REF_S``.  Of the loops tried (an integer loop, a numpy reduction over
16 MB, this allocation loop), this one tracked the operations best.  The
loop runs in a helper process with a small heap of its own, so the large
heaps some workloads build do not change its cost; its keys hold no
strings, so hash randomization does not either.

Run as a script, this file is the helper: it answers each line on stdin
with the loop's time in seconds, the median of five.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

LOOP = 1_500
REF_S = 0.65e-3


def loop_time() -> float:
    times = []
    for _ in range(5):
        start = time.perf_counter()
        table = {}
        for i in range(LOOP):
            table[(i, i * 0.5, -i)] = (float(i), (i,))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Client of one helper process; call it for the loop's time now."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(loop_time(), flush=True)
