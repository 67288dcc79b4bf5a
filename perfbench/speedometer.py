"""Measures the speed of one CPU while a benchmark process shares it.

    python3 perfbench/speedometer.py [--nice N]

run.py starts this process on the same single CPU as a worker process,
so the two take turns on that CPU and see the same host speed. At the
default niceness 0 they take equal turns, every few milliseconds, which
short windows such as set-up need; at niceness 19 the speedometer takes
about 1.5% of the CPU, in short turns spread over the window, which
costs a long repetition little time. The speedometer repeats a fixed
chunk of interpreter work (`chunk`, no aucrac code, so a change to the
program never changes it) and records, per chunk, the monotonic time
it ended and the CPU time it took. It prints `ready` once it is
looping; on SIGTERM it prints the records as one JSON list and exits.

A worker's CPU time t over a window then converts to reference seconds
as t * REF_CHUNK_S / c, where c is the mean CPU time of the chunks that
ended in that window: t counted in chunks of work, which the host's
speed at that moment does not change.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import signal
import sys
import time

REF_CHUNK_S = 0.001  # CPU time of one chunk on the reference host


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def chunk() -> None:
    """A fixed chunk of the kind of work the simulator does: object
    creation, attribute and dict access, a heap and string formatting."""
    heap, sums = [], {}
    for i in range(500):
        p = _Pair(i * 0.5, i % 97)
        sums[p.b] = sums.get(p.b, 0.0) + p.a
        heapq.heappush(heap, (p.b, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        line = f"{p.a!r},{p.b}"
    del line


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--nice", type=int, default=0)
    os.nice(p.parse_args(argv).nice)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    records = []
    print("ready", flush=True)
    while not stop:
        c0 = time.process_time()
        chunk()
        records.append((time.monotonic(), time.process_time() - c0))
    print(json.dumps(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
