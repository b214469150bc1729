"""Machine-speed references for runs on a shared host.

On a shared host the same op can take twice as long from one minute to the
next, because other tenants compete for the cores, caches and memory bus.
CPU time does not help: the process keeps running, only slower.  So every
timed op runs next to a reference of fixed work, and every time the
benchmark reports is scaled to a machine on which that reference takes its
nominal time.  The raw wall-clock figures go into the record too.

Two references, because an in-process loop does not track the speed of
starting an interpreter and importing modules:
  * in-process ops follow one loop of small-array numpy arithmetic
    (``reference``); of the loops tried, it tracked the ops best;
  * processes (set-ups, cold starts) sit between two fresh interpreters
    that import numpy and a fixed set of standard-library modules
    (``REF_PROCESS``); the mean of the two applies.
"""
from __future__ import annotations

import statistics
import time

REF_SECONDS = 3e-4            # nominal time of one reference loop
WINDOW = 3                    # loop samples on each side of an op
REF_PROCESS = ["-c", "import numpy, json, email.parser, http.client, decimal,"
                     " argparse, fractions, typing, unittest, xml.dom.minidom"]
REF_PROCESS_SECONDS = 0.2     # nominal time of one reference process


def reference() -> float:
    """Run the reference once: small-array numpy arithmetic, the kind of
    work proflim's ops are made of.  Its wall time in seconds."""
    import numpy as np
    vec = np.arange(8.0)
    t0 = time.perf_counter()
    acc = np.zeros(8)
    for _ in range(256):
        acc = acc + vec * 0.5
    return time.perf_counter() - t0


def scale_ops(latencies: list, refs: list) -> list:
    """In-process op latencies at reference speed.  refs[i] was taken just
    before op i; the median of the samples within WINDOW ops on either side
    applies."""
    return [t * REF_SECONDS / statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
            for i, t in enumerate(latencies)]


def scale_processes(walls: list, refs: list) -> list:
    """Process wall times at reference speed.  Reference processes bracket
    the timed ones: refs[i] ran just before walls[i], refs[i + 1] just after."""
    return [w * REF_PROCESS_SECONDS / ((refs[i] + refs[i + 1]) / 2)
            for i, w in enumerate(walls)]
