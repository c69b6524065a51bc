"""Reference work that measures the machine's current speed.

The benchmark runs it between requests, and every ``SAMPLE_EVERY_S`` inside
a long request, and scales each request's time by ``REF_NOMINAL_S`` over the
mean reference time measured around and inside it.  The machine's speed
drifts by up to 1.6x over seconds and minutes (README, Noise); the reference
slows with it, so the scaled times are the times at a fixed machine speed.
It is part of the benchmark, not of the program, so a change to the program
cannot make it faster.
"""

import gc
import signal
import time
from contextlib import contextmanager

import numpy as np

# About the reference's time when the machine runs fast (2-vCPU Intel Xeon
# VM, 2.1 GHz, Python 3.11.7, numpy 2.4.6).  It only sets the scale: times
# are compared between commits at the same constant.
REF_NOMINAL_S = 1.2e-3
# The machine's speed changes within a 0.2 s request; sampling it inside
# long requests halved the spread of a `paths` request's scaled time.  The
# first sample comes SAMPLE_EVERY_S into a request, so short requests are
# never interrupted.
SAMPLE_EVERY_S = 0.05

_A = np.arange(35.0)


def reference_seconds():
    """Seconds taken by a fixed mix of small numpy operations and interpreter loops.

    The mix is like the program's own.  It allocates no tracked objects and
    runs with gc off, so it never collects the program's garbage.
    """
    gc.disable()
    t = time.perf_counter()
    s = 0.0
    for i in range(300):
        s += float((_A * 1.0001 + i).sum())
        for j in range(20):
            s += j * 0.5
    t = time.perf_counter() - t
    gc.enable()
    return t


@contextmanager
def sampled():
    """Run the reference every SAMPLE_EVERY_S while the block runs.

    Yields a list that fills with (reference seconds, seconds spent in the
    sampler) pairs.  The sampler runs as a SIGALRM handler in the main
    thread, between two bytecodes of the program.
    """
    samples = []

    def handler(signum, frame):
        t0 = time.perf_counter()
        ref = reference_seconds()
        samples.append((ref, time.perf_counter() - t0))

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
