"""A fixed calibration kernel that measures how fast the machine is right now.

On a shared host the speed a process gets drifts by tens of percent over
tens of seconds, with the load of its neighbours.  The benchmark runs this
kernel next to every timed operation and reports each operation's time as a
multiple of the kernel's time, scaled by REF_S: the time the operation would
take on a machine where the kernel takes REF_S seconds.  The kernel uses no
torichk code; it mixes interpreted arithmetic, allocation, small numpy calls
and passes over 1 MiB arrays, as the package and its import
do, so it slows down with the same neighbours.
"""

import gc
import time

import numpy as np

# seconds; a round figure in the range `kernel` takes on the 2-vCPU Xeon VM
# of the baseline (8-14 ms with CPython 3.11 and numpy 2.4, as its neighbours'
# load goes)
REF_S = 0.01


def kernel():
    s = 0
    for i in range(30000):           # interpreted arithmetic
        s += i * i % 7
    d = {}
    for i in range(12000):           # allocation and dict churn
        d[(i, i & 7)] = [i, float(i)]
    s += len(d)
    del d
    a = np.arange(64.0)
    for _ in range(420):             # small numpy calls
        a = np.sqrt(a + 1.0)
    b = np.arange(131072.0)
    for _ in range(9):               # 1 MiB arrays through memory
        b = b * 1.0000001 + 1.0
    return s + float(a[0]) + float(b[0])


def measure():
    """Seconds one run of the kernel takes.

    The cyclic collector is off meanwhile: its full collections scan the
    caller's whole heap, which would make the kernel's time depend on what
    the benchmark holds rather than on the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
