"""The host's speed, measured next to each operation, and times rescaled to
a fixed nominal speed.

The benchmark runs on a few cores of a shared host whose speed changes by
up to about 1.7x in phases of seconds to minutes; processor time and wall
time change alike, so the program cannot tell the phases apart.  A run of
a minute cannot average them out, and its raw times move with the host.

So every operation is bracketed by a fixed reference kernel: interpreted
Python arithmetic and small numpy calls, the same mix as normplane's
operations.  An operation's time is multiplied by NOMINAL_S over the mean
of the kernel times just before and just after it, giving its time on a
host that runs the kernel in exactly NOMINAL_S.  A change to normplane
moves the rescaled time as it moves the raw one; a change of host phase
moves the kernel and the operation together and cancels.  The raw
figures are kept in each run's record.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.003     # about the kernel's time on a 2-core x86-64 sandbox


def _kernel():
    s = 0
    for i in range(20_000):
        s += (i * 7) % 13
    a = np.arange(64.0)
    for _ in range(200):
        a = np.sin(a) + 1.0
    return s + float(a[0])


def reference():
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def rescale(seconds, ref_before, ref_after):
    """``seconds`` measured between two kernel timings, at nominal speed."""
    return seconds * NOMINAL_S / (0.5 * (ref_before + ref_after))
