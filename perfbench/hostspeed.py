"""Host-speed correction of measured times.

The benchmark runs on a few cores of a shared host, whose speed drifts: the
same operation takes up to about 1.5 times as long for seconds to minutes at
a time, and everything slows together.  Raw wall times therefore move
between runs by more than a code change should be judged on.

A reference is fixed work of the benchmark's own, which no change to
gkraman can move.  The runner times it around every block of about
``BLOCK_S`` of measured work and scales the block's times by
``REFERENCE_S / t_ref``, with ``t_ref`` the reference's mean time around the
block.  A corrected time is thus the time the work would have taken on a
host on which the reference takes ``REFERENCE_S``: the 2-core x86-64 VM the
bounds were set on, when it is not slowed.  Raw times are kept in the run's
detail line.

Each reference must resemble what it corrects.  Spreads below are the
distance between the quartiles over the median, on five runs of five seeds
(raw -> corrected):

* ``Kernel`` (pure-Python arithmetic and the small-array numpy work of
  ``checks.sweep_point``, about 13 ms), timed in this process just before
  and just after each block of 0.25 s, corrects in-process operations:
  ``protocol_ladder`` 0.25 -> 0.03, ``detuning_sweep`` 0.26 -> 0.02.
* ``Process`` (a fresh interpreter running ``import numpy``), timed just
  before and just after each fresh process, corrects fresh processes that
  start up and import: ``cli_cold`` operations 0.16 -> 0.05, and the
  set-up probes (``setup_s``) 0.21 -> 0.10 or better.
* ``Sampled`` is a quarter-size kernel timed every ``PERIOD_S`` in a second
  thread of this process while the operation runs in a child.  It corrects
  ``verify``, 6 s of dense linear algebra in a child, which a reference
  timed only before and after did not track (the kernel took its spread
  from 0.10 to 0.25).  With it, ``verify`` went 0.13 -> 0.05.  The sampling
  thread uses about 4% of a core, on every commit alike.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks


class _Reference:
    REFERENCE_S = 1.0
    BLOCK_S = 0.25
    _last = None  # the timing after the previous block

    def _run(self):
        raise NotImplementedError

    def time(self) -> float:
        """Wall time of one pass of the reference."""
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def scale(self, before: float, after: float) -> float:
        """Factor turning a raw time measured between two reference timings
        into a corrected one."""
        return self.REFERENCE_S / (0.5 * (before + after))

    def around(self, work):
        """Run ``work()`` between two timings of the reference (the first
        shared with the previous block); returns its result and the factor
        that corrects the times measured in it."""
        before = self._last if self._last is not None else self.time()
        result = work()
        self._last = self.time()
        return result, self.scale(before, self._last)


class Kernel(_Reference):
    """In-process kernel, for operations that run in this process."""

    REFERENCE_S = 0.013  # its median on the bounds' VM ranged from 13 to 19 ms
    BLOCK_S = 0.25
    SIZE = 4

    def __init__(self):
        self.e = checks.spectrum("squared")
        self.field = checks.gk_state(self.e, 2.0, 0.0, 20)
        for _ in range(3):  # warm up
            self.time()

    def _run(self):
        total = 0
        for i in range(10_000 * self.SIZE):
            total += i * i
        for delta in np.linspace(10.0, 40.0, 4 * self.SIZE):
            checks.sweep_point(self.e, self.field, 1.0, 0.7, delta, (0.6, 0.8), 1.3)


class Process(_Reference):
    """Fresh interpreter importing numpy, for work done by fresh processes."""

    REFERENCE_S = 0.13  # its median on the bounds' VM ranged from 0.15 to 0.2 s
    BLOCK_S = 0.0

    def _run(self):
        subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=60)


class Sampled(Kernel):
    """The kernel timed in a second thread while a child process runs."""

    REFERENCE_S = 0.010  # a quarter of Kernel's, slowed by the competing child
    BLOCK_S = 0.0
    PERIOD_S = 0.2
    SIZE = 1  # about 4% of one core

    def around(self, work):
        samples, stop = [], threading.Event()

        def sample():
            while True:
                samples.append(self.time())
                if stop.wait(self.PERIOD_S):
                    return

        thread = threading.Thread(target=sample, daemon=True)
        thread.start()
        try:
            result = work()
        finally:
            stop.set()
            thread.join()
        return result, self.REFERENCE_S / statistics.mean(samples)
