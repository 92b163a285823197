"""Reference kernels that track the machine's speed during a run.

On a shared VM the same operation can take 20-40% longer from one
minute to the next because neighbours contend for the cores, the shared
cache and the hypervisor.  To keep that drift out of the gated times,
the serve loop probes the machine between two operations every
:data:`PROBE_SECONDS` and divides each operation's raw latency by the local probe time (the
median of the probes around it), then scales by :data:`NOMINAL_MS`: a
*calibrated* millisecond is a millisecond on a machine where a probe
takes ``NOMINAL_MS``.  This is the same-run paired ratio, expressed in
ms.  Set-up and the pipeline are calibrated the same way
(:class:`Phase`).

A probe times three fixed kernels and records their geometric mean, one
for each kind of contention the program's work is exposed to:

* core: the operations the program's hot paths are made of
  (fancy-index gathers over a 1.5 MB table, a small dense product, a
  scatter-add, a partial sort and a short interpreted loop);
* shared cache: random gathers over a 16 MB buffer, more than a core's
  L2 holds, so the time follows how much of the shared cache the
  neighbours leave;
* page faults: first writes to a fresh anonymous mapping, which the
  kernel and the hypervisor must back with zeroed pages.

No kernel calls the program, so no program change moves their work.
Nor may a program change move their *time*: the core and cache kernels
run once untimed, which loads their data into the caches, and the
second run is timed, so what the program left in the caches just before
does not reach the probe; the page-fault kernel always maps new pages.
Probes are spaced in time, not in operations, so a slow operation
(an update) is calibrated by as many probes per second as a fast one.
A probe costs about 5 ms; its time is taken out of every measured
phase.
"""

from __future__ import annotations

import mmap
import signal
import time
from typing import List, Sequence

import numpy as np

#: a probe's typical time on the reference machine (a 2-vCPU Xeon VM
#: in a quiet minute), ms
NOMINAL_MS = 1.2
#: probes on each side of an operation that set its local reference
HALF_WINDOW = 2
#: probes at each end of a long phase
CHECKPOINT_PROBES = 5
#: interval between two probes, in the serve loop and inside a phase
PROBE_SECONDS = 0.1
#: the page-fault kernel's fresh mapping
FAULT_BYTES = 2 << 20


class Phase:
    """Wall time of a long phase net of its probes, raw and calibrated.

    Set-up and the pipeline are opaque calls lasting seconds, so while a
    phase is open an interval timer interrupts it every
    :data:`PROBE_SECONDS` to run a probe (the handler runs in the
    main thread between bytecodes).  The phase is calibrated by the
    median of every probe taken from its start to its end, and the
    probes' own time is taken out of it.  Phases may nest.
    """

    def __init__(self, reference: "Reference"):
        self.reference = reference
        reference.checkpoint()
        self._first_probe = len(reference.probes_ms) - CHECKPOINT_PROBES
        self._probe_seconds = reference.probe_seconds
        reference.tick(True)
        self._started = time.perf_counter()
        self.raw = self.calibrated = 0.0

    def stop(self) -> "Phase":
        elapsed = time.perf_counter() - self._started
        self.reference.tick(False)
        self.raw = elapsed - (self.reference.probe_seconds
                              - self._probe_seconds)
        self.reference.checkpoint()
        around = self.reference.probes_ms[self._first_probe:]
        self.calibrated = self.raw * NOMINAL_MS / float(np.median(around))
        return self


class Reference:
    """The fixed kernels and the probe times recorded in one run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._table = rng.random((4000, 48))
        self._rows = rng.integers(0, 4000, size=1500)
        self._segments = np.sort(rng.integers(0, 800, size=1500))
        self._weight = rng.random((48, 48))
        self._scores = rng.random(2000)
        self._buffer = rng.random(2_000_000)  # 16 MB
        self._gathers = rng.integers(0, self._buffer.size, size=100_000)
        self.probes_ms: List[float] = []
        #: wall time spent probing, to take out of the phases around it
        self.probe_seconds = 0.0
        self._ticking = 0
        self._probing = False
        self._previous_handler = None

    def core_kernel(self) -> int:
        hidden = np.maximum(self._table[self._rows] @ self._weight, 0.0)
        summed = np.zeros((800, 48))
        np.add.at(summed, self._segments, hidden)
        top = np.argpartition(-self._scores, 20)[:20]
        counts: dict = {}
        for step in range(150):
            counts[step % 17] = counts.get(step % 17, 0) + step
        return int(top[0]) + int(summed[0, 0] > 0) + len(counts)

    def cache_kernel(self) -> float:
        return float(self._buffer[self._gathers].sum())

    @staticmethod
    def fault_kernel() -> None:
        with mmap.mmap(-1, FAULT_BYTES) as mapping:
            pages = np.frombuffer(mapping, dtype=np.uint8)
            pages[::mmap.PAGESIZE] = 1
            del pages  # the mapping cannot close while a view is open

    def probe(self) -> float:
        """Time one probe; returns and records ms."""
        self._probing = True
        started = time.perf_counter()
        product = 1.0
        for kernel in (self.core_kernel, self.cache_kernel):
            kernel()  # untimed: loads the kernel's data into the caches
            began = time.perf_counter()
            kernel()
            product *= time.perf_counter() - began
        began = time.perf_counter()
        self.fault_kernel()
        finished = time.perf_counter()
        product *= finished - began
        self._probing = False
        self.probe_seconds += finished - started
        self.probes_ms.append(product ** (1.0 / 3.0) * 1e3)
        return self.probes_ms[-1]

    def _on_timer(self, signum, frame) -> None:
        if not self._probing:  # a timer firing inside a probe is dropped
            self.probe()

    def tick(self, on: bool) -> None:
        """Start (or, once every phase has closed, stop) timed probes."""
        self._ticking += 1 if on else -1
        if on and self._ticking == 1:
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, PROBE_SECONDS,
                             PROBE_SECONDS)
        elif not on and self._ticking == 0:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)

    def checkpoint(self) -> None:
        """A cluster of probes at a boundary inside a long phase."""
        for _ in range(CHECKPOINT_PROBES):
            self.probe()


def calibration_factors(probes_ms: Sequence[float],
                        half_window: int = HALF_WINDOW) -> np.ndarray:
    """``NOMINAL_MS / local reference`` for each probe slot.

    Slot ``j`` covers the operations after probe ``j``; its local
    reference is the median of the probes within ``half_window`` slots
    on either side.
    """
    probes = np.asarray(probes_ms, dtype=np.float64)
    if probes.size == 0:
        raise ValueError("no probes recorded")
    local = np.array([
        np.median(probes[max(0, slot - half_window):slot + half_window + 1])
        for slot in range(probes.size)])
    return NOMINAL_MS / local
