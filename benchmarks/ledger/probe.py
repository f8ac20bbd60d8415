"""Host speed probes: a fixed reference kernel timed in short bursts, by
one process pinned to each CPU the benchmark runs on, for the whole of a
benchmark run.

The reference machine is a shared VM whose processors run 1.5-2x faster
or slower for tens of seconds at a time, with no steal time to show for
it: a process's CPU time grows with its wall time when the host slows.
Its two vCPUs do not even run at the same speed as each other at the
same moment.  A fixed amount of the program's work therefore takes
longer or shorter from one minute to the next.  The probe on each CPU
measures that CPU's speed while the program runs: every
:data:`INTERVAL` seconds it runs the kernel for :data:`BURST` seconds
(5% of the CPU) and reports the kernel's iterations per CPU-second of
its own, so that time the CPU spends on the program or on anything else
does not count.  An end-to-end time is then reported *at reference
speed*: the measured time scaled by the probes' mean speed over the same
interval, divided by :data:`REFERENCE_RATE`.  A program change moves the
time and not the probes; a host slowdown moves both.

One burst's speed is noisy (it varies by 25% from one burst to the
next, and now and then a burst runs 1.7x faster), so each probe takes
many short bursts and the scale is their mean: the time average of the
CPU's speed, which is what a time measured over the same interval
averages too.

Run as ``python probe.py CPU`` it is the probe process for that CPU: one
line per burst, ``<time.monotonic()> <iterations per CPU-second>``,
until terminated.
"""

from __future__ import annotations

import heapq
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

INTERVAL = 0.1
BURST = 0.005
#: Kernel iterations per CPU-second that define "reference speed": about
#: what the reference machine (2-vCPU x86-64 Xeon VM, Python 3.11) ran.
REFERENCE_RATE = 3000.0


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, time_: int, key: int, value: int):
        self.time, self.key, self.value = time_, key, value

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


def kernel() -> int:
    """A quarter of a millisecond of the interpreter work the simulator
    does: a heap of event objects, dict updates, attribute reads,
    branches."""
    heap: List[_Event] = []
    table = {}
    total = 0
    for i in range(150):
        heapq.heappush(heap, _Event((i * 7919) % 1013, i & 63, i))
    while heap:
        event = heapq.heappop(heap)
        table[event.key] = table.get(event.key, 0) + event.value
        total += len(str(event.value)) if event.value & 1 else event.time
    return total


def probe_main(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    next_burst = time.monotonic()
    while True:
        next_burst += INTERVAL
        started, cpu_time = time.monotonic(), time.process_time()
        count = 0
        while time.monotonic() - started < BURST:
            kernel()
            count += 1
        rate = count / (time.process_time() - cpu_time)
        try:
            print(f"{(started + time.monotonic()) / 2:.6f} {rate:.6f}", flush=True)
        except BrokenPipeError:
            return 0
        time.sleep(max(0.0, next_burst - time.monotonic()))


class _CpuProbe:
    """The probe process of one CPU and the samples it has reported."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: List[Tuple[float, float]] = []
        self._lock = threading.Lock()
        self._first = threading.Event()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(cpu)],
            stdout=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read, name=f"speed-probe-{cpu}",
                                        daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            instant, rate = map(float, line.split())
            with self._lock:
                self.samples.append((instant, rate))
            self._first.set()

    def wait_first(self, timeout: float) -> bool:
        return self._first.wait(timeout)

    def speed(self, start: float, end: float) -> float:
        """Mean kernel rate over ``[start, end]``; the sample nearest
        their middle if none falls inside."""
        with self._lock:
            samples = list(self.samples)
        inside = [rate for instant, rate in samples if start <= instant <= end]
        if inside:
            return statistics.fmean(inside)
        middle = (start + end) / 2
        return min(samples, key=lambda sample: abs(sample[0] - middle))[1]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self._reader.join()
        self.proc.stdout.close()


class SpeedProbe:
    """One probe process per CPU in *cpus*.  A context manager: leaving
    it terminates every probe process and waits for it."""

    def __init__(self, cpus: Iterable[int]):
        self.cpus = list(cpus)
        self._probes: List[_CpuProbe] = []
        try:
            for cpu in self.cpus:
                self._probes.append(_CpuProbe(cpu))
            # Samples must cover whatever the caller times next.
            for probe in self._probes:
                if not probe.wait_first(30.0):
                    raise RuntimeError(f"speed probe on CPU {probe.cpu} "
                                       "reported nothing within 30 s")
        except BaseException:
            self.stop()
            raise

    def speed(self, start: float, end: float, cpu: Optional[int] = None) -> float:
        """Mean kernel rate over ``[start, end]`` (``time.monotonic``
        instants) on *cpu*, or the mean over every CPU."""
        probes = [probe for probe in self._probes if cpu in (None, probe.cpu)]
        return statistics.fmean(probe.speed(start, end) for probe in probes)

    def scale(self, start: float, end: float, cpu: Optional[int] = None) -> float:
        """Factor that turns a time measured over ``[start, end]``, by a
        process on *cpu* or on any of them, into the time at reference
        speed."""
        return self.speed(start, end, cpu) / REFERENCE_RATE

    def stop(self) -> None:
        for probe in self._probes:
            probe.stop()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


if __name__ == "__main__":
    sys.exit(probe_main(int(sys.argv[1])))
