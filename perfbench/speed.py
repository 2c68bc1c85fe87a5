"""Machine-speed probe: times measured at a reference speed.

The benchmark runs on shared hosts where a vCPU's speed is not constant:
on a 2-vCPU KVM guest (2.1 GHz Xeon) the same pure-Python loop runs at
two speeds about 1.5x apart, switching within a fraction of a second,
and the share of slow time drifts over minutes.  Raw seconds then move by
20-30% between runs of the same code.

A :class:`SpeedMeter` runs a fixed piece of pure-Python graph work (the
probe) every ``INTERVAL_S`` seconds from a ``SIGALRM`` handler, in the
same process and on the same CPU as the program, plus once before and
once after the timed interval.  The probe's mean duration tells how fast
the machine ran during the interval.  :meth:`SpeedMeter.scale` turns raw
seconds into seconds at the speed where one probe takes ``REFERENCE_S``:
``(raw - probe time inside the interval) * REFERENCE_S / mean probe``.
The probe does not depend on the program, so a change to the program
moves the scaled time as it moves the raw time.

Only the main thread can take the signal; the benchmark is single-threaded.
"""

import signal
from time import perf_counter, process_time

INTERVAL_S = 0.05
# about one probe inside the program at full speed (2.1 GHz Xeon vCPU,
# Python 3.11); it sets the unit, so scaled and raw seconds are comparable
REFERENCE_S = 0.0011

_N = 97
_GRAPH = {v: ((v * 7 + 1) % _N, (v * 13 + 5) % _N, (v + 1) % _N)
          for v in range(_N)}


def probe_work():
    """Depth-first searches and a tally on a fixed 97-vertex graph."""
    seen, order = set(), []
    for source in range(0, _N, 3):
        stack = [source]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            order.append(v)
            stack.extend(_GRAPH[v])
        seen.clear()
    tally = {}
    for v in order:
        tally[v] = tally.get(v, 0) + 1
    return len(tally)


class SpeedMeter:
    """Probes the machine's speed around and during one timed interval.

    ``start()`` probes once and arms the timer; the caller then reads its
    clocks, runs the work and reads its clocks again; ``stop()`` disarms
    the timer and probes once more.  ``spent``/``cpu_spent`` are the wall
    and CPU seconds of the probes that ran inside the interval.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.cpu_spent = 0.0
        self._previous = None

    def _probe(self):
        w0, c0 = perf_counter(), process_time()
        probe_work()
        wall = perf_counter() - w0
        self.samples.append(wall)
        return wall, process_time() - c0

    def _on_alarm(self, signum, frame):
        wall, cpu = self._probe()
        self.spent += wall
        self.cpu_spent += cpu

    def start(self):
        self.samples, self.spent, self.cpu_spent = [], 0.0, 0.0
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def scale(self, wall, cpu):
        """(wall, cpu) seconds of the interval at the reference speed."""
        factor = REFERENCE_S * len(self.samples) / sum(self.samples)
        return (wall - self.spent) * factor, (cpu - self.cpu_spent) * factor
