"""The machine's speed over a run, from a fixed piece of reference work.

On a shared host a process's speed flips between two levels about 1.7x
apart, many times a second, and the share of time spent at the slow level
drifts over minutes: a whole run of the benchmark can fall in a slow
stretch, and every case in it takes 1.4-1.7x its time.  So the benchmark
also runs this reference work between its cases, about a tenth of the
time they take, and reports its times at the reference speed: measured
time times REF_S over the mean time of the run's reference samples.  The
mean, not the median, because the samples are bimodal and the cases,
which last longer, average over the flips.  The reference is the same kind
of work as boolprod's hot loops (a product of two sparse polynomials held
as dicts of exponent tuples), and it is part of the benchmark, so a change
to boolprod cannot change it.
"""

import statistics
import time

# The reference's mean time on the machine the benchmark was written on
# (2 vCPUs of a shared x86-64 host, CPython 3), so that times at the
# reference speed read as seconds on that machine.
REF_S = 0.016
# Reference time run after a measured stretch, as a share of its time.
SHARE = 0.1

_A = {(i, j, (i * j) % 5): i + 2 * j + 1 for i in range(8) for j in range(8)}
_B = {(i, (i + j) % 4, j): 3 * i - j for i in range(7) for j in range(6)}


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def reference() -> tuple:
    """Run the reference work once: (wall s, cpu s)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(16):
        _product(_A, _B)
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Pace:
    """The reference samples of one run."""

    def __init__(self, samples: list = ()):
        self.samples = list(samples)

    def sample(self, after_s: float) -> None:
        """Run the reference once, and again until SHARE of after_s, the
        time of the stretch just measured, has gone to it."""
        spent = 0.0
        while True:
            wall, cpu = reference()
            self.samples.append((wall, cpu))
            spent += wall
            if spent >= SHARE * after_s:
                return

    def wall_factor(self) -> float:
        """Measured wall time times this is wall time at the reference speed."""
        return REF_S / statistics.fmean(wall for wall, _ in self.samples)

    def cpu_factor(self) -> float:
        """The same for CPU time."""
        return REF_S / max(statistics.fmean(cpu for _, cpu in self.samples), 1e-9)
