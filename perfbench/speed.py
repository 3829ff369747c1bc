"""Machine-speed normalization of measured times.

On a shared 2-core virtual machine, Python's speed switches between two
levels about 1.6x apart, often several times a second and sometimes for a
whole process (the calibration below takes about 9 or 15 ms, rarely in
between).  Raw times of repeated runs therefore spread by up to 0.3
(quartile distance over median).  A run times a short calibration (a fixed loop of complex,
integer-rational and dict work that never touches the package) right before
and right after each timed item, and scales the item by NOMINAL_S over the
mean of the two: seconds at the machine's nominal speed.  The raw figures
are reported beside the scaled ones.

Sweep cells are timed in the benchmark's process, which calibrates between
cells at most every INTERVAL_S, so short cells share their calibrations.
Set-up times and CLI requests are timed in a child process, which calibrates
itself (cli_child.py, run.timed_child_code): the parent's calibrations say
little about a 0.1 s child.  In five- and six-seed trials on the same
inputs, one factor per run (nominal over the run's median calibration) left
spreads of 0.18 to 0.53; per-item factors brought them to 0.04 to 0.13.

This module imports nothing beyond what the interpreter loads at start-up,
so a child that imports it still pays the package's whole cold import.
"""

import math
import time

# Calibration time at nominal speed, about the fast level on the 2-core
# virtual machine that recorded baseline.json.  Only ratios matter.
NOMINAL_S = 0.01
# Calibrate at most this often, so that short items share one calibration.
INTERVAL_S = 0.15


def _piece_s(n: int) -> float:
    t0 = time.perf_counter()
    acc = 0j
    num, den = 1, 1
    for i in range(1, n):
        z = complex(i % 97, 1.0 / i)
        acc += z * z / (z + 1.5)
        if i % 50 == 0:
            num, den = num * (i + 1) * i - den, den * i * i
            g = math.gcd(num, den)
            num, den = num // g, den // g
    counts = {}
    for i in range(n):
        counts[i % 512] = counts.get(i % 512, 0) + i
    return time.perf_counter() - t0


def calibration_s() -> float:
    """Seconds a fixed pure-Python workload takes right now: three times the
    fastest of three thirds of it, since a pause only ever slows a piece."""
    return 3 * min(_piece_s(5000) for _ in range(3))


def bracket_factor(calibrations) -> float:
    """Multiply an item's raw time by this to get its nominal-speed time:
    NOMINAL_S over the mean of the calibrations taken just before and just
    after the item."""
    return NOMINAL_S * len(calibrations) / sum(calibrations)


class SpeedProbe:
    """Calibrations taken between the timed items of one run."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        calibration_s()  # warm-up
        self.samples = [calibration_s()]
        self.last_at = time.perf_counter()

    def tick(self):
        """Call after each timed item; calibrates if interval_s has passed."""
        if time.perf_counter() - self.last_at >= self.interval_s:
            self.calibrate()

    def calibrate(self):
        self.samples.append(calibration_s())
        self.last_at = time.perf_counter()

    def mark(self) -> int:
        """Index of the latest calibration, taken before an item starts."""
        return len(self.samples) - 1

    def bracket_factor(self, mark: int) -> float:
        """Factor for an item timed between calibration `mark` and the next
        one (see bracket_factor)."""
        return bracket_factor(self.samples[mark:mark + 2])
