"""Host time scaled to a reference machine speed.

The benchmark runs on small shared machines whose speed swings by a third
or more over a few seconds (clock frequency, neighbours on the same cores).
Timing raw host seconds there gives run-to-run spreads far wider than any
useful regression bound.  So every timed segment is bracketed by short runs
of a fixed calibration kernel, and the segment's host time is scaled by
the kernel's reference time over its measured time, using the mean of the
kernel timings just before and just after the segment.

A kernel is built only from standard-library work of the kind a workload
spends its time in, and never calls talescale, so a faster talescale still
reads faster.  ``OBJECT_KERNEL`` is small-object Python (json encoding,
regular expressions, shlex, dict and string handling), which is what the
simulated workloads do; ``BUFFER_KERNEL`` is zlib and sha256 over buffers
of archive-member size, which is what the archive workload does.  (The
small-object kernel tracks the archive's timings worse than no scaling at
all.)  Scaled figures stay close to host milliseconds on a machine where
the kernel takes its reference time.  Raw host seconds are kept alongside
for the report.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shlex
import time
import zlib

perf = time.perf_counter

PERIOD_S = 0.1          # calibrate at most this often; speed phases last seconds
KERNEL_REPEATS = 3      # the fastest of a few runs filters out interruptions

_SMALL = random.Random(7).randbytes(1024) + b"abc " * 256
_LARGE = random.Random(7).randbytes(32768) + b"value_1 = compute(1, 2)  # step\n" * 1024
_COMMAND = "sacct --jobs=" + ",".join(str(i) for i in range(40)) + " --format=JobID,State --noheader"
_PATTERN = re.compile(r"^\s*job_state\s*=\s*(\S+)")


def _objects() -> None:
    counts: dict[str, int] = {}
    lines = []
    for i in range(60):
        key = f"j{i % 97:04d}"
        counts[key] = counts.get(key, 0) + i
        lines.append(json.dumps({"t": i * 0.5, "kind": key, "n": i}, sort_keys=True))
        _PATTERN.match("    job_state = R")
    shlex.split(_COMMAND)
    zlib.compress(_SMALL, 6)
    hashlib.sha256(_SMALL).hexdigest()
    sorted(counts.values())


def _buffers() -> None:
    packed = zlib.compress(_LARGE, 6)
    zlib.decompress(packed)
    hashlib.sha256(_LARGE).hexdigest()


class Kernel:
    def __init__(self, fn, ref_s: float):
        self.fn = fn
        self.ref_s = ref_s  # kernel time that defines the reference speed

    def seconds(self) -> float:
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            t0 = perf()
            self.fn()
            best = min(best, perf() - t0)
        return best


OBJECT_KERNEL = Kernel(_objects, 0.0006)
BUFFER_KERNEL = Kernel(_buffers, 0.001)


class Meter:
    """Times labelled segments of one round and scales them to reference speed."""

    def __init__(self, kernel: Kernel = OBJECT_KERNEL):
        self.kernel = kernel
        self._cals: list[float] = []
        self._segments: list[tuple[str, float, int]] = []  # label, raw s, calibration before
        self._next_cal = 0.0

    def _calibrate(self) -> None:
        self._cals.append(self.kernel.seconds())
        self._next_cal = perf() + PERIOD_S

    def time(self, label: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed segment; return its result."""
        if perf() >= self._next_cal:
            self._calibrate()
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            self._segments.append((label, perf() - t0, len(self._cals) - 1))

    def close(self) -> None:
        """Calibrate once more, so the last segments are bracketed too."""
        self._calibrate()

    @property
    def raw_s(self) -> float:
        return sum(raw for _, raw, _ in self._segments)

    def scaled(self) -> list[tuple[str, float]]:
        """(label, seconds at reference speed) per segment; call after close()."""
        out = []
        for label, raw, k in self._segments:
            speed = (self._cals[k] + self._cals[k + 1]) / 2
            out.append((label, raw * self.kernel.ref_s / speed))
        return out
