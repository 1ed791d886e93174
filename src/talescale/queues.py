"""Simulated queue-wait models for batch resources.

A QueueModel describes how long a freshly submitted job sits in the queue
before it starts: a fixed value, a uniform range, or an exponential with a
given mean. Reservations zero the sampled wait; maintenance windows hold
job starts (no job starts inside a window).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import ConfigError

DISTRIBUTIONS = ("fixed", "uniform", "exponential")
MAINTENANCE_POLICIES = ("hold", "fail")


@dataclass(frozen=True)
class QueueModel:
    distribution: str = "fixed"
    params: dict = field(default_factory=lambda: {"value": 0.0})
    seed: int | None = None
    reservation: bool = False
    maintenance_windows: tuple[tuple[float, float], ...] = ()
    # Jobs whose start lands in a window are held to the window end by
    # default; "fail" cancels them instead (both exist in real LRMs).
    maintenance_policy: str = "hold"
    default_runtime_s: float = 60.0

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(f"unknown queue distribution {self.distribution!r}")
        if self.maintenance_policy not in MAINTENANCE_POLICIES:
            raise ConfigError(f"unknown maintenance policy {self.maintenance_policy!r}")
        for window in self.maintenance_windows:
            if len(window) != 2 or window[0] > window[1]:
                raise ConfigError(f"malformed maintenance window {window!r}")
        self._check_params()

    def _check_params(self):
        p = self.params
        if self.distribution == "fixed":
            if not p.get("value", -1) >= 0:  # NaN too
                raise ConfigError("fixed queue wait must be >= 0")
        elif self.distribution == "uniform":
            low, high = p.get("low", -1), p.get("high", -1)
            if not (0 <= low <= high):
                raise ConfigError("uniform queue wait needs 0 <= low <= high")
        elif self.distribution == "exponential":
            if not p.get("mean", -1) > 0:  # NaN too
                raise ConfigError("exponential queue wait needs mean > 0")

    def expected_wait(self) -> float:
        """Analytic mean of the configured distribution (0 under reservation)."""
        if self.reservation:
            return 0.0
        if self.distribution == "fixed":
            return float(self.params["value"])
        if self.distribution == "uniform":
            return (self.params["low"] + self.params["high"]) / 2.0
        return float(self.params["mean"])

    def analytic_median(self) -> float:
        if self.reservation:
            return 0.0
        if self.distribution == "fixed":
            return float(self.params["value"])
        if self.distribution == "uniform":
            return (self.params["low"] + self.params["high"]) / 2.0
        return float(self.params["mean"]) * math.log(2.0)

    def sample(self, rng: random.Random) -> float:
        if self.reservation:
            return 0.0
        if self.distribution == "fixed":
            return float(self.params["value"])
        if self.distribution == "uniform":
            return rng.uniform(self.params["low"], self.params["high"])
        return rng.expovariate(1.0 / float(self.params["mean"]))

    def window_covering(self, t: float) -> tuple[float, float] | None:
        for start, end in self.maintenance_windows:
            if start <= t < end:
                return (start, end)
        return None

    @classmethod
    def from_dict(cls, raw: dict) -> "QueueModel":
        known = {
            "distribution", "params", "seed", "reservation",
            "maintenance_windows", "maintenance_policy", "default_runtime_s",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown queue model keys: {sorted(unknown)}")
        raw = dict(raw)
        if "maintenance_windows" in raw:
            raw["maintenance_windows"] = tuple(tuple(w) for w in raw["maintenance_windows"])
        return cls(**raw)


def adjust_for_maintenance(qm: QueueModel, submit_time: float, sampled: float) -> float:
    """Apply maintenance holds to an already-sampled wait.

    A submission inside a window is held to the window end first, then
    waits its sampled time; if the resulting start still lands in a
    window, the start is pushed to that window's end (no re-sampling).
    """
    window = qm.window_covering(submit_time)
    effective_submit = window[1] if window else submit_time
    start = effective_submit + sampled
    for _ in range(len(qm.maintenance_windows) + 1):
        covering = qm.window_covering(start)
        if covering is None:
            break
        start = covering[1]
    return start - submit_time


def sample_queue_wait(qm: QueueModel, rng: random.Random, submit_time: float = 0.0) -> float:
    """Wait between submission and job start.

    Reservation zeroes the sampled portion; maintenance holds still apply
    (no job starts inside a window).
    """
    return adjust_for_maintenance(qm, submit_time, qm.sample(rng))
