"""Simulated queue-wait models for batch resources.

A QueueModel describes how long a freshly submitted job sits in the queue
before it starts: a fixed value, a uniform range, or an exponential with a
given mean. Reservations zero the sampled wait; maintenance windows hold
job starts (no job starts inside a window).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ConfigError, check_bool, check_choice, check_keys, check_list, check_number

# Each distribution's required parameters, and whether each must be above 0 (else at least 0).
DISTRIBUTIONS = {"fixed": {"value": False}, "uniform": {"low": False, "high": False},
                 "exponential": {"mean": True}}
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
        check_choice("queue", "distribution", self.distribution, DISTRIBUTIONS)
        check_choice("queue", "maintenance_policy", self.maintenance_policy, MAINTENANCE_POLICIES)
        check_bool("queue", "reservation", self.reservation)
        windows = tuple(check_list("queue maintenance window", w)
                        for w in check_list("queue maintenance_windows", self.maintenance_windows))
        for window in windows:
            if len(window) != 2 or (check_number("queue maintenance window", "start", window[0])
                                    > check_number("queue maintenance window", "end", window[1])):
                raise ConfigError(f"malformed maintenance window {window!r}")
        object.__setattr__(self, "maintenance_windows", windows)
        params = DISTRIBUTIONS[self.distribution]
        check_keys(f"{self.distribution} queue params", self.params, params, params)
        for key, above in params.items():
            check_number(f"{self.distribution} queue params", key, self.params[key], above=above)
        if self.distribution == "uniform" and self.params["low"] > self.params["high"]:
            raise ConfigError("uniform queue wait needs low <= high")
        check_number("queue", "default_runtime_s", self.default_runtime_s)

    def expected_wait(self) -> float:
        """Analytic mean of the configured distribution (0 under reservation)."""
        if self.reservation:
            return 0.0
        if self.distribution == "fixed":
            return float(self.params["value"])
        if self.distribution == "uniform":
            return (self.params["low"] + self.params["high"]) / 2.0
        return float(self.params["mean"])

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
        check_keys("queue", raw, cls.__dataclass_fields__, strings=("distribution", "maintenance_policy"))
        return cls(**raw)


def queues_by_name(raw) -> dict[str, QueueModel]:
    """Parse a config's ``queues`` object, whose keys are free queue names."""
    return {name: QueueModel.from_dict(q) for name, q in check_keys("queues", raw, raw).items()}


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
