import random

import pytest

from talescale.errors import ConfigError
from talescale.queues import QueueModel, sample_queue_wait


def test_fixed_wait():
    qm = QueueModel(distribution="fixed", params={"value": 600.0})
    rng = random.Random(1)
    assert qm.sample(rng) == 600.0
    assert qm.expected_wait() == 600.0


def test_uniform_bounds_and_mean():
    qm = QueueModel(distribution="uniform", params={"low": 400.0, "high": 800.0})
    rng = random.Random(7)
    draws = [qm.sample(rng) for _ in range(2000)]
    assert all(400.0 <= d <= 800.0 for d in draws)
    assert qm.expected_wait() == 600.0


def test_exponential_sampled_mean_matches_configured_mean():
    # sampling-statistics oracle: 10,000 seeded draws, mean within 5%
    qm = QueueModel(distribution="exponential", params={"mean": 600.0})
    rng = random.Random(42)
    draws = [qm.sample(rng) for _ in range(10_000)]
    assert all(d >= 0 for d in draws)
    mean = sum(draws) / len(draws)
    assert abs(mean - 600.0) / 600.0 < 0.05


def test_reservation_zeroes_wait():
    qm = QueueModel(distribution="exponential", params={"mean": 600.0}, reservation=True)
    assert sample_queue_wait(qm, random.Random(0), 0.0) == 0.0
    assert qm.expected_wait() == 0.0


def test_submit_inside_maintenance_window_extends_wait():
    # fixed(600), submit mid-window ending 100 later -> wait = 100 + 600
    qm = QueueModel(
        distribution="fixed", params={"value": 600.0},
        maintenance_windows=((1000.0, 1200.0),),
    )
    assert sample_queue_wait(qm, random.Random(0), 1100.0) == 100.0 + 600.0


def test_start_never_lands_inside_a_window():
    qm = QueueModel(
        distribution="fixed", params={"value": 50.0},
        maintenance_windows=((100.0, 200.0),),
    )
    # submitted before the window, sampled start at 149 -> pushed to 200
    assert sample_queue_wait(qm, random.Random(0), 99.0) == 200.0 - 99.0
    wait = sample_queue_wait(qm, random.Random(0), 80.0)
    assert 80.0 + wait == 200.0


def test_reservation_still_respects_maintenance():
    qm = QueueModel(
        distribution="fixed", params={"value": 600.0}, reservation=True,
        maintenance_windows=((0.0, 300.0),),
    )
    assert sample_queue_wait(qm, random.Random(0), 100.0) == 200.0


@pytest.mark.parametrize("raw", [
    {"distribution": "weibull", "params": {}},
    {"distribution": "fixed", "params": {"value": -1}},
    {"distribution": "uniform", "params": {"low": 10, "high": 5}},
    {"distribution": "exponential", "params": {"mean": 0}},
    {"distribution": "fixed", "params": {"value": 0}, "maintenance_policy": "explode"},
    {"distribution": "fixed", "params": {"value": 0}, "maintenance_windows": [[5, 1]]},
    {"distribution": "fixed", "params": {"value": float("nan")}},
    {"distribution": "exponential", "params": {"mean": float("nan")}},
    {"distribution": "fixed", "params": {"value": "5"}},
    {"distribution": "exponential", "params": {"mean": float("inf")}},
    {"distribution": "uniform", "params": {"low": "1", "high": 2}},
    {"distribution": "fixed", "params": {"value": 0}, "maintenance_windows": [["a", "b"]]},
    {"distribution": "fixed", "params": {"value": float("inf")}},
    {"distribution": "fixed", "params": {"value": 0}, "default_runtime_s": "60"},
    {"distribution": "fixed", "params": {"value": 0, "mean": 5}},
    {"distribution": "uniform", "params": {"low": 1}},
    {"distribution": "fixed", "params": {"value": True}},
    {"distribution": "fixed", "params": {"value": 0}, "maintenance_windows": [[1, 2, 3]]},
    {"distribution": "fixed", "params": {"value": 0}, "maintenance_windows": [5]},
    {"distribution": "fixed", "params": {"value": 0}, "maintenance_windows": [[0, float("inf")]]},
    {"distribution": ["fixed"], "params": {"value": 0}},
    5,
])
def test_bad_queue_configs_rejected(raw):
    with pytest.raises(ConfigError):
        QueueModel.from_dict(raw)


def test_unknown_queue_keys_rejected():
    with pytest.raises(ConfigError):
        QueueModel.from_dict({"distribution": "fixed", "params": {"value": 0}, "bogus": 1})
