import statistics

import pytest

from talescale.errors import TransportError
from talescale.measure import launch_frontend, measure_models
from talescale.planner import ExecutionModel, WorkloadRequirements
from talescale.world import load_config

from conftest import batch_world, frontend_times


def test_wt_only_world_reports_only_m1_rows():
    config = load_config({
        "resources": [{"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
                       "allows_incoming_connections": True}],
    })
    rows = measure_models(config, WorkloadRequirements(), seeds=range(5))
    assert {row.model for row in rows} == {"M1_wt_cluster"}
    assert len(rows) == 5


def test_m1_exact_and_m2_adds_queue_wait():
    config = load_config({
        "resources": [
            {"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
             "allows_incoming_connections": True},
            {"name": "direct-1", "kind": "hpc_cluster", "lrm": "none",
             "allows_incoming_connections": False, "queue": "q"},
        ],
        "queues": {"q": {"distribution": "fixed", "params": {"value": 600.0}}},
        "scenario": {"image_load_s": 8.0},
    })
    rows = measure_models(config, WorkloadRequirements(needs_hpc=True), seeds=range(20))
    m1 = frontend_times(rows, "M1_wt_cluster")
    m2 = frontend_times(rows, "M2_hpc_node")
    assert statistics.median(m1) == 8.0
    assert statistics.median(m2) == 608.0


def test_warm_pilot_beats_cold_queue_by_two_orders():
    # seeded comparison: exponential(600) queue, image load 2 s
    base = {
        "resources": [
            {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 8, "queue": "q"},
        ],
        "queues": {"q": {"distribution": "exponential", "params": {"mean": 600.0}}},
        "scenario": {"image_load_s": 2.0},
    }
    seeds = range(10)
    req = WorkloadRequirements(needs_hpc=True)
    cold = measure_models(load_config(base), req, seeds)
    warm_config = dict(base)
    warm_config["pools"] = [{"resource": "hpc-1", "min_warm": 2, "max_size": 4,
                             "pilot_walltime_s": 100000.0}]
    warm = measure_models(load_config(warm_config), req, seeds, warmup_s=5000.0)
    cold_median = statistics.median(frontend_times(cold, "M3_hpc_node_local_lrm"))
    warm_median = statistics.median(frontend_times(warm, "M3_hpc_node_local_lrm"))
    assert cold_median / warm_median > 100.0


def test_rows_carry_per_run_counters():
    config = load_config({
        "resources": [
            {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "queue": "q"},
        ],
        "queues": {"q": {"distribution": "fixed", "params": {"value": 20.0}}},
    })
    rows = measure_models(config, WorkloadRequirements(needs_hpc=True), seeds=[0])
    row = rows[0]
    assert row.queries > 0
    assert row.handshakes >= 1


def test_mpi_frontend_skips_a_cloud_batch_resource_listed_first():
    # The planner places M4 only on an hpc_cluster, so the measured frontend
    # must wait out mpi-1's 600 s queue, not cloudb-1's 10 s one.
    config = load_config({
        "resources": [
            {"name": "cloudb-1", "kind": "cloud", "lrm": "batch", "mpi_capable": True,
             "node_count": 8, "queue": "fast"},
            {"name": "mpi-1", "kind": "hpc_cluster", "lrm": "batch", "mpi_capable": True,
             "allows_incoming_connections": False, "node_count": 8, "queue": "slow"},
        ],
        "queues": {"fast": {"distribution": "fixed", "params": {"value": 10.0}},
                   "slow": {"distribution": "fixed", "params": {"value": 600.0}}},
        "scenario": {"image_load_s": 8.0},
    })
    req = WorkloadRequirements(needs_hpc=True, needs_mpi=True, min_nodes=4)
    rows = measure_models(config, req, seeds=range(3))
    assert {row.model for row in rows} == {"M4_hpc_mpi"}
    assert min(frontend_times(rows, "M4_hpc_mpi")) >= 608.0


def test_frontend_on_a_warm_pilot_is_not_a_workload_start():
    world = batch_world(pools=[{"resource": "hpc-1", "min_warm": 1, "max_size": 2,
                                "pilot_walltime_s": 50_000.0}])
    world.clock.run_until(700.0)
    ttf = launch_frontend(world, ExecutionModel.M3_HPC_NODE_LOCAL_LRM, "hpc-1",
                          WorkloadRequirements(needs_hpc=True))
    assert ttf == 0.2 + world.config.scenario.image_load_s
    assert world.metrics().workload_start_latencies == []
    # the frontend's start stays in the trace
    started = [ev.fields for ev in world.trace if ev.kind == "workload_started"]
    assert [(f["via"], f["tale_id"]) for f in started] == [("pilot", "frontend")]


def test_cold_frontend_submit_transport_failure_is_a_transport_error():
    world = batch_world()
    world.transport.inject_failure("transport")
    with pytest.raises(TransportError, match="ended in Failed"):
        launch_frontend(world, ExecutionModel.M3_HPC_NODE_LOCAL_LRM, "hpc-1",
                        WorkloadRequirements(needs_hpc=True))
    assert not any(ev.kind == "frontend_ready" for ev in world.trace)


@pytest.mark.parametrize("pilot_nodes,ttf", [(1, 613.0), (4, 8.2)])
def test_an_mpi_frontend_claims_a_pilot_only_when_it_holds_the_nodes(pilot_nodes, ttf):
    # A 4-node M4 frontend after a 2000 s warmup: a warm 1-node pilot cannot
    # host it, so it waits out the 600 s queue; a 4-node pilot can.
    config = load_config({
        "resources": [{"name": "mpi-1", "kind": "hpc_cluster", "lrm": "batch",
                       "mpi_capable": True, "allows_incoming_connections": False,
                       "node_count": 8, "queue": "q"}],
        "queues": {"q": {"distribution": "fixed", "params": {"value": 600.0}}},
        "pools": [{"resource": "mpi-1", "min_warm": 1, "max_size": 2,
                   "pilot_walltime_s": 50_000.0, "pilot_nodes": pilot_nodes}],
    })
    req = WorkloadRequirements(needs_hpc=True, needs_mpi=True, min_nodes=4)
    rows = measure_models(config, req, seeds=[0], warmup_s=2000.0)
    assert frontend_times(rows, "M4_hpc_mpi") == [ttf]


def test_a_cold_frontend_submit_carries_no_tale_id():
    world = batch_world(pools=[{"resource": "hpc-1", "min_warm": 0, "max_size": 2}])
    launch_frontend(world, ExecutionModel.M3_HPC_NODE_LOCAL_LRM, "hpc-1",
                    WorkloadRequirements(needs_hpc=True))
    submitted = [ev.fields for ev in world.trace if ev.kind == "job_submitted"]
    assert [(f["job_id"], f["tale_id"]) for f in submitted] == [("j000001", None)]
