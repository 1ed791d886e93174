import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from talescale.cluster import SimulatedLrm
from talescale.digest import digest_bytes
from talescale.dms import CacheState, StagingKind, TransferSource
from talescale.errors import ChecksumMismatchError, ConfigError, TalescaleError, ValidationError
from talescale.measure import launch_frontend
from talescale.metrics import ReportRow, emit_report
from talescale.middleware import JobSpec, JobState
from talescale.pilots import PilotPool
from talescale.planner import ExecutionModel, WorkloadRequirements, plan_placement
from talescale.queues import QueueModel
from talescale.resources import ResourceDescriptor
from talescale.tale import CodeArtifact, PackagingManifest
from talescale.world import World, load_config, run_scenario

from conftest import batch_world
from test_acceptance import CRITERION_11_CONFIG


MINIMAL = {
    "resources": [{"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
                   "allows_incoming_connections": True}],
}

SCENARIO = {
    "resources": [
        {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
         "allows_incoming_connections": False, "node_count": 8, "queue": "q"},
    ],
    "queues": {"q": {"distribution": "exponential", "params": {"mean": 40.0}}},
    "scenario": {
        "actions": [
            {"op": "submit_jobs", "t": 1.0, "resource": "hpc-1", "count": 5,
             "command": ["sleep", "10"]},
        ],
    },
}


# Job ops the run could not fire: each loaded, then raised from World.run
# when its op fired at 10 s. Each must be refused at load instead.
UNRUNNABLE_JOB_OPS = {
    "no_batch_lrm": (
        {"resources": [{"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
                        "allows_incoming_connections": True}],
         "scenario": {"actions": [{"op": "workload", "t": 10.0, "resource": "wt-1"}]}},
        "scenario op 'workload' resource 'wt-1' has no batch LRM"),
    "unknown_credential": (
        {**SCENARIO, "scenario": {"credentials": ["alice", "bob"], "actions": [
            {"op": "submit_jobs", "t": 10.0, "resource": "hpc-1", "credential": "carol"}]}},
        "scenario op 'submit_jobs' credential 'carol' is not in scenario credentials "
        "['alice', 'bob']"),
    "default_credential": (
        {**SCENARIO, "scenario": {"credentials": ["alice"], "actions": [
            {"op": "submit_jobs", "t": 10.0, "resource": "hpc-1"}]}},
        "scenario op 'submit_jobs' credential 'user' (the default) is not in scenario "
        "credentials ['alice']"),
}


class TestLoadConfig:
    def test_minimal_config_is_a_valid_world(self):
        config = load_config(MINIMAL)
        assert "wt-1" in config.resources

    def test_pool_referencing_missing_resource_names_both(self):
        bad = dict(MINIMAL)
        bad["pools"] = [{"resource": "ghost", "min_warm": 1}]
        with pytest.raises(ConfigError) as exc:
            load_config(bad)
        assert "ghost" in str(exc.value)

    def test_batch_resource_requires_queue(self):
        with pytest.raises(ConfigError, match="queue"):
            load_config({"resources": [
                {"name": "h", "kind": "hpc_cluster", "lrm": "batch",
                 "allows_incoming_connections": False},
            ]})

    def test_unknown_dialect_rejected(self):
        with pytest.raises(ConfigError, match="dialect must be one of \\['sim-pbs', 'sim-slurm'\\], "
                                             "got 'sim-lsf'"):
            load_config({"resources": [
                {"name": "h", "kind": "hpc_cluster", "lrm": "batch", "dialect": "sim-lsf",
                 "allows_incoming_connections": False, "queue": "q"},
            ], "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}}})

    def test_resource_referencing_unknown_queue(self):
        with pytest.raises(ConfigError, match="unknown queue"):
            load_config({"resources": [
                {"name": "h", "kind": "hpc_cluster", "lrm": "batch",
                 "allows_incoming_connections": False, "queue": "missing"},
            ]})

    def test_unknown_scenario_op_rejected(self):
        bad = dict(MINIMAL)
        bad["scenario"] = {"actions": [{"op": "explode", "t": 0}]}
        with pytest.raises(ConfigError, match="explode"):
            load_config(bad)

    def test_action_against_unknown_dataset_rejected(self):
        bad = dict(MINIMAL)
        bad["scenario"] = {"actions": [{"op": "open_dataset", "t": 0, "uri": "doi:ghost"}]}
        with pytest.raises(ConfigError, match="doi:ghost"):
            load_config(bad)

    @pytest.mark.parametrize("action, message", [
        ({"op": "submit_jobs", "resource": "hpc-1", "count": "x"}, "integer count"),
        ({"op": "submit_jobs", "resource": "hpc-1", "count": 2.0}, "integer count"),
        ({"op": "submit_jobs", "resource": "hpc-1", "node_count": True}, "integer node_count"),
        ({"op": "workload", "resource": "hpc-1", "node_count": "2"}, "integer node_count"),
        ({"op": "cancel", "job_index": "0"}, "integer job_index"),
        ({"op": "cancel"}, "missing \\['job_index'\\]"),
        ({"op": "submit_jobs", "count": 2}, "missing \\['resource'\\]"),
        ({"op": "workload"}, "missing \\['resource'\\]"),
        ({"op": "open_dataset"}, "missing \\['uri'\\]"),
        ({"op": "submit_jobs", "resource": "hpc-1", "cout": 5}, "unknown keys \\['cout'\\]"),
        ({"op": "cancel", "job_index": 0, "resource": "hpc-1"}, "unknown keys \\['resource'\\]"),
        ({"op": "prefetch", "t": "soon"}, "t must be a finite number at least 0, got 'soon'"),
        ({"op": "prefetch", "t": float("nan")}, "t must be a finite number at least 0, got nan"),
        ({"op": "prefetch", "t": "inf"}, "t must be a finite number at least 0, got 'inf'"),
        ({"op": "prefetch", "t": "5"}, "t must be a finite number at least 0, got '5'"),
        ({"op": "prefetch", "t": True}, "t must be a finite number at least 0, got True"),
        ({"op": "prefetch", "t": -1}, "t must be a finite number at least 0, got -1"),
        ("submit_jobs", "must be an object"),
        ({"op": "workload", "resource": "hpc-1", "mpi": True},
         "scenario op 'workload' mpi is true, but resource 'hpc-1' is not MPI capable"),
        ({"op": "submit_jobs", "t": 50, "resource": "hpc-1", "node_count": 16},
         "scenario op 'submit_jobs' node_count 16 exceeds the 8 nodes of resource 'hpc-1'"),
    ])
    def test_malformed_action_rejected(self, action, message):
        bad = {**SCENARIO, "scenario": {"actions": [action]}}
        with pytest.raises(ConfigError, match=message):
            load_config(bad)

    @pytest.mark.parametrize("name", sorted(UNRUNNABLE_JOB_OPS))
    def test_job_op_the_run_cannot_fire_rejected(self, name):
        config, message = UNRUNNABLE_JOB_OPS[name]
        with pytest.raises(ConfigError) as caught:
            load_config(config)
        assert str(caught.value) == message

    def test_job_ops_on_their_credentials_load(self):
        load_config({**SCENARIO, "scenario": {"credentials": ["alice", "user"], "actions": [
            {"op": "submit_jobs", "resource": "hpc-1"},
            {"op": "workload", "resource": "hpc-1", "credential": "alice"}]}})

    @pytest.mark.parametrize("scenario, message", [
        ({"credentials": ["alice", 7]}, "credentials must be a list of strings"),
        ({"poll_interval_s": 0}, "poll_interval_s must be a finite number greater than 0"),
        ({"image_load_s": float("inf")}, "image_load_s must be a finite number at least 0"),
        ({"idle_ttl_s": -1.0}, "idle_ttl_s must be"),
        ({"dispatch_overhead_s": True}, "dispatch_overhead_s must be"),
    ])
    def test_malformed_scenario_rejected(self, scenario, message):
        with pytest.raises(ConfigError, match=message):
            load_config({**SCENARIO, "scenario": scenario})

    def test_scenario_numbers_keep_their_type(self):
        sc = load_config({**SCENARIO, "scenario": {
            "image_load_s": 8, "poll_interval_s": 2.5, "idle_ttl_s": None,
            "transport_rtt_s": 0, "credentials": ["alice", "bob"]}}).scenario
        assert (sc.image_load_s, sc.poll_interval_s, sc.idle_ttl_s, sc.transport_rtt_s,
                sc.credentials) == (8, 2.5, None, 0, ("alice", "bob"))
        assert type(sc.image_load_s) is int

    def test_unknown_sections_rejected(self):
        with pytest.raises(ConfigError):
            load_config({**MINIMAL, "extra": {}})

    def test_duplicate_resource_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config({"resources": [MINIMAL["resources"][0], MINIMAL["resources"][0]]})

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")


# A config that uses every section, key and scenario op. The sweep below puts
# each odd JSON value in place of each part of it in turn.
FULL_CONFIG = {
    "resources": [
        {"name": "wt-1", "kind": "wt_cluster", "lrm": "none", "allows_incoming_connections": True},
        {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch", "queue": "q",
         "allows_incoming_connections": False, "node_count": 8, "mpi_capable": True,
         "dialect": "sim-slurm", "local_datasets": ["doi:a"], "dataset_interface": "posix",
         "no_proxy": False, "can_compile": True},
        {"name": "hpc-2", "kind": "hpc_cluster", "lrm": "batch",
         "allows_incoming_connections": False, "node_count": 4,
         "queue_model": {"distribution": "uniform", "params": {"low": 1, "high": 5}}},
    ],
    "queues": {"q": {"distribution": "exponential", "params": {"mean": 20.0}, "seed": 3,
                     "reservation": False, "maintenance_windows": [[50, 60]],
                     "maintenance_policy": "hold", "default_runtime_s": 30}},
    "pools": [{"resource": "hpc-1", "min_warm": 1, "max_size": 2, "pilot_walltime_s": 60,
               "replenish_threshold": 1, "pilot_nodes": 1, "credential": "svc"}],
    "cache": {"capacity_bytes": 10000, "bandwidth_bytes_per_s": 100.0,
              "datasets": [{"uri": "doi:a", "size_bytes": 100, "checksum": digest_bytes(b"doi:a")},
                           {"uri": "doi:b", "size_bytes": 200, "checksum": digest_bytes(b"doi:b")}]},
    "scenario": {"image_load_s": 8, "poll_interval_s": 5, "idle_ttl_s": 300,
                 "transport_rtt_s": 0.05, "handshake_s": 0.5, "dispatch_overhead_s": 0.2,
                 "credentials": ["user", "bob"],
                 "actions": [
                     {"op": "submit_jobs", "t": 0, "resource": "hpc-1", "count": 2,
                      "spacing": 1, "command": ["sleep", "5"], "credential": "user",
                      "tale_id": "t1", "node_count": 1, "mpi": False},
                     {"op": "workload", "t": 2, "resource": "hpc-1", "via_pool": True},
                     {"op": "open_dataset", "t": 3, "uri": "doi:b"},
                     {"op": "prefetch", "t": 4, "uris": ["doi:a"]},
                     {"op": "cancel", "t": 5, "job_index": 0},
                 ]},
}

ODD_VALUES = ["x", "", -1, 0, 2.5, True, None, [], {}, [["a", "b"]], [1], {"a": 1},
              float("inf"), float("nan")]


def _parts(node, path=()):
    """The path of every section, list item and value in ``node``."""
    if path:
        yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _parts(child, path + (key,))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


@pytest.mark.parametrize("path", list(_parts(FULL_CONFIG)), ids=lambda path: "/".join(map(str, path)))
def test_odd_value_anywhere_is_rejected_or_runs(path):
    """No value in any place makes loading or running fail other than with a
    TalescaleError: a malformed config never reaches an internal error."""
    World(load_config(FULL_CONFIG), 0).run(100.0)
    for value in ODD_VALUES:
        config = copy.deepcopy(FULL_CONFIG)
        _at(config, path[:-1])[path[-1]] = value
        try:
            World(load_config(config), 0).run(100.0)
        except TalescaleError:
            pass


@pytest.mark.parametrize("path", [()] + [
    path for path in _parts(FULL_CONFIG)
    if isinstance(_at(FULL_CONFIG, path), dict) and path != ("queues",)],
    ids=lambda path: "/".join(map(str, path)) or "root")
def test_unknown_key_anywhere_rejected(path):
    config = copy.deepcopy(FULL_CONFIG)
    _at(config, path)["colour"] = "red"
    with pytest.raises(ConfigError, match="unknown keys \\['colour'\\]"):
        load_config(config)


def _with_action(**action):
    config = copy.deepcopy(FULL_CONFIG)
    config["scenario"]["actions"] = [dict(action, t=0, resource="hpc-1")]
    return load_config(config)


# Each boolean field: a call that reads its value from JSON, and its section.
BOOL_FIELDS = {
    **{key: (lambda v, key=key: ResourceDescriptor.from_dict(
        {"name": "h", "kind": "hpc_cluster", "allows_incoming_connections": False, key: v}),
             "resource 'h'")
       for key in ("allows_incoming_connections", "mpi_capable", "can_compile", "no_proxy")},
    "reservation": (lambda v: QueueModel.from_dict({"reservation": v}), "queue"),
    "mpi": (lambda v: _with_action(op="submit_jobs", mpi=v), "scenario op 'submit_jobs'"),
    "via_pool": (lambda v: _with_action(op="workload", via_pool=v), "scenario op 'workload'"),
    "needs_hpc": (lambda v: WorkloadRequirements.from_dict({"needs_hpc": v}), "requirements"),
    "needs_mpi": (lambda v: WorkloadRequirements.from_dict({"needs_hpc": True, "needs_mpi": v}),
                  "requirements"),
    "proprietary_toolchain": (
        lambda v: CodeArtifact.from_dict({"path": "a.c", "proprietary_toolchain": v}), "code ref"),
    "redistribution_ok": (lambda v: PackagingManifest.from_dict(
        {"workload_class": "unoptimized", "strategy": "on_demand_compile", "redistribution_ok": v}),
                          "packaging"),
}


@pytest.mark.parametrize("key", list(BOOL_FIELDS))
def test_a_boolean_field_is_true_or_false(key):
    """Before the bool rule a string such as "false" or "no" read as true."""
    read, section = BOOL_FIELDS[key]
    read(True)
    read(False)
    for value in ("false", "no", "true", 0, 1, None, []):
        with pytest.raises(ConfigError) as caught:
            read(value)
        assert str(caught.value) == f"{section} {key} must be true or false, got {value!r}"


# A pooled soak: pilots with a 300 s walltime cycle through an exponential
# queue while 60 workloads claim them or fall back to the queue.
POOLED_SOAK = {
    "resources": [{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
                   "allows_incoming_connections": False, "node_count": 16, "queue": "q"}],
    "queues": {"q": {"distribution": "exponential", "params": {"mean": 600.0}}},
    "pools": [{"resource": "hpc-1", "min_warm": 2, "max_size": 4, "pilot_walltime_s": 300.0}],
    "scenario": {"actions": [
        {"op": "workload", "t": 100.0 + 450.0 * i, "resource": "hpc-1", "tale_id": f"w{i:03d}",
         "command": ["sleep", str(30 + 7 * (i % 13))]} for i in range(60)]},
}


# (config, seed, horizon, trace size, trace sha256) of each pinned trace
GOLDEN_TRACES = {
    "criterion_11": (CRITERION_11_CONFIG, 42, 2000.0, 85_967,
                     "6540c71552c1cbdc3b28d411f370cd9036b422c7176aaf453f6e64ba756e6f1d"),
    "pooled_soak": (POOLED_SOAK, 7, 30_000.0, 1_033_878,
                    "2df910548d69d4120939662ddde4ce590e9bff56af493311e2f4ae3aa37794ae"),
}
SRC = Path(__file__).resolve().parent.parent / "src"


class TestDeterminism:
    @pytest.mark.parametrize("name", list(GOLDEN_TRACES))
    def test_golden_trace_bytes(self, name):
        # Pinned bytes: a change that alters any trace event fails here, even
        # when two runs in one process still agree with each other.
        config, seed, horizon, size, sha256 = GOLDEN_TRACES[name]
        trace_bytes, _ = run_scenario(load_config(config), seed, horizon)
        assert len(trace_bytes) == size
        assert hashlib.sha256(trace_bytes).hexdigest() == sha256

    @pytest.mark.parametrize("hash_seed", ["0", "12345"])
    @pytest.mark.parametrize("name", list(GOLDEN_TRACES))
    def test_golden_trace_bytes_under_other_hash_seeds(self, tmp_path, name, hash_seed):
        # A set of strings iterates in an order PYTHONHASHSEED picks, and a
        # process cannot change its own seed: the CLI, each run in a fresh
        # interpreter, must write the pinned bytes under any seed.
        config, seed, horizon, size, sha256 = GOLDEN_TRACES[name]
        config_path, trace_path = tmp_path / "config.json", tmp_path / "trace.ndjson"
        config_path.write_text(json.dumps(config))
        subprocess.run(
            [sys.executable, "-m", "talescale.cli", "sim", "run", "--config", str(config_path),
             "--seed", str(seed), "--horizon", str(horizon), "--trace", str(trace_path)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC)),
            check=True, capture_output=True)
        trace_bytes = trace_path.read_bytes()
        assert len(trace_bytes) == size
        assert hashlib.sha256(trace_bytes).hexdigest() == sha256

    def test_same_seed_identical_trace_bytes(self):
        config = load_config(SCENARIO)
        first, _ = run_scenario(config, 42, 500.0)
        second, _ = run_scenario(config, 42, 500.0)
        assert first == second

    def test_different_seeds_differ_in_sampled_waits(self):
        config = load_config(SCENARIO)
        a, _ = run_scenario(config, 1, 500.0)
        b, _ = run_scenario(config, 2, 500.0)
        assert a != b
        # sampling changes timing, not what happened: same submissions,
        # same enqueues, and every job still completes under both seeds
        for kind in ("job_submitted", "backend_job_queued", "backend_job_started"):
            count_a = sum(1 for line in a.splitlines() if json.loads(line)["kind"] == kind)
            count_b = sum(1 for line in b.splitlines() if json.loads(line)["kind"] == kind)
            assert count_a == count_b == 5

    def test_horizon_before_first_start_means_no_running(self):
        config = load_config({
            **SCENARIO,
            "queues": {"q": {"distribution": "fixed", "params": {"value": 900.0}}},
        })
        trace_bytes, _ = run_scenario(config, 7, 100.0)
        events = [json.loads(line) for line in trace_bytes.splitlines()]
        assert not any(ev["kind"] == "backend_job_started" for ev in events)
        assert any(ev["kind"] == "backend_job_queued" for ev in events)


class TestTraceCounts:
    @pytest.mark.parametrize("config, seed, horizon", [
        (CRITERION_11_CONFIG, 42, 2000.0),
        (POOLED_SOAK, 7, 30_000.0),
    ], ids=["criterion_11", "pooled_soak"])
    def test_counts_as_emitted_equal_a_recount(self, config, seed, horizon):
        world = World(load_config(config), seed)
        trace, _ = world.run(horizon)
        recount = Counter(ev.kind for ev in trace)
        assert {kind: trace.count(kind) for kind in recount} == recount
        assert trace.count("no_such_kind") == 0
        assert world.transport.handshake_count == recount["handshake"] > 0
        assert world.middleware.poll_failures == recount["poll_failed"]


class TestCausalityAndCounters:
    def test_trace_time_monotone_and_within_horizon(self):
        config = load_config(SCENARIO)
        trace_bytes, _ = run_scenario(config, 3, 400.0)
        events = [json.loads(line) for line in trace_bytes.splitlines()]
        times = [ev["t"] for ev in events]
        assert times == sorted(times)
        assert all(0.0 <= t <= 400.0 for t in times)
        seqs = [ev["seq"] for ev in events]
        assert seqs == list(range(len(seqs)))

    def test_counters_match_trace_recount(self):
        # Independent recount from the ndjson bytes: the trace is the oracle
        # for every field the metrics reduce from it.
        config = load_config({
            **SCENARIO,
            "resources": SCENARIO["resources"] + [
                {"name": "hpc-2", "kind": "hpc_cluster", "lrm": "batch",
                 "allows_incoming_connections": False, "queue": "q"},
                {"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
                 "allows_incoming_connections": True},
            ],
            "cache": {"datasets": [{"uri": "doi:d", "size_bytes": 700,
                                    "checksum": digest_bytes(b"doi:d")}]},
            "scenario": {"actions": SCENARIO["scenario"]["actions"] + [
                {"op": "open_dataset", "t": 2.0, "uri": "doi:d"},
                {"op": "workload", "t": 3.0, "resource": "hpc-1", "command": ["sleep", "5"]},
            ]},
        })
        world = World(config, 11)
        world.start()
        # the next call after t=4 is the t=5 poll, which fails
        world.clock.at(4.0, world.transport.inject_failure)
        req = WorkloadRequirements()
        launch_frontend(world, ExecutionModel.M1_WT_CLUSTER, "wt-1", req)
        launch_frontend(world, ExecutionModel.M3_HPC_NODE_LOCAL_LRM, "hpc-1", req)
        world.clock.run_until(400.0)
        metrics = world.metrics()

        events = [json.loads(line) for line in world.trace.to_ndjson().splitlines()]

        def of(kind):
            return [ev for ev in events if ev["kind"] == kind]

        queries = [ev["resource"] for ev in of("transport_call") if ev["verb"] == "batch_status"]
        assert metrics.backend_queries == {"hpc-1": queries.count("hpc-1"), "hpc-2": 0}
        assert metrics.backend_queries["hpc-1"] > 0
        assert metrics.handshakes == len(of("handshake")) > 0
        assert metrics.transfers == len(of("transfer_complete")) == 1
        assert metrics.transfer_bytes == sum(ev["bytes"] for ev in of("transfer_complete")) == 700
        assert metrics.poll_failures == len(of("poll_failed")) == 1
        frontends = of("frontend_ready")
        assert metrics.time_to_frontend == {
            "M1_wt_cluster": [frontends[0]["time_to_frontend_s"]],
            "M3_hpc_node_local_lrm": [frontends[1]["time_to_frontend_s"]],
        }
        assert metrics.workload_start_latencies == [ev["latency"] for ev in of("workload_started")]
        assert len(metrics.workload_start_latencies) == 1


class TestMaintenance:
    def maintenance_config(self, policy="hold"):
        return load_config({
            "resources": [
                {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
                 "allows_incoming_connections": False, "queue": "q"},
            ],
            "queues": {"q": {"distribution": "fixed", "params": {"value": 10.0},
                             "maintenance_windows": [[0.0, 100000.0]],
                             "maintenance_policy": policy}},
        })

    def test_hold_keeps_jobs_queued_through_horizon(self):
        world = World(self.maintenance_config("hold"), 0)
        world.start()
        handle = world.middleware.submit(JobSpec(resource="hpc-1", command=("sleep", "5")))
        world.clock.run_until(500.0)
        assert world.middleware.status(handle).state == JobState.QUEUED

    def test_fail_policy_cancels_submissions(self):
        world = World(self.maintenance_config("fail"), 0)
        world.start()
        handle = world.middleware.submit(JobSpec(resource="hpc-1", command=("sleep", "5")))
        world.clock.run_until(20.0)
        assert world.middleware.status(handle).state == JobState.CANCELED


class TestEmitReport:
    def rows(self):
        return [
            ReportRow("M1_wt_cluster", 1, 8.0, 0, 0, 0),
            ReportRow("M3_hpc_node_local_lrm", 1, 608.0, 121, 1, 0),
        ]

    def test_csv_header_is_pinned(self):
        out = emit_report(self.rows(), "csv").decode()
        assert out.splitlines()[0] == "model,seed,time_to_frontend_s,queries,handshakes,transfers"

    def test_empty_metrics_give_header_only_csv(self):
        out = emit_report([], "csv").decode()
        assert out == "model,seed,time_to_frontend_s,queries,handshakes,transfers\n"

    def test_json_round_trips(self):
        rows = self.rows()
        assert [ReportRow(**row) for row in json.loads(emit_report(rows, "json"))] == rows

    def test_table_format_contains_all_cells(self):
        out = emit_report(self.rows(), "table").decode()
        assert "M1_wt_cluster" in out and "608.0" in out

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            emit_report(self.rows(), "xml")

    def test_deterministic_bytes(self):
        assert emit_report(self.rows(), "csv") == emit_report(self.rows(), "csv")


class TestProvenanceWiring:
    def test_cancel_then_poll_lands_in_tale_provenance(self):
        from talescale.tale import ProvenanceKind
        from conftest import simple_tale

        world = batch_world()
        tale = simple_tale(tale_id="prov-1")
        world.attach_tale(tale)
        handle = world.middleware.submit(JobSpec(
            resource="hpc-1", command=("sleep", "30"), tale_id="prov-1"))
        world.clock.run_until(5.0)
        world.middleware.cancel(handle)
        world.clock.run_until(10.0)
        kinds = [e.kind for e in tale.provenance]
        assert ProvenanceKind.JOB_SUBMITTED in kinds
        changes = [e for e in tale.provenance if e.kind == ProvenanceKind.JOB_STATE_CHANGE]
        assert changes[-1].payload_dict()["to"] == "Canceled"
        seqs = [e.seq for e in tale.provenance]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_attach_tale_rejects_duplicate_id(self):
        from talescale.errors import DuplicateError
        from conftest import simple_tale

        world = batch_world()
        world.attach_tale(simple_tale(tale_id="dup-1"))
        with pytest.raises(DuplicateError):
            world.attach_tale(simple_tale(tale_id="dup-1"))


class TestApplyStaging:
    """A plan's cache-fetch action goes through the world's cache."""

    DATASET = {"uri": "doi:10.5072/remote", "size_bytes": 500, "checksum": digest_bytes(b"remote")}

    def launch(self):
        world = World(load_config({
            **MINIMAL,
            "cache": {"capacity_bytes": 10_000, "bandwidth_bytes_per_s": 100.0,
                      "datasets": [self.DATASET]},
        }), 3)
        world.start()
        plan = plan_placement(
            WorkloadRequirements(dataset_uris=frozenset([self.DATASET["uri"]])),
            world.config.inventory, "min_data_movement", catalog=world.catalog)
        assert [(a.action, a.resource) for a in plan.staging_actions] == [
            (StagingKind.CACHE_FETCH, "wt-1")]
        return world, plan

    def remote_transfers(self, world):
        return [r for r in world.cache.transfer_log if r.source == TransferSource.REMOTE_REPO]

    def test_a_cache_fetch_transfers_once_and_leaves_the_entry_resident(self):
        world, plan = self.launch()
        world.apply_staging(plan)
        assert [(r.uri, r.bytes) for r in self.remote_transfers(world)] == [(self.DATASET["uri"], 500)]
        assert world.cache.entry(self.DATASET["uri"]).state == CacheState.RESIDENT
        assert world.clock.now == 5.0  # 500 bytes at 100 bytes/s
        world.apply_staging(plan)  # resident: a hit, no second transfer
        assert len(self.remote_transfers(world)) == 1
        assert world.trace.count("cache_hit") == 1

    def test_a_corrupt_fetch_raises_and_the_retry_succeeds(self):
        world, plan = self.launch()
        world.cache.inject_corruption(self.DATASET["uri"])
        with pytest.raises(ChecksumMismatchError):
            world.apply_staging(plan)
        assert world.cache.entry(self.DATASET["uri"]).state == CacheState.ABSENT
        assert self.remote_transfers(world) == []
        world.apply_staging(plan)
        assert len(self.remote_transfers(world)) == 1
        assert world.cache.entry(self.DATASET["uri"]).state == CacheState.RESIDENT


class TestTransportLogFormat:
    def test_log_line_shape(self):
        world = batch_world()
        world.middleware.submit(JobSpec(resource="hpc-1", command=("sleep", "5")))
        line = world.transport.log_text().splitlines()[0]
        fields = [f.strip() for f in line.split("|")]
        assert len(fields) == 5
        t, resource, credential, verb, payload_digest = fields
        float(t)
        assert resource == "hpc-1"
        assert credential == "user"
        assert verb == "submit"
        assert len(payload_digest) == 12
        int(payload_digest, 16)


class TestBoundedConcurrency:
    def test_pollers_track_resources_with_active_jobs(self):
        resources = [
            {"name": f"hpc-{i}", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 4, "queue": "q"}
            for i in range(3)
        ]
        world = batch_world(resources=resources,
                            queue={"distribution": "fixed", "params": {"value": 4.0}})
        assert world.middleware.active_pollers == 0
        world.middleware.submit(JobSpec(resource="hpc-0", command=("sleep", "2")))
        world.middleware.submit(JobSpec(resource="hpc-1", command=("sleep", "1000")))
        assert world.middleware.active_pollers == 2
        for _ in range(500):  # listeners do not add control flows
            world.middleware.add_transition_listener(lambda *transition: None)
        assert world.middleware.active_pollers == 2
        world.clock.run_until(60.0)  # hpc-0's job is long done
        assert world.middleware.active_pollers == 1


class TestWorldRun:
    def test_run_requires_positive_horizon(self):
        with pytest.raises(ValidationError):
            World(load_config(MINIMAL), 0).run(0.0)

    def test_nan_horizon_is_refused(self):
        with pytest.raises(ValidationError):
            World(load_config(MINIMAL), 0).run(float("nan"))

    def test_failures_inside_world_are_events_not_errors(self):
        config = load_config({
            **SCENARIO,
            "scenario": {"actions": [
                {"op": "submit_jobs", "t": 0.0, "resource": "hpc-1",
                 "command": ["fail", "5"]},
            ]},
        })
        trace_bytes, metrics = run_scenario(config, 5, 400.0)
        events = [json.loads(line) for line in trace_bytes.splitlines()]
        failed = [ev for ev in events
                  if ev["kind"] == "job_transition" and ev["to_state"] == "Failed"]
        assert failed  # the job failed, the run did not

    @pytest.mark.parametrize("actions", [
        [{"op": "prefetch", "t": 1}],
        [{"op": "open_dataset", "t": 1, "uri": "doi:a"},
         {"op": "open_dataset", "t": 1, "uri": "doi:b"}],
    ], ids=["prefetch", "open_dataset"])
    def test_a_prefetch_skips_a_dataset_the_cache_cannot_admit(self, actions):
        # While doi:a is in flight, a 100-byte cache has no room for doi:b
        # and nothing to evict: either op is best effort, the run goes on.
        datasets = [{"uri": uri, "size_bytes": 60, "checksum": digest_bytes(uri.encode())}
                    for uri in ("doi:a", "doi:b")]
        world = World(load_config({
            **MINIMAL,
            "cache": {"capacity_bytes": 100, "bandwidth_bytes_per_s": 10.0, "datasets": datasets},
            "scenario": {"actions": actions},
        }), 0)
        trace, _ = world.run(100.0)
        assert [(ev.kind, ev.fields.get("uri")) for ev in trace] == [
            ("transfer_start", "doi:a"), ("transfer_complete", "doi:a")]
        assert world.cache.entry("doi:b").state == CacheState.ABSENT
        assert world.cache.resident_bytes() == 60

    @pytest.mark.parametrize("uris, fetched", [(None, ["doi:a", "doi:b"]), ([], []),
                                               (["doi:b"], ["doi:b"])])
    def test_a_prefetch_takes_every_dataset_only_when_uris_is_absent(self, uris, fetched):
        datasets = [{"uri": uri, "size_bytes": 10, "checksum": digest_bytes(uri.encode())}
                    for uri in ("doi:a", "doi:b")]
        action = {"op": "prefetch", "t": 1, **({} if uris is None else {"uris": uris})}
        world = World(load_config({
            **MINIMAL,
            "cache": {"capacity_bytes": 100, "bandwidth_bytes_per_s": 10.0, "datasets": datasets},
            "scenario": {"actions": [action]},
        }), 0)
        trace, _ = world.run(100.0)
        assert [ev.fields["uri"] for ev in trace if ev.kind == "transfer_complete"] == fetched

    @pytest.mark.parametrize("kind, traced", [("transport", "transport_failed"),
                                              ("handshake", "handshake_failed")])
    def test_a_scenario_cancel_lost_in_transit_leaves_the_job_running(self, kind, traced):
        # the cancel's call fails: the failure is in the trace, and the run goes on
        world = World(load_config({
            "resources": [{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch", "node_count": 4,
                           "allows_incoming_connections": False, "queue": "q",
                           "dialect": "sim-slurm"}],
            "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
            "scenario": {"idle_ttl_s": 2.0, "actions": [
                {"op": "submit_jobs", "t": 0.0, "resource": "hpc-1", "command": ["sleep", "100"]},
                {"op": "cancel", "t": 20.0, "job_index": 0}]},
        }), 0)
        world.clock.at(19.9, lambda: world.transport.inject_failure(kind, 1))
        trace, _ = world.run(200.0)
        assert [ev.t for ev in trace if ev.kind == traced] == [20.0]
        # the cancel was the call that failed: no cancel call is traced
        assert not [ev for ev in trace if ev.kind == "transport_call"
                    and ev.fields["verb"] == "cancel"]
        assert world.middleware.status("j000001").state is JobState.COMPLETED


FLAT_URIS = [f"doi:10.5072/flat{j:02d}" for j in range(40)]
FLAT_CACHE_ENTRIES = 8  # capacity in 1 MB datasets

# Two batch clusters, one pooled; the cache holds 8 of 40 equal datasets.
FLAT_WORLD = {
    "resources": [{"name": name, "kind": "hpc_cluster", "lrm": "batch",
                   "allows_incoming_connections": False, "node_count": 16, "queue": "q"}
                  for name in ("hpc-1", "hpc-2")],
    "queues": {"q": {"distribution": "exponential", "params": {"mean": 600.0}}},
    "pools": [{"resource": "hpc-1", "min_warm": 2, "max_size": 4, "pilot_walltime_s": 300.0}],
    "cache": {"capacity_bytes": FLAT_CACHE_ENTRIES * 10 ** 6, "bandwidth_bytes_per_s": 10 ** 6,
              "datasets": [{"uri": uri, "size_bytes": 10 ** 6,
                            "checksum": digest_bytes(uri.encode())} for uri in FLAT_URIS]},
    "scenario": {"poll_interval_s": 30.0},
}


class TestHistoryFlatness:
    def test_work_counters_do_not_grow_with_simulated_history(self):
        # Per-tick cost must not grow with the history behind a run. Wall
        # time would flake, so this reads the sizes the per-tick work scans.
        world = World(load_config(FLAT_WORLD), seed=5)
        world.start()
        clock, rng = world.clock, random.Random(5)

        def arrive():
            # each arrival schedules the next, so the heap never holds the future
            world.submit_workload(JobSpec(resource="hpc-1",
                                          command=("sleep", str(rng.randint(30, 600)))))
            # a canceled long job leaves a tombstone due far in the future
            job = world.middleware.submit(JobSpec(
                resource="hpc-2", command=("sleep", rng.choice(("60", "100000")))))
            clock.after(rng.uniform(100.0, 1500.0), lambda: world.middleware.cancel(job))
            # hits on a hot set reorder the LRU index; a cold open evicts
            for uri in rng.sample(FLAT_URIS[:4], 2):
                world.cache.open_nowait(world.catalog.get(uri))
            if rng.random() < 0.25:
                world.cache.open_nowait(world.catalog.get(rng.choice(FLAT_URIS[4:])))
            clock.after(400.0, arrive)

        def counters():
            return {
                "clock heap": len(clock._heap),
                "pool slots": len(world.pools["hpc-1"].slots),
                "dms lru index": len(world.cache._lru),
                "active jobs": sum(len(ids) for ids in world.middleware._active.values()),
            }

        # set by the config, not the horizon: live events plus as many
        # tombstones, max_size slots, the resident entries
        bounds = {"clock heap": 64, "pool slots": 4, "dms lru index": FLAT_CACHE_ENTRIES,
                  "active jobs": 32}
        clock.after(400.0, arrive)
        clock.run_until(50_000.0)
        early = counters()
        done = {kind: world.trace.count(kind)
                for kind in ("cache_hit", "cache_evict", "pilot_expired", "job_submitted")}
        clock.run_until(400_000.0)
        late = counters()
        # seven times as much history again, with churn on every path
        churn = {kind: world.trace.count(kind) - count for kind, count in done.items()}
        assert churn["cache_hit"] > 1500 and churn["job_submitted"] > 1500, churn
        assert churn["cache_evict"] > 150 and churn["pilot_expired"] > 500, churn
        for name, bound in bounds.items():
            assert early[name] <= bound and late[name] <= bound, (name, early, late)


class TestStatusWork:
    def test_status_parses_and_renders_follow_backend_events_not_polls(self, monkeypatch):
        # Most polls of a pooled run get the same answer as the poll before;
        # such a poll renders and parses nothing. A backend job event makes
        # the next poll render and parse once, and a finish once more, at the
        # poll whose payload no longer names the job.
        config = copy.deepcopy(FLAT_WORLD)
        config["resources"][1]["dialect"] = "sim-slurm"
        config["scenario"]["poll_interval_s"] = 5.0
        world = World(load_config(config), seed=5)
        renders, parses = Counter(), Counter()
        for tool in ("_qstat", "_sacct"):
            render = getattr(SimulatedLrm, tool)
            monkeypatch.setattr(SimulatedLrm, tool, lambda lrm, args, render=render: (
                renders.update([lrm.resource.name]) or render(lrm, args)))
        for resource in ("hpc-1", "hpc-2"):
            adapter = world.middleware._active[resource].adapter
            parse = adapter.parse_status
            adapter.parse_status = lambda output, parse=parse, resource=resource: (
                parses.update([resource]) or parse(output))
        world.start()
        clock, rng = world.clock, random.Random(5)

        def arrive():
            world.submit_workload(JobSpec(resource="hpc-1",
                                          command=("sleep", str(rng.randint(30, 600)))))
            job = world.middleware.submit(JobSpec(
                resource="hpc-2", command=("sleep", rng.choice(("60", "100000")))))
            clock.after(rng.uniform(100.0, 1500.0), lambda: world.middleware.cancel(job))
            clock.after(400.0, arrive)

        clock.after(400.0, arrive)
        clock.run_until(50_000.0)
        events, finished, polls = Counter(), Counter(), Counter()
        for kind in ("backend_job_queued", "backend_job_started", "backend_job_finished"):
            events.update(r["resource"] for r in world.trace.records(kind))
        finished.update(r["resource"] for r in world.trace.records("backend_job_finished"))
        polls.update(r["resource"] for r in world.trace.records("transport_call")
                     if r["verb"] == "batch_status")
        for resource in ("hpc-1", "hpc-2"):
            bound = 1 + events[resource] + finished[resource]
            for count in (renders[resource], parses[resource]):
                assert 0 < count <= bound and count < polls[resource] / 10, (
                    resource, count, bound, polls[resource])


class TestPoolWork:
    def test_pool_ticks_follow_pool_events_not_the_poll_interval(self, monkeypatch):
        # A working pool tick costs a sync of its slots. Working at every
        # poll interval made 30,000 s / 5 s = 6,000 ticks here; ticks that
        # follow the pool's own changes are bounded by the events those
        # changes emit.
        ticks = []
        tick = PilotPool._tick

        def counted(pool):
            ticks.append(pool.clock.now)
            tick(pool)

        monkeypatch.setattr(PilotPool, "_tick", counted)
        world = World(load_config(POOLED_SOAK), 7)
        world.run(30_000.0)
        pool_events = sum(world.trace.count(kind) for kind in (
            "pilot_submitted", "pilot_submit_failed", "pilot_warm", "pilot_expired",
            "workload_started", "workload_finished"))
        assert world.trace.count("pilot_expired") > 50
        assert 0 < len(ticks) <= pool_events < 30_000.0 / 5.0 / 10
