"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with plain pytest; the per-criterion lines go to the real stderr so
they show up in captured CI logs too.
"""

import random
import statistics
import sys
import time

import conftest
from talescale.archive import export_tale, import_tale
from talescale.digest import digest_bytes
from talescale.dms import ExternalDataRef, StagingKind, TransferSource
from talescale.errors import TransportError
from talescale.measure import measure_models
from talescale.metrics import emit_report
from talescale.middleware import JobSpec, JobState, LEGAL_TRANSITIONS, TERMINAL_STATES
from talescale.planner import WorkloadRequirements, plan_placement
from talescale.tale import (
    ArtifactKind,
    CodeArtifact,
    EnvironmentSpec,
    PackagingStrategy,
    build_manifest,
    create_tale,
)
from talescale.world import World, load_config, run_scenario

from test_dms import brute_force_lru, run_cache_sequence
from test_planner import witness_cases

_MODULE_T0 = time.monotonic()


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status}: {detail}"
    print(line, file=sys.__stderr__)
    conftest.record_acceptance(line)


def batch_config(queue, extra_resources=(), pools=None, scenario=None):
    config = {
        "resources": [
            {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 8, "queue": "q"},
            *extra_resources,
        ],
        "queues": {"q": queue},
        "scenario": scenario or {},
    }
    if pools:
        config["pools"] = pools
    return load_config(config)


def test_criterion_01_polling_aggregation():
    """1,000 active jobs, interval 5 s, horizon 100 s -> exactly 20 queries."""
    started = time.monotonic()
    world = World(batch_config({"distribution": "fixed", "params": {"value": 10_000.0}}), 1)
    world.start()
    for _ in range(1000):
        world.middleware.submit(JobSpec(resource="hpc-1", command=("sleep", "60")))
    world.clock.run_until(100.0)
    # the transport log, rendered from the trace, is the ground truth
    log_lines = [line for line in world.transport.log_text().splitlines()
                 if "| batch_status |" in line]
    elapsed = time.monotonic() - started
    queries = world.metrics().backend_queries["hpc-1"]
    ok = len(log_lines) == 20 and queries == 20 and elapsed < 5.0
    _report(1, ok, f"1000 jobs -> {len(log_lines)} aggregated queries in 100 s "
                   f"(expected 20), wall {elapsed:.2f} s")
    assert len(log_lines) == 20
    assert queries == 20
    assert elapsed < 5.0


def test_criterion_02_session_frugality():
    """(a) 500 ops over 3 pairs, ttl=inf -> 3 handshakes;
    (b) ttl=10 s, ops 15 s apart -> one handshake per op."""
    config = load_config({
        "resources": [
            {"name": "hpc-0", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 8, "queue": "q"},
            {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 8, "queue": "q"},
        ],
        "queues": {"q": {"distribution": "fixed", "params": {"value": 100_000.0}}},
        "scenario": {"idle_ttl_s": None, "credentials": ["alice", "bob"]},
    })
    world = World(config, 2)
    world.start()
    pairs = [("hpc-0", "alice"), ("hpc-0", "bob"), ("hpc-1", "alice")]
    for i in range(500):
        resource, credential = pairs[i % 3]
        world.middleware.submit(JobSpec(resource=resource, command=("sleep", "1"),
                                        credential=credential))
    frugal = world.transport.handshake_count

    world2 = World(batch_config({"distribution": "fixed", "params": {"value": 10.0}},
                                scenario={"idle_ttl_s": 10.0}), 2)
    world2.start()
    ops = 20
    for _ in range(ops):
        world2.transport.acquire_session("hpc-1", "user")
        world2.clock.advance(15.0)
    spaced = world2.transport.handshake_count

    ok = frugal == 3 and spaced == ops
    _report(2, ok, f"500 ops/3 pairs -> {frugal} handshakes (expected 3); "
                   f"{ops} ops 15 s apart at ttl=10 -> {spaced} handshakes")
    assert frugal == 3
    assert spaced == ops


def test_criterion_03_submit_asynchrony():
    """Submit-return latency is independent of queue wait (medians < 10% apart)."""
    medians = []
    for mean in (1.0, 10_000.0):
        world = World(batch_config({"distribution": "exponential", "params": {"mean": mean}}), 3)
        world.start()
        latencies = []
        for _ in range(200):
            before = world.clock.now
            world.middleware.submit(JobSpec(resource="hpc-1", command=("sleep", "5")))
            latencies.append(world.clock.now - before)
        medians.append(statistics.median(latencies))
    rel = abs(medians[0] - medians[1]) / max(medians)
    ok = rel < 0.10
    _report(3, ok, f"submit latency medians {medians[0]:.3f} s vs {medians[1]:.3f} s "
                   f"under 1 s vs 10,000 s queue waits ({rel:.1%} apart)")
    assert rel < 0.10


def _pilot_latency_run(with_pool: bool, seed: int) -> list[float]:
    config = {
        "resources": [{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
                       "allows_incoming_connections": False, "node_count": 8, "queue": "q"}],
        "queues": {"q": {"distribution": "exponential", "params": {"mean": 600.0}}},
        "scenario": {"poll_interval_s": 15.0},
    }
    if with_pool:
        config["pools"] = [{"resource": "hpc-1", "min_warm": 2, "max_size": 4,
                            "pilot_walltime_s": 60_000.0}]
    world = World(load_config(config), seed)
    world.start()
    claims = 24
    for i in range(claims):
        at = 3600.0 + i * 1800.0
        spec = JobSpec(resource="hpc-1", command=("sleep", "30"), credential="user")
        world.clock.at(at, lambda s=spec: world.submit_workload(s))
    world.clock.run_until(3600.0 + claims * 1800.0 + 3000.0)
    assert len(world.workload_latencies) == claims
    return world.workload_latencies


def test_criterion_04_pilot_responsiveness():
    """exp(600 s) queue, 20 seeds: warm pool cuts median start latency >= 60x;
    the no-pool median tracks the configured 600 s mean within 20%.

    Per seed the scenario runs 24 workloads and contributes its mean start
    latency; medians are taken across seeds.
    """
    with_pool, without_pool = [], []
    for seed in range(20):
        with_pool.append(statistics.mean(_pilot_latency_run(True, seed)))
        without_pool.append(statistics.mean(_pilot_latency_run(False, seed)))
    warm = statistics.median(with_pool)
    cold = statistics.median(without_pool)
    ratio = cold / warm
    rel = abs(cold - 600.0) / 600.0
    ok = ratio >= 60.0 and rel <= 0.20
    _report(4, ok, f"median start latency {warm:.2f} s warm vs {cold:.1f} s cold "
                   f"(ratio {ratio:.0f}x, cold within {rel:.1%} of 600 s)")
    assert ratio >= 60.0
    assert rel <= 0.20


def test_criterion_05_frontend_launch_contrast():
    """M1 median == image load exactly; M2 median == image load + queue median
    within 5% over 1,000 seeds."""
    config = load_config({
        "resources": [
            {"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
             "allows_incoming_connections": True},
            {"name": "direct-1", "kind": "hpc_cluster", "lrm": "none",
             "allows_incoming_connections": False, "queue": "q"},
        ],
        "queues": {"q": {"distribution": "uniform", "params": {"low": 400.0, "high": 800.0}}},
        "scenario": {"image_load_s": 8.0},
    })
    rows = measure_models(config, WorkloadRequirements(needs_hpc=True), seeds=range(1000))
    m1 = statistics.median(conftest.frontend_times(rows, "M1_wt_cluster"))
    m2 = statistics.median(conftest.frontend_times(rows, "M2_hpc_node"))
    expected_m2 = 8.0 + 600.0  # image load + analytic queue-wait median
    rel = abs(m2 - expected_m2) / expected_m2
    ok = m1 == 8.0 and rel < 0.05
    _report(5, ok, f"M1 median {m1} s (= image load), M2 median {m2:.1f} s "
                   f"vs {expected_m2} s ({rel:.2%} off, tolerance 5%)")
    assert m1 == 8.0
    assert rel < 0.05
    # report emits with the pinned header
    header = emit_report(rows, "csv").decode().splitlines()[0]
    assert header == "model,seed,time_to_frontend_s,queries,handshakes,transfers"


def test_criterion_06_dms_single_transfer(tmp_path):
    """3 tales opening the same 3 files -> 3 transfers; HPC-local POSIX data
    -> zero remote transfers and at least one mount action."""
    uris = [f"doi:10.5000/shared-{i}" for i in range(3)]
    datasets = [{"uri": u, "size_bytes": 1000, "checksum": digest_bytes(u.encode())}
                for u in uris]
    config = load_config({
        "resources": [{"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
                       "allows_incoming_connections": True}],
        "cache": {"capacity_bytes": 10_000, "bandwidth_bytes_per_s": 1000.0,
                  "datasets": datasets},
    })
    world = World(config, 6)
    world.start()
    refs = [world.catalog.get(u) for u in uris]
    tales = [
        create_tale(f"tale {i}", [CodeArtifact(path="run.py", checksum=digest_bytes(b"x"))],
                    refs, EnvironmentSpec(), tale_id=f"shared-{i}")
        for i in range(3)
    ]
    for tale in tales:
        for ref in tale.data_refs:
            world.cache.open(ref)
    shared_transfers = len(world.cache.transfer_log)

    local_config = load_config({
        "resources": [
            {"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
             "allows_incoming_connections": True},
            {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "queue": "q",
             "local_datasets": uris, "dataset_interface": "posix"},
        ],
        "queues": {"q": {"distribution": "fixed", "params": {"value": 600.0}}},
        "cache": {"capacity_bytes": 10_000, "bandwidth_bytes_per_s": 1000.0,
                  "datasets": datasets},
    })
    local_world = World(local_config, 6)
    local_world.start()
    plan = plan_placement(
        WorkloadRequirements(needs_hpc=True, dataset_uris=frozenset(uris)),
        local_config.inventory, "min_data_movement", catalog=local_world.catalog)
    local_world.apply_staging(plan)
    mounts = [a for a in plan.staging_actions if a.action == StagingKind.MOUNT]
    remote = [r for r in local_world.cache.transfer_log
              if r.source == TransferSource.REMOTE_REPO]
    ok = shared_transfers == 3 and len(mounts) >= 1 and len(remote) == 0
    _report(6, ok, f"9 opens -> {shared_transfers} transfers (expected 3); "
                   f"local POSIX plan -> {len(mounts)} mounts, {len(remote)} remote transfers")
    assert shared_transfers == 3
    assert len(mounts) >= 1
    assert remote == []


def test_criterion_07_eviction_matches_brute_force_lru():
    """1,000 randomized access sequences over <= 8 files vs an independent
    brute-force LRU oracle; zero mismatches."""
    rng = random.Random(77)
    mismatches = 0
    for _ in range(1000):
        n_files = rng.randint(1, 8)
        sizes = {f"f{i}": rng.randint(1, 40) for i in range(n_files)}
        capacity = max(max(sizes.values()), rng.randint(40, 120))
        accesses = [f"f{rng.randrange(n_files)}" for _ in range(rng.randint(1, 30))]
        expected = brute_force_lru(capacity, accesses, sizes)
        got = run_cache_sequence(capacity, accesses, sizes)
        if got != expected:
            mismatches += 1
    ok = mismatches == 0
    _report(7, ok, f"1000 randomized LRU cases vs brute-force oracle, "
                   f"{mismatches} mismatches")
    assert mismatches == 0


def _corpus_tale(index: int, rng: random.Random, root):
    files = {}
    n_files = rng.randint(1, 4)
    for j in range(n_files):
        content = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 200)))
        files[f"src/f{index}_{j}.py"] = content
    if index == 0:
        files["empty.bin"] = b""
    if index == 1:
        files["данные/π-notes.txt"] = "π ≈ 3.14159 — заметки\n".encode("utf-8")
    artifacts = []
    for rel, content in sorted(files.items()):
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)
        artifacts.append(CodeArtifact(path=rel, kind=ArtifactKind.SOURCE,
                                      checksum=digest_bytes(content)))
    data_refs = [ExternalDataRef(uri=f"doi:10.9/corpus-{index}-{k}", size_bytes=rng.randint(0, 10_000),
                                 checksum=digest_bytes(f"{index}-{k}".encode()))
                 for k in range(rng.randint(0, 3))]
    env = EnvironmentSpec(
        base_image_name=f"base-{index}",
        dependency_pins=(("numpy", "==1.24.0"), ("pandas", ">=1.0,<3.0"))[:rng.randint(0, 2)],
        env_vars=(("OMP_NUM_THREADS", str(rng.randint(1, 8))),),
    )
    tale = create_tale(f"corpus tale {index}", artifacts, data_refs, env,
                       tale_id=f"corpus-{index:04d}")
    if index % 3 == 0:
        tale = tale.with_packaging(build_manifest(tale, PackagingStrategy.SOURCE_PLUS_GENERIC_LIBS))
    return tale


def test_criterion_08_round_trip_byte_identity(tmp_path):
    """export -> import -> export is byte-identical over a 12-tale corpus
    including 0-byte files and unicode paths."""
    rng = random.Random(2718)
    failures = 0
    for index in range(12):
        ws = tmp_path / f"ws{index}"
        ws.mkdir()
        tale = _corpus_tale(index, rng, ws)
        first = export_tale(tale, ws)
        back = tmp_path / f"back{index}"
        restored = import_tale(first, workspace_dir=back)
        second = export_tale(restored, back)
        if first != second:
            failures += 1
    ok = failures == 0
    _report(8, ok, f"12-tale corpus (0-byte + unicode paths) round-tripped, "
                   f"{failures} byte mismatches")
    assert failures == 0


def test_criterion_09_six_model_coverage():
    """Six canonical inventories select six distinct models; proxy_required
    holds exactly for connection-blocking frontends."""
    selected = []
    proxy_ok = True
    for model, req, inventory, kwargs in witness_cases():
        plan = plan_placement(req, inventory, "min_time_to_frontend", **kwargs)
        selected.append(plan.model)
        frontend = next(r for r in inventory if r.name == plan.frontend_resource)
        if plan.proxy_required != (not frontend.allows_incoming_connections):
            proxy_ok = False
        if plan.model != model:
            break
    distinct = len(set(selected))
    ok = distinct == 6 and proxy_ok
    _report(9, ok, f"witness inventories selected {distinct}/6 distinct models; "
                   f"proxy_required iff frontend blocks incoming: {proxy_ok}")
    assert distinct == 6
    assert proxy_ok


def test_criterion_10_lifecycle_legality_fuzz():
    """10,000 fuzzed jobs with failures, cancels and a maintenance window:
    every trace transition legal; every job terminal or queued in maintenance."""
    config = load_config({
        "resources": [
            {"name": "hpc-0", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 16,
             "queue": "fast", "dialect": "sim-pbs"},
            {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 16,
             "queue": "fast", "dialect": "sim-slurm"},
            {"name": "hpc-2", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 16,
             "queue": "fast", "dialect": "sim-pbs"},
            {"name": "hpc-m", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 16,
             "queue": "maint", "dialect": "sim-slurm"},
        ],
        "queues": {
            "fast": {"distribution": "exponential", "params": {"mean": 20.0}},
            "maint": {"distribution": "fixed", "params": {"value": 5.0},
                      "maintenance_windows": [[100.0, 10_000_000.0]]},
        },
        "scenario": {"poll_interval_s": 10.0},
    })
    world = World(config, 2024)
    world.start()
    rng = random.Random(2024)
    handles = []

    def try_cancel(handle):
        try:
            world.middleware.cancel(handle)
        except TransportError:
            pass  # lost cancel; job finishes on its own

    for i in range(10_000):
        resource = "hpc-m" if i % 20 == 19 else f"hpc-{rng.randrange(3)}"
        if rng.random() < 0.8:
            command = ("sleep", str(rng.randint(1, 50)))
        else:
            command = ("fail", str(rng.randint(1, 30)))
        if rng.random() < 0.002:
            world.transport.inject_failure("transport", count=1)
        handles.append(world.middleware.submit(JobSpec(resource=resource, command=command)))
        if rng.random() < 0.03:
            victim = handles[rng.randrange(len(handles))]
            world.clock.at(world.clock.now + rng.uniform(0.0, 50.0),
                           lambda h=victim: try_cancel(h))
    horizon = 1500.0
    world.clock.run_until(horizon)

    legal_pairs = {(a.value, b.value) for a, targets in LEGAL_TRANSITIONS.items()
                   for b in targets}
    illegal = sum(
        1 for ev in world.trace if ev.kind == "job_transition"
        and (ev.fields["from_state"], ev.fields["to_state"]) not in legal_pairs
    )
    terminal = queued_maintenance = stuck = 0
    for handle in handles:
        state = world.middleware.status(handle).state
        if state in TERMINAL_STATES:
            terminal += 1
        elif state == JobState.QUEUED and handle.resource == "hpc-m":
            queued_maintenance += 1
        else:
            stuck += 1
    ok = illegal == 0 and stuck == 0 and terminal + queued_maintenance == 10_000
    _report(10, ok, f"10,000 fuzzed jobs: {illegal} illegal transitions, "
                    f"{terminal} terminal, {queued_maintenance} queued in maintenance, "
                    f"{stuck} otherwise stuck")
    assert illegal == 0
    assert stuck == 0
    assert terminal + queued_maintenance == 10_000


CRITERION_11_CONFIG = {
    "resources": [
        {"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
         "allows_incoming_connections": True},
        {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
         "allows_incoming_connections": False, "node_count": 8, "queue": "q"},
    ],
    "queues": {"q": {"distribution": "exponential", "params": {"mean": 120.0}}},
    "pools": [{"resource": "hpc-1", "min_warm": 1, "max_size": 2,
               "pilot_walltime_s": 5000.0}],
    "cache": {"capacity_bytes": 10_000, "bandwidth_bytes_per_s": 100.0,
              "datasets": [{"uri": "doi:d", "size_bytes": 500,
                            "checksum": digest_bytes(b"doi:d")}]},
    "scenario": {"actions": [
        {"op": "submit_jobs", "t": 1.0, "resource": "hpc-1", "count": 20,
         "command": ["sleep", "15"]},
        {"op": "open_dataset", "t": 2.0, "uri": "doi:d"},
        {"op": "workload", "t": 900.0, "resource": "hpc-1",
         "command": ["sleep", "10"]},
        {"op": "cancel", "t": 30.0, "job_index": 0},
    ]},
}


def test_criterion_11_determinism_and_wall_clock():
    """Identical (config, seed, horizon) -> byte-identical traces; the
    acceptance module itself stays within the suite's 60 s budget."""
    config = load_config(CRITERION_11_CONFIG)
    first, metrics_a = run_scenario(config, 42, 2000.0)
    second, metrics_b = run_scenario(config, 42, 2000.0)
    elapsed = time.monotonic() - _MODULE_T0
    ok = first == second and metrics_a.to_dict() == metrics_b.to_dict() and elapsed < 55.0
    _report(11, ok, f"seed-42 scenario traces byte-identical "
                    f"({len(first)} bytes); acceptance module wall {elapsed:.1f} s")
    assert first == second
    assert metrics_a.to_dict() == metrics_b.to_dict()
    assert elapsed < 55.0
