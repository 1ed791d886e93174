"""The four benchmark workloads.

Each workload drives talescale's public API the way a user of one layer
would.  Load comes from one host caller in a closed loop; simulated
arrivals are an open loop on the simulated clock at fixed rates, whatever
the host speed.  Every input is generated from ``(seed, round)``.

A workload exposes:

* ``build(seed, rnd, workdir)`` -- set-up: generate the inputs and build
  the world (timed as ``setup_s``);
* ``run(state)`` -- the timed phase; returns a :class:`Round` with one
  host-time sample per step, scaled to reference speed (see ``meter``);
* ``check(state, rnd)`` -- output checks, outside the timed phase; adds
  problems and unexpected failures to the round;
* ``kernel`` -- the calibration kernel its timings are scaled with.

The traced run puts its tracer into ``state["tracer"]``; workloads with a
per-operation id (a launch) set the tracer's context to it.

Arrival counts are fixed per round (a Poisson process conditioned on its
count: sorted uniform times), so per-operation figures compare across
seeds.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from talescale import archive, planner, proxy, tale as tales
from talescale.dms import CacheState, ExternalDataRef, StagingKind, TransferSource
from talescale.errors import ChecksumMismatchError, TransportError
from talescale.middleware import LEGAL_TRANSITIONS, JobSpec, JobState
from talescale.resources import ResourceDescriptor
from talescale.world import World, load_config

from meter import BUFFER_KERNEL, OBJECT_KERNEL, Meter


@dataclass
class Round:
    steps: list[float] = field(default_factory=list)  # scaled host seconds per step
    timed_s: float = 0.0    # scaled host seconds of the whole timed phase
    raw_s: float = 0.0      # the same, unscaled
    sim_s: float = 0.0
    ops: int = 0            # operations completed (the workload's unit)
    attempted: int = 0      # operations attempted
    failed: int = 0         # unexpected failures; expected outcomes are not counted
    expected: int = 0       # injected faults and fail commands, as planned
    trace_sha: str = ""
    trace_bytes: int = 0
    trace_events: int = 0
    record_bytes: int = 0   # bytes of output records (traces, archives) the round produced
    problems: list[str] = field(default_factory=list)
    sim: dict = field(default_factory=dict)       # simulated figures for the report
    counters: dict = field(default_factory=dict)  # per-layer counters for the traced run


def arrival_times(rng: random.Random, count: int, end: float) -> list[float]:
    return sorted(rng.uniform(0.0, end) for _ in range(count))


def rng_for(seed: int, rnd: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench|{seed}|{rnd}|{purpose}")


def _metrics_and_trace(world) -> bytes:
    world.metrics()
    return world.trace.to_ndjson()


def finish_trace(meter: Meter, world, rnd: Round) -> None:
    """What ``run_scenario`` users pay at the end: metrics and the ndjson trace.

    Timed as part of the round, outside any step.
    """
    data = meter.time("finish", _metrics_and_trace, world)
    rnd.trace_sha = hashlib.sha256(data).hexdigest()
    rnd.trace_bytes = rnd.record_bytes = len(data)
    rnd.trace_events = len(world.trace)


def close_round(meter: Meter, rnd: Round) -> list[tuple[str, float]]:
    """Fill the round's scaled timings from its meter; returns the segments."""
    meter.close()
    segments = meter.scaled()
    rnd.steps = [s for label, s in segments if label == "step"]
    rnd.timed_s = sum(s for _, s in segments)
    rnd.raw_s = meter.raw_s
    return segments


class ClockWorkload:
    """The timed phase of a workload that advances a World's clock: one step
    per ``STEP_S`` simulated seconds up to ``HORIZON_S``, then the final
    metrics and trace."""

    kernel = OBJECT_KERNEL

    def run(self, state):
        world = state["world"]
        rnd = Round(attempted=self.ARRIVALS, sim_s=self.HORIZON_S)
        meter = Meter(self.kernel)
        for k in range(1, round(self.HORIZON_S / self.STEP_S) + 1):
            meter.time("step", world.clock.run_until, k * self.STEP_S)
        finish_trace(meter, world, rnd)
        close_round(meter, rnd)
        return rnd


def last_states(world) -> dict[str, tuple[str, str]]:
    """job id -> (resource, last client state), read from the trace."""
    out = {}
    for ev in world.trace:
        if ev.kind == "job_transition":
            out[ev.fields["job_id"]] = (ev.fields["resource"], ev.fields["to_state"])
    return out


def illegal_transitions(world) -> int:
    bad = 0
    for ev in world.trace:
        if ev.kind == "job_transition":
            before, after = JobState(ev.fields["from_state"]), JobState(ev.fields["to_state"])
            bad += after not in LEGAL_TRANSITIONS[before]
    return bad


# ---------------------------------------------------------------------------
# job_storm


class JobStorm(ClockWorkload):
    """Poisson job arrivals over three fast batch resources and one resource
    held in maintenance, whose queued ids pile up into every poll."""

    name = "job_storm"
    op = "job"
    step = "20 simulated s"
    HORIZON_S = 1200.0
    ARRIVALS_END_S = 900.0  # leaves fast jobs time to finish before the horizon
    STEP_S = 20.0
    ARRIVALS = 3600  # jobs
    MAINT_SHARE = 0.6
    FAIL_SHARE = 0.2
    CANCEL_SHARE = 0.03
    INJECT_SHARE = 0.002  # of transport calls

    FAST = ("pbs-a", "pbs-b", "slurm-c")
    MAINT = "slurm-maint"

    @classmethod
    def config(cls):
        fast = {"distribution": "exponential", "params": {"mean": 20.0}}
        held = dict(fast, maintenance_windows=[[0.0, 1e9]])

        def batch(name, dialect, queue):
            return {"name": name, "kind": "hpc_cluster", "lrm": "batch", "queue": queue,
                    "dialect": dialect, "node_count": 64,
                    "allows_incoming_connections": False}

        return load_config({
            "resources": [batch("pbs-a", "sim-pbs", "fast"), batch("pbs-b", "sim-pbs", "fast"),
                          batch("slurm-c", "sim-slurm", "fast"),
                          batch(cls.MAINT, "sim-slurm", "held")],
            "queues": {"fast": fast, "held": held},
            "scenario": {"credentials": ["alice", "bob"], "poll_interval_s": 5.0},
        })

    def build(self, seed, rnd, workdir):
        rng = rng_for(seed, rnd, self.name)
        times = arrival_times(rng, self.ARRIVALS, self.ARRIVALS_END_S)
        specs, cancels = [], {}
        for i in range(self.ARRIVALS):
            resource = self.MAINT if rng.random() < self.MAINT_SHARE else rng.choice(self.FAST)
            runtime = f"{rng.uniform(5.0, 60.0):.1f}"
            if rng.random() < self.FAIL_SHARE:
                command = ("fail", runtime, str(rng.randint(1, 3)))
            else:
                command = ("sleep", runtime)
            specs.append(JobSpec(resource=resource, command=command,
                                 credential=rng.choice(("alice", "bob"))))
            if rng.random() < self.CANCEL_SHARE:
                cancels[i] = times[i] + rng.uniform(1.0, 300.0)
        polls = len(self.FAST + (self.MAINT,)) * self.HORIZON_S / 5.0
        injections = max(1, round(self.INJECT_SHARE * (self.ARRIVALS + polls)))
        inject_at = arrival_times(rng, injections, self.ARRIVALS_END_S)

        world = World(self.config(), seed=seed * 1000 + rnd)
        state = {"world": world, "times": times, "specs": specs, "cancels": cancels,
                 "handles": [None] * self.ARRIVALS, "cancel_errors": 0}
        for t in inject_at:
            world.clock.at(t, world.transport.inject_failure)
        world.clock.at(times[0], partial(self._arrive, state, 0))
        return state

    def _arrive(self, state, i):
        world = state["world"]
        handle = world.middleware.submit(state["specs"][i])
        state["handles"][i] = handle
        if i in state["cancels"]:
            world.clock.at(state["cancels"][i], partial(self._cancel, state, handle))
        if i + 1 < self.ARRIVALS:
            world.clock.at(state["times"][i + 1], partial(self._arrive, state, i + 1))

    @staticmethod
    def _cancel(state, handle):
        try:
            state["world"].middleware.cancel(handle)
        except TransportError:
            state["cancel_errors"] += 1  # an injected transport failure hit the cancel

    def check(self, state, rnd):
        world = state["world"]
        states = last_states(world)
        bad = illegal_transitions(world)
        if bad:
            rnd.problems.append(f"{bad} illegal job transitions")
        stuck = 0
        for handle in state["handles"]:
            resource, last = states.get(handle.job_id, ("?", "?"))
            if last in ("Completed", "Failed", "Canceled"):
                rnd.ops += 1
                rnd.expected += last == "Failed"
            elif not (last == "Queued" and resource == self.MAINT):
                stuck += 1
        if stuck:
            rnd.problems.append(f"{stuck} jobs neither terminal nor queued in maintenance")
        rnd.failed = stuck + bad
        kinds = Counter(ev.kind for ev in world.trace)
        rnd.sim = {"transport_calls": kinds["transport_call"],
                   "jobs_submitted": kinds["job_submitted"],
                   "jobs_terminal": rnd.ops,
                   "held_ids_at_horizon": sum(1 for h in state["handles"]
                                              if states[h.job_id] == (self.MAINT, "Queued")),
                   "cancel_transport_errors": state["cancel_errors"]}
        rnd.counters = {"transport.handshakes": world.transport.handshake_count,
                        "middleware.poll_failures": world.middleware.poll_failures,
                        "trace.bytes": rnd.trace_bytes}



# ---------------------------------------------------------------------------
# pilot_soak


class PilotSoak(ClockWorkload):
    """A long pooled run: workloads arrive through ``World.submit_workload``
    while the pilot pool cycles through hundreds of slots."""

    name = "pilot_soak"
    op = "workload start"
    step = "1000 simulated s"
    HORIZON_S = 100_000.0
    ARRIVALS_END_S = 90_000.0  # mean spacing 600 s; late cold starts still begin
    STEP_S = 1000.0
    ARRIVALS = 150  # workloads
    RESOURCE = "pbs-p"
    MAX_SIZE = 4

    @classmethod
    def config(cls):
        return load_config({
            "resources": [{"name": cls.RESOURCE, "kind": "hpc_cluster", "lrm": "batch",
                           "queue": "slow", "dialect": "sim-pbs", "node_count": 16,
                           "allows_incoming_connections": False}],
            "queues": {"slow": {"distribution": "exponential", "params": {"mean": 600.0}}},
            "pools": [{"resource": cls.RESOURCE, "min_warm": 2, "max_size": cls.MAX_SIZE,
                       "pilot_walltime_s": 300.0}],
            "scenario": {"poll_interval_s": 5.0},
        })

    def build(self, seed, rnd, workdir):
        rng = rng_for(seed, rnd, self.name)
        times = arrival_times(rng, self.ARRIVALS, self.ARRIVALS_END_S)
        specs = [JobSpec(resource=self.RESOURCE,
                         command=("sleep", f"{rng.uniform(30.0, 120.0):.1f}"),
                         tale_id=f"w{i:04d}") for i in range(self.ARRIVALS)]
        world = World(self.config(), seed=seed * 1000 + rnd)
        state = {"world": world, "times": times, "specs": specs}
        world.clock.at(times[0], partial(self._arrive, state, 0))
        return state

    def _arrive(self, state, i):
        world = state["world"]
        world.submit_workload(state["specs"][i])
        if i + 1 < self.ARRIVALS:
            world.clock.at(state["times"][i + 1], partial(self._arrive, state, i + 1))

    def check(self, state, rnd):
        world = state["world"]
        starts = Counter()
        live, peak_live, warm = set(), 0, 0
        kinds = Counter()
        for ev in world.trace:
            kinds[ev.kind] += 1
            if ev.kind == "workload_started":
                starts[ev.fields["tale_id"]] += 1
                warm += ev.fields["via"] == "pilot"
            elif ev.kind == "pilot_submitted":
                live.add(ev.fields["slot"])
                peak_live = max(peak_live, len(live))
            elif ev.kind == "pilot_expired":
                live.discard(ev.fields["slot"])
        wrong = [s.tale_id for s in state["specs"] if starts[s.tale_id] != 1]
        if wrong:
            rnd.problems.append(f"{len(wrong)} workloads did not start exactly once")
        if peak_live > self.MAX_SIZE:
            rnd.problems.append(f"{peak_live} non-expired pilot slots exceed max_size")
        bad = illegal_transitions(world)
        if bad:
            rnd.problems.append(f"{bad} illegal job transitions")
        rnd.failed = len(wrong) + bad + (peak_live > self.MAX_SIZE)
        rnd.ops = self.ARRIVALS - len(wrong)
        pool = world.pools[self.RESOURCE]
        rnd.sim = {"transport_calls": kinds["transport_call"],
                   "jobs_submitted": kinds["job_submitted"],
                   "start_latencies": list(world.workload_latencies),
                   "warm_starts": warm,
                   "slots": len(pool.slots)}
        rnd.counters = {"transport.handshakes": world.transport.handshake_count,
                        "middleware.poll_failures": world.middleware.poll_failures,
                        "trace.bytes": rnd.trace_bytes,
                        "pilots.slots": len(pool.slots)}



# ---------------------------------------------------------------------------
# tale_launch


def frontend(request: bytes) -> bytes:
    """The proxied frontend's handler: a fixed header echoing the request."""
    return b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\n\r\n" + request


class TaleLaunch:
    """Tales launched one after another: placement over a ~50-resource
    inventory, staging through a cache at ~5% of catalog bytes, and
    proxied requests to frontends behind closed networks."""

    kernel = OBJECT_KERNEL
    name = "tale_launch"
    op = "launch"
    step = "one launch"
    CATALOG = 3000
    LAUNCHES = 300
    DATASETS_PER_TALE = 8
    ZIPF_S = 0.9
    CACHE_SHARE = 0.05
    PINNED_TALES = 8
    CORRUPT_SHARE = 0.01
    REQUESTS = 20
    DIRECT_NODES = 9
    BATCH_CLUSTERS = 40

    def build(self, seed, rnd, workdir):
        rng = rng_for(seed, rnd, self.name)
        # lognormal sizes (median 50 MB), clipped so no dataset nears capacity
        sizes = [min(int(rng.lognormvariate(math.log(5e7), 1.0)), int(1e9))
                 for _ in range(self.CATALOG)]
        uris = [f"doi:10.5072/ds{j:05d}" for j in range(self.CATALOG)]
        datasets = [{"uri": u, "size_bytes": s,
                     "checksum": "sha256:" + hashlib.sha256(u.encode()).hexdigest()}
                    for u, s in zip(uris, sizes)]
        resources = [{"name": "wt-0", "kind": "wt_cluster", "lrm": "none",
                      "allows_incoming_connections": True}]
        for k in range(self.DIRECT_NODES):
            resources.append({"name": f"node-{k}", "kind": "hpc_cluster", "lrm": "none",
                              "allows_incoming_connections": False,
                              "local_datasets": rng.sample(uris, self.CATALOG // 100)})
        for k in range(self.BATCH_CLUSTERS):
            resources.append({"name": f"hpc-{k:02d}", "kind": "hpc_cluster", "lrm": "batch",
                              "queue": "batch", "dialect": ("sim-pbs", "sim-slurm")[k % 2],
                              "node_count": rng.choice((8, 16, 32, 64)),
                              "mpi_capable": k % 3 == 0,
                              "allows_incoming_connections": False,
                              "local_datasets": rng.sample(uris, self.CATALOG // 50),
                              "dataset_interface": ("posix", "non_posix")[k % 2]})
        config = load_config({
            "resources": resources,
            "queues": {"batch": {"distribution": "exponential", "params": {"mean": 300.0}}},
            "cache": {"capacity_bytes": int(self.CACHE_SHARE * sum(sizes)),
                      "bandwidth_bytes_per_s": 1e9, "datasets": datasets},
        })
        cum, total = [], 0.0
        for rank in range(1, self.CATALOG + 1):
            total += rank ** -self.ZIPF_S
            cum.append(total)
        launches = []
        for i in range(self.LAUNCHES):
            picked: list[str] = []
            while len(picked) < self.DATASETS_PER_TALE:
                uri = uris[bisect.bisect_left(cum, rng.random() * total)]
                if uri not in picked:
                    picked.append(uri)
            mpi = i % 7 == 6  # one tale in seven is an MPI multi-node run
            req = planner.WorkloadRequirements(
                needs_hpc=mpi or rng.random() < 0.5, needs_mpi=mpi,
                min_nodes=16 if mpi else 1, dataset_uris=frozenset(picked))
            corrupt = {u for u in picked if rng.random() < self.CORRUPT_SHARE}
            requests = [f"GET /api/{k} {rng.getrandbits(64):016x}".encode() * 4
                        for k in range(self.REQUESTS)]
            launches.append((f"tale-{rnd}-{i:04d}", req, corrupt, requests))
        world = World(config, seed=seed * 1000 + rnd)
        return {"world": world, "inventory": config.inventory, "launches": launches,
                "pinned": deque(), "injected": 0, "checksum_failures": 0, "mismatches": 0,
                "over_capacity": 0, "errors": Counter()}

    def _launch(self, state, tale_id, req, corrupt, requests):
        world = state["world"]
        cache = world.cache
        plan = planner.plan_placement(req, state["inventory"], "min_data_movement",
                                      catalog=world.catalog)
        fetched = [a.uri for a in plan.staging_actions if a.action == StagingKind.CACHE_FETCH]
        injected = 0
        for uri in fetched:
            entry = cache.entries.get(uri)
            if uri in corrupt and (entry is None or entry.state != CacheState.RESIDENT):
                cache.inject_corruption(uri)
                injected += 1
        state["injected"] += injected
        # Each injected corruption fails exactly one fetch; the user retries
        # the staging until it goes through.
        for attempt in range(injected + 1):
            try:
                world.apply_staging(plan)
                break
            except ChecksumMismatchError:
                if attempt == injected:
                    raise
                state["checksum_failures"] += 1
        for uri in fetched:
            cache.pin(uri)
        state["pinned"].append(fetched)
        if len(state["pinned"]) > self.PINNED_TALES:
            for uri in state["pinned"].popleft():
                cache.unpin(uri)
        if plan.proxy_required:
            endpoint = proxy.Endpoint(plan.frontend_resource, "n0", 8888)
            world.network.listen(endpoint, frontend)
            world.proxy.register_endpoint(tale_id, endpoint)
            for k, request in enumerate(requests):
                response = world.proxy.route(f"/tales/{tale_id}/api/{k}", request)
                state["mismatches"] += response != frontend(request)
            world.proxy.deregister(tale_id)
            world.network.close(endpoint)

    def run(self, state):
        world = state["world"]
        rnd = Round(attempted=self.LAUNCHES)
        meter = Meter(self.kernel)
        tracer = state["tracer"]
        for tale_id, req, corrupt, requests in state["launches"]:
            if tracer is not None:
                tracer.context = tale_id
            try:
                meter.time("step", self._launch, state, tale_id, req, corrupt, requests)
            except Exception as exc:  # counted as an unexpected failure, run goes on
                state["errors"][type(exc).__name__] += 1
            else:
                rnd.ops += 1
            # checked outside the step: resident bytes never exceed capacity
            state["over_capacity"] += world.cache.resident_bytes() > world.cache.capacity_bytes
        finish_trace(meter, world, rnd)
        close_round(meter, rnd)
        return rnd

    def check(self, state, rnd):
        world = state["world"]
        for name, count in state["errors"].items():
            rnd.problems.append(f"{count} launches raised {name}")
        if state["over_capacity"]:
            rnd.problems.append(f"resident bytes exceeded capacity after {state['over_capacity']} launches")
        if state["checksum_failures"] != state["injected"]:
            rnd.problems.append(f"{state['injected']} corruptions injected but "
                                f"{state['checksum_failures']} fetches raised ChecksumMismatchError")
        if state["mismatches"]:
            rnd.problems.append(f"{state['mismatches']} proxied responses differ from the handler's")
        rnd.failed = (sum(state["errors"].values()) + state["mismatches"] + state["over_capacity"]
                      + abs(state["injected"] - state["checksum_failures"]))
        rnd.expected = state["checksum_failures"]
        kinds = Counter(ev.kind for ev in world.trace)
        wan = sum(r.bytes for r in world.cache.transfer_log if r.source == TransferSource.REMOTE_REPO)
        opens = kinds["cache_hit"] + kinds["transfer_start"]
        rnd.sim = {"wan_bytes": wan, "cache_hits": kinds["cache_hit"], "cache_opens": opens,
                   "evicted": kinds["cache_evict"], "checksum_failures": state["checksum_failures"],
                   "entries": len(world.cache.entries)}
        rnd.counters = {"dms.evicted": kinds["cache_evict"], "dms.entries": len(world.cache.entries),
                        "dms.checksum_failures": state["checksum_failures"],
                        "dms.hits": kinds["cache_hit"], "dms.opens": opens,
                        "trace.bytes": rnd.trace_bytes,
                        "transport.handshakes": world.transport.handshake_count,
                        "middleware.poll_failures": world.middleware.poll_failures}



# ---------------------------------------------------------------------------
# tale_archive


class TaleArchive:
    """Package a ~1000-file, ~8 MB workspace and round-trip it through the
    archive format: create, classify, pick a strategy, build the manifest,
    export, import into a workspace directory, and export again.

    Creating a file costs ~0.7 ms on the container file systems this runs
    on, with a wide spread, which would swamp the archive code.  So the
    workspace and the import target are two directory trees kept for the
    whole run (file paths do not depend on the seed).  Set-up writes only
    the workspace files whose bytes changed, and before every import each
    target file is truncated to zero bytes, outside the timed segments, so
    the import has to write every byte again for the checks to pass.
    """

    kernel = BUFFER_KERNEL
    name = "tale_archive"
    op = "archive round trip"
    step = "one round trip"
    FILES = 1000
    TOTAL_BYTES = 8 << 20
    TRIPS = 20  # round trips per round: quarters of five for tail and growth

    def __init__(self):
        self._on_disk: dict[Path, dict[str, bytes]] = {}  # workspace root -> files written

    def build(self, seed, rnd, workdir):
        rng = rng_for(seed, rnd, self.name)
        weights = [rng.lognormvariate(0.0, 1.0) for _ in range(self.FILES)]
        scale = self.TOTAL_BYTES / sum(weights)
        files: dict[str, bytes] = {}
        artifacts = []
        for i, w in enumerate(weights):
            size = max(1, int(w * scale))
            if i % 50 == 7:
                path, kind, arch = f"lib/arch{i:04d}.so", tales.ArtifactKind.LIBRARY, "x86_64"
            elif i % 100 == 13:
                path, kind, arch = f"bin/tool{i:04d}", tales.ArtifactKind.PREBUILT_EXECUTABLE, "x86_64"
            else:
                path, kind, arch = f"src/pkg{i % 20:02d}/mod{i:04d}.py", tales.ArtifactKind.SOURCE, None
            # half incompressible bytes, half compressible text, in every file,
            # so the archive size hardly depends on the seed
            line = f"value_{i} = compute({i}, {rng.randint(0, 99)})  # step\n".encode()
            text = size - size // 2
            files[path] = rng.randbytes(size // 2) + (line * (text // len(line) + 1))[:text]
            artifacts.append(tales.CodeArtifact(path=path, kind=kind, target_arch=arch))
        root, dest = Path(workdir) / "workspace", Path(workdir) / "imported"
        for directory in {(base / path).parent for base in (root, dest) for path in files}:
            directory.mkdir(parents=True, exist_ok=True)
        # Write only what changed since the last set-up in this workdir, as a
        # workspace sync would: repeated set-ups of one round cost no disk I/O.
        on_disk = self._on_disk.get(root, {})
        for path, data in files.items():
            if on_disk.get(path) != data:
                (root / path).write_bytes(data)
        self._on_disk[root] = files
        data_refs = [ExternalDataRef(uri=f"doi:10.5072/in{k}", size_bytes=10 ** 6 * (k + 1),
                                     checksum="sha256:" + hashlib.sha256(bytes([k])).hexdigest())
                     for k in range(4)]
        env = tales.EnvironmentSpec(base_image_name="python-3.11",
                                    dependency_pins=(("numpy", "==1.26.4"), ("scipy", ">=1.11")))
        target = ResourceDescriptor(name="hpc-build", kind="hpc_cluster", lrm="batch",
                                    can_compile=True)
        return {"root": root, "dest": dest, "files": files, "artifacts": artifacts,
                "data_refs": data_refs, "env": env, "targets": [target],
                "tale_id": f"archive-{seed}-{rnd}", "first_blob": None, "archive_bytes": 0,
                "bad_trips": 0, "problems": []}

    @staticmethod
    def _package(state):
        tale = tales.create_tale("halo catalog analysis", state["artifacts"],
                                 state["data_refs"], state["env"], tale_id=state["tale_id"])
        strategy = tales.select_strategy(tales.classify_workload(tale), state["targets"], True)
        return tale.with_packaging(tales.build_manifest(tale, strategy))

    def _verify(self, state, blob, again) -> None:
        """Checks for one round trip, made outside the timed segments."""
        problems = []
        if again != blob:
            problems.append("re-export differs from the first export")
        if state["first_blob"] is None:
            state["first_blob"] = blob
        elif blob != state["first_blob"]:
            problems.append("exports of one workspace differ")
        for path, data in state["files"].items():
            if (state["dest"] / path).read_bytes() != data:
                problems.append(f"extracted {path} differs from its source")
                break
        state["problems"] += problems
        state["bad_trips"] += bool(problems)
        state["archive_bytes"] += len(blob)

    def _trip(self, meter, state, trip):
        dest = state["dest"]
        for path in state["files"]:
            with open(dest / path, "wb"):
                pass  # truncate: the import must write every byte again
        tale = meter.time(f"package#{trip}", self._package, state)
        blob = meter.time(f"export#{trip}", archive.export_tale, tale, state["root"])
        imported = meter.time(f"import#{trip}", archive.import_tale, blob, workspace_dir=dest)
        again = meter.time(f"reexport#{trip}", archive.export_tale, imported, dest)
        self._verify(state, blob, again)

    def run(self, state):
        rnd = Round(attempted=self.TRIPS)
        meter = Meter(self.kernel)
        failed_trips = set()
        for trip in range(self.TRIPS):
            try:
                self._trip(meter, state, trip)
            except Exception as exc:  # counted as an unexpected failure, run goes on
                failed_trips.add(str(trip))
                state["problems"].append(f"round trip {trip} raised {type(exc).__name__}: {exc}")
        segments = close_round(meter, rnd)
        # one step per completed round trip: the sum of its four segments
        per_trip: dict[str, float] = {}
        for label, seconds in segments:
            trip = label.split("#")[1]
            if trip not in failed_trips:
                per_trip[trip] = per_trip.get(trip, 0.0) + seconds
        rnd.steps = list(per_trip.values())
        rnd.sim = {"workspace_bytes": sum(len(d) for d in state["files"].values()),
                   "export_s": [s for label, s in segments if label.startswith("export#")],
                   "import_s": [s for label, s in segments if label.startswith("import#")]}
        state["bad_trips"] += len(failed_trips)
        blob = state["first_blob"] or b""
        rnd.trace_sha = hashlib.sha256(blob).hexdigest()
        rnd.trace_bytes = len(blob)
        rnd.record_bytes = state["archive_bytes"]
        rnd.trace_events = len(state["files"]) + 3  # workspace entries plus metadata
        return rnd

    def check(self, state, rnd):
        rnd.problems += state["problems"]
        rnd.failed = state["bad_trips"]
        rnd.ops = self.TRIPS - state["bad_trips"]
        rnd.counters = {"archive.bytes": rnd.trace_bytes}



WORKLOADS = {w.name: w for w in (JobStorm, PilotSoak, TaleLaunch, TaleArchive)}
