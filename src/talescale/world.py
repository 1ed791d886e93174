"""Simulation world: config loading, wiring, and scenario execution.

A WorldConfig is the validated, immutable description of a simulated
deployment (resources, queue models, pool policies, cache, scenario
script). A World is one seeded instantiation of it: shared clock, trace,
transport with per-resource simulated LRMs, middleware, pilot pools,
dataset cache, and proxy. Running the same config with the same seed and
horizon yields a byte-identical trace.

A World runs the quiet stretches of its poll grid ahead, since each of
its backends changes only through a clock event or a transport write:
``World._run_ahead`` states the rule. It is always on and changes no
trace byte, job state or session.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .clock import SimClock
from .cluster import SimulatedLrm, runtime_of_command
from .dms import DatasetCatalog, DmsCache, ExternalDataRef, StagingKind
from .errors import (CapacityError, ConfigError, SessionError, TransportError, ValidationError,
                     check_bool, check_keys, check_list, check_number)
from .metrics import ScenarioMetrics
from .middleware import JobSpec, JobState, LrmMiddleware
from .pilots import PilotPool, PoolPolicy
from .planner import Inventory
from .proxy import ProxyRegistry, SimulatedNetwork
from .queues import queues_by_name
from .resources import ResourceDescriptor, resources_by_name
from .tale import ProvenanceKind, Tale, record_provenance
from .trace import TraceLog
from .transport import Transport

# The command of a job that names none: a scenario job action's, or the CLI's.
DEFAULT_COMMAND = ("sleep", "30")

# A job action's keys beside "resource" and "command"; JobSpec holds their defaults.
_SPEC_KEYS = ("credential", "tale_id", "node_count", "mpi")
_JOB_KEYS = frozenset({"resource", "command", *_SPEC_KEYS})

# Each scenario op's required keys and every key it accepts, beside "op" and "t".
_ACTIONS = {
    "submit_jobs": ({"resource"}, _JOB_KEYS | {"count", "spacing"}),
    "workload": ({"resource"}, _JOB_KEYS | {"via_pool"}),
    "open_dataset": ({"uri"}, {"uri"}),
    "prefetch": (set(), {"uris"}),
    "cancel": ({"job_index"}, {"job_index"}),
}

# Each scenario op's numeric keys: their lower bounds, and whether they are integers.
_NUMBERS = {"count": (0, True), "job_index": (0, True), "node_count": (1, True), "spacing": (0, False),
            "t": (0, False)}


@dataclass(frozen=True)
class ScenarioConfig:
    image_load_s: float = 8.0
    poll_interval_s: float = 5.0
    idle_ttl_s: float | None = 300.0
    transport_rtt_s: float = 0.05
    handshake_s: float = 0.5
    dispatch_overhead_s: float = 0.2
    credentials: tuple[str, ...] = ("user",)
    actions: tuple[dict, ...] = ()

    def __post_init__(self):
        check_number("scenario", "image_load_s", self.image_load_s)
        check_number("scenario", "poll_interval_s", self.poll_interval_s, above=True)
        if self.idle_ttl_s is not None:  # null: sessions never lapse
            check_number("scenario", "idle_ttl_s", self.idle_ttl_s)
        check_number("scenario", "transport_rtt_s", self.transport_rtt_s)
        check_number("scenario", "handshake_s", self.handshake_s)
        check_number("scenario", "dispatch_overhead_s", self.dispatch_overhead_s)
        object.__setattr__(self, "credentials",
                           check_list("scenario credentials", self.credentials, str))
        object.__setattr__(self, "actions", check_list("scenario actions", self.actions))

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        return cls(**check_keys("scenario", raw, cls.__dataclass_fields__))


@dataclass
class WorldConfig:
    """A validated config; ``load_config``, the one builder, holds the defaults of absent keys."""

    resources: dict[str, ResourceDescriptor]
    pools: list[PoolPolicy]
    cache_capacity_bytes: int
    cache_bandwidth_bytes_per_s: float
    datasets: list[ExternalDataRef]
    scenario: ScenarioConfig

    @property
    def inventory(self) -> Inventory:
        """A new snapshot of the resources, in order; plan every launch
        against one snapshot to reuse its placement tables."""
        return Inventory(self.resources.values())


def read_json(path):
    """The JSON document in the file at ``path``."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} does not parse: {exc}") from exc


def load_config(source) -> WorldConfig:
    """Parse and cross-validate a simulation config (path, str or dict)."""
    raw = read_json(source) if isinstance(source, (str, Path)) else source
    check_keys("config", raw, ("resources", "queues", "pools", "cache", "scenario"))
    queues = queues_by_name(raw.get("queues", {}))
    resources = resources_by_name(raw.get("resources", []), queues)
    for rd in resources.values():
        if rd.is_batch and rd.queue_model is None:
            raise ConfigError(f"batch resource {rd.name!r} has no queue model")
    if not resources:
        raise ConfigError("config declares no resources")

    pools = []
    for praw in check_list("pools", raw.get("pools", ())):
        policy = PoolPolicy.from_dict(praw)
        if policy.resource not in resources:
            raise ConfigError(
                f"pool policy references unknown resource {policy.resource!r}"
            )
        if not resources[policy.resource].is_batch:
            raise ConfigError(f"pool resource {policy.resource!r} has no batch LRM")
        pools.append(policy)

    cache = check_keys("cache", raw.get("cache", {}),
                       ("capacity_bytes", "bandwidth_bytes_per_s", "datasets"))
    datasets = [ExternalDataRef.from_dict(d)
                for d in check_list("cache datasets", cache.get("datasets", ()))]
    capacity = int(check_number("cache", "capacity_bytes", cache.get("capacity_bytes", 10 ** 12)))
    bandwidth = float(check_number("cache", "bandwidth_bytes_per_s",
                                   cache.get("bandwidth_bytes_per_s", 10 ** 8), above=True))

    scenario = ScenarioConfig.from_dict(raw.get("scenario", {}))
    known_uris = {d.uri for d in datasets}
    for action in scenario.actions:
        _check_action(action, resources, known_uris, scenario.credentials)

    return WorldConfig(
        resources=resources, pools=pools,
        cache_capacity_bytes=capacity, cache_bandwidth_bytes_per_s=bandwidth,
        datasets=datasets, scenario=scenario,
    )


def _check_action(action, resources, known_uris, credentials) -> None:
    """Reject a scenario action that ``World._run_action`` could not run."""
    op = check_keys("scenario action", action, action, strings=("op",)).get("op")
    if op not in _ACTIONS:
        raise ConfigError(f"unknown scenario op {op!r}")
    required, accepted = _ACTIONS[op]
    section = f"scenario op {op!r}"
    check_keys(section, action, accepted | {"op", "t"}, required,
               ("resource", "uri", "credential", "tale_id"))
    for key, (low, integer) in _NUMBERS.items():
        if key in action:
            check_number(section, key, action[key], low, integer=integer)
    for key in ("mpi", "via_pool"):
        if key in action:
            check_bool(section, key, action[key])
    for key in ("command", "uris"):
        if key in action:
            check_list(f"{section} {key}", action[key], str)
    if "command" in action:
        runtime_of_command(action["command"], 0.0)
    if "resource" in action and action["resource"] not in resources:
        raise ConfigError(f"scenario op {op!r} references unknown resource {action['resource']!r}")
    if op in ("submit_jobs", "workload"):  # the shape LrmMiddleware.submit refuses
        rd = resources[action["resource"]]
        if not rd.is_batch:
            raise ConfigError(f"{section} resource {rd.name!r} has no batch LRM")
        credential = action.get("credential", JobSpec.credential)
        if credential not in credentials:
            given = "" if "credential" in action else " (the default)"
            raise ConfigError(f"{section} credential {credential!r}{given} is not in "
                              f"scenario credentials {list(credentials)}")
        if action.get("mpi") and not rd.mpi_capable:
            raise ConfigError(f"{section} mpi is true, but resource {rd.name!r} is not MPI capable")
        if action.get("node_count", 1) > rd.node_count:
            raise ConfigError(f"{section} node_count {action['node_count']} exceeds "
                              f"the {rd.node_count} nodes of resource {rd.name!r}")
    for uri in [action["uri"]] if "uri" in action else action.get("uris", []):
        if uri not in known_uris:
            raise ConfigError(f"scenario op {op!r} references unknown dataset {uri!r}")


class World:
    """One seeded instantiation of a WorldConfig."""

    def __init__(self, config: WorldConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.clock = SimClock()
        self.trace = TraceLog(self.clock)
        sc = config.scenario
        self.transport = Transport(
            self.clock, self.trace, rtt_s=sc.transport_rtt_s,
            handshake_s=sc.handshake_s, idle_ttl_s=sc.idle_ttl_s,
        )
        self.middleware = LrmMiddleware(self.clock, self.transport, self.trace,
                                        poll_interval_s=sc.poll_interval_s)
        self.middleware.add_transition_listener(self._on_transition)
        self.clock.on_quiet = self._run_ahead
        self.clusters: dict[str, SimulatedLrm] = {}
        for rd in config.resources.values():
            self.middleware.register_resource(rd)
            if rd.is_batch:
                # the queue model's own seed participates, so one queue can be
                # re-rolled independently of the run seed
                backend = SimulatedLrm(
                    self.clock, rd,
                    self.rng_for(rd.name, f"queue:{rd.queue_model.seed}"), self.trace,
                )
                self.clusters[rd.name] = backend
                self.transport.register_backend(rd.name, backend)
        for credential in sc.credentials:
            self.transport.register_credential(credential)
        self.catalog = DatasetCatalog(config.datasets)
        self.cache = DmsCache(
            self.clock, self.catalog, config.cache_capacity_bytes,
            config.cache_bandwidth_bytes_per_s, self.trace,
        )
        self.network = SimulatedNetwork()
        self.proxy = ProxyRegistry(self.network, config.resources, self.trace)
        self.pools: dict[str, PilotPool] = {}
        self.workload_latencies: list[float] = []
        self.tales: dict[str, Tale] = {}
        self._latency_watch: dict[str, float] = {}
        self._submitted: list = []
        self._started = False
        self.clock.at(0.0, self._bootstrap)
        for action in sc.actions:
            self.clock.at(float(action.get("t", 0.0)), lambda a=action: self._run_action(a))

    # -- seeding -----------------------------------------------------------

    def rng_for(self, name: str, purpose: str) -> random.Random:
        # String seeding hashes through sha512: stable across processes.
        return random.Random(f"{self.seed}|{name}|{purpose}")

    # -- lifecycle -----------------------------------------------------------

    def _bootstrap(self) -> None:
        for policy in self.config.pools:
            self.pools[policy.resource] = PilotPool(
                self.clock, self.middleware, policy, self.trace,
                dispatch_overhead_s=self.config.scenario.dispatch_overhead_s,
            )

    def start(self) -> None:
        """Fire the t=0 bootstrap (pools, first actions) once."""
        if not self._started:
            self._started = True
            self.clock.run_until(0.0)

    def run(self, horizon: float) -> tuple[TraceLog, ScenarioMetrics]:
        if not 0 < horizon < math.inf:  # NaN too; a pool's ticks never end
            raise ValidationError(f"horizon must be a finite number > 0, got {horizon!r}")
        self.start()
        self.clock.run_until(horizon)
        return self.trace, self.metrics()

    def _run_ahead(self, horizon: float) -> None:
        """Run the grid ahead through a quiet stretch.

        The rule: a stretch stands in for a poll that would repeat, or a
        pool tick after which the next is idle. It rests on one property of
        this world: every backend is a ``SimulatedLrm`` on this clock, and
        its answers change only through a clock event or a transport write.
        A poll would repeat once its resource's last cycle applied all
        of its output and no job arrived, left or was canceled during it or
        since: it sends the same payload to an LRM whose jobs have not
        changed. A pool's ticks stay idle from a tick after which nothing
        woke it until its walltime deadline. Neither writes, so once every
        grid event at the next instant is one of these, every grid event up
        to the next other event repeats itself, and none draws from an RNG.

        The clock calls this after an instant that fired grid events only,
        so a stretch starts at the first poll that would repeat. It ends
        before the earliest of the next event that is not a grid event, the
        horizon, and a pool's walltime deadline. It does not start while a
        transport failure is armed, a polled (resource, credential) pair is
        in handshake backoff, or a pool is woken, and it ends before the
        first poll whose session would have idled past the TTL. At each
        grid point in the stretch the polls' ``transport_call`` records are
        appended, in firing order, and their pairs' sessions used then;
        nothing is dispatched or re-armed. The grid events are then queued
        again, once, in their firing order.
        """
        def stretch(tags):  # each tag answers None, or its deadline and its calls
            until, calls = math.inf, []
            for quiet in tags:
                answer = quiet()
                if answer is None:
                    return None
                until = min(until, answer[0])
                calls.extend(answer[1])
            step = self.transport.repeater(calls)
            return None if step is None else (until, step)

        self.clock.run_ahead(horizon, self.middleware.poll_interval_s, stretch)

    # -- scenario actions ------------------------------------------------------

    def _run_action(self, action: dict) -> None:
        op = action["op"]
        if op == "submit_jobs":
            spacing = action.get("spacing", 0)
            for i in range(action.get("count", 1)):
                spec = self._spec_from(action)
                if spacing and i:
                    self.clock.after(spacing * i, lambda s=spec: self._submit(s))
                else:
                    self._submit(spec)
        elif op == "workload":
            options = {"via_pool": action["via_pool"]} if "via_pool" in action else {}
            self.submit_workload(self._spec_from(action), **options)
        elif op == "open_dataset":
            try:  # best effort, like prefetch: a dataset the cache cannot admit keeps its state
                self.cache.open_nowait(self.catalog.get(action["uri"]))
            except CapacityError:
                pass
        elif op == "prefetch":
            uris = action.get("uris") or [d.uri for d in self.catalog]
            self.cache.prefetch_nowait([self.catalog.get(uri) for uri in uris])
        elif op == "cancel":
            index = action["job_index"]
            if index < len(self._submitted):
                try:  # a cancel lost in transit is traced, and the job runs on
                    self.middleware.cancel(self._submitted[index])
                except (TransportError, SessionError):
                    pass

    def _spec_from(self, action: dict) -> JobSpec:
        """The action's job; ``_check_action`` has checked each key's type."""
        return JobSpec(resource=action["resource"], command=action.get("command", DEFAULT_COMMAND),
                       **{key: action[key] for key in _SPEC_KEYS if key in action})

    def _submit(self, spec: JobSpec):
        handle = self.middleware.submit(spec)
        self._submitted.append(handle)
        return handle

    # -- workloads ---------------------------------------------------------

    def submit_workload(self, spec: JobSpec, via_pool: bool = True):
        """Claim a warm pilot slot that holds the workload's nodes when
        available, else direct submit.

        Either path records the workload start latency in the metrics and
        the trace.
        """
        pool = self.pools.get(spec.resource)
        if via_pool and pool is not None:
            slot = pool.claim(spec)
            if slot is not None:
                self.workload_latencies.append(pool.dispatch_overhead_s)
                return ("pilot", slot)
        started = self.clock.now
        handle = self._submit(spec)
        self._latency_watch[handle.job_id] = started
        return ("lrm", handle)

    def _on_transition(self, spec: JobSpec, job_id: str, previous, state, t: float) -> None:
        if state == JobState.RUNNING and job_id in self._latency_watch:
            latency = t - self._latency_watch.pop(job_id)
            self.workload_latencies.append(latency)
            self.trace.emit("workload_started", resource=spec.resource, via="lrm",
                            latency=latency, tale_id=spec.tale_id, job_id=job_id)
        tale = self.tales.get(spec.tale_id) if spec.tale_id else None
        if tale is not None:
            kind = (ProvenanceKind.JOB_SUBMITTED if state == JobState.SUBMITTED
                    else ProvenanceKind.JOB_STATE_CHANGE)
            record_provenance(tale, tale.next_event(
                kind, {"job_id": job_id, "from": previous.value, "to": state.value},
                timestamp=t,
            ))

    # -- tales & staging ----------------------------------------------------

    def attach_tale(self, tale: Tale) -> None:
        """Track a tale so its jobs' transitions land in its provenance.

        Ids are unique within the world's tale registry.
        """
        existing = self.tales.get(tale.id)
        if existing is not None and existing is not tale:
            from .errors import DuplicateError

            raise DuplicateError(f"tale id {tale.id!r} already attached")
        self.tales[tale.id] = tale

    def apply_staging(self, plan) -> None:
        """Execute a placement plan's staging actions against this world."""
        for action in plan.staging_actions:
            ref = self.catalog.get(action.uri)
            if action.action == StagingKind.MOUNT:
                self.trace.emit("mount", uri=action.uri, resource=action.resource)
            elif action.action == StagingKind.STAGE_IN:
                self.cache.stage_in(ref, self.config.resources[action.resource])
            else:
                self.cache.open(ref)

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> ScenarioMetrics:
        return ScenarioMetrics.from_trace(self.trace, sorted(self.clusters), self.workload_latencies)


def run_scenario(config: WorldConfig, seed: int, horizon: float) -> tuple[bytes, ScenarioMetrics]:
    """Run one seeded scenario; the trace bytes are a pure function of
    (config, seed, horizon)."""
    world = World(config, seed)
    trace, metrics = world.run(horizon)
    return trace.to_ndjson(), metrics
