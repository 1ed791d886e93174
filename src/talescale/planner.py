"""Placement planner over the six execution models.

Given workload requirements and a resource inventory, the planner reports
which of the six deployment models are feasible and why, then picks the
placement minimizing either expected time to a usable frontend or wide-
area data movement. Selection is deterministic: ties break by model order
(M1 first), then inventory order.

Plans read an ``Inventory``, an immutable snapshot of the resources
(``plan_placement`` wraps a plain list in one of its own). For each
requirement shape ``(needs_hpc, needs_mpi, min_nodes)`` a snapshot builds
on first use, and keeps, the candidate rule's output, the six reasons and,
per group, the group's first candidate in rule order. A group is what an
objective's score depends on: the consumer (the workload resource, else
the frontend) for wide-area bytes, the (model, frontend) pair for time to
frontend, which reads the queue model and so is priced on every plan. The
rule yields candidates in model order, then inventory order, and the
groups keep the order of their first candidates, so the first
least-scoring group is the one the tie-break picks. A consumer's wide-area
bytes are the requested total less the sizes of the requested refs local
to it, exactly the refs ``resolve_local`` does not send through the cache;
it runs once per dataset, for the chosen consumer's staging tuple. A
snapshot also indexes its consumers by the datasets they hold, so a plan
prices only the consumers that can win (``_contenders``): the first, and
those holding a requested dataset.

Model rules, fixed as this artifact's policy:

* M1 frontend and workload on the deployment cluster: single-node,
  non-MPI work only.
* M2 frontend on a directly reachable HPC node (lrm=none): single-node,
  non-MPI.
* M3 frontend on an HPC node with local batch LRM access.
* M4 frontend as an MPI allocation; the only model serving MPI workloads.
* M5 frontend on the deployment cluster, workload on a remote batch LRM.
* M6 decoupled: a user-named frontend resource (recorded as an override)
  with workloads on any batch LRM.

``placement_candidates`` states these rules once. Feasibility, placement
and the per-model measurements in ``talescale.measure`` all derive from
it. ``launch_path`` states once how a placed frontend starts (batch queue,
direct-node queue or bare image load); the time estimate here and the
simulated launch in ``talescale.measure`` both branch on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .dms import DatasetCatalog, ExternalDataRef, StagingAction, resolve_local
from .errors import InfeasiblePlanError, ValidationError, check_bool, check_keys, check_list, check_number
from .resources import ResourceDescriptor


class ExecutionModel(str, enum.Enum):
    M1_WT_CLUSTER = "M1_wt_cluster"
    M2_HPC_NODE = "M2_hpc_node"
    M3_HPC_NODE_LOCAL_LRM = "M3_hpc_node_local_lrm"
    M4_HPC_MPI = "M4_hpc_mpi"
    M5_WT_FRONTEND_REMOTE_LRM = "M5_wt_frontend_remote_lrm"
    M6_DECOUPLED_REMOTE_LRM = "M6_decoupled_remote_lrm"


MODEL_ORDER = tuple(ExecutionModel)

OBJECTIVES = ("min_time_to_frontend", "min_data_movement")


@dataclass(frozen=True)
class WorkloadRequirements:
    needs_hpc: bool = False
    needs_mpi: bool = False
    min_nodes: int = 1
    dataset_uris: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        check_bool("requirements", "needs_hpc", self.needs_hpc)
        check_bool("requirements", "needs_mpi", self.needs_mpi)
        check_number("requirements", "min_nodes", self.min_nodes, 1, integer=True)
        if self.needs_mpi and not self.needs_hpc:
            raise ValidationError("needs_mpi implies needs_hpc")
        object.__setattr__(self, "dataset_uris", frozenset(self.dataset_uris))

    @classmethod
    def from_dict(cls, raw: dict) -> "WorkloadRequirements":
        check_keys("requirements", raw, cls.__dataclass_fields__)
        check_list("requirements dataset_uris", raw.get("dataset_uris", ()), str)
        return cls(**raw)


@dataclass(frozen=True)
class PlacementPlan:
    model: ExecutionModel
    frontend_resource: str
    workload_resources: tuple[str, ...]
    proxy_required: bool
    staging_actions: tuple[StagingAction, ...]
    estimated_time_to_frontend: float
    objective: str
    reasons: tuple[str, ...]
    user_override: bool = False

    def to_dict(self) -> dict:
        return {
            "model": self.model.value,
            "frontend_resource": self.frontend_resource,
            "workload_resources": list(self.workload_resources),
            "proxy_required": self.proxy_required,
            "staging_actions": [a.to_dict() for a in self.staging_actions],
            "estimated_time_to_frontend": self.estimated_time_to_frontend,
            "objective": self.objective,
            "reasons": list(self.reasons),
            "user_override": self.user_override,
        }


@dataclass(frozen=True)
class ModelCandidates:
    """One model's entry in the placement-candidate rule.

    ``pairs`` lists the (frontend, workload resource) placements the
    requirements allow, in inventory order; the workload resource is None
    when no HPC workload runs. An infeasible model has no pairs, and
    ``reason`` says why.
    """

    model: ExecutionModel
    pairs: tuple[tuple[ResourceDescriptor, ResourceDescriptor | None], ...]
    reason: str

    @property
    def feasible(self) -> bool:
        return bool(self.pairs)


def placement_candidates(req: WorkloadRequirements,
                         inventory: list[ResourceDescriptor]) -> list[ModelCandidates]:
    """The placement-candidate rule: every model's candidates, in model order.

    Feasibility, placement and the per-model measurements all derive from
    this one rule.
    """
    if not inventory:
        raise ValidationError("inventory must not be empty")
    wt = [r for r in inventory if r.kind == "wt_cluster"][:1]
    cloud = [r for r in inventory if r.kind == "cloud"][:1]
    direct = [r for r in inventory if r.kind == "hpc_cluster" and r.lrm == "none"]
    batch = [
        r for r in inventory
        if r.kind == "hpc_cluster" and r.lrm == "batch"
        and (not req.needs_hpc or r.node_count >= req.min_nodes)
    ]
    mpi = [r for r in batch if r.mpi_capable and r.node_count >= req.min_nodes]
    # Decoupled frontend when the user names nothing: deployment cluster,
    # then cloud, then a direct-access node, then the workload cluster itself.
    decoupled = (wt or cloud or direct or batch)[:1]

    def workload(r):
        return r if req.needs_hpc else None

    # M5 and M6 send the workload to a remote LRM; with no HPC workload to
    # send, the remote cluster plays no part and each frontend pairs once
    remote = batch if req.needs_hpc else [None]

    mpi_only = "MPI workloads require the MPI execution model"
    multi_node = "multi-node workloads need an LRM-backed model"
    if req.needs_hpc and req.min_nodes > 1:
        no_batch = f"no batch hpc_cluster with >= {req.min_nodes} nodes"
    else:
        no_batch = "no hpc_cluster with a batch LRM"
    # (model, pairs, (blocked, reason) checks in order, feasible reason)
    rules = (
        (ExecutionModel.M1_WT_CLUSTER, [(f, workload(f)) for f in wt], (
            (not wt, "no wt_cluster in inventory"),
            (req.needs_mpi, "MPI required; wt cluster cannot host MPI workloads"),
            (req.min_nodes > 1, multi_node),
        ), "wt cluster hosts frontend and local jobs"),
        (ExecutionModel.M2_HPC_NODE, [(f, workload(f)) for f in direct], (
            (not direct, "no directly reachable hpc_cluster (lrm=none)"),
            (req.needs_mpi, "MPI required; a single node cannot host it"),
            (req.min_nodes > 1, multi_node),
        ), "frontend on a single directly reachable HPC node"),
        (ExecutionModel.M3_HPC_NODE_LOCAL_LRM, [(f, workload(f)) for f in batch], (
            (req.needs_mpi, mpi_only),
            (not batch, no_batch),
        ), "frontend on an HPC node with local LRM access"),
        (ExecutionModel.M4_HPC_MPI, [(f, f) for f in mpi], (
            (not req.needs_mpi, "workload does not require MPI"),
            (not mpi, f"no MPI-capable resource with >= {req.min_nodes} nodes"),
        ), "frontend launched as an MPI allocation"),
        (ExecutionModel.M5_WT_FRONTEND_REMOTE_LRM, [(f, w) for f in wt for w in remote], (
            (req.needs_mpi, mpi_only),
            (not wt, "no wt_cluster to host the frontend"),
            (not batch, no_batch),
        ), "frontend on wt cluster, jobs to a remote LRM"),
        (ExecutionModel.M6_DECOUPLED_REMOTE_LRM, [(f, w) for f in decoupled for w in remote], (
            (req.needs_mpi, mpi_only),
            (not batch, no_batch),
        ), "decoupled frontend with remote LRM access"),
    )
    out = []
    for model, pairs, checks, feasible_reason in rules:
        blocked = next((why for hit, why in checks if hit), None)
        out.append(ModelCandidates(model=model, pairs=() if blocked else tuple(pairs),
                                   reason=blocked or feasible_reason))
    return out


def enumerate_feasible_models(req: WorkloadRequirements,
                              inventory: list[ResourceDescriptor]) -> list[ModelCandidates]:
    """Feasibility of all six models, in model order, with reasons."""
    return placement_candidates(req, inventory)


class LaunchPath(enum.Enum):
    """How a frontend starts once its resource is chosen."""

    BATCH_QUEUE = "batch_queue"  # a batch job; a warm pilot slot skips the queue
    NODE_QUEUE = "node_queue"    # a direct-node allocation with a sampled queue wait
    IMAGE_LOAD = "image_load"    # only the image load


def launch_path(model: ExecutionModel, resource: ResourceDescriptor) -> LaunchPath:
    """The launch mechanics of ``model``'s frontend on ``resource``.

    M3 and M4 frontends, and M6 frontends on a batch resource, go through
    the batch queue; M2 frontends, and M6 frontends on a non-batch resource
    with a queue model, wait for a direct-node allocation; every other
    frontend is a bare image load.
    """
    decoupled = model == ExecutionModel.M6_DECOUPLED_REMOTE_LRM
    if model in (ExecutionModel.M3_HPC_NODE_LOCAL_LRM, ExecutionModel.M4_HPC_MPI) or (
            decoupled and resource.is_batch):
        return LaunchPath.BATCH_QUEUE
    if model == ExecutionModel.M2_HPC_NODE or (decoupled and resource.queue_model is not None):
        return LaunchPath.NODE_QUEUE
    return LaunchPath.IMAGE_LOAD


def _time_to_frontend(model: ExecutionModel, resource: ResourceDescriptor,
                      image_load_s: float) -> float:
    """Expected seconds until a usable frontend: one image load, plus the
    queue model's analytic mean wait unless the frontend is a bare image
    load."""
    if launch_path(model, resource) == LaunchPath.IMAGE_LOAD:
        return image_load_s
    wait = resource.queue_model.expected_wait() if resource.queue_model else 0.0
    return image_load_s + wait


def _firsts(candidates, group) -> tuple:
    """Each group's first candidate, groups in the order they first appear."""
    firsts = {}
    for candidate in candidates:
        firsts.setdefault(group(candidate), candidate)
    return tuple(firsts.values())


def _consumer(candidate) -> ResourceDescriptor:
    _, frontend, workload = candidate
    return workload if workload is not None else frontend


# What each objective's primary score depends on, besides the call's inputs:
# wide-area bytes on the consumer alone, time to frontend on the model and
# the frontend alone.
_GROUPS = {
    "min_time_to_frontend": lambda c: (c[0], c[1].name),
    "min_data_movement": lambda c: _consumer(c).name,
}


def _contenders(firsts: tuple, holders: dict, uris) -> tuple:
    """The groups that can win ``min_data_movement``, in rule order: the
    first group, and each group whose consumer holds one of ``uris``.

    Sizes are ints >= 0, so a consumer holding none of the requested
    datasets scores exactly the requested total, and the first group scores
    at most that; ``min`` keeps the first of equal scores, so no other
    non-holder can win. ``holders`` maps a URI to the positions in
    ``firsts`` of the consumers holding it. A time-to-frontend score reads
    the queue model, so every (model, frontend) group contends.
    """
    if not firsts:
        return firsts
    positions = {0}
    for uri in uris:
        positions.update(holders.get(uri, ()))
    return tuple(map(firsts.__getitem__, sorted(positions)))


class _ShapeTables:
    """One requirement shape's placement tables over one inventory."""

    __slots__ = ("rules", "reasons", "firsts", "holders")

    def __init__(self, req: WorkloadRequirements, inventory: "Inventory"):
        self.rules = placement_candidates(req, inventory)
        self.reasons = tuple(
            f"{c.model.value}: {'feasible' if c.feasible else 'infeasible'} - {c.reason}"
            for c in self.rules
        )
        candidates = [(c.model, frontend, workload)
                      for c in self.rules for frontend, workload in c.pairs]
        self.firsts = {objective: _firsts(candidates, group)
                       for objective, group in _GROUPS.items()}
        self.holders = {}  # uri -> positions in firsts["min_data_movement"]
        for position, candidate in enumerate(self.firsts["min_data_movement"]):
            for uri in _consumer(candidate).local_datasets:
                self.holders.setdefault(uri, []).append(position)


class Inventory(tuple):
    """An immutable snapshot of a resource inventory, in order, with unique
    names; it keeps the placement tables of each requirement shape planned
    against it."""

    def __new__(cls, resources):
        self = super().__new__(cls, resources)
        self._index = {r.name: i for i, r in enumerate(self)}
        if len(self._index) < len(self):
            raise ValidationError("inventory resource names must be unique")
        self._shapes = {}
        return self

    def _tables(self, req: WorkloadRequirements) -> _ShapeTables:
        shape = (req.needs_hpc, req.needs_mpi, req.min_nodes)
        tables = self._shapes.get(shape)
        if tables is None:
            tables = self._shapes[shape] = _ShapeTables(req, self)
        return tables


def plan_placement(req: WorkloadRequirements, inventory: list[ResourceDescriptor],
                   objective: str = "min_time_to_frontend", *,
                   catalog: DatasetCatalog | None = None,
                   frontend_override: str | None = None,
                   image_load_s: float = 8.0) -> PlacementPlan:
    """Deterministically choose the best feasible placement.

    ``inventory`` is an ``Inventory``, whose tables later plans reuse, or
    any sequence of resources, read through a snapshot of its own.
    ``frontend_override`` names the user-supplied frontend resource and
    restricts planning to the decoupled model (recorded as an override).
    """
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}; use one of {OBJECTIVES}")
    if not isinstance(inventory, Inventory):
        inventory = Inventory(inventory)
    tables = inventory._tables(req)
    reasons = tables.reasons

    override = None
    if frontend_override is None:
        candidates = tables.firsts[objective]
        if objective == "min_data_movement":
            candidates = _contenders(candidates, tables.holders, req.dataset_uris)
    else:
        if frontend_override not in inventory._index:
            raise ValidationError(f"frontend override {frontend_override!r} is not in the inventory")
        override = inventory[inventory._index[frontend_override]]
        decoupled = tables.rules[MODEL_ORDER.index(ExecutionModel.M6_DECOUPLED_REMOTE_LRM)]
        if not decoupled.feasible:
            raise InfeasiblePlanError(list(reasons))
        candidates = _firsts([(decoupled.model, override, workload)
                              for _, workload in decoupled.pairs], _GROUPS[objective])

    if not candidates:
        raise InfeasiblePlanError(list(reasons))

    def ref_for(uri: str) -> ExternalDataRef:
        if catalog is not None and uri in catalog:
            return catalog.get(uri)
        return ExternalDataRef(uri=uri, size_bytes=1, checksum="sha256:unknown")

    refs = [ref_for(uri) for uri in sorted(req.dataset_uris)]
    if objective == "min_time_to_frontend":
        def primary(candidate):
            model, frontend, _ = candidate
            return _time_to_frontend(model, frontend, image_load_s)
    else:
        # the requested bytes less those already local to the consumer
        sizes = {ref.uri: ref.size_bytes for ref in refs}
        total = sum(sizes.values())

        def primary(candidate):
            local = req.dataset_uris & _consumer(candidate).local_datasets
            return total - sum(map(sizes.__getitem__, local))

    # min keeps the first of equal scores: ties go to model, then inventory order
    best = min(candidates, key=primary)
    model, frontend, workload = best
    staging = tuple(resolve_local(ref, _consumer(best)) for ref in refs)
    estimate = _time_to_frontend(model, frontend, image_load_s)
    notes = list(reasons)
    notes.append(f"selected {model.value} minimizing {objective}")
    if override is not None:
        notes.append(f"user_override=true: frontend pinned to {override.name}")
    return PlacementPlan(
        model=model,
        frontend_resource=frontend.name,
        workload_resources=(workload.name,) if workload is not None else (),
        proxy_required=not frontend.allows_incoming_connections,
        staging_actions=staging,
        estimated_time_to_frontend=estimate,
        objective=objective,
        reasons=tuple(notes),
        user_override=override is not None,
    )
