"""Placement planner over the six execution models.

Given workload requirements and a resource inventory, the planner reports
which of the six deployment models are feasible and why, then picks the
placement minimizing either expected time to a usable frontend or wide-
area data movement. Selection is deterministic: ties break by model order
(M1 first), then inventory order.

A candidate's wide-area bytes are the sizes of the requested refs that are
not local to its consumer; the consumer is the workload resource, else the
frontend. These are exactly the refs ``resolve_local`` sends through the
cache, so scoring builds no staging actions: ``resolve_local`` runs once
per dataset, for the chosen consumer's staging tuple.

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

``placement_candidates`` states these rules once. Feasibility, placement,
the frontend pairing check in ``estimate_time_to_frontend`` and the
per-model measurements in ``talescale.measure`` all derive from it.
``launch_path`` states once how a placed frontend starts (batch queue,
direct-node queue or bare image load); the time estimate here and the
simulated launch in ``talescale.measure`` both branch on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .dms import DatasetCatalog, ExternalDataRef, StagingAction, resolve_local
from .errors import InfeasiblePlanError, ValidationError, check_keys, check_list, check_number
from .resources import ResourceDescriptor


class ExecutionModel(str, enum.Enum):
    M1_WT_CLUSTER = "M1_wt_cluster"
    M2_HPC_NODE = "M2_hpc_node"
    M3_HPC_NODE_LOCAL_LRM = "M3_hpc_node_local_lrm"
    M4_HPC_MPI = "M4_hpc_mpi"
    M5_WT_FRONTEND_REMOTE_LRM = "M5_wt_frontend_remote_lrm"
    M6_DECOUPLED_REMOTE_LRM = "M6_decoupled_remote_lrm"


MODEL_ORDER = tuple(ExecutionModel)
_MODEL_RANK = {model: i for i, model in enumerate(MODEL_ORDER)}

OBJECTIVES = ("min_time_to_frontend", "min_data_movement")


@dataclass(frozen=True)
class WorkloadRequirements:
    needs_hpc: bool = False
    needs_mpi: bool = False
    min_nodes: int = 1
    dataset_uris: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
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

    ``frontends`` lists the resources that may host this model's frontend,
    before the requirement checks; the frontend pairing check reads it.
    ``pairs`` lists the (frontend, workload resource) placements the
    requirements allow, in inventory order; the workload resource is None
    when no HPC workload runs. An infeasible model has no pairs, and
    ``reason`` says why.
    """

    model: ExecutionModel
    frontends: tuple[ResourceDescriptor, ...]
    pairs: tuple[tuple[ResourceDescriptor, ResourceDescriptor | None], ...]
    reason: str

    @property
    def feasible(self) -> bool:
        return bool(self.pairs)


def placement_candidates(req: WorkloadRequirements,
                         inventory: list[ResourceDescriptor]) -> list[ModelCandidates]:
    """The placement-candidate rule: every model's candidates, in model order.

    Feasibility, placement, the frontend pairing check and the per-model
    measurements all derive from this one rule.
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
    # (model, frontends, pairs, (blocked, reason) checks in order, feasible reason)
    rules = (
        (ExecutionModel.M1_WT_CLUSTER, wt, [(f, workload(f)) for f in wt], (
            (not wt, "no wt_cluster in inventory"),
            (req.needs_mpi, "MPI required; wt cluster cannot host MPI workloads"),
            (req.min_nodes > 1, multi_node),
        ), "wt cluster hosts frontend and local jobs"),
        (ExecutionModel.M2_HPC_NODE, direct, [(f, workload(f)) for f in direct], (
            (not direct, "no directly reachable hpc_cluster (lrm=none)"),
            (req.needs_mpi, "MPI required; a single node cannot host it"),
            (req.min_nodes > 1, multi_node),
        ), "frontend on a single directly reachable HPC node"),
        (ExecutionModel.M3_HPC_NODE_LOCAL_LRM, batch, [(f, workload(f)) for f in batch], (
            (req.needs_mpi, mpi_only),
            (not batch, no_batch),
        ), "frontend on an HPC node with local LRM access"),
        (ExecutionModel.M4_HPC_MPI, mpi, [(f, f) for f in mpi], (
            (not req.needs_mpi, "workload does not require MPI"),
            (not mpi, f"no MPI-capable resource with >= {req.min_nodes} nodes"),
        ), "frontend launched as an MPI allocation"),
        (ExecutionModel.M5_WT_FRONTEND_REMOTE_LRM, wt,
         [(f, w) for f in wt for w in remote], (
            (req.needs_mpi, mpi_only),
            (not wt, "no wt_cluster to host the frontend"),
            (not batch, no_batch),
        ), "frontend on wt cluster, jobs to a remote LRM"),
        (ExecutionModel.M6_DECOUPLED_REMOTE_LRM, decoupled,
         [(f, w) for f in decoupled for w in remote], (
            (req.needs_mpi, mpi_only),
            (not batch, no_batch),
        ), "decoupled frontend with remote LRM access"),
    )
    out = []
    for model, frontends, pairs, checks, feasible_reason in rules:
        blocked = next((why for hit, why in checks if hit), None)
        out.append(ModelCandidates(
            model=model, frontends=tuple(frontends),
            pairs=() if blocked else tuple(pairs), reason=blocked or feasible_reason,
        ))
    return out


def enumerate_feasible_models(req: WorkloadRequirements,
                              inventory: list[ResourceDescriptor]) -> list[ModelCandidates]:
    """Feasibility of all six models, in model order, with reasons."""
    return placement_candidates(req, inventory)


def estimate_time_to_frontend(model: ExecutionModel, resource: ResourceDescriptor,
                              image_load_s: float, pool_state=None,
                              dispatch_overhead_s: float = 0.2) -> float:
    """Expected seconds until a usable frontend on this resource.

    Deployment-cluster and decoupled non-batch frontends cost one image
    load. Batch-launched frontends add the queue model's analytic mean
    wait, unless a warm pilot slot turns that into a dispatch overhead.
    The resource must be one the candidate rule places this model's
    frontend on.
    """
    model = ExecutionModel(model)
    rule = placement_candidates(WorkloadRequirements(), [resource])[_MODEL_RANK[model]]
    if not rule.frontends:
        raise ValidationError(f"{model.value} cannot place a frontend on {resource.name!r}")
    return _time_to_frontend(model, resource, image_load_s, pool_state, dispatch_overhead_s)


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
                      image_load_s: float, pool_state, dispatch_overhead_s: float) -> float:
    path = launch_path(model, resource)
    if path == LaunchPath.IMAGE_LOAD:
        return image_load_s
    if path == LaunchPath.BATCH_QUEUE and pool_state is not None and pool_state.get(resource.name):
        return image_load_s + dispatch_overhead_s
    wait = resource.queue_model.expected_wait() if resource.queue_model else 0.0
    return image_load_s + wait


def plan_placement(req: WorkloadRequirements, inventory: list[ResourceDescriptor],
                   objective: str = "min_time_to_frontend", *,
                   catalog: DatasetCatalog | None = None,
                   frontend_override: str | None = None,
                   image_load_s: float = 8.0,
                   pool_state=None,
                   dispatch_overhead_s: float = 0.2) -> PlacementPlan:
    """Deterministically choose the best feasible placement.

    ``frontend_override`` names the user-supplied frontend resource and
    restricts planning to the decoupled model (recorded as an override).
    """
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}; use one of {OBJECTIVES}")
    rules = placement_candidates(req, inventory)
    reasons = tuple(
        f"{c.model.value}: {'feasible' if c.feasible else 'infeasible'} - {c.reason}"
        for c in rules
    )
    index = {r.name: i for i, r in enumerate(inventory)}

    override = None
    if frontend_override is None:
        candidates = [(c.model, frontend, workload)
                      for c in rules for frontend, workload in c.pairs]
    else:
        override = {r.name: r for r in inventory}.get(frontend_override)
        if override is None:
            raise ValidationError(f"frontend override {frontend_override!r} is not in the inventory")
        decoupled = rules[_MODEL_RANK[ExecutionModel.M6_DECOUPLED_REMOTE_LRM]]
        if not decoupled.feasible:
            raise InfeasiblePlanError(list(reasons))
        candidates = [(decoupled.model, override, workload) for _, workload in decoupled.pairs]

    if not candidates:
        raise InfeasiblePlanError(list(reasons))

    def ref_for(uri: str) -> ExternalDataRef:
        if catalog is not None and uri in catalog:
            return catalog.get(uri)
        return ExternalDataRef(uri=uri, size_bytes=1, checksum="sha256:unknown")

    refs = [ref_for(uri) for uri in sorted(req.dataset_uris)]
    # many candidates share a consumer (the workload resource, else the
    # frontend), and the sum depends on the consumer alone
    wide_area: dict[str, int] = {}

    def wide_area_bytes(frontend, workload) -> int:
        consumer = workload if workload is not None else frontend
        if consumer.name not in wide_area:
            wide_area[consumer.name] = sum(
                ref.size_bytes for ref in refs if ref.uri not in consumer.local_datasets)
        return wide_area[consumer.name]

    def score(candidate):
        model, frontend, workload = candidate
        if objective == "min_time_to_frontend":
            primary = _time_to_frontend(
                model, frontend, image_load_s, pool_state, dispatch_overhead_s)
        else:
            primary = wide_area_bytes(frontend, workload)
        return (
            primary,
            _MODEL_RANK[model],
            index[frontend.name],
            index[workload.name] if workload is not None else -1,
        )

    model, frontend, workload = min(candidates, key=score)
    consumer = workload if workload is not None else frontend
    staging = tuple(resolve_local(ref, consumer) for ref in refs)
    estimate = _time_to_frontend(model, frontend, image_load_s, pool_state, dispatch_overhead_s)
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
