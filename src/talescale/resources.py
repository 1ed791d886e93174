"""Compute resource descriptors shared by the planner, middleware and cache."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .dialects import ADAPTERS
from .errors import (ConfigError, ValidationError, check_bool, check_choice, check_keys, check_list,
                     check_number)
from .queues import QueueModel

RESOURCE_KINDS = ("wt_cluster", "hpc_cluster", "cloud")
LRM_KINDS = ("none", "batch")
DATASET_INTERFACES = ("posix", "non_posix")

# PBS job ids end with the resource name. qstat and qdel payloads carry them
# unquoted and are split on these; qsub's reply is read back stripped.
_PBS_UNSAFE = re.compile(r"[ \t\r\n\"'\\]")


@dataclass(frozen=True)
class ResourceDescriptor:
    """One compute resource in the inventory.

    ``local_datasets`` lists dataset URIs already resident on the resource;
    ``dataset_interface`` says whether they are reachable from a POSIX file
    system (mountable) or only through a non-POSIX interface (stage-in).
    ``no_proxy`` flags resources whose policy forbids proxied frontend
    access even when incoming connections are blocked.
    """

    name: str
    kind: str
    lrm: str = "none"
    allows_incoming_connections: bool = True
    mpi_capable: bool = False
    can_compile: bool = False
    node_count: int = 1
    local_datasets: frozenset[str] = field(default_factory=frozenset)
    dataset_interface: str = "posix"
    no_proxy: bool = False
    dialect: str | None = None
    queue_model: QueueModel | None = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("resource name must be nonempty")
        section = f"resource {self.name!r}"
        check_choice(section, "kind", self.kind, RESOURCE_KINDS)
        check_choice(section, "lrm", self.lrm, LRM_KINDS)
        check_choice(section, "dataset_interface", self.dataset_interface, DATASET_INTERFACES)
        check_number(section, "node_count", self.node_count, 1, integer=True)
        for key in ("allows_incoming_connections", "mpi_capable", "can_compile", "no_proxy"):
            check_bool(section, key, getattr(self, key))
        if self.kind == "wt_cluster" and (self.lrm != "none" or not self.allows_incoming_connections):
            raise ValidationError("wt_cluster must have lrm=none and allow incoming connections")
        if self.lrm == "batch" and self.dialect is None:
            object.__setattr__(self, "dialect", "sim-pbs")
        if self.dialect is not None:
            check_choice(section, "dialect", self.dialect, ADAPTERS)
        if self.dialect == "sim-pbs" and (_PBS_UNSAFE.search(self.name) or self.name != self.name.rstrip()):
            raise ConfigError(f"{section} name cannot be carried in sim-pbs job ids: it holds a space, tab, "
                              "CR, LF, quote or backslash, or ends with whitespace")
        object.__setattr__(self, "local_datasets", frozenset(self.local_datasets))

    @property
    def is_batch(self) -> bool:
        return self.lrm == "batch"

    @classmethod
    def from_dict(cls, raw: dict, queues: dict[str, QueueModel] | None = None) -> "ResourceDescriptor":
        check_keys("resource", raw, cls.__dataclass_fields__.keys() | {"queue"}, ("name", "kind"),
                   ("name", "kind", "lrm", "dataset_interface", "dialect", "queue"))
        raw = dict(raw)
        queue_name = raw.pop("queue", None)
        if "local_datasets" in raw:
            check_list(f"resource {raw['name']!r} local_datasets", raw["local_datasets"], str)
        qm = raw.pop("queue_model", None)
        if qm is not None and not isinstance(qm, QueueModel):
            qm = QueueModel.from_dict(qm)
        if queue_name is not None:
            if queues is None or queue_name not in (queues or {}):
                raise ConfigError(
                    f"resource {raw.get('name')!r} references unknown queue {queue_name!r}"
                )
            qm = queues[queue_name]
        return cls(queue_model=qm, **raw)


def resources_by_name(entries, queues: dict[str, QueueModel]) -> dict[str, ResourceDescriptor]:
    """Parse an inventory's resource list, in order; names must be unique.

    A ``queue`` entry names one of ``queues``.
    """
    resources: dict[str, ResourceDescriptor] = {}
    for raw in check_list("resources", entries):
        rd = ResourceDescriptor.from_dict(raw, queues=queues)
        if rd.name in resources:
            raise ConfigError(f"duplicate resource name {rd.name!r}")
        resources[rd.name] = rd
    return resources
