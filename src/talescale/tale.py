"""Executable research objects: code, data references, environment, provenance.

A Tale bundles everything needed to re-run a computational experiment:
relative-path code artifacts, checksummed external data references, an
environment pin list, an optional packaging manifest, and an append-only
provenance log. Tale values are immutable after construction except for
provenance appends.
"""

from __future__ import annotations

import enum
import re
import uuid
from dataclasses import dataclass, field, replace

from .dms import ExternalDataRef
from .errors import ValidationError
from .resources import ResourceDescriptor

GENERIC_ARCH = "generic"

_EXACT_PIN = re.compile(r"^(==)?[A-Za-z0-9_.\-+*!]+$")
_RANGE_PIN = re.compile(r"^(>=|<=|>|<|~=|!=)[A-Za-z0-9_.\-+*!]+(\s*,\s*(>=|<=|>|<|~=|!=)[A-Za-z0-9_.\-+*!]+)*$")


class ArtifactKind(str, enum.Enum):
    SOURCE = "source"
    PREBUILT_EXECUTABLE = "prebuilt_executable"
    LIBRARY = "library"


class WorkloadClass(str, enum.Enum):
    UNOPTIMIZED = "unoptimized"
    OPTIMIZED = "optimized"
    MIXED = "mixed"


class PackagingStrategy(str, enum.Enum):
    GENERIC_STATIC = "generic_static"
    PER_RESOURCE_STATIC = "per_resource_static"
    SOURCE_PLUS_GENERIC_LIBS = "source_plus_generic_libs"
    ON_DEMAND_COMPILE = "on_demand_compile"


class ProvenanceKind(str, enum.Enum):
    CREATED = "created"
    LAUNCHED = "launched"
    JOB_SUBMITTED = "job_submitted"
    JOB_STATE_CHANGE = "job_state_change"
    DATA_TRANSFER = "data_transfer"
    EXPORTED = "exported"
    IMPORTED = "imported"


def _normalize_path(path: str) -> str:
    if not path or path.startswith("/") or path.startswith("\\"):
        raise ValidationError(f"artifact path must be relative: {path!r}")
    parts = [p for p in path.replace("\\", "/").split("/") if p not in ("", ".")]
    if ".." in parts:
        raise ValidationError(f"artifact path may not traverse upward: {path!r}")
    if not parts:
        raise ValidationError(f"artifact path is empty after normalization: {path!r}")
    return "/".join(parts)


def _directories(paths) -> set[str]:
    """Every ancestor directory of the normalized ``paths``."""
    dirs: set[str] = set()
    for path in paths:
        parent = path.rpartition("/")[0]
        while parent and parent not in dirs:
            dirs.add(parent)
            parent = parent.rpartition("/")[0]
    return dirs


@dataclass(frozen=True)
class CodeArtifact:
    path: str
    kind: ArtifactKind = ArtifactKind.SOURCE
    target_arch: str | None = None
    checksum: str | None = None
    # Set when the artifact was built with a toolchain whose license may
    # forbid redistribution; gates inclusion under redistribution_ok=False.
    proprietary_toolchain: bool = False

    def __post_init__(self):
        object.__setattr__(self, "path", _normalize_path(self.path))
        object.__setattr__(self, "kind", ArtifactKind(self.kind))

    @property
    def arch_specific(self) -> bool:
        return self.target_arch not in (None, "", GENERIC_ARCH)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind.value,
            "target_arch": self.target_arch,
            "checksum": self.checksum,
            "proprietary_toolchain": self.proprietary_toolchain,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CodeArtifact":
        return cls(
            path=raw["path"],
            kind=ArtifactKind(raw.get("kind", "source")),
            target_arch=raw.get("target_arch"),
            checksum=raw.get("checksum"),
            proprietary_toolchain=bool(raw.get("proprietary_toolchain", False)),
        )


@dataclass(frozen=True)
class EnvironmentSpec:
    base_image_name: str = "generic-base"
    dependency_pins: tuple[tuple[str, str], ...] = ()
    env_vars: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        pins = tuple((str(n), str(c)) for n, c in self.dependency_pins)
        names = [n for n, _ in pins]
        if len(names) != len(set(names)):
            raise ValidationError("duplicate dependency pin names")
        for name, constraint in pins:
            if not (_EXACT_PIN.match(constraint) or _RANGE_PIN.match(constraint)):
                raise ValidationError(
                    f"pin {name!r} has malformed constraint {constraint!r} (exact or range)"
                )
        object.__setattr__(self, "dependency_pins", pins)
        if isinstance(self.env_vars, dict):
            object.__setattr__(self, "env_vars", tuple(sorted(self.env_vars.items())))
        else:
            object.__setattr__(self, "env_vars", tuple((str(k), str(v)) for k, v in self.env_vars))

    def to_dict(self) -> dict:
        return {
            "base_image_name": self.base_image_name,
            "dependency_pins": [list(p) for p in self.dependency_pins],
            "env_vars": {k: v for k, v in self.env_vars},
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "EnvironmentSpec":
        return cls(
            base_image_name=raw.get("base_image_name", "generic-base"),
            dependency_pins=tuple(tuple(p) for p in raw.get("dependency_pins", [])),
            env_vars=tuple(sorted(raw.get("env_vars", {}).items())),
        )


@dataclass(frozen=True)
class PackagingManifest:
    workload_class: WorkloadClass
    strategy: PackagingStrategy
    entries: tuple[CodeArtifact, ...]
    redistribution_ok: bool = True

    def __post_init__(self):
        object.__setattr__(self, "workload_class", WorkloadClass(self.workload_class))
        object.__setattr__(self, "strategy", PackagingStrategy(self.strategy))
        object.__setattr__(self, "entries", tuple(self.entries))
        self.validate()

    def validate(self) -> None:
        paths = [e.path for e in self.entries]
        if len(paths) != len(set(paths)):
            raise ValidationError("manifest entries contain duplicate paths")
        has_executable = any(e.kind == ArtifactKind.PREBUILT_EXECUTABLE for e in self.entries)
        has_source = any(e.kind == ArtifactKind.SOURCE for e in self.entries)
        if has_executable and not has_source:
            raise ValidationError("manifest with a prebuilt executable must include source")
        if self.strategy == PackagingStrategy.PER_RESOURCE_STATIC:
            if not any(e.arch_specific for e in self.entries):
                raise ValidationError("per_resource_static requires arch-tagged entries")
        if not self.redistribution_ok:
            blocked = [
                e.path for e in self.entries
                if e.kind == ArtifactKind.PREBUILT_EXECUTABLE and e.proprietary_toolchain
            ]
            if blocked:
                raise ValidationError(
                    f"redistribution_ok=false forbids proprietary executables: {blocked}"
                )

    def to_dict(self) -> dict:
        return {
            "workload_class": self.workload_class.value,
            "strategy": self.strategy.value,
            "entries": [e.to_dict() for e in self.entries],
            "redistribution_ok": self.redistribution_ok,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "PackagingManifest":
        return cls(
            workload_class=WorkloadClass(raw["workload_class"]),
            strategy=PackagingStrategy(raw["strategy"]),
            entries=tuple(CodeArtifact.from_dict(e) for e in raw.get("entries", [])),
            redistribution_ok=bool(raw.get("redistribution_ok", True)),
        )


@dataclass(frozen=True)
class ProvenanceEvent:
    seq: int
    timestamp: float
    kind: ProvenanceKind
    payload: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kind", ProvenanceKind(self.kind))
        if isinstance(self.payload, dict):
            object.__setattr__(self, "payload", tuple(sorted(self.payload.items())))

    def payload_dict(self) -> dict:
        return {k: v for k, v in self.payload}

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "timestamp": self.timestamp,
            "kind": self.kind.value,
            "payload": self.payload_dict(),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ProvenanceEvent":
        return cls(
            seq=int(raw["seq"]),
            timestamp=float(raw["timestamp"]),
            kind=ProvenanceKind(raw["kind"]),
            payload=tuple(sorted(raw.get("payload", {}).items())),
        )


@dataclass
class Tale:
    id: str
    title: str
    code_refs: tuple[CodeArtifact, ...]
    data_refs: tuple[ExternalDataRef, ...]
    env_spec: EnvironmentSpec
    packaging: PackagingManifest | None = None
    provenance: list[ProvenanceEvent] = field(default_factory=list)

    def validate(self) -> list[str]:
        """Return the list of invariant violations (empty when valid)."""
        problems = []
        if not self.id:
            problems.append("tale id is empty")
        if not self.title:
            problems.append("tale title is empty")
        paths = [a.path for a in self.code_refs]
        if len(paths) != len(set(paths)):
            problems.append("duplicate code artifact paths")
        for path in sorted(_directories(paths).intersection(paths)):
            problems.append(f"artifact path {path} is also a directory of other artifacts")
        uris = [r.uri for r in self.data_refs]
        if len(uris) != len(set(uris)):
            problems.append("duplicate data ref uris")
        has_compiled = any(
            a.kind in (ArtifactKind.PREBUILT_EXECUTABLE, ArtifactKind.LIBRARY)
            for a in self.code_refs
        )
        if has_compiled and not any(a.kind == ArtifactKind.SOURCE for a in self.code_refs):
            problems.append("missing source: compiled artifacts require their source to be included")
        if self.packaging is not None:
            has_exe = any(e.kind == ArtifactKind.PREBUILT_EXECUTABLE for e in self.packaging.entries)
            has_src = any(a.kind == ArtifactKind.SOURCE for a in self.code_refs)
            if has_exe and not has_src:
                problems.append("packaging contains a compiled executable but the tale has no source")
        # Strictly increasing, not necessarily contiguous: archives elide
        # import bookkeeping events, which may leave gaps.
        last = 0
        for ev in self.provenance:
            if ev.seq <= last:
                problems.append(f"provenance seq not increasing at {ev.seq}")
                break
            last = ev.seq
        return problems

    @property
    def last_seq(self) -> int:
        return self.provenance[-1].seq if self.provenance else 0

    def next_event(self, kind: ProvenanceKind, payload: dict | None = None,
                   timestamp: float = 0.0) -> ProvenanceEvent:
        return ProvenanceEvent(
            seq=self.last_seq + 1,
            timestamp=timestamp,
            kind=kind,
            payload=tuple(sorted((payload or {}).items())),
        )

    def with_packaging(self, manifest: PackagingManifest) -> "Tale":
        tale = replace(self, packaging=manifest)
        problems = tale.validate()
        if problems:
            raise ValidationError("; ".join(problems))
        return tale

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "code_refs": [a.to_dict() for a in self.code_refs],
            "data_refs": [r.to_dict() for r in self.data_refs],
            "env_spec": self.env_spec.to_dict(),
            "packaging": self.packaging.to_dict() if self.packaging else None,
        }

    @classmethod
    def from_dict(cls, raw: dict, provenance: list[ProvenanceEvent] | None = None) -> "Tale":
        packaging = raw.get("packaging")
        return cls(
            id=raw["id"],
            title=raw["title"],
            code_refs=tuple(CodeArtifact.from_dict(a) for a in raw.get("code_refs", [])),
            data_refs=tuple(ExternalDataRef.from_dict(r) for r in raw.get("data_refs", [])),
            env_spec=EnvironmentSpec.from_dict(raw.get("env_spec", {})),
            packaging=PackagingManifest.from_dict(packaging) if packaging else None,
            provenance=list(provenance or []),
        )


def create_tale(title: str, code_refs, data_refs, env_spec: EnvironmentSpec,
                tale_id: str | None = None, now: float = 0.0) -> Tale:
    if not title:
        raise ValidationError("tale title must be nonempty")
    code_refs = tuple(code_refs)
    data_refs = tuple(data_refs)
    paths = [a.path for a in code_refs]
    if len(paths) != len(set(paths)):
        dupes = sorted({p for p in paths if paths.count(p) > 1})
        raise ValidationError(f"duplicate code artifact paths: {dupes}")
    uris = [r.uri for r in data_refs]
    if len(uris) != len(set(uris)):
        raise ValidationError("duplicate data ref uris")
    tale = Tale(
        id=tale_id or uuid.uuid4().hex,
        title=title,
        code_refs=code_refs,
        data_refs=data_refs,
        env_spec=env_spec,
    )
    tale.provenance.append(ProvenanceEvent(
        seq=1, timestamp=now, kind=ProvenanceKind.CREATED,
        payload=(("title", title),),
    ))
    return tale


def record_provenance(tale: Tale, event: ProvenanceEvent) -> Tale:
    """Append one event; seq must be exactly last + 1 and is never rewritten."""
    if event.seq != tale.last_seq + 1:
        raise ValidationError(
            f"out-of-order provenance seq {event.seq}, expected {tale.last_seq + 1}"
        )
    tale.provenance.append(event)
    return tale


def classify_workload(tale: Tale) -> WorkloadClass:
    """Classify by architecture tags on the Tale's code artifacts.

    No arch-specific artifact means unoptimized; all artifacts arch-specific
    means optimized; unoptimized driving code next to optimized cores is
    mixed.
    """
    if not tale.code_refs:
        raise ValidationError("tale has no code artifacts to classify")
    specific = [a.arch_specific for a in tale.code_refs]
    if not any(specific):
        return WorkloadClass.UNOPTIMIZED
    if all(specific):
        return WorkloadClass.OPTIMIZED
    return WorkloadClass.MIXED


def select_strategy(workload_class: WorkloadClass, targets: list[ResourceDescriptor],
                    redistribution_ok: bool) -> PackagingStrategy:
    """Fixed packaging-strategy rule table; total over all inputs.

    unoptimized            -> source_plus_generic_libs
    optimized, ok, targets -> per_resource_static
    optimized, ok, none    -> generic_static
    optimized, not ok      -> on_demand_compile if a target can compile,
                              else source_plus_generic_libs
    mixed                  -> same compile-or-source fallback
    """
    workload_class = WorkloadClass(workload_class)
    compile_capable = any(t.can_compile for t in targets)
    if workload_class == WorkloadClass.UNOPTIMIZED:
        return PackagingStrategy.SOURCE_PLUS_GENERIC_LIBS
    if workload_class == WorkloadClass.OPTIMIZED and redistribution_ok:
        if targets:
            return PackagingStrategy.PER_RESOURCE_STATIC
        return PackagingStrategy.GENERIC_STATIC
    # mixed, or binaries that may not be redistributed
    if compile_capable:
        return PackagingStrategy.ON_DEMAND_COMPILE
    return PackagingStrategy.SOURCE_PLUS_GENERIC_LIBS


def build_manifest(tale: Tale, strategy: PackagingStrategy,
                   redistribution_ok: bool = True) -> PackagingManifest:
    """Assemble the packaging manifest for a strategy.

    Source artifacts are always included, whatever the strategy; a Tale
    whose only payload is a binary cannot be packaged at all.
    """
    strategy = PackagingStrategy(strategy)
    workload_class = classify_workload(tale)
    sources = [a for a in tale.code_refs if a.kind == ArtifactKind.SOURCE]
    executables = [a for a in tale.code_refs if a.kind == ArtifactKind.PREBUILT_EXECUTABLE]
    libraries = [a for a in tale.code_refs if a.kind == ArtifactKind.LIBRARY]
    if (executables or libraries) and not sources:
        raise ValidationError("tale has compiled artifacts but no source; source is mandatory")

    entries: list[CodeArtifact] = list(sources)
    if strategy == PackagingStrategy.GENERIC_STATIC:
        entries += [a for a in executables + libraries if not a.arch_specific]
    elif strategy == PackagingStrategy.PER_RESOURCE_STATIC:
        tagged = [a for a in executables + libraries if a.arch_specific]
        if not tagged:
            raise ValidationError("per_resource_static needs per-target arch-tagged artifacts")
        entries += executables + libraries
    elif strategy == PackagingStrategy.SOURCE_PLUS_GENERIC_LIBS:
        entries += [a for a in libraries if not a.arch_specific]
    elif strategy == PackagingStrategy.ON_DEMAND_COMPILE:
        entries += libraries
    if not redistribution_ok:
        entries = [
            a for a in entries
            if not (a.kind == ArtifactKind.PREBUILT_EXECUTABLE and a.proprietary_toolchain)
        ]
    return PackagingManifest(
        workload_class=workload_class,
        strategy=strategy,
        entries=tuple(entries),
        redistribution_ok=redistribution_ok,
    )
