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
from .errors import (ConfigError, ValidationError, check_bool, check_choice, check_keys, check_list,
                     check_number)
from .resources import ResourceDescriptor

GENERIC_ARCH = "generic"

_EXACT_PIN = re.compile(r"^(==)?[A-Za-z0-9_.\-+*!]+$")
_RANGE_PIN = re.compile(r"^(>=|<=|>|<|~=|!=)[A-Za-z0-9_.\-+*!]+(\s*,\s*(>=|<=|>|<|~=|!=)[A-Za-z0-9_.\-+*!]+)*$")
_PIN_OPERATOR = re.compile(r"==|>=|<=|!=|~=|>|<")


def parse_pin(text: str) -> tuple[str, str]:
    """``(name, constraint)`` of a ``name``, ``name==version`` or
    ``name<op>version`` pin, split at its first operator. An exact pin
    drops its ``==``, a range keeps its operator, and a bare name gets
    ``*``; the constraint itself is checked by ``EnvironmentSpec``."""
    match = _PIN_OPERATOR.search(text)
    if match is None:
        name, constraint = text, "*"
    else:
        name = text[:match.start()]
        constraint = text[match.end() if match.group() == "==" else match.start():]
    if not name:
        raise ValidationError(f"pin {text!r} has no package name")
    return name, constraint


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


def _each(section: str, items, cls) -> tuple:
    """``items`` as a tuple of ``cls``, each JSON object in it read by ``cls.from_dict``."""
    return tuple(item if isinstance(item, cls) else cls.from_dict(item)
                 for item in check_list(section, items))


def _lacks_source(artifacts) -> bool:
    """The source rule, broken: ``artifacts`` hold compiled artifacts
    (executables or libraries) but no source to ship beside them."""
    kinds = {a.kind for a in artifacts}
    return bool(kinds) and ArtifactKind.SOURCE not in kinds


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
        object.__setattr__(self, "kind", check_choice("code ref", "kind", self.kind, ArtifactKind))
        check_bool("code ref", "proprietary_toolchain", self.proprietary_toolchain)

    @property
    def arch_specific(self) -> bool:
        return self.target_arch not in (None, "", GENERIC_ARCH)

    def to_dict(self) -> dict:
        return dict(vars(self), kind=self.kind.value)

    @classmethod
    def from_dict(cls, raw: dict) -> "CodeArtifact":
        return cls(**check_keys("code ref", raw, cls.__dataclass_fields__, ("path",),
                                ("path", "kind", "target_arch", "checksum")))


@dataclass(frozen=True)
class EnvironmentSpec:
    base_image_name: str = "generic-base"
    dependency_pins: tuple[tuple[str, str], ...] = ()
    env_vars: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        pins = check_list("env_spec dependency_pins", self.dependency_pins)
        if not all(isinstance(pin, (list, tuple)) and len(pin) == 2 for pin in pins):
            raise ConfigError(f"env_spec dependency_pins must be [name, constraint] pairs, "
                              f"got {self.dependency_pins!r:.200}")
        pins = tuple((str(n), str(c)) for n, c in pins)
        names = [n for n, _ in pins]
        if len(names) != len(set(names)):
            raise ValidationError("duplicate dependency pin names")
        for name, constraint in pins:
            if not (_EXACT_PIN.match(constraint) or _RANGE_PIN.match(constraint)):
                raise ValidationError(
                    f"pin {name!r} has malformed constraint {constraint!r} (exact or range)"
                )
        object.__setattr__(self, "dependency_pins", pins)
        env_vars = self.env_vars
        if not isinstance(env_vars, tuple):
            env_vars = sorted(check_keys("env_spec env_vars", env_vars, env_vars).items())
        object.__setattr__(self, "env_vars", tuple((str(k), str(v)) for k, v in env_vars))

    def to_dict(self) -> dict:
        return dict(vars(self), dependency_pins=[list(pin) for pin in self.dependency_pins],
                    env_vars=dict(self.env_vars))

    @classmethod
    def from_dict(cls, raw: dict) -> "EnvironmentSpec":
        return cls(**check_keys("env_spec", raw, cls.__dataclass_fields__, strings=("base_image_name",)))


@dataclass(frozen=True)
class PackagingManifest:
    workload_class: WorkloadClass
    strategy: PackagingStrategy
    entries: tuple[CodeArtifact, ...] = ()
    redistribution_ok: bool = True

    def __post_init__(self):
        object.__setattr__(self, "workload_class", check_choice(
            "packaging", "workload_class", self.workload_class, WorkloadClass))
        object.__setattr__(self, "strategy", check_choice(
            "packaging", "strategy", self.strategy, PackagingStrategy))
        object.__setattr__(self, "entries", _each("packaging entries", self.entries, CodeArtifact))
        check_bool("packaging", "redistribution_ok", self.redistribution_ok)
        self.validate()

    def validate(self) -> None:
        paths = [e.path for e in self.entries]
        if len(paths) != len(set(paths)):
            raise ValidationError("manifest entries contain duplicate paths")
        if _lacks_source(self.entries):
            raise ValidationError("manifest with compiled artifacts must include source")
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
        return dict(vars(self), workload_class=self.workload_class.value, strategy=self.strategy.value,
                    entries=[e.to_dict() for e in self.entries])

    @classmethod
    def from_dict(cls, raw: dict) -> "PackagingManifest":
        return cls(**check_keys("packaging", raw, cls.__dataclass_fields__, ("workload_class", "strategy")))


@dataclass(frozen=True)
class ProvenanceEvent:
    seq: int
    timestamp: float
    kind: ProvenanceKind
    payload: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        check_number("provenance event", "seq", self.seq, integer=True)
        object.__setattr__(self, "timestamp", float(check_number(
            "provenance event", "timestamp", self.timestamp)))
        object.__setattr__(self, "kind", check_choice("provenance event", "kind", self.kind, ProvenanceKind))
        if not isinstance(self.payload, tuple):
            object.__setattr__(self, "payload", tuple(sorted(
                check_keys("provenance event payload", self.payload, self.payload).items())))

    def payload_dict(self) -> dict:
        return {k: v for k, v in self.payload}

    def to_dict(self) -> dict:
        return dict(vars(self), kind=self.kind.value, payload=self.payload_dict())

    @classmethod
    def from_dict(cls, raw: dict) -> "ProvenanceEvent":
        return cls(**check_keys("provenance event", raw, cls.__dataclass_fields__,
                                ("seq", "timestamp", "kind")))


@dataclass
class Tale:
    id: str
    title: str
    code_refs: tuple[CodeArtifact, ...] = ()
    data_refs: tuple[ExternalDataRef, ...] = ()
    env_spec: EnvironmentSpec = field(default_factory=EnvironmentSpec)
    packaging: PackagingManifest | None = None
    provenance: list[ProvenanceEvent] = field(default_factory=list)

    def __post_init__(self):
        self.code_refs = _each("tale code_refs", self.code_refs, CodeArtifact)
        self.data_refs = _each("tale data_refs", self.data_refs, ExternalDataRef)
        if not isinstance(self.env_spec, EnvironmentSpec):
            self.env_spec = EnvironmentSpec.from_dict(self.env_spec)
        if self.packaging is not None and not isinstance(self.packaging, PackagingManifest):
            self.packaging = PackagingManifest.from_dict(self.packaging)
        self.provenance = list(_each("tale provenance", self.provenance, ProvenanceEvent))

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
        if _lacks_source(self.code_refs):
            problems.append("missing source: compiled artifacts require their source to be included")
        if self.packaging is not None:
            # Entries name artifacts by value; an entry without a checksum names
            # any bytes, as export records checksums on the code refs only.
            held = {(a.path, a.kind, a.target_arch, a.proprietary_toolchain, checksum)
                    for a in self.code_refs for checksum in (a.checksum, None)}
            foreign = sorted(e.path for e in self.packaging.entries if (
                e.path, e.kind, e.target_arch, e.proprietary_toolchain, e.checksum) not in held)
            if foreign:
                problems.append(f"packaging names artifacts the tale does not hold: {foreign}")
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
            payload=payload or {},
        )

    def with_packaging(self, manifest: PackagingManifest) -> "Tale":
        tale = replace(self, packaging=manifest)
        problems = tale.validate()
        if problems:
            raise ValidationError("; ".join(problems))
        return tale

    def to_dict(self) -> dict:
        return dict(vars(self), code_refs=[a.to_dict() for a in self.code_refs],
                    data_refs=[r.to_dict() for r in self.data_refs], env_spec=self.env_spec.to_dict(),
                    packaging=self.packaging.to_dict() if self.packaging else None,
                    provenance=[e.to_dict() for e in self.provenance])

    @classmethod
    def from_dict(cls, raw: dict) -> "Tale":
        return cls(**check_keys("tale", raw, cls.__dataclass_fields__, ("id", "title"), ("id", "title")))


def create_tale(title: str, code_refs, data_refs, env_spec: EnvironmentSpec,
                tale_id: str | None = None, now: float = 0.0) -> Tale:
    if not title:
        raise ValidationError("tale title must be nonempty")
    tale = Tale(id=tale_id or uuid.uuid4().hex, title=title, code_refs=code_refs,
                data_refs=data_refs, env_spec=env_spec)
    paths = [a.path for a in tale.code_refs]
    if len(paths) != len(set(paths)):
        dupes = sorted({p for p in paths if paths.count(p) > 1})
        raise ValidationError(f"duplicate code artifact paths: {dupes}")
    uris = [r.uri for r in tale.data_refs]
    if len(uris) != len(set(uris)):
        raise ValidationError("duplicate data ref uris")
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
    workload_class = check_choice("packaging", "workload_class", workload_class, WorkloadClass)
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
    strategy = check_choice("packaging", "strategy", strategy, PackagingStrategy)
    workload_class = classify_workload(tale)
    sources = [a for a in tale.code_refs if a.kind == ArtifactKind.SOURCE]
    executables = [a for a in tale.code_refs if a.kind == ArtifactKind.PREBUILT_EXECUTABLE]
    libraries = [a for a in tale.code_refs if a.kind == ArtifactKind.LIBRARY]
    if _lacks_source(tale.code_refs):
        raise ValidationError("tale has compiled artifacts but no source; source is mandatory")

    entries: list[CodeArtifact] = list(sources)
    if strategy == PackagingStrategy.GENERIC_STATIC:
        entries += [a for a in executables + libraries if not a.arch_specific]
    elif strategy == PackagingStrategy.PER_RESOURCE_STATIC:
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
