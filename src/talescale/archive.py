"""Tale archival format: a deterministic zip container.

Layout::

    metadata/tale.json            id, title, format_version, env spec, packaging
    metadata/data-manifest.json   [{uri, size_bytes, checksum}, ...]
    workspace/**                  code artifacts, verbatim
    provenance/events.ndjson      one event per line

Identical inputs produce byte-identical archives: entries are written in
sorted path order, timestamps are zeroed, and permissions are fixed.
``imported`` events record how a tale arrived in one deployment and are
deliberately not serialized, so export(import(export(T))) == export(T).
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import replace
from pathlib import Path

from .digest import DEFAULT_ALGO, digest_bytes, parse as parse_checksum
from .errors import ChecksumMismatchError, FormatVersionError, MissingFileError, ValidationError
from .tale import CodeArtifact, ProvenanceEvent, ProvenanceKind, Tale

FORMAT_VERSION = 1

_TALE_JSON = "metadata/tale.json"
_DATA_MANIFEST = "metadata/data-manifest.json"
_EVENTS = "provenance/events.ndjson"
_WORKSPACE = "workspace/"


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _zero_info(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
    info.create_system = 3
    info.external_attr = 0o644 << 16
    info.compress_type = zipfile.ZIP_DEFLATED
    return info


def checked_digest(artifact: CodeArtifact, data: bytes) -> str:
    """Digest ``data`` in the algorithm of the artifact's checksum.

    Raises ChecksumMismatchError when the artifact records a different
    checksum, and ValidationError when its checksum is malformed or names
    an algorithm hashlib cannot digest with; an artifact that records none
    is digested with sha256.
    """
    try:
        algo = parse_checksum(artifact.checksum)[0] if artifact.checksum else DEFAULT_ALGO
        actual = digest_bytes(data, algo)
    except (ValueError, TypeError) as exc:
        # ValueError: no "algo:hex" form, or an unknown algorithm; TypeError:
        # a variable-length one (shake_*), whose hexdigest needs a length
        raise ValidationError(f"artifact {artifact.path}: {exc}") from None
    if artifact.checksum is not None and artifact.checksum != actual:
        raise ChecksumMismatchError(artifact.path, artifact.checksum, actual)
    return actual


def export_tale(tale: Tale, workspace_root) -> bytes:
    """Serialize a validated Tale plus its workspace files to archive bytes."""
    problems = tale.validate()
    if problems:
        raise ValidationError("cannot export invalid tale: " + "; ".join(problems))
    root = Path(workspace_root)

    entries: dict[str, bytes] = {}
    artifacts = []
    for artifact in tale.code_refs:
        path = root / artifact.path
        if not path.is_file():
            raise MissingFileError(f"workspace file missing: {artifact.path}")
        data = path.read_bytes()
        artifacts.append(replace(artifact, checksum=checked_digest(artifact, data)))
        entries[_WORKSPACE + artifact.path] = data

    meta = Tale(
        id=tale.id, title=tale.title, code_refs=tuple(artifacts),
        data_refs=tale.data_refs, env_spec=tale.env_spec, packaging=tale.packaging,
    ).to_dict()
    meta["format_version"] = FORMAT_VERSION
    meta.pop("data_refs")
    entries[_TALE_JSON] = _json_bytes(meta)
    entries[_DATA_MANIFEST] = _json_bytes([r.to_dict() for r in tale.data_refs])

    durable = [ev for ev in tale.provenance if ev.kind != ProvenanceKind.IMPORTED]
    lines = [json.dumps(ev.to_dict(), sort_keys=True, separators=(",", ":")) for ev in durable]
    entries[_EVENTS] = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""

    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as zf:
        for name in sorted(entries):
            zf.writestr(_zero_info(name), entries[name], compresslevel=6)
    return buffer.getvalue()


def import_tale(archive: bytes, workspace_dir=None, now: float = 0.0) -> Tale:
    """Reconstruct a Tale from archive bytes, verifying every checksum.

    Extracts workspace files under ``workspace_dir`` when given, and
    appends an ``imported`` provenance event.
    """
    try:
        zf = zipfile.ZipFile(io.BytesIO(archive))
    except zipfile.BadZipFile as exc:
        raise ValidationError(f"not a tale archive: {exc}") from exc
    names = set(zf.namelist())
    for required in (_TALE_JSON, _DATA_MANIFEST, _EVENTS):
        if required not in names:
            raise ValidationError(f"archive is missing {required}")

    meta = json.loads(zf.read(_TALE_JSON))
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionError(f"unsupported tale format version {version!r}, expected {FORMAT_VERSION}")
    meta["data_refs"] = json.loads(zf.read(_DATA_MANIFEST))

    events = []
    raw_events = zf.read(_EVENTS).decode("utf-8")
    for line in raw_events.splitlines():
        if line.strip():
            events.append(ProvenanceEvent.from_dict(json.loads(line)))

    tale = Tale.from_dict(meta, provenance=events)

    for artifact in tale.code_refs:
        entry = _WORKSPACE + artifact.path
        if entry not in names:
            raise MissingFileError(f"archive is missing workspace entry {artifact.path}")
        data = zf.read(entry)
        if artifact.checksum is None:
            raise ValidationError(f"archived artifact {artifact.path} lacks a checksum")
        checked_digest(artifact, data)
        if workspace_dir is not None:
            target = Path(workspace_dir) / artifact.path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)

    problems = tale.validate()
    if problems:
        raise ValidationError("archive reconstructs an invalid tale: " + "; ".join(problems))
    tale.provenance.append(tale.next_event(
        ProvenanceKind.IMPORTED, {"format_version": version}, timestamp=now,
    ))
    return tale
