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

Per-entry work runs on every CPU this process may use.  Export and import
split ``tale.code_refs`` into contiguous runs, one per usable CPU (at most
``_MAX_RUNS``); the calling thread does the first run and one thread each
does the others, so a single run starts no thread.  The work of an entry
is C code that releases the GIL: file reads and writes, digests, CRC-32,
deflate and inflate.  Each run stops at its own first failure, so the
earliest failed run holds the failure first in ``code_refs`` order, and
that is the error raised, once every run has finished.

Framing rule: export deflates each workspace entry inside its run, the way
``zipfile`` does at level 6 (raw deflate, ``zlib.compressobj(6, DEFLATED,
-15)``), and ``_frame`` then lays the entries out in sorted name order
through ``ZipInfo.FileHeader`` and ``ZipFile``'s own end record.  The bytes
equal those of ``ZipFile.writestr(_zero_info(name), data, compresslevel=6)``
for each entry: the UTF-8 name flag, writestr's zip64 rule for the local
header (``file_size * 1.05 > ZIP64_LIMIT``) and the central directory's
zip64 extras all come from ``zipfile`` itself.

Reading rule: import parses the central directory once, with ``ZipFile``,
and reads no entry through it.  ``_entry`` skips an entry's local header
by the name and extra field lengths it gives, inflates the data (or
copies it, when stored) straight from the archive bytes, and checks its
size and CRC-32 against the central directory; no other local header
field is read.  An entry compressed any other way is corrupt.  Every
workspace entry's checksum is then verified.

Thread safety: runs share the archive bytes and the parsed central
directory, which they only read.  They write disjoint result slots and
disjoint files, and every parent directory exists before any run starts.
"""

from __future__ import annotations

import errno
import io
import json
import os
import struct
import threading
import zipfile
import zlib
from dataclasses import replace

from .digest import DEFAULT_ALGO, digest_bytes, parse as parse_checksum
from .errors import ChecksumMismatchError, FormatVersionError, MissingFileError, ValidationError, check_keys
from .tale import CodeArtifact, ProvenanceKind, Tale

FORMAT_VERSION = 1

_TALE_JSON = "metadata/tale.json"
_DATA_MANIFEST = "metadata/data-manifest.json"
_EVENTS = "provenance/events.ndjson"
_WORKSPACE = "workspace/"

# Past a few runs, the Python work each entry still does under the GIL
# outweighs the C work they split off.
_MAX_RUNS = 4

# What Path.is_file() reports as "no file", plus a directory in its place.
_ABSENT = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EISDIR, errno.ELOOP})


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _zero_info(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
    info.create_system = 3
    info.external_attr = 0o644 << 16
    info.compress_type = zipfile.ZIP_DEFLATED
    return info


def _deflated(data: bytes) -> tuple[int, int, bytes]:
    """``data``'s size, CRC-32 and raw deflate stream, as zipfile makes them at level 6."""
    compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
    return len(data), zlib.crc32(data), compressor.compress(data) + compressor.flush()


def _frame(entries: dict[str, tuple[int, int, bytes]]) -> bytes:
    """Lay ``_deflated`` entries out as a zip, in sorted name order, byte
    for byte as ``writestr(_zero_info(name), data, compresslevel=6)`` would."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as zf:
        for name in sorted(entries):
            info = _zero_info(name)
            info.file_size, info.CRC, deflated = entries[name]
            info.compress_size = len(deflated)
            info.header_offset = buffer.tell()
            buffer.write(info.FileHeader(info.file_size * 1.05 > zipfile.ZIP64_LIMIT))
            buffer.write(deflated)
            zf.filelist.append(info)
        zf.start_dir = buffer.tell()  # close() writes the central directory here
    return buffer.getvalue()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _runs(count: int) -> list[range]:
    """Contiguous index runs covering ``range(count)``, one per usable CPU."""
    n = max(1, min(_usable_cpus(), _MAX_RUNS, count))
    return [range(count * k // n, count * (k + 1) // n) for k in range(n)]


def _in_runs(work, count: int) -> None:
    """Call ``work(run)`` for each of ``_runs(count)``, the first in the
    calling thread; once all have finished, raise the earliest run's error."""
    runs = _runs(count)
    errors: list[BaseException | None] = [None] * len(runs)

    def attempt(k: int) -> None:
        try:
            work(runs[k])
        except BaseException as exc:
            errors[k] = exc

    threads = [threading.Thread(target=attempt, args=(k,)) for k in range(1, len(runs))]
    for thread in threads:
        thread.start()
    attempt(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _read_workspace_file(path: str, name: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        if exc.errno not in _ABSENT:
            raise
        raise MissingFileError(f"workspace file missing: {name}") from None


def _write_file(path: str, data: bytes) -> None:
    """Write ``data`` as the whole of the file at ``path``, as ``open(path,
    "wb").write(data)`` would, without the buffered file object."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


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


def _entry(zf: zipfile.ZipFile, archive: bytes, name: str) -> bytes:
    """The bytes of entry ``name``, read straight from ``archive`` at the
    place ``zf``'s central directory gives, and checked against its CRC-32
    and size."""
    try:
        info = zf.getinfo(name)
    except KeyError:
        raise ValidationError(f"archive is missing {name}") from None
    try:
        # the local header: signature, 22 bytes of fields the central
        # directory repeats, then the name and extra field lengths
        signature, name_len, extra_len = struct.unpack_from("<4s22xHH", archive, info.header_offset)
        if signature != zipfile.stringFileHeader:
            raise ValueError("bad local header")
        start = info.header_offset + zipfile.sizeFileHeader + name_len + extra_len
        stream = memoryview(archive)[start:start + info.compress_size]
        if info.compress_type == zipfile.ZIP_DEFLATED:
            data = zlib.decompress(stream, -15)
        elif info.compress_type == zipfile.ZIP_STORED:
            data = bytes(stream)
        else:
            raise ValueError(f"compression method {info.compress_type} is not supported")
        if len(data) != info.file_size or zlib.crc32(data) != info.CRC:
            raise ValueError("bad CRC-32 or size")
    except (struct.error, zlib.error, ValueError) as exc:  # short header, bad deflate stream
        raise ValidationError(f"archive entry {name} is corrupt: {exc}") from None
    return data


def _member(zf: zipfile.ZipFile, archive: bytes, member: str, read, lines: bool = False):
    """``read`` of the JSON in archive ``member``, or of the list of its JSON
    lines; a member that does not decode, or that ``read`` rejects, is a
    ValidationError that names it."""
    data = _entry(zf, archive, member)
    try:
        raw = ([json.loads(line) for line in data.decode("utf-8").splitlines() if line.strip()]
               if lines else json.loads(data))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"{member} does not parse: {exc}") from None
    try:
        return read(raw)
    except ValidationError as exc:
        raise ValidationError(f"{member}: {exc}") from None


def _read_tale(raw) -> Tale:
    """The tale in ``tale.json``, whose ``format_version`` must be this code's."""
    version = check_keys("tale", raw, raw).get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatVersionError(f"unsupported tale format version {version!r}, expected {FORMAT_VERSION}")
    return Tale.from_dict({key: value for key, value in raw.items() if key != "format_version"})


def export_tale(tale: Tale, workspace_root) -> bytes:
    """Serialize a validated Tale plus its workspace files to archive bytes."""
    problems = tale.validate()
    if problems:
        raise ValidationError("cannot export invalid tale: " + "; ".join(problems))
    root = os.fspath(workspace_root)
    refs = tale.code_refs
    artifacts: list = [None] * len(refs)
    packed: list = [None] * len(refs)

    def pack(run: range) -> None:
        for i in run:
            artifact = refs[i]
            data = _read_workspace_file(os.path.join(root, artifact.path), artifact.path)
            checksum = checked_digest(artifact, data)
            artifacts[i] = artifact if artifact.checksum == checksum else replace(artifact, checksum=checksum)
            packed[i] = _deflated(data)

    _in_runs(pack, len(refs))
    entries = {_WORKSPACE + a.path: entry for a, entry in zip(refs, packed)}

    meta = replace(tale, code_refs=tuple(artifacts)).to_dict()
    meta["format_version"] = FORMAT_VERSION
    del meta["data_refs"], meta["provenance"]
    entries[_TALE_JSON] = _deflated(_json_bytes(meta))
    entries[_DATA_MANIFEST] = _deflated(_json_bytes([r.to_dict() for r in tale.data_refs]))

    durable = [ev for ev in tale.provenance if ev.kind != ProvenanceKind.IMPORTED]
    lines = [json.dumps(ev.to_dict(), sort_keys=True, separators=(",", ":")) for ev in durable]
    entries[_EVENTS] = _deflated(("\n".join(lines) + "\n").encode("utf-8") if lines else b"")
    return _frame(entries)


def import_tale(archive: bytes, workspace_dir=None) -> Tale:
    """Reconstruct a Tale from archive bytes, verifying every checksum.

    Extracts workspace files under ``workspace_dir`` when given, and
    appends an ``imported`` provenance event at time 0.  A tale that fails
    validation is rejected before any file is written.
    """
    try:
        zf = zipfile.ZipFile(io.BytesIO(archive))
    # NotImplementedError: a "version needed to extract" past zipfile's
    except (zipfile.BadZipFile, NotImplementedError) as exc:
        raise ValidationError(f"not a tale archive: {exc}") from exc
    tale = _member(zf, archive, _TALE_JSON, _read_tale)
    tale = _member(zf, archive, _DATA_MANIFEST, lambda refs: replace(tale, data_refs=refs))
    tale = _member(zf, archive, _EVENTS, lambda events: replace(tale, provenance=events), lines=True)
    problems = tale.validate()
    if problems:
        raise ValidationError("archive reconstructs an invalid tale: " + "; ".join(problems))

    names = set(zf.namelist())
    refs = tale.code_refs
    for artifact in refs:
        if _WORKSPACE + artifact.path not in names:
            raise MissingFileError(f"archive is missing workspace entry {artifact.path}")
        if artifact.checksum is None:
            raise ValidationError(f"archived artifact {artifact.path} lacks a checksum")
    dest = None if workspace_dir is None else os.fspath(workspace_dir)
    if dest is not None:
        # validate() rules out a path that is also another's directory
        for directory in {os.path.dirname(os.path.join(dest, a.path)) for a in refs}:
            os.makedirs(directory, exist_ok=True)

    def extract(run: range) -> None:
        for i in run:
            artifact = refs[i]
            data = _entry(zf, archive, _WORKSPACE + artifact.path)
            checked_digest(artifact, data)
            if dest is not None:
                _write_file(os.path.join(dest, artifact.path), data)

    _in_runs(extract, len(refs))
    tale.provenance.append(tale.next_event(ProvenanceKind.IMPORTED, {"format_version": FORMAT_VERSION}))
    return tale
