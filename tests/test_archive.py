import copy
import functools
import hashlib
import io
import json
import random
import tempfile
import zipfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from talescale import archive
from talescale.archive import export_tale, import_tale
from talescale.digest import digest_bytes
from talescale.dms import ExternalDataRef
from talescale.errors import (ChecksumMismatchError, FormatVersionError, MissingFileError, TalescaleError,
                              ValidationError)
from talescale.tale import (
    ArtifactKind,
    CodeArtifact,
    EnvironmentSpec,
    PackagingStrategy,
    ProvenanceKind,
    build_manifest,
    create_tale,
    record_provenance,
)

from conftest import simple_tale
from test_sim import ODD_VALUES, _at, _parts


def test_export_is_deterministic(workspace):
    tale = simple_tale(workspace)
    assert export_tale(tale, workspace) == export_tale(tale, workspace)


def test_layout(workspace):
    tale = simple_tale(workspace)
    data = export_tale(tale, workspace)
    names = zipfile.ZipFile(io.BytesIO(data)).namelist()
    assert names == sorted(names)
    assert "metadata/tale.json" in names
    assert "metadata/data-manifest.json" in names
    assert "provenance/events.ndjson" in names
    assert "workspace/main.c" in names


def test_round_trip_preserves_fields_and_appends_imported(workspace):
    tale = simple_tale(workspace)
    restored = import_tale(export_tale(tale, workspace))
    assert restored.id == tale.id
    assert restored.title == tale.title
    assert restored.code_refs == tale.code_refs
    assert restored.data_refs == tale.data_refs
    assert restored.env_spec == tale.env_spec
    assert restored.provenance[:-1] == tale.provenance
    assert restored.provenance[-1].kind == ProvenanceKind.IMPORTED


def test_export_import_export_identity(workspace):
    tale = simple_tale(workspace)
    first = export_tale(tale, workspace)
    restored = import_tale(first, workspace_dir=workspace / "copy")
    second = export_tale(restored, workspace / "copy")
    assert first == second


def test_flipped_byte_raises_checksum_error_naming_entry(workspace):
    tale = simple_tale(workspace)
    data = bytearray(export_tale(tale, workspace))
    # rewrite the archive with one workspace file corrupted
    src = zipfile.ZipFile(io.BytesIO(bytes(data)))
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for info in src.infolist():
            payload = src.read(info.filename)
            if info.filename == "workspace/main.c":
                payload = bytes([payload[0] ^ 0xFF]) + payload[1:]
            zf.writestr(info, payload)
    with pytest.raises(ChecksumMismatchError) as exc:
        import_tale(out.getvalue())
    assert "main.c" in str(exc.value)


def test_unknown_format_version_rejected(workspace):
    tale = simple_tale(workspace)
    src = zipfile.ZipFile(io.BytesIO(export_tale(tale, workspace)))
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for info in src.infolist():
            payload = src.read(info.filename)
            if info.filename == "metadata/tale.json":
                payload = payload.replace(b'"format_version": 1', b'"format_version": 99')
            zf.writestr(info, payload)
    with pytest.raises(FormatVersionError):
        import_tale(out.getvalue())


def test_missing_workspace_file_named(workspace):
    tale = simple_tale(workspace)
    (workspace / "main.c").unlink()
    with pytest.raises(MissingFileError, match="main.c"):
        export_tale(tale, workspace)


def test_checksum_mismatch_on_export(workspace):
    tale = simple_tale(workspace)
    (workspace / "main.c").write_bytes(b"tampered")
    with pytest.raises(ChecksumMismatchError):
        export_tale(tale, workspace)


def test_unicode_paths_and_empty_files_round_trip(workspace):
    files = {
        "данные/π.py": "print('π')\n".encode("utf-8"),
        "empty.dat": b"",
    }
    artifacts = []
    for rel, content in files.items():
        target = workspace / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)
        artifacts.append(CodeArtifact(path=rel, kind=ArtifactKind.SOURCE,
                                      checksum=digest_bytes(content)))
    tale = create_tale("unicode tale", artifacts, [], EnvironmentSpec(), tale_id="uni-1")
    first = export_tale(tale, workspace)
    restored = import_tale(first, workspace_dir=workspace / "back")
    assert (workspace / "back" / "данные/π.py").read_bytes() == files["данные/π.py"]
    assert export_tale(restored, workspace / "back") == first


def test_import_garbage_rejected():
    from talescale.errors import ValidationError
    with pytest.raises(ValidationError):
        import_tale(b"this is not a zip")


def test_round_trip_survives_post_import_history(workspace):
    # An imported tale that keeps living: its archive elides the import
    # bookkeeping, leaving a seq gap, and still round-trips bitwise.
    from talescale.tale import ProvenanceKind, record_provenance

    tale = simple_tale(workspace)
    restored = import_tale(export_tale(tale, workspace), workspace_dir=workspace / "r1")
    record_provenance(restored, restored.next_event(ProvenanceKind.LAUNCHED, {}, timestamp=9.0))
    first = export_tale(restored, workspace / "r1")
    twice = import_tale(first, workspace_dir=workspace / "r2")
    seqs = [e.seq for e in twice.provenance]
    assert seqs == sorted(seqs)
    assert export_tale(twice, workspace / "r2") == first


# ---------------------------------------------------------------------------
# byte-identical archives across the per-CPU runs

# sha256 of golden_tale's export as ZipFile.writestr framed it, with zlib
# 1.2.13's level-6 deflate: any change to the archive code must keep it.
GOLDEN_ARCHIVE_SHA256 = "7fd7d71997b418414a5a25c82abfe81a41cdd868d8986e5874d14cf6f41dbfe5"


def golden_tale(root):
    """A 40-file tale with packaging, compressible and random bytes, an
    empty file and a unicode path; half its artifacts record no checksum."""
    rng = random.Random(2020)
    files = {}
    for i in range(37):
        line = f"value_{i} = compute({i})  # step\n".encode()
        files[f"src/pkg{i % 5}/mod{i:02d}.py"] = rng.randbytes(i * 41 % 700) + line * (i * 13 % 97)
    files["bin/solver"] = rng.randbytes(3000)
    files["empty.dat"] = b""
    files["données/résumé ✓.txt"] = "naïve café\n".encode("utf-8")
    artifacts = []
    for i, (path, data) in enumerate(files.items()):
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
        exe = path == "bin/solver"
        artifacts.append(CodeArtifact(
            path=path,
            kind=ArtifactKind.PREBUILT_EXECUTABLE if exe else ArtifactKind.SOURCE,
            target_arch="x86_64" if exe else None,
            checksum=digest_bytes(data) if i % 2 else None,
        ))
    data_ref = ExternalDataRef(uri="doi:10.5072/golden", size_bytes=4096,
                               checksum=digest_bytes(b"golden"))
    env = EnvironmentSpec(base_image_name="python-3.11", dependency_pins=(("numpy", "==1.26.4"),))
    tale = create_tale("golden tale", artifacts, [data_ref], env, tale_id="golden-1", now=1.0)
    record_provenance(tale, tale.next_event(ProvenanceKind.LAUNCHED, {"model": "M1"}, timestamp=2.5))
    return tale.with_packaging(build_manifest(tale, PackagingStrategy.SOURCE_PLUS_GENERIC_LIBS))


def with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(archive, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 64])
def test_golden_archive_digest(workspace, monkeypatch, cpus):
    with_cpus(monkeypatch, cpus)
    tale = golden_tale(workspace)
    assert len(archive._runs(len(tale.code_refs))) == min(cpus, archive._MAX_RUNS)
    blob = export_tale(tale, workspace)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_ARCHIVE_SHA256
    restored = import_tale(blob, workspace_dir=workspace / "back")
    assert export_tale(restored, workspace / "back") == blob


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 1000])
@pytest.mark.parametrize("cpus", [1, 2, 4, 64])
def test_runs_cover_the_entries_in_order(monkeypatch, count, cpus):
    with_cpus(monkeypatch, cpus)
    runs = archive._runs(count)
    assert len(runs) == max(1, min(cpus, archive._MAX_RUNS, count))
    assert [i for run in runs for i in run] == list(range(count))
    assert all(len(run) for run in runs) or count == 0


def _writestr_archive(entries: dict[str, bytes]) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as zf:
        for name in sorted(entries):
            zf.writestr(archive._zero_info(name), entries[name], compresslevel=6)
    return buffer.getvalue()


def _framed_archive(entries: dict[str, bytes]) -> bytes:
    return archive._frame({name: archive._deflated(data) for name, data in entries.items()})


_NAMES = st.text(alphabet="ab/._-0Zéπд✓", min_size=1, max_size=10)
_DATA = st.one_of(
    st.just(b""),
    st.binary(max_size=300),  # incompressible: deflate falls back to a stored block
    st.builds(lambda unit, n: unit * n, st.binary(min_size=1, max_size=6), st.integers(1, 400)),
)


@given(st.dictionaries(_NAMES, _DATA, max_size=8))
def test_framing_equals_zipfile_writestr(entries):
    framed = _framed_archive(entries)
    assert framed == _writestr_archive(entries)
    zf = zipfile.ZipFile(io.BytesIO(framed))
    assert {name: zf.read(name) for name in zf.namelist()} == entries


@given(st.dictionaries(_NAMES, _DATA, min_size=1, max_size=8))
@example({"a": b"x" * 98, "é": b""})  # zip64 by the 5% rule alone: neither size passes 100
def test_framing_equals_zipfile_writestr_past_the_zip64_limit(entries):
    # At a 100-byte limit, entries over 95 bytes take writestr's zip64 local
    # header, and later offsets and the central directory take zip64 extras.
    # Below the limit, a deflated entry is at most 5 bytes over its size, so
    # zipfile never refuses one for outgrowing a plain header.
    with mock.patch.object(zipfile, "ZIP64_LIMIT", 100):
        framed = _framed_archive(entries)
        assert framed == _writestr_archive(entries)
        zf = zipfile.ZipFile(io.BytesIO(framed))
        assert {name: zf.read(name) for name in zf.namelist()} == entries


# ---------------------------------------------------------------------------
# the first failure in code_refs order names the error, whatever run it is in


def _run_tale(workspace, files=8):
    """A tale whose code_refs order is the reverse of its name order, with
    larger files first so the later runs reach their failures sooner."""
    artifacts = []
    for i in range(files):
        path = f"f{files - i:02d}.dat"
        data = random.Random(i).randbytes(max(1, (files - i) * 40_000))
        (workspace / path).write_bytes(data)
        artifacts.append(CodeArtifact(path=path, checksum=digest_bytes(data)))
    return create_tale("runs", artifacts, [], EnvironmentSpec(), tale_id="runs-1")


def _last_of_each_run(tale):
    return [tale.code_refs[run.stop - 1].path for run in archive._runs(len(tale.code_refs))]


@pytest.mark.parametrize("cpus", [2, 4])
def test_export_names_the_first_missing_file(workspace, monkeypatch, cpus):
    with_cpus(monkeypatch, cpus)
    tale = _run_tale(workspace)
    bad = _last_of_each_run(tale)
    assert len(bad) == cpus
    for path in bad:
        (workspace / path).unlink()
    with pytest.raises(MissingFileError) as exc:
        export_tale(tale, workspace)
    assert str(exc.value) == f"workspace file missing: {bad[0]}"


def test_export_reports_a_directory_as_a_missing_file(workspace):
    tale = _run_tale(workspace, files=2)
    path = tale.code_refs[1].path
    (workspace / path).unlink()
    (workspace / path).mkdir()
    with pytest.raises(MissingFileError, match=path):
        export_tale(tale, workspace)


def _rewrite(blob: bytes, change) -> bytes:
    src = zipfile.ZipFile(io.BytesIO(blob))
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for info in src.infolist():
            zf.writestr(info, change(info.filename, src.read(info.filename)))
    return out.getvalue()


@pytest.mark.parametrize("cpus", [2, 4])
def test_import_names_the_first_corrupt_entry(workspace, monkeypatch, cpus):
    with_cpus(monkeypatch, cpus)
    tale = _run_tale(workspace)
    bad = _last_of_each_run(tale)
    corrupt = {"workspace/" + path for path in bad}
    blob = _rewrite(export_tale(tale, workspace),
                    lambda name, data: bytes([data[0] ^ 0xFF]) + data[1:] if name in corrupt else data)
    with pytest.raises(ChecksumMismatchError) as exc:
        import_tale(blob, workspace_dir=workspace / "out")
    assert exc.value.entry == bad[0]


def _ref(path: str, kind: str = "source") -> dict:
    """A code ref whose workspace file holds its own path."""
    return CodeArtifact(path=path, kind=kind, checksum=digest_bytes(path.encode())).to_dict()


def _crafted_archive(refs, packaging=None, data_refs=()) -> bytes:
    """An archive of the code refs ``refs`` with every file in place, written
    without ``create_tale`` or ``with_packaging`` checking what it holds."""
    meta = {"id": "c-1", "title": "crafted", "code_refs": refs, "env_spec": {},
            "packaging": packaging, "format_version": archive.FORMAT_VERSION}
    entries = {"metadata/tale.json": json.dumps(meta).encode(),
               "metadata/data-manifest.json": json.dumps(list(data_refs)).encode(),
               "provenance/events.ndjson": b""}
    entries.update({"workspace/" + ref["path"]: ref["path"].encode() for ref in refs})
    return _writestr_archive(entries)


def _colliding_archive() -> bytes:
    """An archive whose artifact ``a`` is also the directory of ``a/b``."""
    return _crafted_archive([_ref("a"), _ref("a/b")])


def _packaged(*entries) -> dict:
    return {"workload_class": "mixed", "strategy": "on_demand_compile",
            "entries": list(entries), "redistribution_ok": True}


_DATA_REF = {"uri": "doi:10.5072/twice", "size_bytes": 1, "checksum": digest_bytes(b"twice")}

# Archives of tales that create_tale or with_packaging would have refused,
# each with the problem import must name.
CRAFTED_ARCHIVES = {
    "library_without_source": (
        lambda: _crafted_archive([_ref("main.c"), _ref("libfoo.so", "library")],
                                 _packaged(_ref("libfoo.so", "library"))),
        "manifest with compiled artifacts must include source"),
    "packaging_names_a_ghost": (
        lambda: _crafted_archive([_ref("main.c")], _packaged(_ref("main.c"), _ref("ghost.c"))),
        "packaging names artifacts the tale does not hold: ['ghost.c']"),
    "packaging_misnames_an_artifact": (
        lambda: _crafted_archive(
            [_ref("main.c"), _ref("solver", "prebuilt_executable")],
            _packaged(_ref("main.c"), {"path": "solver", "kind": "source", "target_arch": "x86_64",
                                       "checksum": "sha256:" + "0" * 64})),
        "packaging names artifacts the tale does not hold: ['solver']"),
    "duplicate_code_paths": (
        lambda: _crafted_archive([_ref("main.c"), _ref("main.c")]),
        "archive reconstructs an invalid tale: duplicate code artifact paths"),
    "duplicate_data_uris": (
        lambda: _crafted_archive([_ref("main.c")], data_refs=[_DATA_REF, _DATA_REF]),
        "archive reconstructs an invalid tale: duplicate data ref uris"),
}


@pytest.mark.parametrize("name", list(CRAFTED_ARCHIVES))
def test_import_rejects_a_tale_create_would_refuse(workspace, name):
    make, problem = CRAFTED_ARCHIVES[name]
    target = workspace / "out"
    with pytest.raises(ValidationError) as exc:
        import_tale(make(), workspace_dir=target)
    assert problem in str(exc.value)
    assert not target.exists()


def test_import_rejects_a_path_that_is_another_ones_directory(workspace):
    target = workspace / "out"
    with pytest.raises(ValidationError, match="artifact path a is also a directory"):
        import_tale(_colliding_archive(), workspace_dir=target)
    assert not target.exists()


def test_export_rejects_a_path_that_is_another_ones_directory(workspace):
    (workspace / "a").mkdir()
    (workspace / "a" / "b").write_bytes(b"a/b")
    artifacts = [CodeArtifact(path="a"), CodeArtifact(path="a/b")]
    tale = create_tale("collide", artifacts, [], EnvironmentSpec(), tale_id="c-2")
    with pytest.raises(ValidationError, match="artifact path a is also a directory"):
        export_tale(tale, workspace)


# The workspace and metadata of an archive that uses every key the reader
# takes. The sweep below puts each odd JSON value in place of each part of its
# tale.json, its data manifest and the second line of its events.
_FULL_FILES = {"main.c": b"int main(void) { return 0; }\n", "lib/fast.so": b"\x7fELF-lib",
               "bin/solver": b"\x7fELF-exe"}
_FULL_REFS = [
    {"path": "main.c", "kind": "source", "target_arch": None,
     "checksum": digest_bytes(_FULL_FILES["main.c"]), "proprietary_toolchain": False},
    {"path": "lib/fast.so", "kind": "library", "target_arch": "x86_64",
     "checksum": digest_bytes(_FULL_FILES["lib/fast.so"]), "proprietary_toolchain": False},
    {"path": "bin/solver", "kind": "prebuilt_executable", "target_arch": "x86_64",
     "checksum": digest_bytes(_FULL_FILES["bin/solver"]), "proprietary_toolchain": True},
]
_FULL_MEMBERS = {
    "metadata/tale.json": {
        "format_version": 1, "id": "full-1", "title": "full tale", "code_refs": _FULL_REFS,
        "env_spec": {"base_image_name": "python-3.11",
                     "dependency_pins": [["numpy", "==1.26.4"], ["scipy", ">=1.11"]],
                     "env_vars": {"OMP_NUM_THREADS": "4"}},
        "packaging": {"workload_class": "mixed", "strategy": "per_resource_static",
                      "entries": _FULL_REFS, "redistribution_ok": True}},
    "metadata/data-manifest.json": [
        {"uri": "doi:10.5072/full", "size_bytes": 4096, "checksum": digest_bytes(b"full")}],
    "provenance/events.ndjson": {"seq": 2, "timestamp": 2.5, "kind": "launched",
                                 "payload": {"model": "M1"}},
}
_CREATED_LINE = '{"kind":"created","payload":{"title":"full tale"},"seq":1,"timestamp":1.0}\n'


def _full_archive(members) -> bytes:
    entries = {name: json.dumps(doc).encode() for name, doc in members.items()}
    entries["provenance/events.ndjson"] = (_CREATED_LINE + json.dumps(
        members["provenance/events.ndjson"]) + "\n").encode()
    entries.update({"workspace/" + path: data for path, data in _FULL_FILES.items()})
    return _writestr_archive(entries)


def test_full_archive_imports_every_key():
    tale = import_tale(_full_archive(_FULL_MEMBERS))
    assert [a.to_dict() for a in tale.code_refs] == _FULL_REFS
    assert tale.packaging.to_dict() == _FULL_MEMBERS["metadata/tale.json"]["packaging"]
    assert tale.env_spec.to_dict() == _FULL_MEMBERS["metadata/tale.json"]["env_spec"]
    assert [r.to_dict() for r in tale.data_refs] == _FULL_MEMBERS["metadata/data-manifest.json"]
    assert [e.kind for e in tale.provenance] == [
        ProvenanceKind.CREATED, ProvenanceKind.LAUNCHED, ProvenanceKind.IMPORTED]


@pytest.mark.parametrize("member, path", [
    (member, path) for member, doc in _FULL_MEMBERS.items() for path in _parts(doc)],
    ids=lambda part: "/".join(map(str, part)) if isinstance(part, tuple) else part)
def test_odd_value_anywhere_in_an_archive_is_rejected_or_imported(member, path):
    """No value in any place of an archive's metadata makes import fail other
    than with a TalescaleError: a malformed archive never reaches an internal error."""
    for value in ODD_VALUES:
        members = copy.deepcopy(_FULL_MEMBERS)
        _at(members[member], path[:-1])[path[-1]] = value
        try:
            import_tale(_full_archive(members))
        except TalescaleError:
            pass


@pytest.mark.parametrize("name, offset", [("workspace/main.c", 3), ("metadata/tale.json", 3),
                                          ("workspace/main.c", -1)])
def test_corrupt_entry_is_a_validation_error_naming_it(workspace, name, offset):
    """A flipped byte in an entry's deflate stream fails its inflate or its CRC."""
    blob = bytearray(export_tale(simple_tale(workspace), workspace))
    info = zipfile.ZipFile(io.BytesIO(bytes(blob))).getinfo(name)
    start = info.header_offset + 30 + len(info.filename.encode())
    blob[start + offset % info.compress_size] ^= 0xFF
    with pytest.raises(ValidationError, match=f"archive entry {name} is corrupt"):
        import_tale(bytes(blob))


# ---------------------------------------------------------------------------
# entries read straight from the archive bytes


def _recompressed(blob: bytes, compress_type: int, only=None) -> bytes:
    """``blob`` written again by ``ZipFile.writestr``, every entry (or only
    those named in ``only``) compressed with ``compress_type``."""
    src = zipfile.ZipFile(io.BytesIO(blob))
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for info in src.infolist():
            method = compress_type if only is None or info.filename in only else info.compress_type
            zf.writestr(info.filename, src.read(info.filename), compress_type=method)
    return out.getvalue()


@pytest.mark.parametrize("cpus", [1, 2])
def test_stored_entries_import_like_deflated_ones(workspace, monkeypatch, cpus):
    with_cpus(monkeypatch, cpus)
    tale = golden_tale(workspace)
    blob = export_tale(tale, workspace)
    restored = import_tale(_recompressed(blob, zipfile.ZIP_STORED), workspace_dir=workspace / "back")
    assert restored.code_refs == import_tale(blob).code_refs
    assert export_tale(restored, workspace / "back") == blob


def test_an_entry_compressed_otherwise_is_corrupt(workspace):
    blob = _recompressed(export_tale(simple_tale(workspace), workspace), zipfile.ZIP_BZIP2,
                         only={"workspace/main.c"})
    with pytest.raises(ValidationError, match="archive entry workspace/main.c is corrupt: "
                                              "compression method 12 is not supported"):
        import_tale(blob)


def test_a_bad_local_header_is_corrupt(workspace):
    blob = bytearray(export_tale(simple_tale(workspace), workspace))
    blob[zipfile.ZipFile(io.BytesIO(bytes(blob))).getinfo("workspace/main.c").header_offset] ^= 0xFF
    with pytest.raises(ValidationError, match="workspace/main.c is corrupt: bad local header"):
        import_tale(bytes(blob))


def test_a_size_the_central_directory_disagrees_with_is_corrupt(workspace):
    blob = export_tale(simple_tale(workspace), workspace)
    src = zipfile.ZipFile(io.BytesIO(blob))
    entries = {name: archive._deflated(src.read(name)) for name in src.namelist()}
    size, crc, deflated = entries["workspace/lib/util.c"]
    entries["workspace/lib/util.c"] = (size + 1, crc, deflated)
    with pytest.raises(ValidationError, match="workspace/lib/util.c is corrupt: bad CRC-32 or size"):
        import_tale(archive._frame(entries))


def test_a_version_needed_past_zipfiles_is_not_a_tale_archive(workspace):
    blob = bytearray(export_tale(simple_tale(workspace), workspace))
    blob[zipfile.ZipFile(io.BytesIO(bytes(blob))).start_dir + 6] = 0xFF  # first entry's version needed
    with pytest.raises(ValidationError, match="not a tale archive: zip file version 25.5"):
        import_tale(bytes(blob))


def test_import_replaces_a_longer_file_in_its_place(workspace):
    tale = simple_tale(workspace)
    blob = export_tale(tale, workspace)
    back = workspace / "back"
    back.mkdir()
    (back / "main.c").write_bytes(b"x" * 10_000)
    import_tale(blob, workspace_dir=back)
    assert (back / "main.c").read_bytes() == (workspace / "main.c").read_bytes()


@functools.cache
def _flip_target() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        return export_tale(simple_tale(Path(tmp)), tmp)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 20), st.integers(0, 7)), min_size=1, max_size=3))
def test_flipped_bits_anywhere_in_an_archive_are_rejected_or_imported(flips):
    """No bit flipped in an archive's headers, central directory or entry
    data makes import fail other than with a TalescaleError."""
    blob = bytearray(_flip_target())
    for at, bit in flips:
        blob[at % len(blob)] ^= 1 << bit
    try:
        import_tale(bytes(blob))
    except TalescaleError:
        pass
