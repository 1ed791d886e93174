import ast
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from talescale.digest import digest_bytes
from talescale.errors import ValidationError
from talescale.tale import (
    ArtifactKind,
    CodeArtifact,
    EnvironmentSpec,
    PackagingManifest,
    PackagingStrategy,
    ProvenanceEvent,
    ProvenanceKind,
    WorkloadClass,
    build_manifest,
    classify_workload,
    create_tale,
    record_provenance,
    select_strategy,
)

from conftest import make_resource, simple_tale

SRC = Path(__file__).resolve().parent.parent / "src" / "talescale"


def art(path, kind=ArtifactKind.SOURCE, arch=None, proprietary=False):
    return CodeArtifact(path=path, kind=kind, target_arch=arch,
                        checksum=digest_bytes(path.encode()),
                        proprietary_toolchain=proprietary)


class TestCreate:
    def test_constructor_contract(self):
        tale = simple_tale()
        assert len(tale.code_refs) == 2
        assert len(tale.data_refs) == 1
        assert [e.kind for e in tale.provenance] == [ProvenanceKind.CREATED]
        assert tale.packaging is None
        assert tale.validate() == []

    def test_empty_title_rejected(self):
        with pytest.raises(ValidationError):
            create_tale("", [], [], EnvironmentSpec())

    def test_duplicate_artifact_paths_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            create_tale("t", [art("a.c"), art("a.c")], [], EnvironmentSpec())

    @pytest.mark.parametrize("paths, collided", [
        (["a", "a/b"], ["a"]),
        (["x/y/z", "x", "x/y", "w"], ["x", "x/y"]),
        (["ab", "a/b", "abc/d"], []),
    ])
    def test_path_that_is_another_ones_directory_reported(self, paths, collided):
        tale = create_tale("t", [art(p) for p in paths], [], EnvironmentSpec())
        assert tale.validate() == [f"artifact path {p} is also a directory of other artifacts"
                                   for p in collided]

    def test_data_ref_requires_checksum_and_size(self):
        from talescale.dms import ExternalDataRef
        with pytest.raises(ValidationError):
            ExternalDataRef(uri="doi:x", size_bytes=10, checksum="")
        with pytest.raises(ValidationError):
            ExternalDataRef(uri="doi:x", size_bytes=-1, checksum="sha256:00")

    def test_absolute_and_traversal_paths_rejected(self):
        with pytest.raises(ValidationError):
            art("/etc/passwd")
        with pytest.raises(ValidationError):
            art("../up.c")

    def test_duplicate_pin_names_rejected(self):
        with pytest.raises(ValidationError):
            EnvironmentSpec(dependency_pins=(("numpy", "==1.0"), ("numpy", "==2.0")))

    def test_pin_constraints_exact_or_range(self):
        EnvironmentSpec(dependency_pins=(("a", "==1.2.3"), ("b", ">=1.0,<2.0")))
        with pytest.raises(ValidationError):
            EnvironmentSpec(dependency_pins=(("a", "=> bogus =="),))


class TestClassify:
    def test_all_generic_is_unoptimized(self):
        tale = create_tale("t", [art("a.c"), art("b.c", arch="generic")], [], EnvironmentSpec())
        assert classify_workload(tale) == WorkloadClass.UNOPTIMIZED

    def test_source_driver_plus_tagged_library_is_mixed(self):
        tale = create_tale("t", [
            art("driver.py"),
            art("core.so", kind=ArtifactKind.LIBRARY, arch="amd64"),
        ], [], EnvironmentSpec())
        assert classify_workload(tale) == WorkloadClass.MIXED

    def test_single_tagged_executable_is_optimized(self):
        tale = create_tale("t", [
            art("solver", kind=ArtifactKind.PREBUILT_EXECUTABLE, arch="amd64"),
        ], [], EnvironmentSpec())
        assert classify_workload(tale) == WorkloadClass.OPTIMIZED

    def test_no_artifacts_is_an_error(self):
        tale = create_tale("t", [art("a.c")], [], EnvironmentSpec())
        object.__setattr__(tale, "code_refs", ())
        with pytest.raises(ValidationError):
            classify_workload(tale)


# Independent statement of the documented rule table, enumerated over all
# 3 classes x {no targets, targets} x {redistributable, not} inputs, with
# targets' compile capability covered both ways.
_S = PackagingStrategy
RULE_TABLE = {
    # (class, targets present, any target can compile, redistribution_ok)
    (WorkloadClass.UNOPTIMIZED, False, False, True): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.UNOPTIMIZED, False, False, False): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.UNOPTIMIZED, True, False, True): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.UNOPTIMIZED, True, False, False): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.UNOPTIMIZED, True, True, True): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.UNOPTIMIZED, True, True, False): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.OPTIMIZED, False, False, True): _S.GENERIC_STATIC,
    (WorkloadClass.OPTIMIZED, True, False, True): _S.PER_RESOURCE_STATIC,
    (WorkloadClass.OPTIMIZED, True, True, True): _S.PER_RESOURCE_STATIC,
    (WorkloadClass.OPTIMIZED, False, False, False): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.OPTIMIZED, True, False, False): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.OPTIMIZED, True, True, False): _S.ON_DEMAND_COMPILE,
    (WorkloadClass.MIXED, False, False, True): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.MIXED, False, False, False): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.MIXED, True, False, True): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.MIXED, True, False, False): _S.SOURCE_PLUS_GENERIC_LIBS,
    (WorkloadClass.MIXED, True, True, True): _S.ON_DEMAND_COMPILE,
    (WorkloadClass.MIXED, True, True, False): _S.ON_DEMAND_COMPILE,
}


class TestSelectStrategy:
    @pytest.mark.parametrize("key,expected", sorted(RULE_TABLE.items(), key=str))
    def test_rule_table_total_and_deterministic(self, key, expected):
        cls, have_targets, can_compile, redist = key
        targets = []
        if have_targets:
            targets = [make_resource(name="comet", compile_=can_compile)]
        assert select_strategy(cls, targets, redist) == expected
        assert select_strategy(cls, targets, redist) == expected  # repeatable

    def test_spec_examples(self):
        comet = make_resource(name="comet", compile_=True)
        assert select_strategy(WorkloadClass.UNOPTIMIZED, [], True) == _S.SOURCE_PLUS_GENERIC_LIBS
        assert select_strategy(WorkloadClass.OPTIMIZED, [comet], True) == _S.PER_RESOURCE_STATIC
        # proprietary binaries not redistributable -> compile on demand
        assert select_strategy(WorkloadClass.OPTIMIZED, [comet], False) == _S.ON_DEMAND_COMPILE


class TestBuildManifest:
    def test_strategy1_includes_source_and_binary(self):
        tale = create_tale("t", [
            art("main.c"),
            art("solver", kind=ArtifactKind.PREBUILT_EXECUTABLE, arch="generic"),
        ], [], EnvironmentSpec())
        manifest = build_manifest(tale, _S.GENERIC_STATIC)
        paths = {e.path for e in manifest.entries}
        assert paths == {"main.c", "solver"}

    def test_binary_only_tale_rejected(self):
        tale = create_tale("t", [
            art("solver", kind=ArtifactKind.PREBUILT_EXECUTABLE, arch="amd64"),
        ], [], EnvironmentSpec())
        with pytest.raises(ValidationError, match="source"):
            build_manifest(tale, _S.GENERIC_STATIC)

    def test_strategy3_is_sources_plus_generic_libs(self):
        tale = create_tale("t", [
            art("main.c"),
            art("libgeneric.so", kind=ArtifactKind.LIBRARY, arch="generic"),
            art("libfast.so", kind=ArtifactKind.LIBRARY, arch="amd64"),
            art("solver", kind=ArtifactKind.PREBUILT_EXECUTABLE, arch="generic"),
        ], [], EnvironmentSpec())
        manifest = build_manifest(tale, _S.SOURCE_PLUS_GENERIC_LIBS)
        paths = {e.path for e in manifest.entries}
        assert paths == {"main.c", "libgeneric.so"}

    def test_per_resource_static_requires_targets(self):
        tale = simple_tale()  # sources only, nothing arch-tagged
        with pytest.raises(ValidationError, match="arch"):
            build_manifest(tale, _S.PER_RESOURCE_STATIC)

    def test_per_resource_static_keeps_all_variants(self):
        tale = create_tale("t", [
            art("main.c"),
            art("bin/solver-comet", kind=ArtifactKind.PREBUILT_EXECUTABLE, arch="comet"),
            art("bin/solver-stampede", kind=ArtifactKind.PREBUILT_EXECUTABLE, arch="stampede"),
        ], [], EnvironmentSpec())
        manifest = build_manifest(tale, _S.PER_RESOURCE_STATIC)
        assert len(manifest.entries) == 3

    def test_redistribution_flag_drops_proprietary_executables(self):
        tale = create_tale("t", [
            art("main.c"),
            art("xl-solver", kind=ArtifactKind.PREBUILT_EXECUTABLE, arch="generic", proprietary=True),
        ], [], EnvironmentSpec())
        manifest = build_manifest(tale, _S.GENERIC_STATIC, redistribution_ok=False)
        assert {e.path for e in manifest.entries} == {"main.c"}
        kept = build_manifest(tale, _S.GENERIC_STATIC, redistribution_ok=True)
        assert {e.path for e in kept.entries} == {"main.c", "xl-solver"}

    def test_source_inclusion_holds_on_all_constructed_manifests(self):
        tale = create_tale("t", [
            art("main.c"),
            art("solver", kind=ArtifactKind.PREBUILT_EXECUTABLE, arch="amd64"),
            art("libfast.so", kind=ArtifactKind.LIBRARY, arch="amd64"),
        ], [], EnvironmentSpec())
        for strategy in (_S.GENERIC_STATIC, _S.PER_RESOURCE_STATIC,
                         _S.SOURCE_PLUS_GENERIC_LIBS, _S.ON_DEMAND_COMPILE):
            manifest = build_manifest(tale, strategy)
            has_exe = any(e.kind == ArtifactKind.PREBUILT_EXECUTABLE for e in manifest.entries)
            has_src = any(e.kind == ArtifactKind.SOURCE for e in manifest.entries)
            assert has_src
            assert not has_exe or has_src


class TestSourceRule:
    """Executables and libraries alike ship only beside source, in a tale and
    in its manifest, and a manifest names only artifacts its tale holds."""

    @pytest.mark.parametrize("kind", [ArtifactKind.PREBUILT_EXECUTABLE, ArtifactKind.LIBRARY])
    def test_a_manifest_of_compiled_artifacts_needs_source(self, kind):
        with pytest.raises(ValidationError, match="must include source"):
            PackagingManifest(WorkloadClass.MIXED, _S.ON_DEMAND_COMPILE, entries=(art("libfoo.so", kind),))
        PackagingManifest(WorkloadClass.MIXED, _S.ON_DEMAND_COMPILE,
                          entries=(art("main.c"), art("libfoo.so", kind)))

    @pytest.mark.parametrize("kind", [ArtifactKind.PREBUILT_EXECUTABLE, ArtifactKind.LIBRARY])
    def test_a_tale_of_compiled_artifacts_needs_source(self, kind):
        tale = create_tale("t", [art("libfoo.so", kind)], [], EnvironmentSpec())
        assert tale.validate() == ["missing source: compiled artifacts require their source to be included"]
        with pytest.raises(ValidationError, match="source is mandatory"):
            build_manifest(tale, _S.ON_DEMAND_COMPILE)

    def test_with_packaging_refuses_artifacts_the_tale_does_not_hold(self):
        tale = simple_tale()
        ghost = PackagingManifest(WorkloadClass.UNOPTIMIZED, _S.SOURCE_PLUS_GENERIC_LIBS,
                                  entries=(tale.code_refs[0], art("ghost.c")))
        with pytest.raises(ValidationError, match=r"does not hold: \['ghost.c'\]"):
            tale.with_packaging(ghost)
        assert tale.packaging is None

    @pytest.mark.parametrize("change", [
        {"kind": ArtifactKind.PREBUILT_EXECUTABLE}, {"target_arch": "x86_64"},
        {"checksum": "sha256:" + "0" * 64}, {"proprietary_toolchain": True},
    ], ids=["kind", "arch", "checksum", "toolchain"])
    def test_a_manifest_entry_names_the_artifact_at_its_path_by_value(self, change):
        tale = simple_tale()
        main, util = tale.code_refs
        manifest = PackagingManifest(WorkloadClass.MIXED, _S.ON_DEMAND_COMPILE,
                                     entries=(main, replace(util, **change)))
        assert replace(tale, packaging=manifest).validate() == [
            "packaging names artifacts the tale does not hold: ['lib/util.c']"]

    def test_no_redistribution_forbids_proprietary_executables(self):
        entries = (art("main.c"),
                   art("bin/solver", ArtifactKind.PREBUILT_EXECUTABLE, proprietary=True))
        with pytest.raises(ValidationError, match=re.escape(
                "redistribution_ok=false forbids proprietary executables: ['bin/solver']")):
            PackagingManifest(WorkloadClass.MIXED, _S.ON_DEMAND_COMPILE, entries=entries,
                              redistribution_ok=False)
        PackagingManifest(WorkloadClass.MIXED, _S.ON_DEMAND_COMPILE, entries=entries)

    def test_a_manifest_entry_without_a_checksum_names_any_bytes(self):
        # export records checksums on the tale's code refs, not on its
        # packaging entries, so an exported tale's entries may carry none
        tale = simple_tale()
        main, util = tale.code_refs
        manifest = PackagingManifest(WorkloadClass.UNOPTIMIZED, _S.SOURCE_PLUS_GENERIC_LIBS,
                                     entries=(main, replace(util, checksum=None)))
        assert tale.with_packaging(manifest).packaging is manifest


class TestProvenance:
    def test_in_order_append(self):
        tale = simple_tale()
        record_provenance(tale, tale.next_event(ProvenanceKind.LAUNCHED, {}, timestamp=1.0))
        assert tale.last_seq == 2

    def test_out_of_order_append_rejected(self):
        tale = simple_tale()
        bad = ProvenanceEvent(seq=5, timestamp=0.0, kind=ProvenanceKind.LAUNCHED)
        with pytest.raises(ValidationError):
            record_provenance(tale, bad)

    def test_thousand_appends_strictly_increasing(self):
        # loop oracle: after 1000 appends the log is 1001 long and seq is 1..1001
        tale = simple_tale()
        for _ in range(1000):
            record_provenance(tale, tale.next_event(ProvenanceKind.JOB_STATE_CHANGE, {}))
        seqs = [e.seq for e in tale.provenance]
        assert len(seqs) == 1001
        assert seqs == list(range(1, 1002))

    @given(st.lists(st.sampled_from(list(ProvenanceKind)), max_size=40))
    def test_append_only_monotone_property(self, kinds):
        tale = simple_tale()
        before = list(tale.provenance)
        for kind in kinds:
            record_provenance(tale, tale.next_event(kind, {}))
        assert tale.provenance[:len(before)] == before
        seqs = [e.seq for e in tale.provenance]
        assert all(b - a == 1 for a, b in zip(seqs, seqs[1:]))


class TestReaders:
    def test_every_from_dict_applies_the_key_rule(self):
        """Every reader of a JSON object in the package calls check_keys, so
        none of them lists its fields a second time or trusts its input."""
        readers = {}
        for path in sorted(SRC.glob("*.py")):
            for cls in ast.walk(ast.parse(path.read_text())):
                for node in getattr(cls, "body", ()) if isinstance(cls, ast.ClassDef) else ():
                    if isinstance(node, ast.FunctionDef) and node.name == "from_dict":
                        readers[cls.name] = any(
                            isinstance(call, ast.Call) and getattr(call.func, "id", None) == "check_keys"
                            for call in ast.walk(node))
        assert {"CodeArtifact", "EnvironmentSpec", "PackagingManifest", "ProvenanceEvent",
                "Tale"} <= readers.keys()
        assert [name for name, checked in readers.items() if not checked] == []

    @pytest.mark.parametrize("make, words", [
        (lambda: CodeArtifact(path="a.c", kind="weird"), ["code ref kind", "'weird'"]),
        (lambda: ProvenanceEvent(seq=1, timestamp=0.0, kind="bogus"), ["provenance event kind"]),
        (lambda: build_manifest(simple_tale(), "fastest"), ["packaging strategy", "'fastest'"]),
        (lambda: make_resource(kind="mainframe"), ["resource 'hpc-1' kind", "'mainframe'"]),
    ], ids=["artifact_kind", "event_kind", "strategy", "resource_kind"])
    def test_an_unknown_choice_is_a_validation_error(self, make, words):
        with pytest.raises(ValidationError) as exc:
            make()
        for word in words:
            assert word in str(exc.value)

    def test_choices_read_back_as_enum_members(self):
        artifact = CodeArtifact.from_dict({"path": "bin/x", "kind": "prebuilt_executable"})
        assert artifact.kind is ArtifactKind.PREBUILT_EXECUTABLE
        event = ProvenanceEvent.from_dict({"seq": 3, "timestamp": 2, "kind": "launched"})
        assert (event.kind, event.timestamp, type(event.timestamp)) == (ProvenanceKind.LAUNCHED, 2.0, float)
