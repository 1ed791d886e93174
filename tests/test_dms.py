import random

import pytest
from hypothesis import given, settings, strategies as st

from talescale.clock import SimClock
from talescale.digest import digest_bytes
from talescale.dms import (
    CacheState,
    DatasetCatalog,
    DmsCache,
    ExternalDataRef,
    StagingKind,
    TransferSource,
    resolve_local,
)
from talescale.errors import CapacityError, ChecksumMismatchError, DuplicateError, ValidationError
from talescale.trace import TraceLog

from conftest import batch_world, make_resource


def ref(uri, size=100):
    return ExternalDataRef(uri=uri, size_bytes=size, checksum=digest_bytes(uri.encode()))


def make_cache(refs, capacity=10_000, bandwidth=100.0):
    clock = SimClock()
    catalog = DatasetCatalog(refs)
    cache = DmsCache(clock, catalog, capacity, bandwidth, TraceLog(clock))
    return clock, cache


def records_for(cache, uri):
    return [r for r in cache.transfer_log if r.uri == uri]


class TestOpen:
    def test_second_open_is_a_hit(self):
        r = ref("doi:a")
        clock, cache = make_cache([r])
        cache.open(r)
        cache.open(r)
        assert len(records_for(cache, "doi:a")) == 1

    def test_transfer_duration_is_bytes_over_bandwidth(self):
        r = ref("doi:a", size=500)
        clock, cache = make_cache([r], bandwidth=100.0)
        handle = cache.open(r)
        assert handle.ready
        assert clock.now == 5.0

    def test_concurrent_opens_coalesce(self):
        r = ref("doi:a", size=500)
        clock, cache = make_cache([r])
        handles = [cache.open_nowait(r) for _ in range(10)]
        clock.run_until(100.0)
        assert all(h.ready for h in handles)
        assert len(records_for(cache, "doi:a")) == 1

    def test_zero_byte_file_resident_immediately(self):
        r = ref("doi:empty", size=0)
        clock, cache = make_cache([r])
        handle = cache.open_nowait(r)
        assert handle.ready
        records = records_for(cache, "doi:empty")
        assert len(records) == 1 and records[0].bytes == 0

    def test_unregistered_ref_rejected(self):
        r = ref("doi:a")
        clock, cache = make_cache([r])
        with pytest.raises(ValidationError):
            cache.open(ref("doi:unknown"))
        with pytest.raises(ValidationError):
            cache.inject_corruption("doi:unknown")

    def test_open_reserves_the_catalogs_size_not_the_callers(self):
        # A caller's ref with the wrong size opens the catalog's ref: the
        # reservation, the transfer record and a later eviction agree.
        a, b = ref("doi:a", 10), ref("doi:b", 60)
        clock, cache = make_cache([a, b], capacity=100)
        cache.open(ExternalDataRef("doi:a", 90, a.checksum))
        assert cache.resident_bytes() == 10
        assert [r.bytes for r in records_for(cache, "doi:a")] == [10]
        assert cache.entry("doi:a").ref == a
        assert cache.open(b).ready
        assert cache.resident_bytes() == 70
        assert cache.evict(40) == ["doi:a"]  # 30 free, and doi:a frees its 10
        assert cache.resident_bytes() == 60

    def test_checksum_mismatch_discards_entry_and_raises(self):
        r = ref("doi:a")
        clock, cache = make_cache([r])
        cache.inject_corruption("doi:a")
        with pytest.raises(ChecksumMismatchError):
            cache.open(r)
        assert cache.entry("doi:a").state == CacheState.ABSENT
        assert records_for(cache, "doi:a") == []
        # a later open retries cleanly
        assert cache.open(r).ready


class TestPrefetch:
    def test_three_absent_refs_three_records_then_hits(self):
        refs = [ref(f"doi:{i}") for i in range(3)]
        clock, cache = make_cache(refs)
        report = cache.prefetch(refs)
        assert len(report.transferred) == 3
        for r in refs:
            cache.open(r)
        assert len(cache.transfer_log) == 3

    def test_prefetch_idempotent(self):
        refs = [ref("doi:a")]
        clock, cache = make_cache(refs)
        cache.prefetch(refs)
        report = cache.prefetch(refs)
        assert report.transferred == []
        assert report.already_resident == ["doi:a"]

    def test_prefetch_evict_open_retransfers_once(self):
        refs = [ref("doi:a"), ref("doi:b")]
        clock, cache = make_cache(refs)
        cache.prefetch(refs)
        # both arrived at t=1; the tie on last access breaks by uri
        assert cache.evict(cache.capacity_bytes - 100) == ["doi:a"]
        cache.open(refs[0])
        assert len(records_for(cache, "doi:a")) == 2
        assert len(records_for(cache, "doi:b")) == 1

    def test_partial_failure_reported_per_ref(self):
        refs = [ref("doi:a"), ref("doi:b")]
        clock, cache = make_cache(refs)
        cache.inject_corruption("doi:b")
        report = cache.prefetch(refs)
        assert [r.uri for r in report.transferred] == ["doi:a"]
        assert "doi:b" in report.failed

    def test_report_lists_only_the_refs_asked_for(self):
        a, b = ref("doi:a", 30), ref("doi:b", 50)
        clock, cache = make_cache([a, b], bandwidth=10.0)
        cache.open_nowait(a)
        report = cache.prefetch([b])
        # doi:a lands during the wait, but the prefetch did not ask for it
        assert [(r.uri, r.bytes) for r in report.transferred] == [("doi:b", 50)]
        assert [r.uri for r in cache.transfer_log] == ["doi:a", "doi:b"]
        assert report.failed == {} and report.already_resident == []


class TestResolveLocal:
    def test_posix_local_dataset_mounts(self):
        r = ref("doi:bigsim", size=70 * 10 ** 12)  # far beyond any cache
        hpc = make_resource(datasets={"doi:bigsim"}, posix=True)
        action = resolve_local(r, hpc)
        assert action.action == StagingKind.MOUNT
        assert action.resource == hpc.name

    def test_non_posix_local_dataset_stages_in(self):
        r = ref("doi:objstore")
        hpc = make_resource(datasets={"doi:objstore"}, posix=False)
        assert resolve_local(r, hpc).action == StagingKind.STAGE_IN

    def test_remote_dataset_fetches_through_cache(self):
        r = ref("doi:elsewhere")
        hpc = make_resource()
        assert resolve_local(r, hpc).action == StagingKind.CACHE_FETCH

    def test_stage_in_moves_bytes_locally_not_remotely(self):
        r = ref("doi:objstore", size=123)
        clock, cache = make_cache([r])
        record = cache.stage_in(r, make_resource(datasets={"doi:objstore"}, posix=False))
        assert record.source == TransferSource.HPC_LOCAL_STAGEIN
        remote = [x for x in cache.transfer_log if x.source == TransferSource.REMOTE_REPO]
        assert remote == []

    def test_stage_in_records_the_catalogs_size_and_refuses_an_unknown_uri(self):
        # As open does, stage_in reads the catalog's ref, not the caller's.
        a = ref("doi:a", 10)
        clock, cache = make_cache([a])
        hpc = make_resource(datasets={"doi:a", "doi:unknown"}, posix=False)
        record = cache.stage_in(ExternalDataRef("doi:a", 90, a.checksum), hpc)
        assert record.bytes == 10
        assert [r.bytes for r in cache.transfer_log] == [10]
        with pytest.raises(ValidationError, match="not registered"):
            cache.stage_in(ref("doi:unknown"), hpc)
        assert len(cache.transfer_log) == 1


class TestEvict:
    def test_lru_evicts_oldest_only(self):
        a, b = ref("doi:a", 60), ref("doi:b", 30)
        clock, cache = make_cache([a, b], capacity=100)
        cache.open(a)
        clock.advance(1.0)
        cache.open(b)
        evicted = cache.evict(50)
        assert evicted == ["doi:a"]
        assert cache.entry("doi:b").state == CacheState.RESIDENT

    def test_all_pinned_is_a_capacity_error(self):
        a = ref("doi:a", 60)
        clock, cache = make_cache([a], capacity=100)
        cache.open(a)
        cache.pin("doi:a")
        with pytest.raises(CapacityError):
            cache.evict(50)

    def test_need_zero_evicts_nothing(self):
        a = ref("doi:a", 60)
        clock, cache = make_cache([a], capacity=100)
        cache.open(a)
        assert cache.evict(0) == []

    def test_admission_evicts_for_new_entry(self):
        a, b = ref("doi:a", 80), ref("doi:b", 40)
        clock, cache = make_cache([a, b], capacity=100)
        cache.open(a)
        clock.advance(1.0)
        cache.open(b)
        assert cache.entry("doi:a").state == CacheState.EVICTED
        assert cache.entry("doi:b").state == CacheState.RESIDENT

    def test_an_admission_that_cannot_succeed_evicts_nothing(self):
        # doi:b is in flight when doi:c asks for 50 of the 100 bytes: only
        # doi:a's 20 can be freed, so doi:c is refused and doi:a stays.
        datasets = [{"uri": uri, "size_bytes": size, "checksum": digest_bytes(uri.encode())}
                    for uri, size in (("doi:a", 20), ("doi:b", 60), ("doi:c", 50))]
        world = batch_world(
            cache={"capacity_bytes": 100, "bandwidth_bytes_per_s": 10.0, "datasets": datasets},
            scenario={"actions": [{"op": "open_dataset", "t": t, "uri": uri}
                                  for t, uri in ((0.0, "doi:a"), (5.0, "doi:b"), (6.0, "doi:c"))]})
        world.run(20.0)
        assert world.trace.count("cache_evict") == 0
        assert [world.cache.entry(uri).state for uri in ("doi:a", "doi:b", "doi:c")] == [
            CacheState.RESIDENT, CacheState.RESIDENT, CacheState.ABSENT]

    def test_oversized_entry_rejected(self):
        a = ref("doi:a", 200)
        clock, cache = make_cache([a], capacity=100)
        with pytest.raises(CapacityError):
            cache.open(a)


class TestCatalog:
    def test_register_then_open(self):
        clock, cache = make_cache([])
        r = cache.catalog.register(ExternalDataRef("doi:new", 10, digest_bytes(b"doi:new")))
        assert cache.open(r).ready

    def test_duplicate_uri_rejected(self):
        catalog = DatasetCatalog([ref("doi:a")])
        with pytest.raises(DuplicateError):
            catalog.register(ExternalDataRef("doi:a", 1, digest_bytes(b"x")))

    def test_zero_size_valid(self):
        catalog = DatasetCatalog()
        r = catalog.register(ExternalDataRef("doi:z", 0, digest_bytes(b"z")))
        assert r.size_bytes == 0

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), 1.5, 5.0, True, "5", None, -1])
    def test_size_must_be_a_byte_count(self, size):
        with pytest.raises(ValidationError, match="size_bytes must be an integer >= 0"):
            ExternalDataRef("doi:x", size, digest_bytes(b"x"))

    def test_from_dict_still_loads_integral_numbers(self):
        raw = {"uri": "doi:x", "size_bytes": 5.0, "checksum": digest_bytes(b"x")}
        assert ExternalDataRef.from_dict(raw).size_bytes == 5
        assert type(ExternalDataRef.from_dict(dict(raw, size_bytes=1.5)).size_bytes) is int
        for size in (float("nan"), float("inf"), True, "5"):
            with pytest.raises(ValidationError):
                ExternalDataRef.from_dict(dict(raw, size_bytes=size))


def brute_force_lru(capacity, accesses, sizes):
    """Independent LRU oracle: replay accesses, evicting oldest-by-last-use."""
    resident: dict[str, float] = {}  # uri -> last access time
    evictions = []
    for t, uri in enumerate(accesses):
        if uri in resident:
            resident[uri] = t
            continue
        used = sum(sizes[u] for u in resident)
        while used + sizes[uri] > capacity:
            victim = min(resident, key=lambda u: (resident[u], u))
            del resident[victim]
            evictions.append(victim)
            used = sum(sizes[u] for u in resident)
        resident[uri] = t
    return set(resident), evictions


def run_cache_sequence(capacity, accesses, sizes):
    refs = {u: ExternalDataRef(uri=u, size_bytes=s, checksum=digest_bytes(u.encode()))
            for u, s in sizes.items()}
    clock = SimClock()
    cache = DmsCache(clock, DatasetCatalog(refs.values()), capacity, 1e9, TraceLog(clock))
    trace_evicts = []
    original = cache.evict

    def spying_evict(needed):
        out = original(needed)
        trace_evicts.extend(out)
        return out

    cache.evict = spying_evict
    for uri in accesses:
        cache.open(refs[uri])
        clock.advance(1.0)  # unique access times
    resident = {u for u, e in cache.entries.items() if e.state == CacheState.RESIDENT}
    return resident, trace_evicts


class TestLruOracle:
    def test_randomized_sequences_match_brute_force(self):
        rng = random.Random(1234)
        for case in range(300):
            n_files = rng.randint(1, 8)
            sizes = {f"f{i}": rng.randint(1, 40) for i in range(n_files)}
            capacity = max(max(sizes.values()), rng.randint(40, 120))
            accesses = [f"f{rng.randrange(n_files)}" for _ in range(rng.randint(1, 30))]
            expected_resident, expected_evictions = brute_force_lru(capacity, accesses, sizes)
            resident, evictions = run_cache_sequence(capacity, accesses, sizes)
            assert resident == expected_resident, f"case {case}"
            assert evictions == expected_evictions, f"case {case}"


def recount_bytes(cache):
    return sum(e.ref.size_bytes for e in cache.entries.values()
               if e.state in (CacheState.RESIDENT, CacheState.TRANSFERRING))


def check_evictions_against_brute_force(cache):
    """Wrap ``cache.evict`` so every call is checked against a rescan.

    Before each call the expected victims are the resident, unpinned
    entries in ``(last_access, uri)`` order, taken until the request fits;
    if they run out, the call must raise ``CapacityError`` and evict none
    of them. ``open_nowait`` admits through ``self.evict``, so the
    wrapper sees every eviction.
    """
    original = cache.evict

    def checked_evict(needed):
        order = sorted((e.last_access, uri) for uri, e in cache.entries.items()
                       if e.state == CacheState.RESIDENT and e.pin_count == 0)
        sizes = {uri: cache.entries[uri].ref.size_bytes for _, uri in order}
        free = cache.capacity_bytes - recount_bytes(cache)
        expected = []
        while free < needed and order:
            uri = order.pop(0)[1]
            expected.append(uri)
            free += sizes[uri]
        mark = len(cache.trace)

        def evicted_since_mark():
            return [ev.fields["uri"] for ev in list(cache.trace)[mark:] if ev.kind == "cache_evict"]

        try:
            out = original(needed)
        except CapacityError:
            assert free < needed
            assert evicted_since_mark() == []
            raise
        assert free >= needed
        assert out == evicted_since_mark() == expected
        return out

    cache.evict = checked_evict


class TestLruDifferential:
    """Randomized opens with shared timestamps, pins, corruption, coalesced
    opens and prefetches; after every operation the victims match a
    brute-force rescan and the byte count matches a recount."""

    def run_case(self, rng):
        n = rng.randint(2, 9)
        sizes = {f"d{i}": rng.choice((0, rng.randint(1, 40))) for i in range(n)}
        refs = {u: ExternalDataRef(uri=u, size_bytes=s, checksum=digest_bytes(u.encode()))
                for u, s in sizes.items()}
        capacity = rng.randint(max(sizes.values()), 120)
        clock = SimClock()
        cache = DmsCache(clock, DatasetCatalog(refs.values()), capacity,
                         rng.choice((10.0, 1e9)), TraceLog(clock))
        check_evictions_against_brute_force(cache)
        pins = []
        for _ in range(rng.randint(10, 60)):
            op = rng.random()
            uri = rng.choice(list(refs))
            try:
                if op < 0.35:
                    cache.open_nowait(refs[uri])
                elif op < 0.45:
                    cache.open(refs[uri])
                elif op < 0.55:
                    cache.prefetch(rng.sample(list(refs.values()), 2))
                elif op < 0.65:
                    cache.pin(uri)
                    pins.append(uri)
                elif op < 0.75 and pins:
                    cache.unpin(pins.pop(rng.randrange(len(pins))))
                elif op < 0.8:
                    cache.inject_corruption(uri)
                elif op < 0.85:
                    cache.evict(rng.randint(0, capacity))
                else:
                    # several operations share most timestamps
                    clock.run_until(clock.now + rng.choice((0.0, 0.0, 0.5, 1.0, 3.0)))
            except (CapacityError, ChecksumMismatchError):
                pass
            assert cache.resident_bytes() == recount_bytes(cache)
            assert cache.resident_bytes() <= capacity
        return cache

    def test_randomized_ops_match_brute_force(self):
        rng = random.Random(20261018)
        evictions = 0
        # 600 cases: an admission that cannot succeed now evicts nothing, so
        # 400 cases no longer reach 1000 evictions
        for _ in range(600):
            cache = self.run_case(rng)
            evictions += sum(1 for ev in cache.trace if ev.kind == "cache_evict")
        assert evictions > 1000  # the cases exercise eviction, not just hits


class TestLruIndexBound:
    def test_index_stays_proportional_to_resident_entries(self):
        refs = [ref(f"doi:{i}", 10) for i in range(6)]
        clock, cache = make_cache(refs, capacity=40, bandwidth=1e9)
        rng = random.Random(7)
        largest = 0
        for step in range(5000):
            # mostly hits on the four resident datasets, now and then a miss
            # that evicts one of them
            cache.open(refs[rng.randrange(4) if step % 50 else rng.randrange(6)])
            if step % 3 == 0:
                clock.advance(1.0)
            resident = sum(1 for e in cache.entries.values() if e.state == CacheState.RESIDENT)
            assert len(cache._lru) == resident
            largest = max(largest, len(cache._lru))
        hits = sum(1 for ev in cache.trace if ev.kind == "cache_hit")
        assert hits > 4500 and largest <= 4


class TestTransferLogInterface:
    def test_ndjson_one_record_per_line(self):
        a, b = ref("doi:a", 10), ref("doi:b", 20)
        clock, cache = make_cache([a, b])
        cache.open(a)
        cache.open(b)
        records = cache.transfer_log
        assert len(records) == 2
        assert [r.uri for r in records] == ["doi:a", "doi:b"]
        assert [r.bytes for r in records] == [10, 20]
        assert all(r.source == TransferSource.REMOTE_REPO for r in records)

    def test_log_is_read_from_the_trace(self):
        a, b, c = ref("doi:a", 10), ref("doi:b", 20), ref("doi:c", 30)
        clock, cache = make_cache([a, b, c])
        cache.open(a)
        staged = cache.stage_in(b, make_resource(datasets={"doi:b"}, posix=False))
        report = cache.prefetch([a, c])
        assert [(r.uri, r.source, r.bytes) for r in report.transferred] == [
            ("doi:c", TransferSource.REMOTE_REPO, 30)]
        events = [(ev.fields["uri"], ev.fields["source"], ev.fields["bytes"])
                  for ev in cache.trace if ev.kind == "transfer_complete"]
        assert [(r.uri, r.source, r.bytes) for r in cache.transfer_log] == events == [
            ("doi:a", "remote_repo", 10), ("doi:b", "hpc_local_stagein", 20),
            ("doi:c", "remote_repo", 30)]
        assert cache.transfer_log[1] == staged
        assert records_for(cache, "doi:b") == [staged]


class TestInvariants:
    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_byte_accounting_never_exceeds_capacity(self, accesses):
        sizes = {"a": 30, "b": 25, "c": 45, "d": 10}
        refs = {u: ExternalDataRef(uri=u, size_bytes=s, checksum=digest_bytes(u.encode()))
                for u, s in sizes.items()}
        clock = SimClock()
        cache = DmsCache(clock, DatasetCatalog(refs.values()), 70, 1e9, TraceLog(clock))
        for uri in accesses:
            cache.open(refs[uri])
            assert cache.resident_bytes() <= 70
            clock.advance(1.0)

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_single_transfer_without_eviction(self, accesses):
        refs = {u: ExternalDataRef(uri=u, size_bytes=5, checksum=digest_bytes(u.encode()))
                for u in "abc"}
        clock = SimClock()
        cache = DmsCache(clock, DatasetCatalog(refs.values()), 1000, 1e9, TraceLog(clock))
        for uri in accesses:
            cache.open(refs[uri])
        for uri in set(accesses):
            assert len(records_for(cache, uri)) == 1
