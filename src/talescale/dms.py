"""Data Management System: compute-local cache for external datasets.

External data is referenced, not copied, until something opens it. The
cache then performs a single simulated transfer per dataset (concurrent
opens coalesce), verifies the checksum on arrival, and evicts
least-recently-used unpinned entries under capacity pressure. Datasets
already resident on a resource bypass the cache entirely: POSIX-exposed
copies are mounted, non-POSIX copies are staged in locally, and only truly
remote data is fetched over the wide area.

Every completed transfer is a ``transfer_complete`` trace event, and the
trace is the only record of it: ``transfer_log`` reads those events back.
So a trace serves one cache.

Eviction cost does not grow with the cache's history. A running count
holds the bytes of resident and transferring entries, so the capacity
check reads one number. The LRU order rule is: the next victim is the
resident, unpinned entry with the smallest ``(last_access, uri)``, so
entries last used at the same simulated time leave in URI order. A heap
of those keys serves it; a hit pushes a new key and leaves the old one
behind as stale, and the heap is rebuilt from its current keys whenever
it grows past twice the resident entries.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Iterable

from .digest import parse as parse_checksum
from .errors import (CapacityError, ChecksumMismatchError, DuplicateError, ValidationError,
                     check_keys, check_number)
from .resources import ResourceDescriptor


@dataclass(frozen=True)
class ExternalDataRef:
    uri: str
    size_bytes: int
    checksum: str
    _KEYS = frozenset(("uri", "size_bytes", "checksum"))  # not a field: it has no annotation

    def __post_init__(self):
        if not isinstance(self.uri, str) or not self.uri:
            raise ValidationError(f"data ref uri must be a nonempty string, got {self.uri!r:.200}")
        if self.size_bytes < 0:
            raise ValidationError(f"data ref {self.uri!r} has negative size")
        if not isinstance(self.checksum, str) or not self.checksum:
            raise ValidationError(f"data ref {self.uri!r} is missing a checksum")
        try:
            parse_checksum(self.checksum)
        except ValueError as exc:
            raise ValidationError(f"data ref {self.uri!r} checksum: {exc}") from None

    def to_dict(self) -> dict:
        return {"uri": self.uri, "size_bytes": self.size_bytes, "checksum": self.checksum}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExternalDataRef":
        # Catalogs hold thousands of entries: the rules run on those that do not plainly pass.
        if type(raw) is not dict or raw.keys() != cls._KEYS:
            check_keys("dataset", raw, cls._KEYS, cls._KEYS)
        if type(raw["size_bytes"]) is not int:
            check_number(f"dataset {raw['uri']!r}", "size_bytes", raw["size_bytes"])
        return cls(uri=raw["uri"], size_bytes=int(raw["size_bytes"]), checksum=raw["checksum"])


class CacheState(str, enum.Enum):
    ABSENT = "absent"
    TRANSFERRING = "transferring"
    RESIDENT = "resident"
    EVICTED = "evicted"


class TransferSource(str, enum.Enum):
    REMOTE_REPO = "remote_repo"
    HPC_LOCAL_STAGEIN = "hpc_local_stagein"


class StagingKind(str, enum.Enum):
    MOUNT = "mount"
    STAGE_IN = "stage_in"
    CACHE_FETCH = "cache_fetch"


@dataclass(frozen=True)
class StagingAction:
    uri: str
    action: StagingKind
    resource: str

    def to_dict(self) -> dict:
        return {"uri": self.uri, "action": self.action.value, "resource": self.resource}


@dataclass(frozen=True)
class TransferRecord:
    uri: str
    source: TransferSource
    bytes: int


@dataclass
class CacheEntry:
    ref: ExternalDataRef
    state: CacheState = CacheState.ABSENT
    last_access: float = 0.0
    pin_count: int = 0


class OpenHandle:
    """Result of an open: ready once the backing transfer completes."""

    __slots__ = ("uri", "ready", "error")

    def __init__(self, uri: str):
        self.uri = uri
        self.ready = False
        self.error: Exception | None = None


class DatasetCatalog:
    def __init__(self, refs: Iterable[ExternalDataRef] = ()):
        self._refs: dict[str, ExternalDataRef] = {}
        for ref in refs:
            self.register(ref)

    def register(self, ref: ExternalDataRef) -> ExternalDataRef:
        if ref.uri in self._refs:
            raise DuplicateError(f"dataset {ref.uri!r} already registered")
        self._refs[ref.uri] = ref
        return ref

    def get(self, uri: str) -> ExternalDataRef:
        try:
            return self._refs[uri]
        except KeyError:
            raise ValidationError(f"dataset {uri!r} is not registered") from None

    def __contains__(self, uri: str) -> bool:
        return uri in self._refs

    def __iter__(self):
        return iter(self._refs.values())


def resolve_local(ref: ExternalDataRef, resource: ResourceDescriptor) -> StagingAction:
    """Pick the cheapest staging action for a dataset on a resource.

    Local POSIX copies are mounted (zero transfer), local non-POSIX copies
    are staged in on the resource (no wide-area movement), anything else
    goes through the cache.
    """
    if ref.uri in resource.local_datasets:
        if resource.dataset_interface == "posix":
            return StagingAction(ref.uri, StagingKind.MOUNT, resource.name)
        return StagingAction(ref.uri, StagingKind.STAGE_IN, resource.name)
    return StagingAction(ref.uri, StagingKind.CACHE_FETCH, resource.name)


@dataclass
class PrefetchReport:
    transferred: list[TransferRecord] = field(default_factory=list)
    already_resident: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)


class _PendingTransfer:
    __slots__ = ("handles", "finish_at")

    def __init__(self, finish_at: float):
        self.handles: list[OpenHandle] = []
        self.finish_at = finish_at


class DmsCache:
    """Shared dataset cache driven by the simulation clock.

    Transfers take ``size_bytes / bandwidth`` simulated seconds. Capacity
    is reserved when a transfer starts so parallel transfers can never
    oversubscribe the store.
    """

    def __init__(self, clock, catalog: DatasetCatalog, capacity_bytes: int,
                 bandwidth_bytes_per_s: float, trace):
        if capacity_bytes < 0:
            raise ValidationError("cache capacity must be >= 0")
        if bandwidth_bytes_per_s <= 0:
            raise ValidationError("cache bandwidth must be > 0")
        self.clock = clock
        self.catalog = catalog
        self.capacity_bytes = capacity_bytes
        self.bandwidth = bandwidth_bytes_per_s
        self.trace = trace
        self.entries: dict[str, CacheEntry] = {}
        self._pending: dict[str, _PendingTransfer] = {}
        self._corrupt_next: set[str] = set()
        self._used_bytes = 0  # resident plus transferring
        self._resident = 0
        # (last_access, uri) keys; every resident entry's current key is in
        # here, next to stale keys of older accesses and evicted entries
        self._lru: list[tuple[float, str]] = []

    # -- diagnostics ------------------------------------------------------

    def entry(self, uri: str) -> CacheEntry:
        if uri not in self.entries:
            self.entries[uri] = CacheEntry(ref=self.catalog.get(uri))
        return self.entries[uri]

    def resident_bytes(self) -> int:
        """Bytes held by resident entries plus those reserved by transfers."""
        return self._used_bytes

    @property
    def transfer_log(self) -> list[TransferRecord]:
        """Completed transfers, rendered from the trace's ``transfer_complete`` events."""
        return [TransferRecord(r["uri"], TransferSource(r["source"]), r["bytes"])
                for r in self.trace.records("transfer_complete")]

    def records_for(self, uri: str) -> list[TransferRecord]:
        return [r for r in self.transfer_log if r.uri == uri]

    def inject_corruption(self, uri: str) -> None:
        """Make the next transfer of ``uri`` arrive with a bad digest."""
        self._corrupt_next.add(uri)

    # -- pinning ----------------------------------------------------------

    def pin(self, uri: str) -> None:
        self.entry(uri).pin_count += 1

    def unpin(self, uri: str) -> None:
        e = self.entry(uri)
        if e.pin_count <= 0:
            raise ValidationError(f"{uri!r} is not pinned")
        e.pin_count -= 1

    # -- core operations ---------------------------------------------------

    def open(self, ref: ExternalDataRef) -> OpenHandle:
        """Open a dataset, blocking (in simulated time) until it is resident.

        Driver-context only: advances the clock to the transfer completion.
        Inside event callbacks use :meth:`open_nowait`.
        """
        handle = self.open_nowait(ref)
        if not handle.ready and ref.uri in self._pending:
            self.clock.run_until(self._pending[ref.uri].finish_at)
        if handle.error is not None:
            raise handle.error
        return handle

    def open_nowait(self, ref: ExternalDataRef) -> OpenHandle:
        """Start (or join) the transfer for ``ref`` and return immediately."""
        if ref.uri not in self.catalog:
            raise ValidationError(f"dataset {ref.uri!r} is not registered")
        entry = self.entry(ref.uri)
        handle = OpenHandle(ref.uri)

        if entry.state == CacheState.RESIDENT:
            if entry.last_access != self.clock.now:
                self._touch(entry)
            handle.ready = True
            self.trace.emit("cache_hit", uri=ref.uri)
            return handle

        if entry.state == CacheState.TRANSFERRING:
            # Coalesce: ride the in-flight transfer, never start a second one.
            self._pending[ref.uri].handles.append(handle)
            return handle

        self._admit(ref)
        entry.state = CacheState.TRANSFERRING
        self._used_bytes += ref.size_bytes
        duration = ref.size_bytes / self.bandwidth
        pending = _PendingTransfer(self.clock.now + duration)
        pending.handles.append(handle)
        self._pending[ref.uri] = pending
        self.trace.emit("transfer_start", uri=ref.uri, bytes=ref.size_bytes,
                        source=TransferSource.REMOTE_REPO.value)
        if duration == 0:
            self._finish_transfer(ref)
        else:
            self.clock.at(pending.finish_at, lambda: self._finish_transfer(ref))
        return handle

    def prefetch(self, tale, eager_refs: Iterable[ExternalDataRef] | None = None) -> PrefetchReport:
        """Eagerly transfer every absent ref of a Tale (quasi-locality).

        Partial failures are reported per ref; completed transfers stay.
        """
        refs = list(eager_refs) if eager_refs is not None else list(tale.data_refs)
        report = PrefetchReport()
        handles: list[tuple[ExternalDataRef, OpenHandle]] = []
        before = self.trace.count("transfer_complete")
        for ref in refs:
            entry = self.entry(ref.uri)
            if entry.state == CacheState.RESIDENT:
                report.already_resident.append(ref.uri)
                continue
            try:
                handles.append((ref, self.open_nowait(ref)))
            except (CapacityError, ValidationError) as exc:
                report.failed[ref.uri] = str(exc)
        finish_times = [self._pending[r.uri].finish_at for r, _ in handles if r.uri in self._pending]
        if finish_times:
            self.clock.run_until(max(finish_times))
        for ref, handle in handles:
            if handle.error is not None:
                report.failed[ref.uri] = str(handle.error)
        report.transferred = self.transfer_log[before:]
        return report

    def evict(self, needed_bytes: int) -> list[str]:
        """Evict LRU unpinned resident entries until ``needed_bytes`` fit."""
        if needed_bytes < 0:
            raise ValidationError("needed_bytes must be >= 0")
        evicted: list[str] = []
        pinned: list[tuple[float, str]] = []  # current keys of pinned entries, set aside
        try:
            while self.capacity_bytes - self._used_bytes < needed_bytes:
                victim = self._pop_lru_victim(pinned)
                if victim is None:
                    raise CapacityError(
                        f"cannot free {needed_bytes} bytes: "
                        f"{self.capacity_bytes - self._used_bytes} free, no evictable entries"
                    )
                victim.state = CacheState.EVICTED
                self._used_bytes -= victim.ref.size_bytes
                self._resident -= 1
                evicted.append(victim.ref.uri)
                self.trace.emit("cache_evict", uri=victim.ref.uri, bytes=victim.ref.size_bytes)
        finally:
            for key in pinned:
                heapq.heappush(self._lru, key)
            self._compact_if_sparse()
        return evicted

    # -- internals ---------------------------------------------------------

    def _is_current(self, key: tuple[float, str]) -> bool:
        entry = self.entries[key[1]]
        return entry.state == CacheState.RESIDENT and entry.last_access == key[0]

    def _pop_lru_victim(self, pinned: list[tuple[float, str]]) -> CacheEntry | None:
        """Pop the LRU rule's next victim, dropping stale keys on the way.

        Keys of pinned entries go to ``pinned``; the caller pushes them back.
        """
        while self._lru:
            key = heapq.heappop(self._lru)
            if self._is_current(key):
                entry = self.entries[key[1]]
                if not entry.pin_count:
                    return entry
                pinned.append(key)
        return None

    def _touch(self, entry: CacheEntry) -> None:
        """Record an access of a resident entry at the current time."""
        entry.last_access = self.clock.now
        heapq.heappush(self._lru, (entry.last_access, entry.ref.uri))
        self._compact_if_sparse()

    def _compact_if_sparse(self) -> None:
        """Keep the index within twice the resident entries.

        Rebuilding keeps each current key once and drops the stale ones, so
        the index stays proportional to the resident entries however many
        hits the run has had; each rebuild drops more keys than it keeps.
        """
        if len(self._lru) > 2 * self._resident:
            self._lru = list(dict.fromkeys(k for k in self._lru if self._is_current(k)))
            heapq.heapify(self._lru)

    def _admit(self, ref: ExternalDataRef) -> None:
        if ref.size_bytes > self.capacity_bytes:
            raise CapacityError(f"{ref.uri!r} ({ref.size_bytes} B) exceeds cache capacity")
        self.evict(ref.size_bytes)

    def _finish_transfer(self, ref: ExternalDataRef) -> None:
        entry = self.entries[ref.uri]
        pending = self._pending.pop(ref.uri)
        corrupted = ref.uri in self._corrupt_next
        self._corrupt_next.discard(ref.uri)
        if corrupted:
            entry.state = CacheState.ABSENT
            self._used_bytes -= ref.size_bytes
            error = ChecksumMismatchError(ref.uri, ref.checksum, "sha256:<corrupted>")
            self.trace.emit("transfer_failed", uri=ref.uri, reason="checksum mismatch")
            for handle in pending.handles:
                handle.error = error
            return
        entry.state = CacheState.RESIDENT
        self._resident += 1
        self._touch(entry)
        self.trace.emit("transfer_complete", uri=ref.uri, bytes=ref.size_bytes,
                        source=TransferSource.REMOTE_REPO.value)
        for handle in pending.handles:
            handle.ready = True

    def stage_in(self, ref: ExternalDataRef, resource: ResourceDescriptor) -> TransferRecord:
        """Local stage-in on a resource holding a non-POSIX copy.

        Bytes move inside the resource, not over the wide area, but they
        still move, so the trace gets a ``transfer_complete`` event.
        """
        if ref.uri not in resource.local_datasets:
            raise ValidationError(f"{ref.uri!r} is not local to {resource.name!r}")
        self.trace.emit("transfer_complete", uri=ref.uri, bytes=ref.size_bytes,
                        source=TransferSource.HPC_LOCAL_STAGEIN.value)
        return TransferRecord(ref.uri, TransferSource.HPC_LOCAL_STAGEIN, ref.size_bytes)

