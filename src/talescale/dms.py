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
entries last used at the same simulated time leave in URI order. The
resident entries sit in a dict in access order: an access moves its entry
to the end. Simulated time never goes back, so access order is
``last_access`` order, and the victim is found by one forward scan that
skips pinned entries and breaks a tie on access time by URI.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator

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
        if isinstance(self.size_bytes, bool) or not isinstance(self.size_bytes, int) or self.size_bytes < 0:
            raise ValidationError(f"data ref {self.uri!r} size_bytes must be an integer >= 0, "
                                  f"got {self.size_bytes!r:.200}")
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
    finish_at: float = 0.0  # while transferring: when the transfer lands
    waiting: list[OpenHandle] = field(default_factory=list)  # opens riding the transfer
    corrupt_next: bool = False  # the next transfer arrives with a bad digest


_URI = attrgetter("ref.uri")


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
        self._used_bytes = 0  # resident plus transferring
        self._lru: dict[str, CacheEntry] = {}  # the resident entries, in access order

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

    def inject_corruption(self, uri: str) -> None:
        """Make the next transfer of ``uri`` arrive with a bad digest."""
        self.entry(uri).corrupt_next = True

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
        if not handle.ready and handle.error is None:
            self.clock.run_until(self.entries[ref.uri].finish_at)
        if handle.error is not None:
            raise handle.error
        return handle

    def open_nowait(self, ref: ExternalDataRef) -> OpenHandle:
        """Start (or join) the transfer for ``ref`` and return immediately.

        The catalog's ref for ``ref.uri`` is the one opened, so reservation,
        eviction and the transfer records all read the catalog's size.
        """
        ref = self.catalog.get(ref.uri)
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
            entry.waiting.append(handle)
            return handle

        if ref.size_bytes > self.capacity_bytes:
            raise CapacityError(f"{ref.uri!r} ({ref.size_bytes} B) exceeds cache capacity")
        self.evict(ref.size_bytes)
        entry.state = CacheState.TRANSFERRING
        self._used_bytes += ref.size_bytes
        duration = ref.size_bytes / self.bandwidth
        entry.finish_at = self.clock.now + duration
        entry.waiting.append(handle)
        self.trace.emit("transfer_start", uri=ref.uri, bytes=ref.size_bytes,
                        source=TransferSource.REMOTE_REPO.value)
        if duration == 0:
            self._finish_transfer(ref)
        else:
            self.clock.at(entry.finish_at, lambda: self._finish_transfer(ref))
        return handle

    def prefetch(self, refs: Iterable[ExternalDataRef]) -> PrefetchReport:
        """Eagerly transfer every absent ref, such as a Tale's ``data_refs`` (quasi-locality).

        Driver-context only, like :meth:`open`; :meth:`prefetch_nowait` starts
        the transfers. Partial failures are reported per ref; completed
        transfers stay. ``transferred`` lists only refs asked for.
        """
        report, handles = self.prefetch_nowait(dict.fromkeys(refs))
        waits = [self.entries[h.uri].finish_at for h in handles if not h.ready and h.error is None]
        if waits:
            self.clock.run_until(max(waits))
        for handle in handles:
            if handle.error is not None:
                report.failed[handle.uri] = str(handle.error)
            elif handle.ready:
                ref = self.entries[handle.uri].ref
                report.transferred.append(TransferRecord(ref.uri, TransferSource.REMOTE_REPO,
                                                         ref.size_bytes))
        return report

    def prefetch_nowait(self, refs: Iterable[ExternalDataRef]
                        ) -> tuple[PrefetchReport, list[OpenHandle]]:
        """Start (or join) the transfer of every ref not resident; return at once.

        Best effort: a ref the cache cannot admit keeps its state and is
        reported as failed. Returns that report and the started or joined
        transfers' handles.
        """
        report, handles = PrefetchReport(), []
        for ref in refs:
            if self.entry(ref.uri).state == CacheState.RESIDENT:
                report.already_resident.append(ref.uri)
                continue
            try:
                handles.append(self.open_nowait(ref))
            except CapacityError as exc:
                report.failed[ref.uri] = str(exc)
        return report, handles

    def evict(self, needed_bytes: int) -> list[str]:
        """Evict LRU unpinned resident entries until ``needed_bytes`` fit.

        The victims are chosen first; if they cannot free enough, nothing
        is evicted and ``CapacityError`` is raised.
        """
        if needed_bytes < 0:
            raise ValidationError("needed_bytes must be >= 0")
        free = self.capacity_bytes - self._used_bytes
        victims: list[CacheEntry] = []
        if free < needed_bytes:
            for victim in self._lru_order():
                victims.append(victim)
                free += victim.ref.size_bytes
                if free >= needed_bytes:
                    break
            else:
                raise CapacityError(f"cannot free {needed_bytes} bytes: evicting every "
                                    f"unpinned entry would leave {free} free")
        for victim in victims:
            del self._lru[victim.ref.uri]
            victim.state = CacheState.EVICTED
            self._used_bytes -= victim.ref.size_bytes
            self.trace.emit("cache_evict", uri=victim.ref.uri, bytes=victim.ref.size_bytes)
        return [victim.ref.uri for victim in victims]

    # -- internals ---------------------------------------------------------

    def _lru_order(self) -> Iterator[CacheEntry]:
        """The unpinned resident entries by least ``(last_access, uri)``.

        ``_lru`` is in access order, so its entries of one ``last_access``
        are adjacent; it is read only as far as the entries are taken.
        """
        ties: list[CacheEntry] = []  # unpinned entries of one last_access
        for entry in self._lru.values():
            if entry.pin_count:
                continue
            if ties and entry.last_access != ties[0].last_access:
                ties.sort(key=_URI)
                yield from ties
                ties = []
            ties.append(entry)
        ties.sort(key=_URI)
        yield from ties

    def _touch(self, entry: CacheEntry) -> None:
        """Record an access of a resident entry at the current time."""
        entry.last_access = self.clock.now
        self._lru.pop(entry.ref.uri, None)
        self._lru[entry.ref.uri] = entry

    def _finish_transfer(self, ref: ExternalDataRef) -> None:
        entry = self.entries[ref.uri]
        waiting, entry.waiting = entry.waiting, []
        if entry.corrupt_next:
            entry.corrupt_next = False
            entry.state = CacheState.ABSENT
            self._used_bytes -= ref.size_bytes
            error = ChecksumMismatchError(ref.uri, ref.checksum, "sha256:<corrupted>")
            self.trace.emit("transfer_failed", uri=ref.uri, reason="checksum mismatch")
            for handle in waiting:
                handle.error = error
            return
        entry.state = CacheState.RESIDENT
        self._touch(entry)
        self.trace.emit("transfer_complete", uri=ref.uri, bytes=ref.size_bytes,
                        source=TransferSource.REMOTE_REPO.value)
        for handle in waiting:
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

