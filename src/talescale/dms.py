"""Data Management System: compute-local cache for external datasets.

External data is referenced, not copied, until something opens it. The
cache then performs a single simulated transfer per dataset (concurrent
opens coalesce), verifies the checksum on arrival, and evicts
least-recently-used unpinned entries under capacity pressure. Datasets
already resident on a resource bypass the cache entirely: POSIX-exposed
copies are mounted, non-POSIX copies are staged in locally, and only truly
remote data is fetched over the wide area.

``open`` waits in simulated time for its transfer, so only a driver calls
it; event callbacks (the ``prefetch`` op among them) call ``open_nowait``
and ``prefetch_nowait``, which start or join transfers and return at once.

An entry holds the catalog's ref for its URI, read once when the entry is
made. Opening, pinning and unpinning find the entry with one lookup and
read the ref from it, so the catalog's ref is the one opened, whatever
size the caller's ref states.

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
from typing import Iterable, Iterator, NamedTuple

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
        uri, size, checksum = self.uri, self.size_bytes, self.checksum
        if not isinstance(uri, str) or not uri:
            raise ValidationError(f"data ref uri must be a nonempty string, got {uri!r:.200}")
        if isinstance(size, bool) or not isinstance(size, int) or size < 0:
            raise ValidationError(f"data ref {uri!r} size_bytes must be an integer >= 0, "
                                  f"got {size!r:.200}")
        if not isinstance(checksum, str) or not checksum:
            raise ValidationError(f"data ref {uri!r} is missing a checksum")
        try:
            parse_checksum(checksum)
        except ValueError as exc:
            raise ValidationError(f"data ref {uri!r} checksum: {exc}") from None

    def to_dict(self) -> dict:
        return {"uri": self.uri, "size_bytes": self.size_bytes, "checksum": self.checksum}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExternalDataRef":
        # Catalogs hold thousands of entries: the rules run on those that do not plainly pass.
        if type(raw) is not dict or raw.keys() != cls._KEYS:
            check_keys("dataset", raw, cls._KEYS, cls._KEYS)
        size = raw["size_bytes"]
        if type(size) is not int:
            size = int(check_number(f"dataset {raw['uri']!r}", "size_bytes", size))
        return cls(raw["uri"], size, raw["checksum"])


class CacheState(str, enum.Enum):
    ABSENT = "absent"
    TRANSFERRING = "transferring"
    RESIDENT = "resident"
    EVICTED = "evicted"


class TransferSource(str, enum.Enum):
    REMOTE_REPO = "remote_repo"
    HPC_LOCAL_STAGEIN = "hpc_local_stagein"


# The sources' texts, as transfer events record them
_REMOTE_REPO = TransferSource.REMOTE_REPO.value
_HPC_LOCAL_STAGEIN = TransferSource.HPC_LOCAL_STAGEIN.value


class StagingKind(str, enum.Enum):
    MOUNT = "mount"
    STAGE_IN = "stage_in"
    CACHE_FETCH = "cache_fetch"


class StagingAction(NamedTuple):
    uri: str
    action: StagingKind
    resource: str

    def to_dict(self) -> dict:
        return {"uri": self.uri, "action": self.action.value, "resource": self.resource}


class TransferRecord(NamedTuple):
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

    __slots__ = ("ready", "error")

    def __init__(self):
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

    def sizes(self, uris: Iterable[str], missing: int) -> dict[str, int]:
        """Each URI's dataset size in bytes, or ``missing`` for one the
        catalog does not hold; one lookup per URI."""
        refs = self._refs
        sizes = {}
        for uri in uris:
            ref = refs.get(uri)
            sizes[uri] = missing if ref is None else ref.size_bytes
        return sizes

    def __iter__(self):
        return iter(self._refs.values())


def resolve_local(uris: Iterable[str], resource: ResourceDescriptor) -> tuple[StagingAction, ...]:
    """Pick the cheapest staging action for each dataset on a resource, in
    the order of ``uris``.

    Local POSIX copies are mounted (zero transfer), local non-POSIX copies
    are staged in on the resource (no wide-area movement), anything else
    goes through the cache.
    """
    local, name = resource.local_datasets, resource.name
    kind = StagingKind.MOUNT if resource.dataset_interface == "posix" else StagingKind.STAGE_IN
    fetch = StagingKind.CACHE_FETCH
    return tuple(StagingAction(uri, kind if uri in local else fetch, name) for uri in uris)


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
        entry = self.entries.get(uri)
        if entry is None:
            entry = self.entries[uri] = CacheEntry(ref=self.catalog.get(uri))
        return entry

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

        The entry's ref, the catalog's for ``ref.uri``, is the one opened,
        so reservation, eviction and the transfer records all read the
        catalog's size.
        """
        entry = self.entry(ref.uri)
        ref = entry.ref
        handle = OpenHandle()

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
        self.trace.emit("transfer_start", uri=ref.uri, bytes=ref.size_bytes, source=_REMOTE_REPO)
        if duration == 0:
            self._finish_transfer(entry)
        else:
            self.clock.at(entry.finish_at, lambda: self._finish_transfer(entry))
        return handle

    def prefetch_nowait(self, refs: Iterable[ExternalDataRef]) -> None:
        """Start (or join) the transfer of every ref not resident, such as a Tale's
        ``data_refs``, and return at once; a ref the cache cannot admit keeps its state."""
        for ref in refs:
            if self.entry(ref.uri).state != CacheState.RESIDENT:
                try:
                    self.open_nowait(ref)
                except CapacityError:
                    pass

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

    def _finish_transfer(self, entry: CacheEntry) -> None:
        ref = entry.ref
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
                        source=_REMOTE_REPO)
        for handle in waiting:
            handle.ready = True

    def stage_in(self, ref: ExternalDataRef, resource: ResourceDescriptor) -> TransferRecord:
        """Local stage-in on a resource holding a non-POSIX copy.

        Bytes move inside the resource, not over the wide area, but they
        still move, so the trace gets a ``transfer_complete`` event. As in
        ``open_nowait``, the catalog's ref for ``ref.uri`` is the one staged.
        """
        ref = self.catalog.get(ref.uri)
        if ref.uri not in resource.local_datasets:
            raise ValidationError(f"{ref.uri!r} is not local to {resource.name!r}")
        self.trace.emit("transfer_complete", uri=ref.uri, bytes=ref.size_bytes,
                        source=_HPC_LOCAL_STAGEIN)
        return TransferRecord(ref.uri, TransferSource.HPC_LOCAL_STAGEIN, ref.size_bytes)

