"""Transport layer: sessions, calls, and the transport log.

Secure-connection setup is expensive, so operations aggregate under
sessions that stay alive between calls. A session is its (resource,
credential) pair's last-use time: the pair re-handshakes only once it has
idled longer than the TTL, and a failed handshake holds the pair in
backoff for ``HANDSHAKE_BACKOFF_S``. Every handshake and every completed
call is a trace event, and the trace is the only record kept of them:
``log_text`` renders the ``transport_call`` events as the transport log,
one line per call::

    time | resource | credential | verb | payload-digest

A call's payload digest is the one its caller gives (the middleware keeps
its status payload's), or is made from the payload at the call.

Synchronous costs (handshake, round trip) advance the clock when called
from driver context.

``repeater`` answers a run-ahead (``World._run_ahead``) by making calls again
as ``call`` would, at a cost that does not grow with the stretch's length.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from .digest import short_digest
from .errors import SessionError, TransportError, UnknownCredentialError, UnknownResourceError

HANDSHAKE_BACKOFF_S = 30.0


class Transport:
    def __init__(self, clock, trace, rtt_s: float = 0.05, handshake_s: float = 0.5,
                 idle_ttl_s: float | None = 300.0):
        self.clock = clock
        self.trace = trace
        self.rtt_s = rtt_s
        self.handshake_s = handshake_s
        self.idle_ttl_s = math.inf if idle_ttl_s is None else idle_ttl_s
        self._backends: dict[str, object] = {}
        self._credentials: set[str] = set()
        # (resource, credential) -> last-use time of the pair's session
        self._sessions: dict[tuple[str, str], float] = {}
        self._unhealthy: dict[tuple[str, str], float] = {}
        # pending injected failures per kind; each kind fires on its own next
        # opportunity, so a waiting handshake failure never blocks a transport one
        self._fail_next = {"transport": 0, "handshake": 0}

    # -- registry ---------------------------------------------------------

    def register_backend(self, resource_name: str, backend) -> None:
        self._backends[resource_name] = backend

    def register_credential(self, name: str) -> None:
        self._credentials.add(name)

    # -- fault injection ----------------------------------------------------

    def inject_failure(self, kind: str = "transport", count: int = 1) -> None:
        if kind not in self._fail_next:
            raise ValueError(f"unknown failure kind {kind!r}")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValueError(f"failure count must be an int >= 0, got {count!r}")
        self._fail_next[kind] += count

    def _take_failure(self, kind: str) -> bool:
        if self._fail_next[kind]:
            self._fail_next[kind] -= 1
            return True
        return False

    # -- sessions ---------------------------------------------------------

    def acquire_session(self, resource: str, credential: str) -> None:
        """Keep the pair's session live, handshaking only if it idled out."""
        if credential not in self._credentials:
            raise UnknownCredentialError(f"credential {credential!r} is not registered")
        if resource not in self._backends:
            raise UnknownResourceError(f"no transport route to resource {resource!r}")
        pair = (resource, credential)
        until = self._unhealthy.get(pair)
        if until is not None:
            if self.clock.now < until:
                raise SessionError(f"{pair} is in handshake backoff until t={until}")
            del self._unhealthy[pair]

        last_used = self._sessions.get(pair)
        if last_used is not None and self.clock.now - last_used <= self.idle_ttl_s:
            self._sessions[pair] = self.clock.now
            return

        if self._take_failure("handshake"):
            self._unhealthy[pair] = self.clock.now + HANDSHAKE_BACKOFF_S
            self.trace.emit("handshake_failed", resource=resource, credential=credential)
            raise SessionError(f"handshake with {pair} failed")

        self.clock.consume(self.handshake_s)
        self._sessions[pair] = self.clock.now
        self.trace.emit("handshake", resource=resource, credential=credential)

    @property
    def handshake_count(self) -> int:
        """Handshakes so far, as counted by the trace."""
        return self.trace.count("handshake")

    # -- calls --------------------------------------------------------------

    def call(self, resource: str, credential: str, verb: str, payload: str,
             payload_digest: str | None = None) -> str:
        """One round trip over the pair's session; traces exactly one call.

        ``payload_digest`` is ``short_digest`` of the payload, when the
        caller has it; else the payload is hashed here.
        """
        self.acquire_session(resource, credential)
        if self._take_failure("transport"):
            self.trace.emit("transport_failed", resource=resource,
                            credential=credential, verb=verb)
            raise TransportError(f"{verb} to {resource!r} failed in transit")
        self.clock.consume(self.rtt_s)
        backend = self._backends[resource]
        output = backend.execute(payload)
        self._sessions[(resource, credential)] = self.clock.now
        if payload_digest is None:
            payload_digest = short_digest(payload.encode())
        self.trace.emit("transport_call", resource=resource, credential=credential,
                        verb=verb, payload_digest=payload_digest)
        return output

    def repeater(self, calls) -> Callable[[Sequence[float]], int] | None:
        """A function that repeats each of ``calls``, (resource, credential,
        verb, payload digest) tuples, at each of a run of later grid points,
        and returns how many times it did. It stops before a time at which a session
        would have idled past the TTL, where a call would handshake first.
        None when a transport failure is armed or a pair is in handshake
        backoff.

        Only the first point is checked against the sessions' last use:
        from the second on, the gap to the last use is the one between two
        grid points, the interval within rounding. So all the points are
        taken, or only the first, by comparing one gap with the TTL. With u
        the ulp of the stretch's last point, each point is within u of its
        cell's exact multiple of the interval, so each computed gap is
        within 2.5 u of the interval and within 5 u of any other gap. Only a
        gap within 8 u of the TTL is walked point by point; otherwise no
        float of the stretch is made.
        """
        if self._fail_next["transport"]:
            return None
        pairs = [(resource, credential) for resource, credential, _, _ in calls]
        if any(pair in self._unhealthy for pair in pairs):
            return None
        events = [{"resource": resource, "credential": credential, "verb": verb,
                   "payload_digest": digest}
                  for resource, credential, verb, digest in calls]
        sessions, ttl, trace = self._sessions, self.idle_ttl_s, self.trace

        def repeat(times: Sequence[float]) -> int:
            # the stalest session lapses first; later, all were used at the point before
            made = len(times)
            if not made or (first := times[0]) - min(
                    map(sessions.__getitem__, pairs), default=math.inf) > ttl:
                return 0
            if made > 1:
                gap = times[1] - first
                if abs(gap - ttl) <= 8 * math.ulp(times[-1]):
                    made, last = 1, first
                    for now in itertools.islice(times, 1, None):
                        if now - last > ttl:
                            break
                        made, last = made + 1, now
                elif gap > ttl:
                    made = 1
            sessions.update(dict.fromkeys(pairs, times[made - 1]))
            trace.emit_each(times[:made], "transport_call", events)
            return made
        return repeat

    # -- log ----------------------------------------------------------------

    def log_text(self) -> str:
        """The transport log, rendered from the trace's ``transport_call`` events."""
        return "".join(f"{r['t']:.3f} | {r['resource']} | {r['credential']} | "
                       f"{r['verb']} | {r['payload_digest']}\n"
                       for r in self.trace.records("transport_call"))
