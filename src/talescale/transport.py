"""Transport layer: sessions, calls, and the transport log.

Secure-connection setup is expensive, so operations aggregate under
sessions that stay alive between calls: at most one live session per
(resource, credential) pair, re-handshaking only after the idle TTL
lapses. Every handshake and every completed call is a trace event, and
the trace is the only record kept of them: ``log_text`` renders the
``transport_call`` events as the transport log, one line per call::

    time | resource | credential | verb | payload-digest

Synchronous costs (handshake, round trip) advance the clock when called
from driver context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .digest import short_digest
from .errors import SessionError, TransportError, UnknownCredentialError, UnknownResourceError


@dataclass
class Session:
    resource: str
    credential: str
    last_used: float = 0.0


class Transport:
    def __init__(self, clock, trace, rtt_s: float = 0.05, handshake_s: float = 0.5,
                 idle_ttl_s: float | None = 300.0, handshake_backoff_s: float = 30.0):
        self.clock = clock
        self.trace = trace
        self.rtt_s = rtt_s
        self.handshake_s = handshake_s
        self.idle_ttl_s = math.inf if idle_ttl_s is None else idle_ttl_s
        self.handshake_backoff_s = handshake_backoff_s
        self._backends: dict[str, object] = {}
        self._credentials: set[str] = set()
        self._sessions: dict[tuple[str, str], Session] = {}
        self._unhealthy: dict[tuple[str, str], float] = {}
        # pending injected failures per kind; each kind fires on its own next
        # opportunity, so a waiting handshake failure never blocks a transport one
        self._fail_next = {"transport": 0, "handshake": 0}
        # (resource, verb) -> (payload, short digest) of the last call
        self._digests: dict[tuple[str, str], tuple[str, str]] = {}

    # -- registry ---------------------------------------------------------

    def register_backend(self, resource_name: str, backend) -> None:
        self._backends[resource_name] = backend

    def register_credential(self, name: str) -> None:
        self._credentials.add(name)

    # -- fault injection ----------------------------------------------------

    def inject_failure(self, kind: str = "transport", count: int = 1) -> None:
        if kind not in self._fail_next:
            raise ValueError(f"unknown failure kind {kind!r}")
        if count < 0:
            raise ValueError("failure count must be >= 0")
        self._fail_next[kind] += count

    def _take_failure(self, kind: str) -> bool:
        if self._fail_next[kind]:
            self._fail_next[kind] -= 1
            return True
        return False

    # -- sessions ---------------------------------------------------------

    def acquire_session(self, resource: str, credential: str) -> Session:
        """Return the live session for the pair, handshaking only if needed."""
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

        session = self._sessions.get(pair)
        if session is not None and self._live(session):
            session.last_used = self.clock.now
            return session

        if self._take_failure("handshake"):
            self._unhealthy[pair] = self.clock.now + self.handshake_backoff_s
            self.trace.emit("handshake_failed", resource=resource, credential=credential)
            raise SessionError(f"handshake with {pair} failed")

        self.clock.consume(self.handshake_s)
        session = Session(resource=resource, credential=credential, last_used=self.clock.now)
        self._sessions[pair] = session
        self.trace.emit("handshake", resource=resource, credential=credential)
        return session

    def _live(self, session: Session) -> bool:
        """A session is live until it has idled longer than the TTL."""
        return self.clock.now - session.last_used <= self.idle_ttl_s

    def live_sessions(self) -> int:
        return sum(1 for s in self._sessions.values() if self._live(s))

    @property
    def handshake_count(self) -> int:
        """Handshakes so far, as counted by the trace."""
        return self.trace.count("handshake")

    # -- calls --------------------------------------------------------------

    def call(self, resource: str, credential: str, verb: str, payload: str) -> str:
        """One round trip over the pair's session; traces exactly one call.

        The payload digest of the last call per (resource, verb) is kept
        with its payload and reused while the payload stays equal, so a
        status query repeated cycle after cycle is hashed once.
        """
        session = self.acquire_session(resource, credential)
        if self._take_failure("transport"):
            self.trace.emit("transport_failed", resource=resource,
                            credential=credential, verb=verb)
            raise TransportError(f"{verb} to {resource!r} failed in transit")
        self.clock.consume(self.rtt_s)
        backend = self._backends[resource]
        output = backend.execute(payload)
        session.last_used = self.clock.now
        key = (resource, verb)
        last = self._digests.get(key)
        if last is None or last[0] != payload:
            last = self._digests[key] = (payload, short_digest(payload.encode()))
        self.trace.emit("transport_call", resource=resource, credential=credential,
                        verb=verb, payload_digest=last[1])
        return output

    # -- log ----------------------------------------------------------------

    def log_text(self) -> str:
        """The transport log, rendered from the trace's ``transport_call`` events."""
        return "".join(f"{r['t']:.3f} | {r['resource']} | {r['credential']} | "
                       f"{r['verb']} | {r['payload_digest']}\n"
                       for r in self.trace.records("transport_call"))
