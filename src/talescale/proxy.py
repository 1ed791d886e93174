"""Proxy registry: public paths for frontends behind closed networks.

Compute nodes usually refuse incoming connections, but a frontend is only
useful if its UI is reachable, so the deployment cluster forwards traffic
for it. Routes map ``/tales/<tale_id>/`` to an internal endpoint; bytes
pass through unmodified in both directions and every exchange is traced.
Resources may set ``no_proxy`` to refuse even proxied access, which is
surfaced as a distinct policy error rather than a lookup failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .digest import short_digest
from .errors import DuplicateError, ProxyPolicyError, RouteNotFoundError, ValidationError
from .resources import ResourceDescriptor


@dataclass(frozen=True)
class Endpoint:
    resource: str
    node: str
    port: int


@dataclass(frozen=True)
class Route:
    public_path: str
    tale_id: str
    endpoint: Endpoint


class SimulatedNetwork:
    """In-process stand-in for the data path between cluster and nodes."""

    def __init__(self):
        self._handlers: dict[Endpoint, Callable[[bytes], bytes]] = {}

    def listen(self, endpoint: Endpoint, handler: Callable[[bytes], bytes]) -> None:
        self._handlers[endpoint] = handler

    def close(self, endpoint: Endpoint) -> None:
        self._handlers.pop(endpoint, None)

    def deliver(self, endpoint: Endpoint, request: bytes) -> bytes:
        handler = self._handlers.get(endpoint)
        if handler is None:
            raise RouteNotFoundError(f"nothing listening at {endpoint}")
        return handler(request)


class ProxyRegistry:
    def __init__(self, network: SimulatedNetwork, resources: dict[str, ResourceDescriptor],
                 trace):
        self.network = network
        self.resources = resources
        self.trace = trace
        self._routes: dict[str, Route] = {}  # tale_id -> route

    def register_endpoint(self, tale_id: str, endpoint: Endpoint) -> Route:
        """Publish ``/tales/<tale_id>/``; the id is one nonempty path segment."""
        if not isinstance(tale_id, str) or not tale_id or "/" in tale_id:
            raise ValidationError(f"tale id must be a nonempty string without '/', "
                                  f"got {tale_id!r:.200}")
        if tale_id in self._routes:
            raise DuplicateError(f"tale {tale_id!r} already has a route")
        route = Route(
            public_path=f"/tales/{tale_id}/",
            tale_id=tale_id,
            endpoint=endpoint,
        )
        self._routes[tale_id] = route
        self.trace.emit("route_registered", tale_id=tale_id,
                        public_path=route.public_path, resource=endpoint.resource)
        return route

    def deregister(self, tale_id: str) -> None:
        """Idempotent; re-registration is allowed afterwards."""
        removed = self._routes.pop(tale_id, None)
        if removed is not None:
            self.trace.emit("route_deregistered", tale_id=tale_id)

    def lookup(self, public_path: str) -> Route:
        parts = public_path.split("/")
        if len(parts) < 3 or parts[0] != "" or parts[1] != "tales":
            raise RouteNotFoundError(f"no route for {public_path!r}")
        route = self._routes.get(parts[2])
        if route is None:
            raise RouteNotFoundError(f"no route for {public_path!r}")
        return route

    def route(self, public_path: str, request: bytes) -> bytes:
        """Forward request bytes, return response bytes, both unmodified."""
        found = self.lookup(public_path)
        resource = self.resources.get(found.endpoint.resource)
        if resource is not None and resource.no_proxy:
            raise ProxyPolicyError(
                f"resource {resource.name!r} forbids proxied access (no_proxy policy)"
            )
        response = self.network.deliver(found.endpoint, request)
        self.trace.emit(
            "proxy_forward",
            public_path=public_path,
            tale_id=found.tale_id,
            resource=found.endpoint.resource,
            node=found.endpoint.node,
            port=found.endpoint.port,
            request_bytes=len(request),
            response_bytes=len(response),
            request_digest=short_digest(request),
            response_digest=short_digest(response),
        )
        return response
