"""Proxy registry: public paths for frontends behind closed networks.

Compute nodes usually refuse incoming connections, but a frontend is only
useful if its UI is reachable, so the deployment cluster forwards traffic
for it. Routes map ``/tales/<tale_id>/`` to an internal endpoint; bytes
pass through unmodified in both directions and every exchange is traced.
Resources may set ``no_proxy`` to refuse even proxied access, which is
surfaced as a distinct policy error rather than a lookup failure.

A route's policy is fixed when it is registered: the route keeps the
endpoint and its resource's ``no_proxy`` flag, read from the config's
resource map, which nothing changes. So forwarding one request costs one
route lookup on the tale id, the delivery, two digests and one record.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .digest import short_digest
from .errors import DuplicateError, ProxyPolicyError, RouteNotFoundError, ValidationError
from .resources import ResourceDescriptor

_PREFIX = "/tales/"


class Endpoint(NamedTuple):
    resource: str
    node: str
    port: int


class Route(NamedTuple):
    public_path: str
    tale_id: str
    endpoint: Endpoint
    no_proxy: bool  # the endpoint's resource forbids proxied access


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
        resource = self.resources.get(endpoint.resource)
        route = Route(public_path=f"{_PREFIX}{tale_id}/", tale_id=tale_id, endpoint=endpoint,
                      no_proxy=resource is not None and resource.no_proxy)
        self._routes[tale_id] = route
        self.trace.emit("route_registered", tale_id=tale_id,
                        public_path=route.public_path, resource=endpoint.resource)
        return route

    def deregister(self, tale_id: str) -> None:
        """Idempotent; re-registration is allowed afterwards."""
        removed = self._routes.pop(tale_id, None)
        if removed is not None:
            self.trace.emit("route_deregistered", tale_id=tale_id)

    def route(self, public_path: str, request: bytes) -> bytes:
        """Forward request bytes, return response bytes, both unmodified.

        The path's first segment after ``/tales/`` is the tale id.
        """
        head, _, rest = public_path.partition(_PREFIX)
        found = None if head else self._routes.get(rest.partition("/")[0])
        if found is None:
            raise RouteNotFoundError(f"no route for {public_path!r}")
        _, tale_id, endpoint, no_proxy = found
        if no_proxy:
            raise ProxyPolicyError(
                f"resource {endpoint.resource!r} forbids proxied access (no_proxy policy)"
            )
        response = self.network.deliver(endpoint, request)
        resource, node, port = endpoint
        self.trace.emit(
            "proxy_forward",
            public_path=public_path,
            tale_id=tale_id,
            resource=resource,
            node=node,
            port=port,
            request_bytes=len(request),
            response_bytes=len(response),
            request_digest=short_digest(request),
            response_digest=short_digest(response),
        )
        return response
