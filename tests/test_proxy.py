import pytest
from hypothesis import given, strategies as st

from talescale.clock import SimClock
from talescale.errors import DuplicateError, ProxyPolicyError, RouteNotFoundError, ValidationError
from talescale.proxy import Endpoint, ProxyRegistry, SimulatedNetwork
from talescale.trace import TraceLog

from conftest import make_resource, wt_resource


def make_proxy(no_proxy=False):
    clock = SimClock()
    network = SimulatedNetwork()
    resources = {
        "wt-1": wt_resource(),
        "hpc-1": make_resource(no_proxy=no_proxy),
    }
    registry = ProxyRegistry(network, resources, TraceLog(clock))
    return network, registry


def test_register_generates_path_scheme():
    network, registry = make_proxy()
    route = registry.register_endpoint("t1", Endpoint("hpc-1", "n3", 8888))
    assert route.public_path == "/tales/t1/"


@pytest.mark.parametrize("tale_id", ["", "a/b", "/", "a/", "/a"])
def test_tale_id_must_be_one_path_segment(tale_id):
    # /tales/a/b/ would be published, but lookup reads only the segment "a".
    network, registry = make_proxy()
    with pytest.raises(ValidationError, match="tale id"):
        registry.register_endpoint(tale_id, Endpoint("hpc-1", "n3", 8888))
    assert registry.trace.count("route_registered") == 0
    with pytest.raises(RouteNotFoundError):
        registry.lookup(f"/tales/{tale_id}/")


def test_duplicate_registration_rejected():
    network, registry = make_proxy()
    registry.register_endpoint("t1", Endpoint("hpc-1", "n3", 8888))
    with pytest.raises(DuplicateError):
        registry.register_endpoint("t1", Endpoint("hpc-1", "n4", 8888))


def test_register_deregister_register_cycle():
    network, registry = make_proxy()
    registry.register_endpoint("t1", Endpoint("hpc-1", "n3", 8888))
    registry.deregister("t1")
    registry.deregister("t1")  # idempotent no-op
    registry.register_endpoint("t1", Endpoint("hpc-1", "n5", 9999))
    assert registry.lookup("/tales/t1/").endpoint.node == "n5"


def test_deregistered_route_is_not_found():
    network, registry = make_proxy()
    route = registry.register_endpoint("t1", Endpoint("hpc-1", "n3", 8888))
    network.listen(route.endpoint, lambda b: b)
    registry.deregister("t1")
    with pytest.raises(RouteNotFoundError):
        registry.route("/tales/t1/", b"x")


def test_unknown_path_not_found():
    network, registry = make_proxy()
    with pytest.raises(RouteNotFoundError):
        registry.route("/tales/ghost/", b"x")
    with pytest.raises(RouteNotFoundError):
        registry.route("/not-tales/x/", b"x")


def test_no_proxy_policy_error_is_distinct():
    network, registry = make_proxy(no_proxy=True)
    route = registry.register_endpoint("t1", Endpoint("hpc-1", "n3", 8888))
    network.listen(route.endpoint, lambda b: b)
    with pytest.raises(ProxyPolicyError):
        registry.route("/tales/t1/", b"x")


@given(st.binary(max_size=512))
def test_echo_pass_through_fidelity(payload):
    network, registry = make_proxy()
    route = registry.register_endpoint("t1", Endpoint("hpc-1", "n3", 8888))
    network.listen(route.endpoint, lambda b: b)
    assert registry.route("/tales/t1/lab?token=x", payload) == payload


def test_forwarding_log_one_record_per_exchange():
    network, registry = make_proxy()
    route = registry.register_endpoint("t1", Endpoint("hpc-1", "n3", 8888))
    network.listen(route.endpoint, lambda b: b + b"!")
    registry.route("/tales/t1/", b"hello")
    forwards = [ev for ev in registry.trace if ev.kind == "proxy_forward"]
    assert len(forwards) == 1
    record = forwards[0].fields
    assert record["request_bytes"] == 5
    assert record["response_bytes"] == 6


def test_route_bijection_over_live_routes():
    network, registry = make_proxy()
    registry.register_endpoint("t1", Endpoint("hpc-1", "n1", 1))
    registry.register_endpoint("t2", Endpoint("hpc-1", "n2", 2))
    registry.deregister("t1")
    registry.register_endpoint("t3", Endpoint("hpc-1", "n3", 3))
    with pytest.raises(RouteNotFoundError):
        registry.lookup("/tales/t1/")
    routes = {tale_id: registry.lookup(f"/tales/{tale_id}/") for tale_id in ("t2", "t3")}
    paths = {r.public_path for r in routes.values()}
    assert len(paths) == len(routes)
    for tale_id, route in routes.items():
        assert registry.lookup(route.public_path).tale_id == tale_id
