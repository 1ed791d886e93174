import pytest
from hypothesis import given, strategies as st

from talescale.clock import SimClock
from talescale.errors import DuplicateError, ProxyPolicyError, RouteNotFoundError, ValidationError
from talescale.proxy import Endpoint, ProxyRegistry, SimulatedNetwork
from talescale.trace import TraceLog

from conftest import make_resource, talescale_calls, wt_resource


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
    # /tales/a/b/ would be published, but route reads only the segment "a".
    network, registry = make_proxy()
    with pytest.raises(ValidationError, match="tale id"):
        registry.register_endpoint(tale_id, Endpoint("hpc-1", "n3", 8888))
    assert registry.trace.count("route_registered") == 0
    with pytest.raises(RouteNotFoundError):
        registry.route(f"/tales/{tale_id}/", b"x")


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
    route = registry.register_endpoint("t1", Endpoint("hpc-1", "n5", 9999))
    network.listen(route.endpoint, lambda b: b)
    registry.route("/tales/t1/", b"x")
    assert registry.trace.records("proxy_forward")[-1]["node"] == "n5"


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
    for k in (1, 2, 3):
        network.listen(Endpoint("hpc-1", f"n{k}", k), lambda b: b)
    registry.register_endpoint("t1", Endpoint("hpc-1", "n1", 1))
    registry.register_endpoint("t2", Endpoint("hpc-1", "n2", 2))
    registry.deregister("t1")
    registry.register_endpoint("t3", Endpoint("hpc-1", "n3", 3))
    with pytest.raises(RouteNotFoundError):
        registry.route("/tales/t1/", b"x")

    def forwarded(path):  # the trace record of one request to ``path``
        registry.route(path, b"x")
        return registry.trace.records("proxy_forward")[-1]

    routes = {tale_id: forwarded(f"/tales/{tale_id}/") for tale_id in ("t2", "t3")}
    paths = {r["public_path"] for r in routes.values()}
    assert len(paths) == len(routes)
    for tale_id, route in routes.items():
        assert forwarded(route["public_path"])["tale_id"] == tale_id


# Each refusal keeps the error type and message it had when routes were
# found by splitting the path.
@pytest.mark.parametrize("path", ["/tales/ghost/", "/tale/x", "tales/x", "/tales/", "/tales", "",
                                  "/tales//t1/"])
def test_a_path_naming_no_live_route_is_not_found(path):
    network, registry = make_proxy()
    route = registry.register_endpoint("t1", Endpoint("hpc-1", "n3", 8888))
    network.listen(route.endpoint, lambda b: b)
    with pytest.raises(RouteNotFoundError) as raised:
        registry.route(path, b"x")
    assert str(raised.value) == f"no route for {path!r}"
    assert registry.trace.count("proxy_forward") == 0


def test_a_closed_listener_is_not_found():
    network, registry = make_proxy()
    route = registry.register_endpoint("t1", Endpoint("hpc-1", "n3", 8888))
    network.listen(route.endpoint, lambda b: b)
    network.close(Endpoint("hpc-1", "n3", 8888))
    with pytest.raises(RouteNotFoundError) as raised:
        registry.route("/tales/t1/lab", b"x")
    assert str(raised.value) == "nothing listening at Endpoint(resource='hpc-1', node='n3', port=8888)"
    assert registry.trace.count("proxy_forward") == 0


def test_a_no_proxy_resource_registers_but_refuses_each_request():
    network, registry = make_proxy(no_proxy=True)
    route = registry.register_endpoint("t1", Endpoint("hpc-1", "n3", 8888))
    assert registry.trace.records("route_registered")[-1]["resource"] == "hpc-1"
    network.listen(route.endpoint, lambda b: b)
    for path in ("/tales/t1/", "/tales/t1/api/0"):
        with pytest.raises(ProxyPolicyError) as raised:
            registry.route(path, b"x")
        assert str(raised.value) == "resource 'hpc-1' forbids proxied access (no_proxy policy)"
    assert registry.trace.count("proxy_forward") == 0
    # the policy is the endpoint's resource's: another resource's route forwards
    network.listen(Endpoint("wt-1", "n0", 80), lambda b: b)
    registry.register_endpoint("t2", Endpoint("wt-1", "n0", 80))
    assert registry.route("/tales/t2/", b"x") == b"x"


def test_equal_endpoints_reach_one_handler():
    network, registry = make_proxy()
    network.listen(Endpoint("hpc-1", "n3", 8888), lambda b: b"n3:" + b)
    route = registry.register_endpoint("t1", Endpoint(resource="hpc-1", node="n3", port=8888))
    assert route.endpoint == Endpoint("hpc-1", "n3", 8888)
    assert hash(route.endpoint) == hash(Endpoint("hpc-1", "n3", 8888))
    assert repr(route.endpoint) == "Endpoint(resource='hpc-1', node='n3', port=8888)"
    assert registry.route("/tales/t1/", b"x") == b"n3:x"
    assert route.endpoint != Endpoint("hpc-1", "n3", 8889)


def test_a_request_costs_one_route_call_and_its_record():
    # The route is found with one lookup and carries its policy, so a
    # request calls no lookup helper and hashes its endpoint in C: route,
    # the delivery, one record (which reads the clock) and two digests.
    network, registry = make_proxy()
    route = registry.register_endpoint("t1", Endpoint("hpc-1", "n3", 8888))
    network.listen(route.endpoint, lambda b: b)
    calls = talescale_calls(registry.route, "/tales/t1/api/0", b"GET /api/0")
    assert calls == {"ProxyRegistry.route": 1, "SimulatedNetwork.deliver": 1,
                     "TraceLog.emit": 1, "SimClock.now": 1, "short_digest": 2}
