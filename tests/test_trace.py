"""The trace's record store and its declared kinds."""

import enum
import hashlib
import json
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from talescale.dms import StagingAction, StagingKind, TransferSource
from talescale.measure import launch_frontend
from talescale.middleware import JobSpec, JobState
from talescale.planner import ExecutionModel, WorkloadRequirements
from talescale.proxy import Endpoint
from talescale import trace as trace_module
from talescale.trace import KINDS, TraceLog
from talescale.world import World, load_config, run_scenario

from conftest import batch_world
from test_acceptance import CRITERION_11_CONFIG
from test_sim import GOLDEN_TRACES, POOLED_SOAK

SRC = Path(__file__).resolve().parent.parent / "src" / "talescale"

GOLDEN = {"criterion_11": (CRITERION_11_CONFIG, 42, 2000.0),
          "pooled_soak": (POOLED_SOAK, 7, 30_000.0)}


def _golden_world(name):
    config, seed, horizon = GOLDEN[name]
    world = World(load_config(config), seed)
    world.run(horizon)
    return world


# -- one seeded world per emitting layer ---------------------------------------


def _batch_layers():
    """transport, cluster, middleware: a failed handshake, a failed poll,
    failing and canceled jobs on a PBS and a Slurm resource."""
    hpc = {"kind": "hpc_cluster", "lrm": "batch", "allows_incoming_connections": False,
           "node_count": 8, "queue": "q"}
    world = batch_world(queue={"distribution": "exponential", "params": {"mean": 30.0}},
                        resources=[{**hpc, "name": "hpc-1", "dialect": "sim-pbs"},
                                   {**hpc, "name": "hpc-2", "dialect": "sim-slurm"}],
                        seed=3)
    world.transport.inject_failure("handshake")
    world.middleware.submit(JobSpec(resource="hpc-1", command=("sleep", "5")))
    handles = [world.middleware.submit(JobSpec(resource=name, command=command))
               for name in ("hpc-2", "hpc-2")
               for command in (("sleep", "20"), ("fail", "5", "2"))]
    world.clock.at(12.0, world.transport.inject_failure)
    world.clock.run_until(6.0)
    world.middleware.cancel(handles[0])
    world.clock.run_until(300.0)
    return world


def _pilot_layer():
    """pilots: a pilot whose submission fails, then the pool's full cycle."""
    world = World(load_config(POOLED_SOAK), 5)
    world.transport.inject_failure()
    world.run(3000.0)
    return world


def _data_layers():
    """dms, world and proxy: hits, evictions, a corrupted arrival, a mount, a
    local stage-in and proxied requests."""
    datasets = [{"uri": f"doi:d{i}", "size_bytes": 400, "checksum": "sha256:" + "0" * 64}
                for i in range(4)]
    world = World(load_config({
        "resources": [
            {"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
             "allows_incoming_connections": True},
            {"name": "node-1", "kind": "hpc_cluster", "lrm": "none",
             "allows_incoming_connections": False, "local_datasets": ["doi:d0"]},
            {"name": "node-2", "kind": "hpc_cluster", "lrm": "none",
             "allows_incoming_connections": False, "local_datasets": ["doi:d1"],
             "dataset_interface": "non_posix"},
        ],
        "cache": {"capacity_bytes": 1000, "bandwidth_bytes_per_s": 100.0,
                  "datasets": datasets},
    }), 9)
    world.start()
    cache = world.cache
    cache.inject_corruption("doi:d3")
    for uri in ("doi:d2", "doi:d2", "doi:d3", "doi:d3", "doi:d0", "doi:d1", "doi:d2"):
        world.clock.advance(1.0)
        cache.open_nowait(world.catalog.get(uri))
        world.clock.advance(10.0)
    world.apply_staging(SimpleNamespace(staging_actions=(
        StagingAction("doi:d0", StagingKind.MOUNT, "node-1"),
        StagingAction("doi:d1", StagingKind.STAGE_IN, "node-2"))))
    endpoint = Endpoint("node-1", "n0", 8888)
    world.network.listen(endpoint, lambda request: request[::-1])
    world.proxy.register_endpoint("tale-1", endpoint)
    world.proxy.route("/tales/tale-1/api", b"GET /")
    world.proxy.deregister("tale-1")
    return world


def _measure_layer():
    """measure: a frontend launch."""
    world = World(load_config({"resources": [{
        "name": "wt-1", "kind": "wt_cluster", "lrm": "none",
        "allows_incoming_connections": True}]}), 1)
    world.start()
    launch_frontend(world, ExecutionModel.M1_WT_CLUSTER, "wt-1", WorkloadRequirements())
    return world


LAYER_WORLDS = {"batch": _batch_layers, "pilots": _pilot_layer, "data": _data_layers,
                "measure": _measure_layer}


class TestDeclaredKinds:
    def test_every_emitted_literal_is_declared(self):
        emitted = set()
        for path in sorted(SRC.glob("*.py")):
            text = path.read_text()
            literals = re.findall(r"\.emit\(\s*\"(\w+)\"", text)
            assert len(literals) == text.count(".emit("), f"{path.name}: emit without a literal kind"
            emitted.update(literals)
        assert emitted == set(KINDS)

    def test_declared_fields_never_shadow_the_header(self):
        for kind, spec in KINDS.items():
            assert spec.shapes, kind
            for shape in spec.shapes:
                assert len(set(shape)) == len(shape)
                assert not {"t", "seq", "kind"} & set(shape), kind

    def test_events_carry_exactly_their_declared_atomic_fields(self):
        seen = set()
        worlds = [_golden_world(name) for name in GOLDEN]
        worlds += [build() for build in LAYER_WORLDS.values()]
        for world in worlds:
            for ev in world.trace:
                shapes = [set(shape) for shape in KINDS[ev.kind].shapes]
                assert set(ev.fields) in shapes, (ev.kind, sorted(ev.fields))
                for name, value in ev.fields.items():
                    assert type(value) in (str, int, float, bool, type(None)), (ev.kind, name)
                seen.add(ev.kind)
        assert seen == set(KINDS)


# -- the record store -------------------------------------------------------------


class _Clock:
    now = 0.0


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Seconds(float):
    pass


# The text of a line's header, which a template must not cut on.
_HEADER_TEXT = '"seq":1,"t":2'
# Atoms of exact types, NaN and the infinities among the floats, and atoms
# of str, int and float subclasses, which the encoder writes.
_ATOM = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.floats(), st.just(-0.0),
    st.text(), st.text(alphabet=st.characters(max_codepoint=0x1f)),
    st.sampled_from([_HEADER_TEXT, f'","{_HEADER_TEXT},"', "{" + _HEADER_TEXT + "}"]),
    st.sampled_from(JobState), st.sampled_from(_Level), st.floats().map(_Seconds),
)
# Containers too, whose dict keys are drawn in no particular order.
_VALUE = st.one_of(_ATOM, st.lists(_ATOM, max_size=3),
                   st.dictionaries(st.sampled_from(["b", "a", "c", "t"]), _ATOM, max_size=3))
# Keys on both sides of "kind", "seq" and "t", some between "seq" and "t".
_KEY = st.one_of(st.text(max_size=6),
                 st.sampled_from(["slot", "source", "state", "seq0", "sz", "s", "t0", "u", "a"]))
_FIELDS = st.dictionaries(_KEY.filter(lambda k: k not in ("t", "seq", "kind")), _VALUE, max_size=5)
# Equal times whose text differs (0.0 and -0.0, 5 and 5.0) come up side by side.
_TIME = st.one_of(st.floats(min_value=0.0, max_value=1e9), st.integers(min_value=0, max_value=10 ** 9),
                  st.sampled_from([0.0, -0.0, 5, 5.0]))
_KIND = st.one_of(st.sampled_from(["a", "b", "transport_call"]), st.text(max_size=4))


def _reordered(fields):
    """The fields dict and the same keys in another insertion order."""
    return st.permutations(list(fields.items())).map(lambda items: [fields, dict(items)])


# Each step is a plain emit, (t, kind, fields), or an emit_each,
# (times, kind, fields list): runs of 0, 1 and many times, of 0, 1 and
# several fields dicts. One key set is sometimes emitted in two orders.
_STEPS = st.lists(st.one_of(
    st.tuples(_TIME, _KIND, _FIELDS).map(lambda step: [step]),
    st.tuples(st.lists(_TIME, max_size=6), _KIND, st.lists(_FIELDS, max_size=3)).map(
        lambda step: [step]),
    st.tuples(_TIME, _KIND, _FIELDS.flatmap(_reordered)).map(
        lambda step: [(step[0], step[1], fields) for fields in step[2]]),
), max_size=20).map(lambda groups: [step for group in groups for step in group])


@settings(max_examples=400, deadline=None)
@given(_STEPS)
@example([
    (0.0, "a", {"x": float("nan"), "s": JobState.RUNNING, "n": _Level.HIGH, "f": _Seconds(0.5)}),
    (-0.0, "a", {"f": _Seconds(0.5), "n": _Level.HIGH, "s": JobState.RUNNING, "x": float("nan")}),
    (5, "b", {"v": [2, {"b": 1, "a": None}], "d": {"t": 0, "c": True, "a": -0.0}}),
    (5.0, "b", {"inf": float("-inf"), "bool": False}),
    ([0.0, -0.0, 5, 5.0, float("nan")], "c", [{"x": float("inf")}, {"d": {"b": 1, "a": 0}}]),
])
def test_record_store_matches_a_per_line_reference(steps):
    clock = _Clock()
    log = TraceLog(clock)
    expected = []  # (t, kind, fields) per record, in emit order
    storing = []  # the kind of each call that stored records
    for when, kind, fields in steps:
        if isinstance(fields, dict):
            clock.now = when
            assert log.emit(kind, **fields) is None
            expected.append((when, kind, fields))
            storing.append(kind)
        else:
            before = repr(fields)
            assert log.emit_each(when, kind, fields) is None
            assert repr(fields) == before  # a run's fields are the caller's, unchanged
            expected += [(t, kind, one) for t in when for one in fields]
            storing += [kind] * bool(when and fields)
    # one entry per storing call, however many records it made
    assert len(log._records) == len(storing)
    assert {kind: len(entries) for kind, entries in log._by_kind.items()} == Counter(storing)

    reference = [json.dumps({"t": t, "seq": seq, "kind": kind, **fields},
                            sort_keys=True, separators=(",", ":"))
                 for seq, (t, kind, fields) in enumerate(expected)]
    assert log.to_ndjson() == ("\n".join(reference) + "\n" if reference else "").encode("utf-8")

    views = list(log)
    assert repr([(ev.t, ev.seq, ev.kind, ev.fields) for ev in views]) == repr(
        [(t, seq, kind, fields) for seq, (t, kind, fields) in enumerate(expected)])
    assert len(log) == len(expected)
    for kind in {kind for _, kind, _ in steps} | {"never_emitted"}:
        mine = [ev for ev in views if ev.kind == kind]
        assert log.count(kind) == len(mine)
        assert log.records(kind) == [{"t": ev.t, "seq": ev.seq, "kind": ev.kind, **ev.fields}
                                     for ev in mine]
        tallied = [repr({k: v for k, v in fields.items() if k not in ("t", "seq", "kind")})
                   for fields, times in log.tally(kind) for _ in range(times)]
        assert sorted(tallied) == sorted(repr(ev.fields) for ev in mine)


# -- readers read by kind -----------------------------------------------------------


# Each golden scenario's metrics, transport log and transfer log, as the
# whole-trace readers gave them.
READER_RESULTS = {
    "criterion_11": (
        "78200e27ddb286308a7641aa81ed6e51bbdfdb26011a2935fd28b7504dab9350",
        424, "415f86b00036cb477bbd19c94d02f90794ee479a218c1cb4c731e0188f113473",
        [("doi:d", TransferSource.REMOTE_REPO, 500)]),
    "pooled_soak": (
        "2ddd5038777088835968a96c46bfd9c6e6ffbf2bc7b41aa8cdbf468846bed754",
        6120, "792ac19e8ffb62e840cfc73a77236268f873221a1539532814d1a09e0231539a", []),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_readers_never_iterate_the_trace(name, monkeypatch):
    def no_scan(self):
        raise AssertionError("a reader scanned the whole trace")

    monkeypatch.setattr(TraceLog, "__iter__", no_scan)
    world = _golden_world(name)
    metrics_sha, calls, log_sha, transfers = READER_RESULTS[name]
    metrics = json.dumps(world.metrics().to_dict(), sort_keys=True)
    assert hashlib.sha256(metrics.encode()).hexdigest() == metrics_sha
    log = world.transport.log_text()
    assert len(log.splitlines()) == calls
    assert hashlib.sha256(log.encode()).hexdigest() == log_sha
    assert [(r.uri, r.source, r.bytes) for r in world.cache.transfer_log] == transfers


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_metrics_never_expand_a_run(name, monkeypatch):
    def no_expansion(self):
        raise AssertionError("a run of repeated polls was expanded")

    monkeypatch.setattr(trace_module._Run, "expand", no_expansion)
    world = _golden_world(name)
    assert any(isinstance(entry, trace_module._Run) for entry in world.trace._records)
    metrics = json.dumps(world.metrics().to_dict(), sort_keys=True)
    assert hashlib.sha256(metrics.encode()).hexdigest() == READER_RESULTS[name][0]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_traces_never_take_the_encoder_fallback(name, monkeypatch):
    def no_encoder(value):
        raise AssertionError("a golden trace value fell back to the encoder")

    monkeypatch.setattr(trace_module, "_encode", no_encoder)
    config, seed, horizon, size, sha256 = GOLDEN_TRACES[name]
    trace_bytes, _ = run_scenario(load_config(config), seed, horizon)
    assert len(trace_bytes) == size
    assert hashlib.sha256(trace_bytes).hexdigest() == sha256
