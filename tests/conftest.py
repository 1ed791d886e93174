import sys
from collections import Counter

import pytest

from talescale.digest import digest_bytes

# Per-criterion acceptance lines, echoed after the run by the summary hook.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
from talescale.dms import ExternalDataRef
from talescale.resources import ResourceDescriptor
from talescale.tale import ArtifactKind, CodeArtifact, EnvironmentSpec, create_tale
from talescale.world import World, load_config


def make_resource(name="hpc-1", kind="hpc_cluster", lrm="batch", incoming=False,
                  mpi=False, compile_=False, nodes=4, datasets=(), posix=True,
                  no_proxy=False, queue=None, dialect=None):
    return ResourceDescriptor(
        name=name, kind=kind, lrm=lrm, allows_incoming_connections=incoming,
        mpi_capable=mpi, can_compile=compile_, node_count=nodes,
        local_datasets=frozenset(datasets),
        dataset_interface="posix" if posix else "non_posix",
        no_proxy=no_proxy, queue_model=queue, dialect=dialect,
    )


def talescale_calls(fn, *args) -> Counter:
    """Run ``fn(*args)`` and count the calls into each ``talescale`` function
    it makes, by qualified name, itself included."""
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("talescale."):
            calls[frame.f_code.co_qualname] += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def frontend_times(rows, model):
    """Report rows' times to frontend for one model, in row order."""
    return [row.time_to_frontend_s for row in rows if row.model == model]


def wt_resource(name="wt-1", nodes=4):
    return make_resource(name=name, kind="wt_cluster", lrm="none", incoming=True, nodes=nodes)


def data_ref(uri="doi:10.5000/d1", size=1000, payload=b"d1"):
    return ExternalDataRef(uri=uri, size_bytes=size, checksum=digest_bytes(payload))


def simple_tale(tmp_path=None, tale_id="tale-0001", with_binary=False):
    """A small valid tale; writes workspace files when tmp_path is given."""
    files = {
        "main.c": b"int main(void) { return 0; }\n",
        "lib/util.c": b"/* util */\n",
    }
    artifacts = [
        CodeArtifact(path="main.c", kind=ArtifactKind.SOURCE, checksum=digest_bytes(files["main.c"])),
        CodeArtifact(path="lib/util.c", kind=ArtifactKind.SOURCE, checksum=digest_bytes(files["lib/util.c"])),
    ]
    if with_binary:
        files["bin/solver"] = b"\x7fELF-fake"
        artifacts.append(CodeArtifact(
            path="bin/solver", kind=ArtifactKind.PREBUILT_EXECUTABLE,
            target_arch="amd64", checksum=digest_bytes(files["bin/solver"]),
        ))
    if tmp_path is not None:
        for rel, content in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
    env = EnvironmentSpec(base_image_name="demo-base", dependency_pins=(("numpy", "==1.24.0"),))
    return create_tale("demo tale", artifacts, [data_ref()], env, tale_id=tale_id)


def batch_world(queue=None, resources=None, scenario=None, pools=None, cache=None, seed=0):
    """World with one batch resource 'hpc-1' unless overridden."""
    config = {
        "resources": resources or [
            {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 8, "queue": "q"},
        ],
        "queues": {"q": queue or {"distribution": "fixed", "params": {"value": 600.0}}},
        "scenario": scenario or {},
    }
    if pools:
        config["pools"] = pools
    if cache:
        config["cache"] = cache
    world = World(load_config(config), seed)
    world.start()
    return world


@pytest.fixture
def workspace(tmp_path):
    return tmp_path
