import json

import pytest

from talescale.cli import main
from talescale.digest import digest_bytes
from talescale.planner import WorkloadRequirements, plan_placement
from talescale.resources import ResourceDescriptor
from talescale.queues import QueueModel

from test_sim import UNRUNNABLE_JOB_OPS


@pytest.fixture
def ws(tmp_path):
    root = tmp_path / "ws"
    root.mkdir()
    (root / "main.c").write_bytes(b"int main(void){return 0;}\n")
    (root / "lib").mkdir()
    (root / "lib" / "helper.py").write_bytes(b"x = 1\n")
    return root


@pytest.fixture
def sim_config(tmp_path):
    config = {
        "resources": [
            {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 8, "queue": "q"},
        ],
        "queues": {"q": {"distribution": "exponential", "params": {"mean": 30.0}}},
        "scenario": {"actions": [
            {"op": "submit_jobs", "t": 0.0, "resource": "hpc-1", "count": 3,
             "command": ["sleep", "10"]},
        ]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestTaleCommands:
    def test_create_export_twice_identical(self, ws, tmp_path, capsys):
        assert main(["tale", "create", "--workspace", str(ws), "--title", "demo",
                     "--id", "cli-tale-1"]) == 0
        out_a = tmp_path / "a.zip"
        out_b = tmp_path / "b.zip"
        assert main(["tale", "export", "--workspace", str(ws), "--out", str(out_a)]) == 0
        assert main(["tale", "export", "--workspace", str(ws), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_import_round_trip(self, ws, tmp_path, capsys):
        main(["tale", "create", "--workspace", str(ws), "--title", "demo", "--id", "t9"])
        archive = tmp_path / "t.zip"
        main(["tale", "export", "--workspace", str(ws), "--out", str(archive)])
        target = tmp_path / "restored"
        assert main(["tale", "import", "--in", str(archive), "--workspace", str(target)]) == 0
        assert (target / "main.c").read_bytes() == (ws / "main.c").read_bytes()
        assert main(["tale", "validate", "--workspace", str(target)]) == 0

    def test_import_corrupted_archive_exits_one(self, ws, tmp_path, capsys):
        import io
        import zipfile

        main(["tale", "create", "--workspace", str(ws), "--title", "demo"])
        archive = tmp_path / "t.zip"
        main(["tale", "export", "--workspace", str(ws), "--out", str(archive)])
        src = zipfile.ZipFile(io.BytesIO(archive.read_bytes()))
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w") as zf:
            for info in src.infolist():
                payload = src.read(info.filename)
                if info.filename == "workspace/main.c":
                    payload = bytes([payload[0] ^ 0xFF]) + payload[1:]
                zf.writestr(info.filename, payload)
        bad = tmp_path / "bad.zip"
        bad.write_bytes(out.getvalue())
        code = main(["tale", "import", "--in", str(bad), "--workspace", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert "checksum" in err.lower()

    def test_validate_binary_only_tale_exits_one(self, tmp_path, capsys):
        root = tmp_path / "binws"
        root.mkdir()
        (root / "solver").write_bytes(b"\x7fELF")
        assert main(["tale", "create", "--workspace", str(root), "--title", "bin",
                     "--exe", "solver"]) == 0
        code = main(["tale", "validate", "--workspace", str(root)])
        out = capsys.readouterr().out
        assert code == 1
        assert "missing source" in out

    def test_validate_detects_tampered_workspace(self, ws, capsys):
        main(["tale", "create", "--workspace", str(ws), "--title", "demo"])
        (ws / "main.c").write_bytes(b"tampered")
        assert main(["tale", "validate", "--workspace", str(ws)]) == 1
        assert "checksum" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["sha512", "sha1"])
    def test_validate_accepts_a_correct_non_sha256_checksum(self, ws, capsys, algo):
        main(["tale", "create", "--workspace", str(ws), "--title", "demo"])
        meta_path = ws / ".tale" / "tale.json"
        meta = json.loads(meta_path.read_text())
        for artifact in meta["code_refs"]:
            artifact["checksum"] = digest_bytes((ws / artifact["path"]).read_bytes(), algo)
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["tale", "validate", "--workspace", str(ws)]) == 0
        assert capsys.readouterr().out == "ok\n"
        (ws / "main.c").write_bytes(b"tampered")
        assert main(["tale", "validate", "--workspace", str(ws)]) == 1
        assert capsys.readouterr().out == "checksum mismatch: main.c\n"

    def test_validate_reports_a_deleted_artifact(self, ws, capsys):
        main(["tale", "create", "--workspace", str(ws), "--title", "demo"])
        (ws / "lib" / "helper.py").unlink()
        capsys.readouterr()
        assert main(["tale", "validate", "--workspace", str(ws)]) == 1
        assert capsys.readouterr().out == "missing workspace file: lib/helper.py\n"

    def test_create_scans_shared_static_and_dylib_files_as_libraries(self, ws):
        for name in ("libm.so", "libm.a", "libm.dylib"):
            (ws / "lib" / name).write_bytes(b"\x7fELF")
        main(["tale", "create", "--workspace", str(ws), "--title", "demo"])
        meta = json.loads((ws / ".tale" / "tale.json").read_text())
        kinds = {ref["path"]: ref["kind"] for ref in meta["code_refs"]}
        assert kinds == {"lib/helper.py": "source", "lib/libm.a": "library",
                         "lib/libm.dylib": "library", "lib/libm.so": "library",
                         "main.c": "source"}

    def test_validate_json_output(self, ws, capsys):
        main(["tale", "create", "--workspace", str(ws), "--title", "demo"])
        capsys.readouterr()
        assert main(["tale", "validate", "--workspace", str(ws), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"valid": True, "problems": []}


class TestCollidingPaths:
    """An artifact path that is also the directory of another is invalid
    input: validate and import exit 1 and name it, and import writes nothing."""

    def archive(self, tmp_path):
        from test_archive import _colliding_archive

        path = tmp_path / "collide.zip"
        path.write_bytes(_colliding_archive())
        return path

    def test_validate_archive_exits_one(self, tmp_path, capsys):
        assert main(["tale", "validate", "--in", str(self.archive(tmp_path))]) == 1
        assert "artifact path a is also a directory" in capsys.readouterr().out

    def test_import_exits_one_and_writes_nothing(self, tmp_path, capsys):
        target = tmp_path / "x"
        code = main(["tale", "import", "--in", str(self.archive(tmp_path)), "--workspace", str(target)])
        assert code == 1
        assert "artifact path a is also a directory" in capsys.readouterr().err
        assert not target.exists()


@pytest.mark.parametrize("name", ["library_without_source", "packaging_names_a_ghost",
                                  "packaging_misnames_an_artifact", "duplicate_code_paths",
                                  "duplicate_data_uris"])
def test_import_of_a_tale_create_would_refuse_exits_one(tmp_path, capsys, name):
    from test_archive import CRAFTED_ARCHIVES

    make, problem = CRAFTED_ARCHIVES[name]
    path = tmp_path / "crafted.zip"
    path.write_bytes(make())
    target = tmp_path / "x"
    assert main(["tale", "import", "--in", str(path), "--workspace", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert problem in captured.err
    assert captured.out == ""
    assert not target.exists()


def _with_checksum(ws, tmp_path, checksum):
    """A tale workspace and an archive of it whose main.c records ``checksum``."""
    import io
    import zipfile

    main(["tale", "create", "--workspace", str(ws), "--title", "demo"])
    good = tmp_path / "good.zip"
    assert main(["tale", "export", "--workspace", str(ws), "--out", str(good)]) == 0
    meta_path = ws / ".tale" / "tale.json"
    meta = json.loads(meta_path.read_text())
    for artifact in meta["code_refs"]:
        if artifact["path"] == "main.c":
            artifact["checksum"] = checksum
    meta_path.write_text(json.dumps(meta))
    src = zipfile.ZipFile(io.BytesIO(good.read_bytes()))
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for info in src.infolist():
            payload = src.read(info.filename)
            if info.filename == "metadata/tale.json":
                archived = json.loads(payload)
                for artifact in archived["code_refs"]:
                    if artifact["path"] == "main.c":
                        artifact["checksum"] = checksum
                payload = json.dumps(archived).encode()
            zf.writestr(info.filename, payload)
    bad = tmp_path / "bad.zip"
    bad.write_bytes(out.getvalue())
    return bad


@pytest.mark.parametrize("checksum", ["nocolon", "md99:abcd", "shake_128:abcd"])
class TestMalformedChecksum:
    """A checksum that cannot be checked is invalid input (exit 1), not an
    internal error (exit 2), and the message names the artifact."""

    def test_export_exits_one(self, ws, tmp_path, capsys, checksum):
        _with_checksum(ws, tmp_path, checksum)
        capsys.readouterr()
        code = main(["tale", "export", "--workspace", str(ws), "--out", str(tmp_path / "o.zip")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: artifact main.c: ")
        assert not (tmp_path / "o.zip").exists()

    def test_import_exits_one(self, ws, tmp_path, capsys, checksum):
        bad = _with_checksum(ws, tmp_path, checksum)
        capsys.readouterr()
        code = main(["tale", "import", "--in", str(bad), "--workspace", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: artifact main.c: ")

    def test_validate_archive_exits_one(self, ws, tmp_path, capsys, checksum):
        bad = _with_checksum(ws, tmp_path, checksum)
        capsys.readouterr()
        assert main(["tale", "validate", "--in", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is False
        assert [p.split(": ")[0] for p in payload["problems"]] == ["artifact main.c"]

    def test_validate_workspace_exits_one(self, ws, tmp_path, capsys, checksum):
        _with_checksum(ws, tmp_path, checksum)
        capsys.readouterr()
        assert main(["tale", "validate", "--workspace", str(ws)]) == 1
        assert capsys.readouterr().out.startswith("artifact main.c: ")


class TestPlanCommand:
    def write_inputs(self, tmp_path, needs_mpi=False):
        inventory = {
            "queues": {"q": {"distribution": "fixed", "params": {"value": 600.0}}},
            "resources": [
                {"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
                 "allows_incoming_connections": True},
                {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch", "mpi_capable": True,
                 "allows_incoming_connections": False, "node_count": 16, "queue": "q"},
            ],
        }
        requirements = {"needs_hpc": True, "needs_mpi": needs_mpi,
                        "min_nodes": 4 if needs_mpi else 1}
        inv = tmp_path / "inv.json"
        req = tmp_path / "req.json"
        inv.write_text(json.dumps(inventory))
        req.write_text(json.dumps(requirements))
        return inv, req

    def test_mpi_requirement_selects_m4(self, tmp_path, capsys):
        inv, req = self.write_inputs(tmp_path, needs_mpi=True)
        assert main(["plan", "--inventory", str(inv), "--requirements", str(req)]) == 0
        assert "M4_hpc_mpi" in capsys.readouterr().out

    def test_json_output_equals_library_plan(self, tmp_path, capsys):
        inv, req = self.write_inputs(tmp_path)
        assert main(["plan", "--inventory", str(inv), "--requirements", str(req),
                     "--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out)
        queue = QueueModel(distribution="fixed", params={"value": 600.0})
        resources = [
            ResourceDescriptor(name="wt-1", kind="wt_cluster", lrm="none",
                               allows_incoming_connections=True),
            ResourceDescriptor(name="hpc-1", kind="hpc_cluster", lrm="batch",
                               allows_incoming_connections=False, mpi_capable=True,
                               node_count=16, queue_model=queue),
        ]
        expected = plan_placement(
            WorkloadRequirements(needs_hpc=True), resources, "min_time_to_frontend")
        assert got == expected.to_dict()

    def test_infeasible_exits_one_listing_reasons(self, tmp_path, capsys):
        inv = tmp_path / "inv.json"
        req = tmp_path / "req.json"
        inv.write_text(json.dumps([{"name": "wt-1", "kind": "wt_cluster", "lrm": "none",
                                    "allows_incoming_connections": True}]))
        req.write_text(json.dumps({"needs_hpc": True, "needs_mpi": True, "min_nodes": 4}))
        code = main(["plan", "--inventory", str(inv), "--requirements", str(req)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("infeasible") >= 6


    def test_duplicate_resource_names_exit_one(self, tmp_path, capsys):
        inv = tmp_path / "inv.json"
        req = tmp_path / "req.json"
        node = {"name": "n", "kind": "cloud", "lrm": "none", "allows_incoming_connections": True}
        inv.write_text(json.dumps([node, dict(node, allows_incoming_connections=False)]))
        req.write_text(json.dumps({"needs_hpc": False}))
        code = main(["plan", "--inventory", str(inv), "--requirements", str(req)])
        captured = capsys.readouterr()
        assert code == 1
        assert "duplicate" in captured.err
        assert captured.out == ""


class TestSimCommand:
    def test_same_seed_identical_trace_files(self, sim_config, tmp_path, capsys):
        t1, t2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert main(["sim", "run", "--config", str(sim_config), "--seed", "7",
                     "--horizon", "200", "--trace", str(t1)]) == 0
        assert main(["sim", "run", "--config", str(sim_config), "--seed", "7",
                     "--horizon", "200", "--trace", str(t2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_csv_report_header(self, sim_config, capsys):
        assert main(["sim", "run", "--config", str(sim_config), "--report", "csv",
                     "--horizon", "100"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "model,seed,time_to_frontend_s,queries,handshakes,transfers"

    def test_failed_jobs_still_exit_zero(self, tmp_path, capsys):
        config = {
            "resources": [{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
                           "allows_incoming_connections": False, "queue": "q"}],
            "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
            "scenario": {"actions": [{"op": "submit_jobs", "t": 0.0, "resource": "hpc-1",
                                      "command": ["fail", "1"]}]},
        }
        path = tmp_path / "f.json"
        path.write_text(json.dumps(config))
        assert main(["sim", "run", "--config", str(path), "--horizon", "50"]) == 0

    def test_malformed_action_exits_one(self, tmp_path, capsys):
        config = {
            "resources": [{"name": "r", "kind": "hpc_cluster", "lrm": "batch",
                           "allows_incoming_connections": False, "queue": "q"}],
            "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
            "scenario": {"actions": [{"op": "submit_jobs", "resource": "r", "count": "x"}]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["sim", "run", "--config", str(path), "--horizon", "100"]) == 1
        assert "integer count" in capsys.readouterr().err

    @pytest.mark.parametrize("action, message", [
        ({"op": "workload", "t": 0.0, "resource": "hpc-1", "mpi": True},
         "scenario op 'workload' mpi is true, but resource 'hpc-1' is not MPI capable"),
        ({"op": "submit_jobs", "t": 50.0, "resource": "hpc-1", "node_count": 16},
         "scenario op 'submit_jobs' node_count 16 exceeds the 8 nodes of resource 'hpc-1'"),
    ], ids=["mpi", "node_count"])
    def test_job_the_middleware_refuses_exits_one_before_the_run(self, tmp_path, capsys,
                                                                action, message):
        config = {
            "resources": [{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch", "node_count": 8,
                           "allows_incoming_connections": False, "queue": "q"}],
            "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
            "pools": [{"resource": "hpc-1", "min_warm": 1, "max_size": 2}],
            "scenario": {"actions": [action]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["sim", "run", "--config", str(path), "--horizon", "100"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name", sorted(UNRUNNABLE_JOB_OPS))
    def test_job_op_the_run_cannot_fire_exits_one_before_the_run(self, tmp_path, capsys, name):
        config, message = UNRUNNABLE_JOB_OPS[name]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        trace = tmp_path / "trace.ndjson"
        assert main(["sim", "run", "--config", str(path), "--horizon", "100",
                     "--trace", str(trace)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == "" and not trace.exists()

    def test_unknown_dialect_exits_one_before_the_run(self, tmp_path, capsys):
        # the submit at 50 s is past the horizon: the config alone is refused
        config = {
            "resources": [{"name": "r", "kind": "hpc_cluster", "lrm": "batch", "dialect": "sim-lsf",
                           "allows_incoming_connections": False, "queue": "q"}],
            "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
            "scenario": {"actions": [{"op": "submit_jobs", "t": 50.0, "resource": "r"}]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["sim", "run", "--config", str(path), "--horizon", "40"]) == 1
        captured = capsys.readouterr()
        assert "resource 'r' dialect must be one of ['sim-pbs', 'sim-slurm'], got 'sim-lsf'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("scenario, message", [
        ({"credentials": "alice"}, "credentials must be a list of strings"),
        ({"poll_interval_s": "5"}, "poll_interval_s must be a finite number"),
        ({"poll_interval_s": float("nan")}, "poll_interval_s must be a finite number"),
        ({"handshake_s": "x"}, "handshake_s must be a finite number"),
        ({"transport_rtt_s": -1}, "transport_rtt_s must be a finite number at least 0"),
        ({"actions": [{"op": "submit_jobs", "t": float("nan"), "resource": "r"}]},
         "t must be a finite number at least 0, got nan"),
    ], ids=["credentials_string", "poll_interval_string", "poll_interval_nan",
            "handshake_string", "negative_rtt", "action_time_nan"])
    def test_malformed_scenario_exits_one(self, tmp_path, capsys, scenario, message):
        config = {
            "resources": [{"name": "r", "kind": "hpc_cluster", "lrm": "batch",
                           "allows_incoming_connections": False, "queue": "q"}],
            "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
            "scenario": {"actions": [{"op": "submit_jobs", "t": 0.0, "resource": "r"}],
                         **scenario},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))  # NaN is written as the bare token NaN
        assert main(["sim", "run", "--config", str(path), "--horizon", "100"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("horizon", ["inf", "-inf", "nan", "0"])
    def test_horizon_not_finite_and_positive_exits_one(self, sim_config, capsys, horizon):
        # refused before the run starts: a pooled run to an infinite horizon never returns
        assert main(["sim", "run", "--config", str(sim_config), "--horizon", horizon]) == 1
        captured = capsys.readouterr()
        assert "horizon must be a finite number > 0" in captured.err
        assert captured.out == ""

    def test_a_poll_grid_that_cannot_advance_exits_one(self, tmp_path, capsys):
        # at t 1e17 the 5 s poll interval is below the float spacing: a
        # poller could only re-arm at the same instant
        path = tmp_path / "late.json"
        path.write_text(json.dumps({**_sim_base(), "pools": [], "scenario": {"actions": [
            {"op": "submit_jobs", "t": 1e17, "resource": "r", "command": ["sleep", "10"]}]}}))
        assert main(["sim", "run", "--config", str(path), "--horizon", "2e17"]) == 1
        captured = capsys.readouterr()
        assert "5.0 s grid has no point after t=1e+17" in captured.err
        assert captured.out == ""

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["sim", "run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_config_from_environment(self, sim_config, capsys, monkeypatch):
        monkeypatch.setenv("TALESCALE_CONFIG", str(sim_config))
        assert main(["sim", "run", "--horizon", "50"]) == 0

    def test_json_report_parses(self, sim_config, capsys):
        assert main(["sim", "run", "--config", str(sim_config), "--report", "json",
                     "--horizon", "100"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "backend_queries" in metrics


class TestJobCommands:
    def test_submit_then_status_then_cancel(self, sim_config, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        session = tmp_path / "session.json"
        args = ["--config", str(sim_config), "--session", str(session)]
        assert main(["job", "submit", *args, "--resource", "hpc-1",
                     "--command", "sleep 500"]) == 0
        job_id = capsys.readouterr().out.split()[0]
        assert main(["job", "status", *args, "--id", job_id]) == 0
        assert "Submitted" in capsys.readouterr().out
        assert main(["job", "tick", *args, "--dt", "10"]) == 0
        capsys.readouterr()
        assert main(["job", "status", *args, "--id", job_id]) == 0
        assert "Queued" in capsys.readouterr().out
        assert main(["job", "cancel", *args, "--id", job_id]) == 0
        capsys.readouterr()
        assert main(["job", "tick", *args, "--dt", "10"]) == 0
        capsys.readouterr()
        assert main(["job", "status", *args, "--id", job_id]) == 0
        assert "Canceled" in capsys.readouterr().out

    def test_cancel_completed_job_is_noop_success(self, sim_config, tmp_path, capsys):
        session = tmp_path / "session.json"
        args = ["--config", str(sim_config), "--session", str(session)]
        main(["job", "submit", *args, "--resource", "hpc-1", "--command", "sleep 1"])
        job_id = capsys.readouterr().out.split()[0]
        main(["job", "tick", *args, "--dt", "500"])
        capsys.readouterr()
        assert main(["job", "cancel", *args, "--id", job_id]) == 0
        assert "no-op" in capsys.readouterr().out

    def test_status_unknown_id_exits_one(self, sim_config, tmp_path, capsys):
        session = tmp_path / "session.json"
        code = main(["job", "status", "--config", str(sim_config),
                     "--session", str(session), "--id", "j999999"])
        assert code == 1

    def test_submit_json_format(self, sim_config, tmp_path, capsys):
        session = tmp_path / "session.json"
        assert main(["job", "submit", "--config", str(sim_config), "--session", str(session),
                     "--resource", "hpc-1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "Submitted"

    @pytest.mark.parametrize("dt", ["nan", "inf", "-inf", "-5", "1e308"])
    def test_tick_to_a_time_no_session_can_hold_exits_one(self, sim_config, tmp_path, capsys, dt):
        session = tmp_path / "session.json"
        args = ["--config", str(sim_config), "--session", str(session)]
        assert main(["job", "submit", *args, "--resource", "hpc-1"]) == 0
        # job tick refuses such a time itself (below); a session file may still hold one
        session.write_text(json.dumps({**json.loads(session.read_text()), "now": 1e308}))
        before = session.read_bytes()
        capsys.readouterr()
        assert main(["job", "tick", *args, "--dt", dt]) == 1
        captured = capsys.readouterr()
        assert "must be a finite number at least 0" in captured.err and captured.out == ""
        assert session.read_bytes() == before

    def test_tick_to_where_the_poll_grid_cannot_advance_exits_one(self, sim_config, tmp_path,
                                                                  capsys):
        session = tmp_path / "session.json"
        args = ["--config", str(sim_config), "--session", str(session)]
        assert main(["job", "submit", *args, "--resource", "hpc-1",
                     "--command", "sleep 1e18"]) == 0
        job_id = capsys.readouterr().out.split()[0]
        before = session.read_bytes()
        assert main(["job", "tick", *args, "--dt", "1e17"]) == 1
        captured = capsys.readouterr()
        assert "5.0 s grid has no point after t=1e+17" in captured.err and captured.out == ""
        assert session.read_bytes() == before
        assert main(["job", "tick", *args, "--dt", "100"]) == 0
        assert main(["job", "status", *args, "--id", job_id]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"{job_id} Running"

    @pytest.mark.parametrize("command", ["--nodes=5x", "--nodes=5", "--job-name=evil", "--wrap"])
    @pytest.mark.parametrize("dialect", ["sim-pbs", "sim-slurm"])
    def test_a_command_of_option_words_runs_as_the_command(self, tmp_path, capsys, dialect,
                                                           command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
            "resources": [{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
                           "dialect": dialect, "allows_incoming_connections": False,
                           "node_count": 8, "queue": "q"}]}))
        args = ["--config", str(config), "--session", str(tmp_path / "session.json")]
        assert main(["job", "submit", *args, "--resource", "hpc-1", "--command", command]) == 0
        assert capsys.readouterr().out == "j000001 Submitted\n"
        assert main(["job", "tick", *args, "--dt", "1000"]) == 0
        assert main(["job", "status", *args, "--id", "j000001"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "j000001 Completed exit=0"

    def test_submit_where_the_poll_grid_cannot_advance_exits_one(self, sim_config, tmp_path,
                                                                 capsys):
        session = tmp_path / "session.json"
        args = ["--config", str(sim_config), "--session", str(session)]
        # job tick refuses such a time itself (above); a session file may still hold one
        session.write_text(json.dumps({"seed": 0, "now": 1e17, "ops": []}))
        before = session.read_bytes()
        capsys.readouterr()
        assert main(["job", "submit", *args, "--resource", "hpc-1"]) == 1
        captured = capsys.readouterr()
        assert "5.0 s grid has no point after t=1e+17" in captured.err and captured.out == ""
        assert session.read_bytes() == before

    @pytest.mark.parametrize("command", [["cancel", "--id", "j000001"], ["tick", "--dt", "5"]])
    def test_commands_that_print_only_text_take_no_format(self, sim_config, tmp_path, capsys,
                                                          command):
        session = tmp_path / "session.json"
        args = ["--config", str(sim_config), "--session", str(session)]
        assert main(["job", "submit", *args, "--resource", "hpc-1"]) == 0
        before = session.read_text()
        capsys.readouterr()
        assert main(["job", command[0], *args, *command[1:], "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert "No such option '--format'" in captured.err and captured.out == ""
        assert session.read_text() == before


class TestExitCodes:
    def test_usage_error_is_exit_one(self, capsys):
        assert main(["plan"]) == 1  # missing required options

    def test_unknown_command_is_exit_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unexpected_exception_is_exit_two(self, sim_config, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("talescale.cli.load_config", broken)
        assert main(["sim", "run", "--config", str(sim_config)]) == 2
        assert capsys.readouterr().err == "internal error: RuntimeError('boom')\n"


# One batch resource with a fixed queue, one pool and one dataset, and one
# submit_jobs action: each case below breaks one value of it.
def _sim_base():
    return {
        "resources": [{"name": "r", "kind": "hpc_cluster", "lrm": "batch",
                       "allows_incoming_connections": False, "node_count": 2, "queue": "q"}],
        "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
        "pools": [{"resource": "r", "min_warm": 1, "max_size": 2}],
        "cache": {"datasets": [{"uri": "doi:x", "size_bytes": 10, "checksum": "sha256:00"}]},
        "scenario": {"actions": [{"op": "submit_jobs", "t": 0.0, "resource": "r"}]},
    }


def _queue(raw):
    return lambda c: c["queues"].__setitem__("q", raw)


def _cache(key, value):
    return lambda c: c["cache"].__setitem__(key, value)


def _dataset(**change):
    return lambda c: c["cache"]["datasets"][0].update(change)


def _command(*words):
    return lambda c: c["scenario"]["actions"][0].__setitem__("command", list(words))


def _resource(key, value):
    return lambda c: c["resources"][0].__setitem__(key, value)


def _action(**change):
    return lambda c: c["scenario"]["actions"][0].update(change)


def _rename(name):
    def rename(config):
        config["resources"][0]["name"] = config["pools"][0]["resource"] = name
        config["scenario"]["actions"][0]["resource"] = name
    return rename


MALFORMED_CONFIGS = {
    # exit 2 before the config rules
    "params_value_string": (_queue({"distribution": "fixed", "params": {"value": "5"}}),
                            ["fixed queue params", "value", "'5'"]),
    "params_mean_infinite": (_queue({"distribution": "exponential",
                                     "params": {"mean": float("inf")}}),
                             ["exponential queue params", "mean", "inf"]),
    "params_uniform_string": (_queue({"distribution": "uniform",
                                      "params": {"low": "1", "high": 2}}),
                              ["uniform queue params", "low", "'1'"]),
    "window_strings": (_queue({"distribution": "fixed", "params": {"value": 1.0},
                               "maintenance_windows": [["a", "b"]]}),
                       ["queue maintenance window", "start", "'a'"]),
    "scenario_string": (lambda c: c.__setitem__("scenario", "x"),
                        ["scenario must be an object"]),
    "queues_list": (lambda c: c.__setitem__("queues", []), ["queues must be an object"]),
    "queue_number": (_queue(5), ["queue must be an object", "5"]),
    "resources_object": (lambda c: c.__setitem__("resources", {"a": 1}),
                         ["resources must be a list"]),
    "resource_number": (lambda c: c.__setitem__("resources", [5]),
                        ["resource must be an object", "5"]),
    "cache_string": (lambda c: c.__setitem__("cache", "x"), ["cache must be an object"]),
    "cache_capacity_string": (_cache("capacity_bytes", "big"),
                              ["cache capacity_bytes", "'big'"]),
    "dataset_without_size": (lambda c: c["cache"]["datasets"][0].pop("size_bytes"),
                             ["dataset is missing", "size_bytes"]),
    "dataset_checksum_malformed": (_dataset(checksum="abc"), ["doi:x", "checksum", "'abc'"]),
    "actions_number": (lambda c: c["scenario"].__setitem__("actions", 5),
                       ["scenario actions must be a list", "5"]),
    # loaded without a word before the config rules
    "params_value_infinite": (_queue({"distribution": "fixed",
                                      "params": {"value": float("inf")}}),
                              ["fixed queue params", "value", "inf"]),
    "default_runtime_string": (_queue({"distribution": "fixed", "params": {"value": 1.0},
                                       "default_runtime_s": "60"}),
                               ["queue", "default_runtime_s", "'60'"]),
    "dataset_unknown_key": (_dataset(colour="red"), ["dataset has unknown keys", "colour"]),
    "local_datasets_string": (lambda c: c["resources"][0].__setitem__("local_datasets", "abc"),
                              ["resource 'r'", "local_datasets", "list of strings"]),
    "node_count_fraction": (lambda c: c["resources"][0].__setitem__("node_count", 2.5),
                            ["resource 'r'", "integer node_count", "2.5"]),
    "min_warm_fraction": (lambda c: c["pools"][0].__setitem__("min_warm", 1.5),
                          ["pool on 'r'", "integer min_warm", "1.5"]),
    # ran with the string read as true before the bool rule
    **{f"{key}_string": (_resource(key, "false"),
                         ["resource 'r'", f"{key} must be true or false", "'false'"])
       for key in ("allows_incoming_connections", "mpi_capable", "can_compile", "no_proxy")},
    "reservation_string": (_queue({"distribution": "fixed", "params": {"value": 1.0},
                                   "reservation": "false"}),
                           ["queue reservation must be true or false", "'false'"]),
    "mpi_string": (_action(mpi="false"), ["scenario op 'submit_jobs' mpi must be true or false"]),
    "via_pool_string": (_action(op="workload", via_pool="no"),
                        ["scenario op 'workload' via_pool must be true or false", "'no'"]),
    # exit 2 at run time before the job command rule
    "command_runtime_string": (_command("sleep", "x"), ["job command runtime", "'x'"]),
    "command_exit_code_string": (_command("fail", "1", "x"), ["job command exit code", "'x'"]),
    "command_runtime_negative": (_command("sleep", "-5"), ["job command runtime", "'-5'"]),
    # ran with every job stuck Submitted and its poller live: the PBS job id
    # round trip cannot carry the resource name
    **{f"pbs_name_{label}": (_rename(name), [repr(name), "cannot be carried in sim-pbs job ids"])
       for label, name in [("space", "hpc 1"), ("tab", "hpc\t1"), ("quote", "hpc'1"),
                           ("trailing_vtab", "hpc\x0b")]},
}


@pytest.mark.parametrize("name", list(MALFORMED_CONFIGS))
def test_malformed_config_exits_one_naming_section_and_key(tmp_path, capsys, name):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_sim_base()))
    assert main(["sim", "run", "--config", str(base), "--horizon", "100"]) == 0
    capsys.readouterr()
    breaks, words = MALFORMED_CONFIGS[name]
    config = _sim_base()
    breaks(config)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))  # infinity is written as the bare token Infinity
    assert main(["sim", "run", "--config", str(path), "--horizon", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    for word in words:
        assert word in captured.err
    assert captured.out == ""


class TestMalformedInputs:
    """``plan`` and ``tale create`` read their input files through the config
    rules: a malformed file exits 1 and names what is wrong."""

    def plan(self, tmp_path, inventory, requirements):
        inv, req = tmp_path / "inv.json", tmp_path / "req.json"
        inv.write_text(json.dumps(inventory))
        req.write_text(json.dumps(requirements))
        return main(["plan", "--inventory", str(inv), "--requirements", str(req)])

    def test_inventory_without_resources(self, tmp_path, capsys):
        assert self.plan(tmp_path, {"queues": {}}, {}) == 1
        assert "inventory is missing ['resources']" in capsys.readouterr().err

    def test_inventory_queue_mean_string(self, tmp_path, capsys):
        inventory = {"queues": {"q": {"distribution": "exponential", "params": {"mean": "600"}}},
                     "resources": [{"name": "h", "kind": "hpc_cluster", "lrm": "batch",
                                    "allows_incoming_connections": False, "queue": "q"}]}
        assert self.plan(tmp_path, inventory, {}) == 1
        assert "exponential queue params mean must be a finite number" in capsys.readouterr().err

    def test_requirements_min_nodes_string(self, tmp_path, capsys):
        inventory = [{"name": "c", "kind": "cloud", "lrm": "none"}]
        assert self.plan(tmp_path, inventory, {"min_nodes": "x"}) == 1
        assert "requirements needs an integer min_nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("key, section", [
        ("allows_incoming_connections", "resource 'h'"), ("mpi_capable", "resource 'h'"),
        ("can_compile", "resource 'h'"), ("no_proxy", "resource 'h'"), ("reservation", "queue"),
        ("needs_hpc", "requirements"), ("needs_mpi", "requirements")])
    def test_boolean_string(self, tmp_path, capsys, key, section):
        inventory = {"queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
                     "resources": [{"name": "h", "kind": "hpc_cluster", "lrm": "batch",
                                    "allows_incoming_connections": False, "queue": "q"}]}
        requirements = {"needs_hpc": True}
        assert self.plan(tmp_path, inventory, requirements) == 0
        capsys.readouterr()
        {"resource 'h'": inventory["resources"][0], "queue": inventory["queues"]["q"],
         "requirements": requirements}[section][key] = "false"
        assert self.plan(tmp_path, inventory, requirements) == 1
        captured = capsys.readouterr()
        assert f"error: {section} {key} must be true or false, got 'false'" in captured.err
        assert captured.out == ""

    def test_inputs_that_are_not_json(self, tmp_path, capsys):
        inv = tmp_path / "inv.json"
        inv.write_text("{not json")
        assert main(["plan", "--inventory", str(inv), "--requirements", str(inv)]) == 1
        assert "does not parse" in capsys.readouterr().err

    def test_pins_split_at_their_first_operator(self, ws, capsys):
        pins = ["numpy==1.26", "scipy>=1.11", "click>=8,<9", "attrs!=21.1", "pandas~=2.1",
                "six<2", "tz>2020", "requests"]
        assert main(["tale", "create", "--workspace", str(ws), "--title", "t",
                     *(arg for pin in pins for arg in ("--pin", pin))]) == 0
        meta = json.loads((ws / ".tale" / "tale.json").read_text())
        assert meta["env_spec"]["dependency_pins"] == [
            ["numpy", "1.26"], ["scipy", ">=1.11"], ["click", ">=8,<9"], ["attrs", "!=21.1"],
            ["pandas", "~=2.1"], ["six", "<2"], ["tz", ">2020"], ["requests", "*"]]

    @pytest.mark.parametrize("pin, message", [
        ("==1.26", "pin '==1.26' has no package name"),
        (">=1.0", "pin '>=1.0' has no package name"),
        ("scipy>=", "pin 'scipy' has malformed constraint '>='"),
        ("numpy==", "pin 'numpy' has malformed constraint ''"),
        ("scipy>=1.0>=2", "pin 'scipy' has malformed constraint '>=1.0>=2'"),
        ("numpy==1.26,<2", "pin 'numpy' has malformed constraint '1.26,<2'"),
    ], ids=["exact_no_name", "range_no_name", "range_no_version", "exact_no_version",
            "two_operators", "exact_with_range"])
    def test_malformed_pin_exits_one(self, ws, capsys, pin, message):
        assert main(["tale", "create", "--workspace", str(ws), "--title", "t",
                     "--pin", pin]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (ws / ".tale").exists()

    def test_data_manifest_checksum_malformed(self, ws, tmp_path, capsys):
        manifest = tmp_path / "data.json"
        manifest.write_text(json.dumps([{"uri": "doi:x", "size_bytes": 1, "checksum": "abc"}]))
        assert main(["tale", "create", "--workspace", str(ws), "--title", "t",
                     "--data-manifest", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert "data ref 'doi:x' checksum: malformed checksum 'abc'" in captured.err
        assert captured.out == ""


def _meta(change):
    """A tale.json rewrite: ``change`` edits its decoded object in place."""
    def rewrite(data):
        meta = json.loads(data)
        change(meta)
        return json.dumps(meta).encode()
    return "metadata/tale.json", rewrite


def _code_ref(key, value=None):
    return _meta(lambda m: m["code_refs"][0].pop(key) if value is None
                 else m["code_refs"][0].__setitem__(key, value))


# Each archive breaks one member of a good one; each exited 2 before tale
# metadata was read by the key and choice rules.
MALFORMED_ARCHIVES = {
    "code_ref_without_path": (_code_ref("path"), ["metadata/tale.json", "code ref", "path"]),
    "code_ref_path_number": (_code_ref("path", 5), ["metadata/tale.json", "code ref path", "5"]),
    "code_ref_checksum_number": (_code_ref("checksum", 5),
                                 ["metadata/tale.json", "code ref checksum", "5"]),
    "tale_json_not_json": (("metadata/tale.json", lambda data: b"{not json"),
                           ["metadata/tale.json does not parse"]),
    "tale_json_list": (("metadata/tale.json", lambda data: b"[]"),
                       ["metadata/tale.json", "tale must be an object", "[]"]),
    "code_refs_string": (_meta(lambda m: m.__setitem__("code_refs", "abc")),
                         ["metadata/tale.json", "tale code_refs must be a list", "'abc'"]),
    "artifact_kind_weird": (_code_ref("kind", "weird"),
                            ["metadata/tale.json", "code ref kind", "'weird'"]),
    "dependency_pin_short": (_meta(lambda m: m["env_spec"].__setitem__("dependency_pins", [["a"]])),
                             ["metadata/tale.json", "env_spec dependency_pins", "[['a']]"]),
    "proprietary_toolchain_string": (_code_ref("proprietary_toolchain", "false"),
                                     ["metadata/tale.json", "code ref proprietary_toolchain", "'false'"]),
    "redistribution_ok_string": (_meta(lambda m: m.__setitem__("packaging", {
        "workload_class": "unoptimized", "strategy": "on_demand_compile", "redistribution_ok": "false"})),
                                 ["metadata/tale.json", "packaging redistribution_ok", "'false'"]),
    "events_line_not_json": (("provenance/events.ndjson", lambda data: b"{oops\n"),
                             ["provenance/events.ndjson does not parse"]),
    "events_kind_bogus": (("provenance/events.ndjson",
                           lambda data: data.replace(b'"created"', b'"bogus"')),
                          ["provenance/events.ndjson", "provenance event kind", "'bogus'"]),
    "events_not_utf8": (("provenance/events.ndjson", lambda data: b"\xff\xfe\n"),
                        ["provenance/events.ndjson does not parse", "utf-8"]),
}


@pytest.mark.parametrize("name", list(MALFORMED_ARCHIVES))
class TestMalformedArchive:
    """A malformed archive is invalid input: import exits 1 and names the
    member and key, and validate reports it as a problem."""

    def archive(self, ws, tmp_path, name):
        import io
        import zipfile

        main(["tale", "create", "--workspace", str(ws), "--title", "demo", "--id", "m-1"])
        good = tmp_path / "good.zip"
        assert main(["tale", "export", "--workspace", str(ws), "--out", str(good)]) == 0
        (member, rewrite), _ = MALFORMED_ARCHIVES[name]
        src = zipfile.ZipFile(io.BytesIO(good.read_bytes()))
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w") as zf:
            for info in src.infolist():
                data = src.read(info.filename)
                zf.writestr(info.filename, rewrite(data) if info.filename == member else data)
        bad = tmp_path / "bad.zip"
        bad.write_bytes(out.getvalue())
        return bad

    def test_import_exits_one(self, ws, tmp_path, capsys, name):
        bad = self.archive(ws, tmp_path, name)
        capsys.readouterr()
        assert main(["tale", "import", "--in", str(bad), "--workspace", str(tmp_path / "x")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        for word in MALFORMED_ARCHIVES[name][1]:
            assert word in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x").exists()

    def test_validate_archive_exits_one(self, ws, tmp_path, capsys, name):
        bad = self.archive(ws, tmp_path, name)
        capsys.readouterr()
        assert main(["tale", "validate", "--in", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is False
        assert MALFORMED_ARCHIVES[name][1][0] in payload["problems"][0]


@pytest.mark.parametrize("text, words", [
    ("{", ["tale.json does not parse"]),
    ("[]", ["tale.json", "tale must be an object"]),
    ('{"id": "t", "title": "t", "code_refs": [{"kind": "source"}]}', ["tale.json", "code ref is missing"]),
    ('{"id": "t", "title": "t", "provenance": [{"seq": 1, "timestamp": 0, "kind": "bogus"}]}',
     ["tale.json", "provenance event kind", "'bogus'"]),
], ids=["not_json", "list", "code_ref_without_path", "event_kind_bogus"])
@pytest.mark.parametrize("command", ["export", "validate"])
def test_malformed_tale_metadata_exits_one(ws, tmp_path, capsys, text, words, command):
    (ws / ".tale").mkdir()
    (ws / ".tale" / "tale.json").write_text(text)
    args = ["--out", str(tmp_path / "o.zip")] if command == "export" else []
    assert main(["tale", command, "--workspace", str(ws), *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    for word in words:
        assert word in captured.err
    assert captured.out == ""


class TestMalformedSession:
    """``job`` session files are read by the key rule, and a submit's command
    by the command rule: bad input exits 1 and leaves the session as it was."""

    def run(self, sim_config, tmp_path, session_text, *args):
        session = tmp_path / "s.json"
        if session_text is not None:
            session.write_text(session_text)
        return main(["job", *args, "--config", str(sim_config), "--session", str(session)])

    @pytest.mark.parametrize("text, words", [
        ("{", ["s.json does not parse"]),
        ("[]", ["session must be an object"]),
        (json.dumps({"seed": 0, "now": 0.0, "ops": [
            {"kind": "submit", "t": 0.0, "command": ["sleep", "1"]}]}),
         ["session submit op is missing ['resource']"]),
    ], ids=["not_json", "list", "op_without_resource"])
    def test_session_file(self, sim_config, tmp_path, capsys, text, words):
        assert self.run(sim_config, tmp_path, text, "status", "--id", "j000001") == 1
        captured = capsys.readouterr()
        for word in words:
            assert word in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, words", [
        ("sleep 'unbalanced", ["--command does not parse", "No closing quotation"]),
        ("sleep x", ["job command runtime", "'x'"]),
        ("fail 1 x", ["job command exit code", "'x'"]),
        ("sleep -5", ["job command runtime", "'-5'"]),
    ], ids=["unbalanced_quote", "runtime_string", "exit_code_string", "runtime_negative"])
    def test_submit_command(self, sim_config, tmp_path, capsys, command, words):
        code = self.run(sim_config, tmp_path, None, "submit", "--resource", "hpc-1", "--command", command)
        assert code == 1
        captured = capsys.readouterr()
        for word in words:
            assert word in captured.err
        assert captured.out == ""
        assert not (tmp_path / "s.json").exists()
