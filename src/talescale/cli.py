"""Operator command line.

Thin shell over the library: every subcommand delegates to the same calls
the tests exercise directly. Exit codes: 0 success, 1 user error
(validation, infeasibility, bad input), 2 internal error. Read commands
accept ``--format json`` for machine-parseable output.
"""

from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

import click

from . import archive as archive_mod
from .clock import grid_after
from .digest import digest_file
from .dms import DatasetCatalog, ExternalDataRef
from .errors import (ChecksumMismatchError, InfeasiblePlanError, TalescaleError, ValidationError,
                     check_choice, check_keys, check_list, check_number)
from .metrics import REPORT_FORMATS, emit_report
from .middleware import JobSpec
from .planner import OBJECTIVES, WorkloadRequirements, plan_placement
from .queues import queues_by_name
from .resources import resources_by_name
from .tale import ArtifactKind, CodeArtifact, EnvironmentSpec, Tale, create_tale, parse_pin
from .world import DEFAULT_COMMAND, ScenarioConfig, World, load_config, read_json

TALE_META = ".tale/tale.json"

# Read commands print text, or JSON for machines.
_format_opt = click.option("--format", "fmt", default="text", type=click.Choice(["text", "json"]))


@click.group()
def cli():
    """Research-object packaging, placement planning and cluster simulation."""


# ---------------------------------------------------------------- tale group


@cli.group()
def tale():
    """Create, package, export, import and validate tales."""


def _scan_workspace(root: Path, exes: tuple[str, ...], libs: tuple[str, ...],
                    arch: dict[str, str], proprietary: tuple[str, ...]) -> list[CodeArtifact]:
    artifacts = []
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if any(part.startswith(".") for part in rel.split("/")):
            continue
        if rel in exes:
            kind = ArtifactKind.PREBUILT_EXECUTABLE
        elif rel in libs or path.suffix in (".so", ".a", ".dylib"):
            kind = ArtifactKind.LIBRARY
        else:
            kind = ArtifactKind.SOURCE
        artifacts.append(CodeArtifact(
            path=rel, kind=kind, target_arch=arch.get(rel),
            checksum=digest_file(path),
            proprietary_toolchain=rel in proprietary,
        ))
    return artifacts


def _load_tale_meta(path: Path) -> Tale:
    raw = read_json(path)
    try:
        return Tale.from_dict(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _save_tale_meta(tale_obj: Tale, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tale_obj.to_dict(), sort_keys=True, indent=2) + "\n")


@tale.command("create")
@click.option("--workspace", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--title", required=True)
@click.option("--out", type=click.Path(), default=None, help="Metadata path (default <workspace>/.tale/tale.json).")
@click.option("--id", "tale_id", default=None)
@click.option("--data-manifest", type=click.Path(exists=True), default=None,
              help="JSON list of {uri, size_bytes, checksum}.")
@click.option("--base-image", default="generic-base")
@click.option("--pin", multiple=True,
              help="Dependency pin: name, name==version or a range such as name>=1.2 (repeatable).")
@click.option("--exe", multiple=True, help="Workspace path of a prebuilt executable (repeatable).")
@click.option("--lib", multiple=True, help="Workspace path of a library (repeatable).")
@click.option("--arch", multiple=True, help="path=ARCH target tag (repeatable).")
@click.option("--proprietary", multiple=True, help="Path built with a proprietary toolchain.")
def tale_create(workspace, title, out, tale_id, data_manifest, base_image, pin,
                exe, lib, arch, proprietary):
    """Scan a workspace into a new tale and write its metadata."""
    root = Path(workspace)
    arch_map = {}
    for item in arch:
        path, _, tag = item.partition("=")
        arch_map[path] = tag
    data_refs = []
    if data_manifest:
        data_refs = [ExternalDataRef.from_dict(d)
                     for d in check_list("data manifest", read_json(data_manifest))]
    artifacts = _scan_workspace(root, tuple(exe), tuple(lib), arch_map, tuple(proprietary))
    tale_obj = create_tale(
        title=title, code_refs=artifacts, data_refs=data_refs,
        env_spec=EnvironmentSpec(base_image_name=base_image,
                                 dependency_pins=tuple(map(parse_pin, pin))),
        tale_id=tale_id,
    )
    meta_path = Path(out) if out else root / TALE_META
    _save_tale_meta(tale_obj, meta_path)
    click.echo(f"created tale {tale_obj.id} ({len(artifacts)} artifacts) -> {meta_path}")


@tale.command("export")
@click.option("--workspace", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", required=True, type=click.Path())
@click.option("--tale", "tale_path", type=click.Path(exists=True), default=None)
def tale_export(workspace, out, tale_path):
    """Export a tale archive (deterministic bytes)."""
    root = Path(workspace)
    meta = Path(tale_path) if tale_path else root / TALE_META
    if not meta.exists():
        raise TalescaleError(f"tale metadata not found at {meta}; run tale create first")
    tale_obj = _load_tale_meta(meta)
    data = archive_mod.export_tale(tale_obj, root)
    Path(out).write_bytes(data)
    click.echo(f"exported {tale_obj.id} -> {out} ({len(data)} bytes)")


@tale.command("import")
@click.option("--in", "archive_path", required=True, type=click.Path(exists=True))
@click.option("--workspace", required=True, type=click.Path())
def tale_import(archive_path, workspace):
    """Import an archive, verifying every checksum."""
    data = Path(archive_path).read_bytes()
    ws = Path(workspace)
    tale_obj = archive_mod.import_tale(data, workspace_dir=ws)
    _save_tale_meta(tale_obj, ws / TALE_META)
    click.echo(f"imported tale {tale_obj.id}: {tale_obj.title}")


@tale.command("validate")
@click.option("--workspace", type=click.Path(exists=True, file_okay=False), default=None)
@click.option("--in", "archive_path", type=click.Path(exists=True), default=None)
@_format_opt
def tale_validate(workspace, archive_path, fmt):
    """Print invariant violations; exit 1 when any exist."""
    if (workspace is None) == (archive_path is None):
        raise TalescaleError("pass exactly one of --workspace or --in")
    problems: list[str] = []
    if archive_path:
        try:
            archive_mod.import_tale(Path(archive_path).read_bytes())
        except TalescaleError as exc:
            problems.append(str(exc))
    else:
        root = Path(workspace)
        meta = root / TALE_META
        if not meta.exists():
            raise TalescaleError(f"tale metadata not found at {meta}")
        tale_obj = _load_tale_meta(meta)
        problems.extend(tale_obj.validate())
        for artifact in tale_obj.code_refs:
            path = root / artifact.path
            if not path.is_file():
                problems.append(f"missing workspace file: {artifact.path}")
                continue
            try:
                archive_mod.checked_digest(artifact, path.read_bytes())
            except ChecksumMismatchError:
                problems.append(f"checksum mismatch: {artifact.path}")
            except ValidationError as exc:
                problems.append(str(exc))
    if fmt == "json":
        click.echo(json.dumps({"valid": not problems, "problems": problems}))
    else:
        for problem in problems:
            click.echo(problem)
        if not problems:
            click.echo("ok")
    if problems:
        raise SystemExit(1)


# ---------------------------------------------------------------- plan


@cli.command("plan")
@click.option("--inventory", required=True, type=click.Path(exists=True))
@click.option("--requirements", required=True, type=click.Path(exists=True))
@click.option("--objective", default=OBJECTIVES[0], type=click.Choice(OBJECTIVES))
@click.option("--catalog", type=click.Path(exists=True), default=None)
@click.option("--frontend", "frontend_override", default=None,
              help="Name a frontend resource explicitly (decoupled model).")
@click.option("--image-load", type=float, default=ScenarioConfig.image_load_s)
@_format_opt
def plan_cmd(inventory, requirements, objective, catalog, frontend_override, image_load, fmt):
    """Enumerate feasible execution models and print the chosen placement."""
    queues = {}
    inv_raw = read_json(inventory)
    if isinstance(inv_raw, dict):
        check_keys("inventory", inv_raw, ("queues", "resources"), ("resources",))
        queues = queues_by_name(inv_raw.get("queues", {}))
        inv_raw = inv_raw["resources"]
    resources = list(resources_by_name(inv_raw, queues).values())
    req = WorkloadRequirements.from_dict(read_json(requirements))
    cat = None
    if catalog:
        cat = DatasetCatalog(ExternalDataRef.from_dict(d)
                             for d in check_list("catalog", read_json(catalog)))
    plan = plan_placement(
        req, resources, objective, catalog=cat,
        frontend_override=frontend_override, image_load_s=image_load,
    )
    if fmt == "json":
        click.echo(json.dumps(plan.to_dict(), sort_keys=True, indent=2))
        return
    click.echo(f"model:     {plan.model.value}")
    click.echo(f"frontend:  {plan.frontend_resource}")
    click.echo(f"workloads: {', '.join(plan.workload_resources) or '-'}")
    click.echo(f"proxy:     {'required' if plan.proxy_required else 'not required'}")
    click.echo(f"estimated time to frontend: {plan.estimated_time_to_frontend:.1f} s")
    for action in plan.staging_actions:
        click.echo(f"staging:   {action.action.value} {action.uri} on {action.resource}")


# ---------------------------------------------------------------- sim


@cli.group()
def sim():
    """Run deterministic cluster simulations."""


@sim.command("run")
@click.option("--config", "config_path", envvar="TALESCALE_CONFIG", required=True,
              type=click.Path(exists=True))
@click.option("--seed", type=int, default=0)
@click.option("--horizon", type=float, default=1000.0)
@click.option("--report", "report_fmt", default=REPORT_FORMATS[0], type=click.Choice(REPORT_FORMATS))
@click.option("--trace", "trace_path", type=click.Path(), default=None)
def sim_run(config_path, seed, horizon, report_fmt, trace_path):
    """Run the configured scenario; exits 0 even when simulated jobs fail."""
    config = load_config(config_path)
    world = World(config, seed)
    trace, metrics = world.run(horizon)
    if trace_path:
        trace.write(trace_path)
    if report_fmt == "json":
        click.echo(json.dumps(metrics.to_dict(), sort_keys=True, indent=2))
        return
    click.echo(emit_report(metrics.rows(seed), report_fmt).decode().rstrip("\n"))


# ---------------------------------------------------------------- job


@cli.group()
def job():
    """Submit and track jobs in a scripted scenario session.

    Session state is a deterministic operation log replayed against a
    fresh world on every invocation, so ids and states are stable.
    """


# Each session op kind's required keys and every key it accepts, beside "kind" and "t".
_SESSION_OPS = {"submit": ({"resource", "command"}, {"resource", "command", "credential"}),
                "cancel": ({"id"}, {"id"})}


def _session_load(path: Path) -> dict:
    if not path.exists():
        return {"seed": 0, "now": 0.0, "ops": []}
    session = check_keys("session", read_json(path), ("seed", "now", "ops"), ("now", "ops"))
    check_number("session", "seed", session.get("seed", 0), integer=True)
    check_number("session", "now", session["now"])
    for op in check_list("session ops", session["ops"]):
        kind = check_choice("session op", "kind", check_keys("session op", op, op).get("kind"), _SESSION_OPS)
        required, accepted = _SESSION_OPS[kind]
        check_keys(f"session {kind} op", op, accepted | {"kind", "t"}, required | {"t"},
                   ("resource", "credential", "id"))
        check_number(f"session {kind} op", "t", op["t"])
        if kind == "submit":
            check_list("session submit op command", op["command"], str)
    return session

def _session_save(path: Path, session: dict) -> None:
    path.write_text(json.dumps(session, sort_keys=True, indent=2) + "\n")


def _session_replay(config_path: str, session: dict):
    """Rebuild the session's world by replaying its operation log.

    Returns the world plus each op's own result (the submit handles), so
    callers never confuse session jobs with scenario-scripted ones.
    """
    config = load_config(config_path)
    world = World(config, int(session.get("seed", 0)))
    world.start()
    results = []
    for op in session["ops"]:
        world.clock.run_until(float(op["t"]))
        if op["kind"] == "submit":  # its keys beside "kind" and "t" name JobSpec fields
            fields = {key: op[key] for key in _SESSION_OPS["submit"][1] if key in op}
            results.append(world.middleware.submit(JobSpec(**fields)))
        elif op["kind"] == "cancel":
            world.middleware.cancel(op["id"])
            results.append(None)
    world.clock.run_until(float(session.get("now", 0.0)))
    return world, results


_session_opts = [
    click.option("--config", "config_path", envvar="TALESCALE_CONFIG", required=True,
                 type=click.Path(exists=True)),
    click.option("--session", "session_path", type=click.Path(),
                 default=".talescale-session.json"),
]


def _with_session_opts(fn):
    for opt in reversed(_session_opts):
        fn = opt(fn)
    return fn


@job.command("submit")
@_with_session_opts
@_format_opt
@click.option("--resource", required=True)
@click.option("--command", "command_str", default=shlex.join(DEFAULT_COMMAND))
@click.option("--credential", default="user")
def job_submit(config_path, session_path, fmt, resource, command_str, credential):
    session = _session_load(Path(session_path))
    try:
        command = shlex.split(command_str)
    except ValueError as exc:
        raise ValidationError(f"--command does not parse: {exc}") from None
    op = {"kind": "submit", "t": session["now"], "resource": resource,
          "command": command, "credential": credential}
    session["ops"].append(op)
    world, results = _session_replay(config_path, session)
    handle = results[-1]
    _session_save(Path(session_path), session)
    status = world.middleware.status(handle)
    if fmt == "json":
        click.echo(json.dumps({"id": handle.job_id, "state": status.state.value}))
    else:
        click.echo(f"{handle.job_id} {status.state.value}")


@job.command("status")
@_with_session_opts
@_format_opt
@click.option("--id", "job_id", required=True)
def job_status(config_path, session_path, fmt, job_id):
    session = _session_load(Path(session_path))
    world, _ = _session_replay(config_path, session)
    status = world.middleware.status(job_id)
    if fmt == "json":
        click.echo(json.dumps({
            "id": job_id, "state": status.state.value, "exit_code": status.exit_code,
            "transitions": [[s.value, t] for s, t in status.transitions],
        }, sort_keys=True))
    else:
        click.echo(f"{job_id} {status.state.value}"
                   + (f" exit={status.exit_code}" if status.exit_code is not None else ""))


@job.command("cancel")
@_with_session_opts
@click.option("--id", "job_id", required=True)
def job_cancel(config_path, session_path, job_id):
    session = _session_load(Path(session_path))
    world, _ = _session_replay(config_path, session)
    ack = world.middleware.cancel(job_id)  # validates the id
    if not ack.noop:
        session["ops"].append({"kind": "cancel", "t": session["now"], "id": job_id})
    _session_save(Path(session_path), session)
    click.echo(f"{job_id} cancel {'no-op (terminal)' if ack.noop else 'requested'}")


@job.command("tick")
@_with_session_opts
@click.option("--dt", type=float, required=True)
def job_tick(config_path, session_path, dt):
    """Advance the session's simulated time."""
    session = _session_load(Path(session_path))
    check_number("job tick", "--dt", dt)
    now = check_number("session", "now", float(session["now"]) + dt)
    # a time past which no poll or pool tick could move on is refused here,
    # not by every later command on the session
    grid_after(now, load_config(config_path).scenario.poll_interval_s)
    session["now"] = now
    _session_save(Path(session_path), session)
    click.echo(f"t={session['now']}")


# ---------------------------------------------------------------- entry


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    except InfeasiblePlanError as exc:
        click.echo("error: no feasible execution model", err=True)
        for reason in exc.reasons:
            click.echo(f"  {reason}", err=True)
        return 1
    except TalescaleError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception as exc:  # internal errors are distinguishable by exit code
        click.echo(f"internal error: {exc!r}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
