"""Per-model frontend-launch measurements over seeded simulations.

For every feasible execution model this runs one fresh seeded world per
seed, launches a frontend the way that model would, and reports the time
until the frontend is usable plus that run's transport counters. The
numbers witness the launch-time contrast between deployment-cluster
frontends (one image load) and batch-launched frontends (image load plus
queue wait, unless a warm pilot absorbs it). Each model's frontend runs on
that model's first candidate under the planner's placement-candidate rule
(``talescale.planner.placement_candidates``) and launches the way
``talescale.planner.launch_path`` says, so measurement and placement never
disagree about where a frontend may go or how it starts.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import TransportError, ValidationError
from .metrics import ReportRow
from .middleware import JobSpec, JobState
from .planner import (
    ExecutionModel,
    LaunchPath,
    WorkloadRequirements,
    launch_path,
    placement_candidates,
)
from .queues import sample_queue_wait
from .world import World, WorldConfig


def launch_frontend(world: World, model: ExecutionModel, resource_name: str,
                    req: WorkloadRequirements) -> float:
    """Launch one frontend per the model's mechanics; returns seconds to ready.

    Called at the world's current time (after any warmup). Batch models go
    through the middleware and wait for the client-observed Running state;
    a warm pilot slot that holds the frontend's nodes replaces the queue
    wait with the dispatch overhead.
    """
    sc = world.config.scenario
    image = sc.image_load_s
    rd = world.config.resources[resource_name]
    requested_at = world.clock.now
    path = launch_path(model, rd)

    if path == LaunchPath.NODE_QUEUE:
        wait = 0.0
        if rd.queue_model is not None:
            wait = sample_queue_wait(rd.queue_model, world.rng_for(resource_name, "frontend"),
                                     requested_at)
        ready = wait + image
    elif path == LaunchPath.BATCH_QUEUE:
        mpi = model == ExecutionModel.M4_HPC_MPI
        spec = JobSpec(resource=resource_name, command=("frontend",),
                       node_count=req.min_nodes if mpi else 1, mpi=mpi)
        pool = world.pools.get(resource_name)
        if pool is not None and pool.claim(replace(spec, tale_id="frontend")) is not None:
            ready = sc.dispatch_overhead_s + image
        else:
            handle = world.middleware.submit(spec)
            while world.middleware.status(handle).state in (JobState.SUBMITTED, JobState.QUEUED):
                if not world.clock.step():
                    raise ValidationError("simulation ran out of events before the frontend started")
            status = world.middleware.status(handle)
            if status.state != JobState.RUNNING:
                # e.g. the submit hit a transport failure; a later launch may succeed
                cause = f": {status.cause}" if status.cause else ""
                raise TransportError(f"frontend job ended in {status.state.value}{cause}")
            running_at = status.transitions[-1][1]
            ready = (running_at - requested_at) + image
    else:
        ready = image

    world.clock.run_until(requested_at + ready)
    world.trace.emit("frontend_ready", model=model.value, resource=resource_name,
                     time_to_frontend_s=ready)
    return ready


def measure_models(config: WorldConfig, req: WorkloadRequirements, seeds,
                   warmup_s: float = 0.0) -> list[ReportRow]:
    """One report row per (feasible model, seed)."""
    rows: list[ReportRow] = []
    for rule in placement_candidates(req, config.inventory):
        if not rule.feasible:
            continue
        frontend, _ = rule.pairs[0]
        for seed in seeds:
            world = World(config, seed)
            world.start()
            if warmup_s > 0:
                world.clock.run_until(warmup_s)
            launch_frontend(world, rule.model, frontend.name, req)
            rows += world.metrics().rows(seed)
    return rows
