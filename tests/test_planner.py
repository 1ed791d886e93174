import itertools
import random

import pytest

from talescale.digest import digest_bytes
from talescale.dms import DatasetCatalog, ExternalDataRef, StagingKind
from talescale.errors import InfeasiblePlanError, ValidationError
from talescale.planner import (
    ExecutionModel,
    LaunchPath,
    WorkloadRequirements,
    enumerate_feasible_models,
    estimate_time_to_frontend,
    launch_path,
    placement_candidates,
    plan_placement,
)
from talescale.queues import QueueModel

from conftest import make_resource, wt_resource

M = ExecutionModel


def fixed_queue(value):
    return QueueModel(distribution="fixed", params={"value": float(value)})


def feasible_set(req, inventory):
    return {mf.model for mf in enumerate_feasible_models(req, inventory) if mf.feasible}


# Archetypes for exhaustive small-inventory enumeration.
ARCHETYPES = {
    "wt": wt_resource(),
    "hpc_direct": make_resource(name="direct-1", lrm="none", nodes=1),
    "hpc_batch": make_resource(name="batch-1", lrm="batch", nodes=2, queue=fixed_queue(600)),
    "hpc_batch_mpi": make_resource(name="mpi-1", lrm="batch", mpi=True, nodes=8,
                                   queue=fixed_queue(600)),
    "cloud": make_resource(name="cloud-1", kind="cloud", lrm="none", incoming=True),
    "cloud_batch": make_resource(name="cloudb-1", kind="cloud", lrm="batch", mpi=True, nodes=8,
                                 incoming=True, queue=fixed_queue(10)),
}

REQS = [
    WorkloadRequirements(needs_hpc=False),
    WorkloadRequirements(needs_hpc=True, min_nodes=1),
    WorkloadRequirements(needs_hpc=True, min_nodes=4),
    WorkloadRequirements(needs_hpc=True, needs_mpi=True, min_nodes=4),
]


def oracle_feasible(model, req, inventory):
    """Independent restatement of the feasibility rules."""
    has_wt = any(r.kind == "wt_cluster" for r in inventory)
    direct = [r for r in inventory if r.kind == "hpc_cluster" and r.lrm == "none"]
    batch = [r for r in inventory if r.kind == "hpc_cluster" and r.lrm == "batch"]
    batch_fit = [r for r in batch if not req.needs_hpc or r.node_count >= req.min_nodes]
    single = req.min_nodes == 1 and not req.needs_mpi
    if model is M.M1_WT_CLUSTER:
        return has_wt and single
    if model is M.M2_HPC_NODE:
        return bool(direct) and single
    if model is M.M3_HPC_NODE_LOCAL_LRM:
        return bool(batch_fit) and not req.needs_mpi
    if model is M.M4_HPC_MPI:
        return req.needs_mpi and any(
            r.mpi_capable and r.node_count >= req.min_nodes for r in batch)
    if model is M.M5_WT_FRONTEND_REMOTE_LRM:
        return has_wt and bool(batch_fit) and not req.needs_mpi
    if model is M.M6_DECOUPLED_REMOTE_LRM:
        return bool(batch_fit) and not req.needs_mpi
    raise AssertionError(model)


class TestEnumerate:
    def test_always_reports_exactly_six_models(self):
        result = enumerate_feasible_models(REQS[0], [ARCHETYPES["wt"]])
        assert [mf.model for mf in result] == list(ExecutionModel)

    def test_empty_inventory_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_feasible_models(REQS[0], [])

    def test_mpi_requirement_on_wt_only_inventory(self):
        result = {mf.model: mf for mf in enumerate_feasible_models(
            WorkloadRequirements(needs_hpc=True, needs_mpi=True, min_nodes=4),
            [ARCHETYPES["wt"]])}
        assert not result[M.M4_HPC_MPI].feasible
        assert "MPI-capable" in result[M.M4_HPC_MPI].reason
        assert not result[M.M1_WT_CLUSTER].feasible
        assert "MPI" in result[M.M1_WT_CLUSTER].reason

    def test_frontend_only_requirement_wt_inventory(self):
        assert feasible_set(REQS[0], [ARCHETYPES["wt"]]) == {M.M1_WT_CLUSTER}

    def test_wt_plus_batch_hpc_single_node(self):
        models = feasible_set(REQS[1], [ARCHETYPES["wt"], ARCHETYPES["hpc_batch"]])
        assert models == {M.M1_WT_CLUSTER, M.M3_HPC_NODE_LOCAL_LRM,
                          M.M5_WT_FRONTEND_REMOTE_LRM, M.M6_DECOUPLED_REMOTE_LRM}

    def test_exhaustive_rule_table_over_small_inventories(self):
        names = list(ARCHETYPES)
        for r in range(1, len(names) + 1):
            for combo in itertools.combinations(names, r):
                inventory = [ARCHETYPES[n] for n in combo]
                for req in REQS:
                    got = feasible_set(req, inventory)
                    want = {m for m in ExecutionModel if oracle_feasible(m, req, inventory)}
                    assert got == want, f"{combo} {req}"

    def test_candidates_decide_feasibility_and_pass_the_pairing_check(self):
        names = list(ARCHETYPES)
        for r in range(1, len(names) + 1):
            for combo in itertools.permutations(names, r):
                inventory = [ARCHETYPES[n] for n in combo]
                for req in REQS:
                    rules = placement_candidates(req, inventory)
                    assert feasible_set(req, inventory) == {c.model for c in rules if c.pairs}
                    for c in rules:
                        named = [(f.name, w and w.name) for f, w in c.pairs]
                        assert len(set(named)) == len(named), (combo, req, c.model)
                        if c.pairs:
                            frontend, _ = c.pairs[0]
                            estimate_time_to_frontend(c.model, frontend, 8.0)

    def test_monotonicity_adding_resources(self):
        rng = random.Random(99)
        names = list(ARCHETYPES)
        for _ in range(200):
            base = rng.sample(names, rng.randint(1, len(names) - 1))
            extra = rng.choice([n for n in names if n not in base])
            req = rng.choice(REQS)
            before = feasible_set(req, [ARCHETYPES[n] for n in base])
            after = feasible_set(req, [ARCHETYPES[n] for n in base + [extra]])
            assert before <= after


class TestLaunchPath:
    def test_each_model_and_resource_kind_launches_one_way(self):
        A = ARCHETYPES
        queued_node = make_resource(name="cloudq-1", kind="cloud", lrm="none", incoming=True,
                                    queue=fixed_queue(50))
        cases = [
            (M.M1_WT_CLUSTER, A["wt"], LaunchPath.IMAGE_LOAD),
            (M.M2_HPC_NODE, A["hpc_direct"], LaunchPath.NODE_QUEUE),
            (M.M3_HPC_NODE_LOCAL_LRM, A["hpc_batch"], LaunchPath.BATCH_QUEUE),
            (M.M4_HPC_MPI, A["hpc_batch_mpi"], LaunchPath.BATCH_QUEUE),
            (M.M5_WT_FRONTEND_REMOTE_LRM, A["wt"], LaunchPath.IMAGE_LOAD),
            (M.M6_DECOUPLED_REMOTE_LRM, A["cloud"], LaunchPath.IMAGE_LOAD),
            (M.M6_DECOUPLED_REMOTE_LRM, queued_node, LaunchPath.NODE_QUEUE),
            (M.M6_DECOUPLED_REMOTE_LRM, A["cloud_batch"], LaunchPath.BATCH_QUEUE),
        ]
        for model, resource, path in cases:
            assert launch_path(model, resource) == path, (model, resource.name)


class TestEstimate:
    def test_wt_frontend_is_one_image_load(self):
        assert estimate_time_to_frontend(M.M1_WT_CLUSTER, ARCHETYPES["wt"], 8.0) == 8.0

    def test_batch_frontend_adds_expected_wait(self):
        hpc = make_resource(queue=QueueModel(distribution="exponential", params={"mean": 600.0}))
        estimate = estimate_time_to_frontend(M.M3_HPC_NODE_LOCAL_LRM, hpc, 8.0)
        # sampling oracle: the analytic mean matches the empirical mean
        rng = random.Random(5)
        empirical = sum(hpc.queue_model.sample(rng) for _ in range(20_000)) / 20_000
        assert estimate == 8.0 + 600.0
        assert abs(estimate - (8.0 + empirical)) / estimate < 0.05

    def test_warm_pilot_replaces_wait_with_dispatch(self):
        hpc = make_resource(queue=fixed_queue(600))
        estimate = estimate_time_to_frontend(
            M.M3_HPC_NODE_LOCAL_LRM, hpc, 8.0,
            pool_state={hpc.name: True}, dispatch_overhead_s=0.2)
        assert estimate == 8.2

    def test_infeasible_pairing_rejected(self):
        with pytest.raises(ValidationError):
            estimate_time_to_frontend(M.M1_WT_CLUSTER, ARCHETYPES["hpc_batch"], 8.0)


def witness_cases():
    """Six canonical inventories, each selecting a distinct model."""
    blocked_direct = make_resource(name="direct-1", lrm="none", nodes=1,
                                   queue=fixed_queue(30))
    batch = make_resource(name="batch-1", lrm="batch", nodes=8, queue=fixed_queue(600))
    batch_mpi = make_resource(name="mpi-1", lrm="batch", mpi=True, nodes=8,
                              queue=fixed_queue(600))
    cloud = make_resource(name="cloud-1", kind="cloud", lrm="none", incoming=True)
    return [
        (M.M1_WT_CLUSTER, WorkloadRequirements(), [wt_resource()], {}),
        (M.M2_HPC_NODE, WorkloadRequirements(needs_hpc=True), [blocked_direct], {}),
        (M.M3_HPC_NODE_LOCAL_LRM, WorkloadRequirements(needs_hpc=True), [batch], {}),
        (M.M4_HPC_MPI, WorkloadRequirements(needs_hpc=True, needs_mpi=True, min_nodes=4),
         [batch_mpi], {}),
        (M.M5_WT_FRONTEND_REMOTE_LRM, WorkloadRequirements(needs_hpc=True, min_nodes=2),
         [wt_resource(), batch], {}),
        (M.M6_DECOUPLED_REMOTE_LRM, WorkloadRequirements(needs_hpc=True),
         [cloud, batch], {"frontend_override": "cloud-1"}),
    ]


class TestPlan:
    def test_min_time_prefers_wt_frontend_over_queued_models(self):
        inventory = [wt_resource(), make_resource(queue=fixed_queue(600))]
        plan = plan_placement(WorkloadRequirements(needs_hpc=True), inventory,
                              "min_time_to_frontend")
        assert plan.model in (M.M1_WT_CLUSTER, M.M5_WT_FRONTEND_REMOTE_LRM)
        assert plan.frontend_resource == "wt-1"
        assert plan.estimated_time_to_frontend == 8.0

    def test_min_data_movement_mounts_resident_dataset(self):
        uri = "doi:renaissance"
        catalog = DatasetCatalog([ExternalDataRef(
            uri=uri, size_bytes=70 * 10 ** 12, checksum=digest_bytes(uri.encode()))])
        hpc = make_resource(queue=fixed_queue(600), datasets={uri}, posix=True)
        inventory = [wt_resource(), hpc]
        plan = plan_placement(
            WorkloadRequirements(needs_hpc=True, dataset_uris={uri}),
            inventory, "min_data_movement", catalog=catalog)
        assert plan.workload_resources == (hpc.name,)
        assert plan.frontend_resource == hpc.name
        assert [a.action for a in plan.staging_actions] == [StagingKind.MOUNT]

    def test_proxy_required_iff_frontend_blocks_incoming(self):
        hpc = make_resource(queue=fixed_queue(600))  # blocks incoming
        plan = plan_placement(WorkloadRequirements(needs_hpc=True), [hpc])
        assert plan.proxy_required
        open_plan = plan_placement(WorkloadRequirements(), [wt_resource()])
        assert not open_plan.proxy_required

    def test_plans_are_deterministic(self):
        inventory = [wt_resource(), ARCHETYPES["hpc_batch"], ARCHETYPES["hpc_batch_mpi"]]
        req = WorkloadRequirements(needs_hpc=True)
        assert plan_placement(req, inventory) == plan_placement(req, inventory)

    def test_infeasible_error_lists_all_six_reasons(self):
        with pytest.raises(InfeasiblePlanError) as exc:
            plan_placement(WorkloadRequirements(needs_hpc=True, needs_mpi=True, min_nodes=4),
                           [wt_resource()])
        assert len(exc.value.reasons) >= 6
        assert sum(1 for r in exc.value.reasons if "infeasible" in r) == 6

    @pytest.mark.parametrize("model,req,inventory,kwargs", witness_cases(),
                             ids=[m.value for m, *_ in witness_cases()])
    def test_six_witness_coverage(self, model, req, inventory, kwargs):
        plan = plan_placement(req, inventory, "min_time_to_frontend", **kwargs)
        assert plan.model == model
        frontend = next(r for r in inventory if r.name == plan.frontend_resource)
        assert plan.proxy_required == (not frontend.allows_incoming_connections)
        assert bool(plan.workload_resources) == req.needs_hpc

    def test_override_records_user_override(self):
        cloud = make_resource(name="cloud-1", kind="cloud", lrm="none", incoming=True)
        plan = plan_placement(
            WorkloadRequirements(needs_hpc=True), [cloud, ARCHETYPES["hpc_batch"]],
            frontend_override="cloud-1")
        assert plan.model == M.M6_DECOUPLED_REMOTE_LRM
        assert plan.user_override
        assert any("user_override=true" in r for r in plan.reasons)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValidationError):
            plan_placement(WorkloadRequirements(needs_hpc=True),
                           [ARCHETYPES["hpc_batch"]], frontend_override="ghost")

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValidationError):
            plan_placement(WorkloadRequirements(), [wt_resource()], "min_cost")

    def test_warm_pool_lowers_the_plan_estimate(self):
        hpc = make_resource(queue=fixed_queue(600))
        req = WorkloadRequirements(needs_hpc=True)
        cold = plan_placement(req, [hpc])
        warm = plan_placement(req, [hpc], pool_state={hpc.name: True})
        assert cold.estimated_time_to_frontend == 608.0
        assert warm.estimated_time_to_frontend == pytest.approx(8.2)


class TestRequirements:
    def test_mpi_implies_hpc(self):
        with pytest.raises(ValidationError):
            WorkloadRequirements(needs_hpc=False, needs_mpi=True)

    def test_min_nodes_positive(self):
        with pytest.raises(ValidationError):
            WorkloadRequirements(min_nodes=0)
