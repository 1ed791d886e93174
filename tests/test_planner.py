import dataclasses
import itertools
import random
import sys
from collections import Counter

import pytest

from talescale.digest import digest_bytes
from talescale.dms import DatasetCatalog, ExternalDataRef, StagingKind, resolve_local
from talescale.errors import InfeasiblePlanError, ValidationError
from talescale.planner import (
    MODEL_ORDER,
    OBJECTIVES,
    ExecutionModel,
    Inventory,
    LaunchPath,
    WorkloadRequirements,
    enumerate_feasible_models,
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

    def test_candidates_decide_feasibility_and_pair_each_placement_once(self):
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
        plan = plan_placement(WorkloadRequirements(), [ARCHETYPES["wt"]], image_load_s=8.0)
        assert plan.model == M.M1_WT_CLUSTER
        assert plan.estimated_time_to_frontend == 8.0

    def test_batch_frontend_adds_expected_wait(self):
        hpc = make_resource(queue=QueueModel(distribution="exponential", params={"mean": 600.0}))
        plan = plan_placement(WorkloadRequirements(needs_hpc=True), [hpc], image_load_s=8.0)
        assert plan.model == M.M3_HPC_NODE_LOCAL_LRM
        estimate = plan.estimated_time_to_frontend
        # sampling oracle: the analytic mean matches the empirical mean
        rng = random.Random(5)
        empirical = sum(hpc.queue_model.sample(rng) for _ in range(20_000)) / 20_000
        assert estimate == 8.0 + 600.0
        assert abs(estimate - (8.0 + empirical)) / estimate < 0.05


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


class TestRequirements:
    def test_mpi_implies_hpc(self):
        with pytest.raises(ValidationError):
            WorkloadRequirements(needs_hpc=False, needs_mpi=True)

    def test_min_nodes_positive(self):
        with pytest.raises(ValidationError):
            WorkloadRequirements(min_nodes=0)


def brute_force_plan(req, inventory, objective, *, catalog=None, frontend_override=None,
                     image_load_s=8.0):
    """The placement rule restated the slow way.

    A frontend on the deployment cluster (M1, M5), or on a resource with no
    queue model, costs one image load; any other adds its queue model's
    mean wait. Every scored candidate resolves every requested dataset on
    its consumer (the workload resource, else the frontend) and sums the
    sizes of the cache fetches; the plan is the min over (primary, model
    index, frontend index, workload index).
    """
    rules = placement_candidates(req, inventory)
    reasons = [f"{c.model.value}: {'feasible' if c.feasible else 'infeasible'} - {c.reason}"
               for c in rules]
    by_name = {r.name: r for r in inventory}
    if frontend_override is None:
        candidates = [(c.model, f, w) for c in rules for f, w in c.pairs]
    else:
        if frontend_override not in by_name:
            raise ValidationError(
                f"frontend override {frontend_override!r} is not in the inventory")
        decoupled = rules[-1]
        candidates = [(decoupled.model, by_name[frontend_override], w)
                      for _, w in decoupled.pairs]
    if not candidates:
        raise InfeasiblePlanError(reasons)
    sizes = {ref.uri: ref.size_bytes for ref in catalog or ()}  # absent: one byte
    uris = sorted(req.dataset_uris)

    def estimate(model, frontend):
        if model in (M.M1_WT_CLUSTER, M.M5_WT_FRONTEND_REMOTE_LRM) or frontend.queue_model is None:
            return image_load_s
        return image_load_s + frontend.queue_model.expected_wait()

    def key(candidate):
        model, frontend, workload = candidate
        consumer = workload or frontend
        if objective == "min_time_to_frontend":
            primary = estimate(model, frontend)
        else:
            primary = sum(sizes.get(uri, 1) for uri in uris
                          if resolve_local([uri], consumer)[0].action == StagingKind.CACHE_FETCH)
        return (primary, MODEL_ORDER.index(model), inventory.index(frontend),
                inventory.index(workload) if workload is not None else -1)

    model, frontend, workload = min(candidates, key=key)
    notes = reasons + [f"selected {model.value} minimizing {objective}"]
    if frontend_override is not None:
        notes.append(f"user_override=true: frontend pinned to {frontend.name}")
    return {
        "model": model.value,
        "frontend_resource": frontend.name,
        "workload_resources": [workload.name] if workload is not None else [],
        "proxy_required": not frontend.allows_incoming_connections,
        "staging_actions": [resolve_local([uri], workload or frontend)[0].to_dict()
                            for uri in uris],
        "estimated_time_to_frontend": estimate(model, frontend),
        "objective": objective,
        "reasons": notes,
        "user_override": frontend_override is not None,
    }


def outcome(plan, *args, **kwargs):
    """A plan's dict, or the (type, message) of the error it raised."""
    try:
        result = plan(*args, **kwargs)
    except (ValidationError, InfeasiblePlanError) as exc:
        return type(exc), str(exc)
    return result if isinstance(result, dict) else result.to_dict()


def random_inventory(rng, uris, most=None):
    """1-12 resources of every kind, each holding up to ``most`` (default
    all) of ``uris`` as POSIX or non-POSIX data."""
    most = len(uris) if most is None else most
    inventory = []
    for i in range(rng.randint(1, 12)):
        kind = rng.choice(("wt_cluster", "hpc_cluster", "hpc_cluster", "cloud"))
        lrm = "none" if kind == "wt_cluster" else rng.choice(("none", "batch", "batch"))
        queue = rng.choice((None, fixed_queue(rng.choice((0, 30, 600)))))
        inventory.append(make_resource(
            name=f"r{i}", kind=kind, lrm=lrm,
            incoming=kind == "wt_cluster" or rng.random() < 0.3,
            mpi=rng.random() < 0.4, nodes=rng.choice((1, 2, 4, 8, 16)),
            datasets=rng.sample(uris, rng.randint(0, most)),
            posix=rng.random() < 0.5, queue=queue))
    return inventory


def launch_shaped_inventory(rng, uris):
    """50 resources shaped like tale_launch's (a deployment cluster, 9
    direct nodes, 40 batch clusters), each holding 0-3 of ``uris``."""
    def held():
        return rng.sample(uris, rng.randint(0, 3))

    inventory = [make_resource(name="wt-0", kind="wt_cluster", lrm="none", incoming=True,
                               datasets=held())]
    inventory += [make_resource(name=f"node-{k}", lrm="none", datasets=held(),
                                posix=rng.random() < 0.5) for k in range(9)]
    inventory += [make_resource(name=f"hpc-{k:02d}", nodes=rng.choice((8, 16, 32, 64)),
                                mpi=k % 3 == 0, datasets=held(), posix=k % 2 == 0,
                                queue=fixed_queue(rng.choice((0, 300))))
                  for k in range(40)]
    return inventory


def first_consumer(req, inventory):
    """The consumer of the rule's first candidate: the workload resource, else
    the frontend."""
    return next(workload or frontend for c in placement_candidates(req, inventory)
                for frontend, workload in c.pairs)


class TestPlanMatchesBruteForce:
    def test_seeded_random_inputs(self):
        rng = random.Random(20201)
        uris = [f"doi:10.5072/d{j}" for j in range(6)]
        compared = 0
        for _ in range(1000):
            inventory = random_inventory(rng, uris)
            # the catalog leaves some URIs out (size 1) and holds zero sizes
            catalog = rng.choice((None, DatasetCatalog(
                ExternalDataRef(uri=u, size_bytes=rng.choice((0, 0, 5, 70, 10 ** 12)),
                                checksum=digest_bytes(u.encode()))
                for u in uris if rng.random() < 0.7)))
            needs_mpi = rng.random() < 0.2
            req = WorkloadRequirements(
                needs_hpc=needs_mpi or rng.random() < 0.5, needs_mpi=needs_mpi,
                min_nodes=rng.choice((1, 1, 1, 2, 8)),
                dataset_uris=rng.sample(uris, rng.randint(0, len(uris))))
            override = rng.choice((None, None, None, "ghost", *(r.name for r in inventory[:3])))
            for objective in OBJECTIVES:
                kwargs = dict(catalog=catalog, frontend_override=override)
                expected = outcome(brute_force_plan, req, inventory, objective, **kwargs)
                assert outcome(plan_placement, req, inventory, objective, **kwargs) == expected
                compared += isinstance(expected, dict)
        assert compared > 1000  # most draws plan; the rest compare their errors

    def test_reused_snapshot_matches_every_request(self):
        # One snapshot serves requests of mixed shapes, objectives, overrides
        # and catalogs; its kept tables must give each request the plan a
        # fresh list gives, and never see resources added to the source list
        # after the snapshot was taken.
        rng = random.Random(20202)
        uris = [f"doi:10.5072/d{j}" for j in range(6)]
        compared = 0
        for _ in range(200):
            original = random_inventory(rng, uris)
            source = list(original)
            snapshot = Inventory(source)
            source.append(make_resource(name="late", nodes=16, mpi=True, datasets=uris,
                                        queue=fixed_queue(0)))
            for _ in range(6):
                needs_mpi = rng.random() < 0.2
                req = WorkloadRequirements(
                    needs_hpc=needs_mpi or rng.random() < 0.5, needs_mpi=needs_mpi,
                    min_nodes=rng.choice((1, 1, 2, 8)),
                    dataset_uris=rng.sample(uris, rng.randint(0, len(uris))))
                catalog = rng.choice((None, DatasetCatalog(
                    ExternalDataRef(uri=u, size_bytes=rng.choice((0, 5, 70, 10 ** 12)),
                                    checksum=digest_bytes(u.encode()))
                    for u in uris if rng.random() < 0.7)))
                override = rng.choice((None, None, "ghost", "late",
                                       *(r.name for r in original[:3])))
                for objective in OBJECTIVES:
                    kwargs = dict(catalog=catalog, frontend_override=override)
                    expected = outcome(brute_force_plan, req, original, objective, **kwargs)
                    assert outcome(plan_placement, req, original, objective, **kwargs) == expected
                    assert outcome(plan_placement, req, snapshot, objective, **kwargs) == expected
                    compared += isinstance(expected, dict)
        assert compared > 1000

    def test_sparse_holdings(self):
        # tale_launch's traffic: each resource holds 0-3 of 60 datasets, so
        # most consumers hold none of a plan's datasets. Draws add a holder
        # at the rule's first position, a requested dataset nobody holds,
        # all-zero sizes, and equal sizes, under which holders tie.
        rng = random.Random(20203)
        uris = [f"doi:10.5072/s{j:02d}" for j in range(60)]
        unheld = "doi:10.5072/unheld"
        seen = Counter()
        for draw in range(600):
            inventory = (launch_shaped_inventory(rng, uris) if draw % 2
                         else random_inventory(rng, uris, most=3))
            needs_mpi = rng.random() < 0.2
            req = WorkloadRequirements(
                needs_hpc=needs_mpi or rng.random() < 0.5, needs_mpi=needs_mpi,
                min_nodes=rng.choice((1, 1, 2, 16)))
            wanted = set(rng.sample(uris, rng.randint(0, 8)))
            if rng.random() < 0.3:
                wanted.add(unheld)
            if any(c.feasible for c in placement_candidates(req, inventory)):
                first = first_consumer(req, inventory)
                if first.local_datasets and rng.random() < 0.4:
                    wanted.add(rng.choice(sorted(first.local_datasets)))
                    seen["first holds"] += 1
            req = dataclasses.replace(req, dataset_uris=wanted)
            sizes = rng.choice(("none", "mixed", "zero", "equal"))
            catalog = None if sizes == "none" else DatasetCatalog(
                ExternalDataRef(uri=u, checksum=digest_bytes(u.encode()), size_bytes={
                    "mixed": rng.choice((0, 5, 70, 10 ** 12)), "zero": 0, "equal": 5}[sizes])
                for u in uris + [unheld] if rng.random() < 0.8)
            override = rng.choice((None, None, None, *(r.name for r in inventory[:3])))
            for objective in OBJECTIVES:
                kwargs = dict(catalog=catalog, frontend_override=override)
                expected = outcome(brute_force_plan, req, inventory, objective, **kwargs)
                assert outcome(plan_placement, req, inventory, objective, **kwargs) == expected
                if isinstance(expected, dict) and objective == "min_data_movement":
                    local = sum(a["action"] != "cache_fetch" for a in expected["staging_actions"])
                    seen["holder chosen" if local else "no holder chosen"] += 1
                    seen[sizes] += 1
        assert min(seen.values()) > 50, seen

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            plan_placement(WorkloadRequirements(), [wt_resource(), wt_resource()])


def tale_launch_inventory(resources, seed=3):
    """A deployment cluster, 9 direct nodes, and batch clusters with local
    data for the rest of ``resources``."""
    rng = random.Random(seed)
    uris = [f"doi:10.5072/ds{j:05d}" for j in range(3000)]
    inventory = [wt_resource(name="wt-0")]
    inventory += [make_resource(name=f"node-{k}", lrm="none", datasets=rng.sample(uris, 30))
                  for k in range(9)]
    inventory += [make_resource(name=f"hpc-{k:03d}", nodes=rng.choice((8, 16, 32, 64)),
                                mpi=k % 3 == 0, datasets=rng.sample(uris, 60),
                                posix=k % 2 == 0, queue=fixed_queue(300))
                  for k in range(resources - 10)]
    catalog = DatasetCatalog(ExternalDataRef(uri=u, size_bytes=rng.randint(1, 10 ** 9),
                                             checksum=digest_bytes(u.encode())) for u in uris)
    return inventory, catalog, rng, uris


class TestScoringWork:
    @pytest.mark.parametrize("resources", [50, 1000])
    def test_one_staging_resolution_per_dataset(self, monkeypatch, resources):
        # Scoring builds no staging actions: however many candidates a plan
        # ranks, only the chosen consumer's staging tuple resolves datasets,
        # each of them once.
        inventory, catalog, rng, uris = tale_launch_inventory(resources)
        calls = []

        def counting(wanted, resource):
            calls.extend(wanted)
            return resolve_local(wanted, resource)

        monkeypatch.setattr("talescale.planner.resolve_local", counting)
        for needs_hpc, needs_mpi, min_nodes in ((False, False, 1), (True, False, 1),
                                                 (True, True, 16)):
            req = WorkloadRequirements(needs_hpc=needs_hpc, needs_mpi=needs_mpi,
                                       min_nodes=min_nodes,
                                       dataset_uris=rng.sample(uris[:200], 8))
            calls.clear()
            plan = plan_placement(req, inventory, "min_data_movement", catalog=catalog)
            assert calls == sorted(req.dataset_uris) == [a.uri for a in plan.staging_actions]

    @pytest.mark.parametrize("resources", [50, 1000])
    def test_candidate_rule_runs_once_per_shape(self, monkeypatch, resources):
        inventory, catalog, rng, uris = tale_launch_inventory(resources)
        calls = []

        def counting(req, resources):
            calls.append((req.needs_hpc, req.needs_mpi, req.min_nodes))
            return placement_candidates(req, resources)

        monkeypatch.setattr("talescale.planner.placement_candidates", counting)
        snapshot = Inventory(inventory)
        shapes = ((False, False, 1), (True, False, 1), (True, True, 16))
        for _ in range(4):
            for needs_hpc, needs_mpi, min_nodes in shapes:
                req = WorkloadRequirements(needs_hpc=needs_hpc, needs_mpi=needs_mpi,
                                           min_nodes=min_nodes,
                                           dataset_uris=rng.sample(uris[:200], 8))
                for objective in OBJECTIVES:
                    plan_placement(req, snapshot, objective, catalog=catalog)
        assert calls == list(shapes)

    @pytest.mark.parametrize("needs_hpc", [False, True])
    def test_plan_work_does_not_grow_with_non_holders(self, needs_hpc):
        # Once a shape's tables are built, a min_data_movement plan makes
        # the same Python calls in the planner beside 50 or 5,000 consumers
        # that hold none of its datasets.
        uris = [f"doi:10.5072/h{j}" for j in range(6)]
        catalog = DatasetCatalog(ExternalDataRef(uri=u, size_bytes=10 * (j + 1),
                                                 checksum=digest_bytes(u.encode()))
                                 for j, u in enumerate(uris))
        req = WorkloadRequirements(needs_hpc=needs_hpc, dataset_uris=frozenset(uris[:4]))
        holders = [make_resource(name=f"holder-{k}", datasets=uris[k:k + 2], posix=k % 2 == 0,
                                 queue=fixed_queue(300)) for k in range(5)]

        def plan_calls(non_holders):
            idle = [make_resource(name=f"idle-{k}", datasets=uris[4:], queue=fixed_queue(300))
                    for k in range(non_holders)]
            snapshot = Inventory([wt_resource(name="wt-0"), *idle[:3], *holders, *idle[3:]])
            plan_placement(req, snapshot, "min_data_movement", catalog=catalog)  # builds the tables
            calls = Counter()

            def count(frame, event, arg):
                if event == "call" and frame.f_globals.get("__name__") == "talescale.planner":
                    calls[frame.f_code.co_name] += 1

            sys.setprofile(count)
            try:
                plan = plan_placement(req, snapshot, "min_data_movement", catalog=catalog)
            finally:
                sys.setprofile(None)
            return calls, plan

        small, small_plan = plan_calls(50)
        large, large_plan = plan_calls(5000)
        assert small == large
        assert small_plan == large_plan
        assert small_plan.staging_actions[0].resource.startswith("holder-")
