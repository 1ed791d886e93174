"""talescale: orchestration middleware plus a deterministic simulated-cluster
harness for packaging, placing and running executable research objects."""

from .archive import FORMAT_VERSION, export_tale, import_tale
from .clock import SimClock
from .dms import (
    DatasetCatalog,
    DmsCache,
    ExternalDataRef,
    StagingAction,
    StagingKind,
    TransferRecord,
    resolve_local,
)
from .errors import TalescaleError, ValidationError
from .measure import launch_frontend, measure_models
from .metrics import ReportTable, ScenarioMetrics, emit_report
from .middleware import (
    JobHandle,
    JobSpec,
    JobState,
    JobStatus,
    LrmMiddleware,
    TERMINAL_STATES,
)
from .pilots import PilotPool, PoolPolicy, SlotState
from .planner import (
    ExecutionModel,
    Inventory,
    PlacementPlan,
    WorkloadRequirements,
    enumerate_feasible_models,
    estimate_time_to_frontend,
    plan_placement,
)
from .proxy import Endpoint, ProxyRegistry, Route, SimulatedNetwork
from .queues import QueueModel, sample_queue_wait
from .resources import ResourceDescriptor
from .tale import (
    ArtifactKind,
    CodeArtifact,
    EnvironmentSpec,
    PackagingManifest,
    PackagingStrategy,
    ProvenanceEvent,
    ProvenanceKind,
    Tale,
    WorkloadClass,
    build_manifest,
    classify_workload,
    create_tale,
    record_provenance,
    select_strategy,
)
from .trace import TraceLog
from .transport import Transport
from .world import World, WorldConfig, load_config, run_scenario

__version__ = "0.1.0"
