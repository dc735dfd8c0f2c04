"""Deployment: artifacts, the model store, serving, sync, and versioning."""

from repro.deploy.artifact import ModelArtifact
from repro.deploy.store import ModelStore, StoredVersion
from repro.deploy.sync import (
    SyncCheck,
    SyncedPush,
    check_pair,
    data_fingerprint,
    fetch_pair,
    predictions_match,
    push_pair,
)
from repro.deploy.versioning import VersionLog, VersionRecord
from repro.deploy.export import (
    BACKENDS,
    GraphNode,
    ProgramGraph,
    build_program_graph,
    export_backend_skeleton,
)
from repro.deploy.profiler import SLA, LatencyProfile, profile_predictor, sla_gate

__all__ = [
    "ModelArtifact",
    "ModelStore",
    "StoredVersion",
    "predictions_match",
    "SyncCheck",
    "SyncedPush",
    "check_pair",
    "data_fingerprint",
    "fetch_pair",
    "push_pair",
    "VersionLog",
    "VersionRecord",
    "BACKENDS",
    "GraphNode",
    "ProgramGraph",
    "build_program_graph",
    "export_backend_skeleton",
    "SLA",
    "LatencyProfile",
    "profile_predictor",
    "sla_gate",
]
