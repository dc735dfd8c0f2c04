"""Deployment: artifacts, the model store, pair pushes, and versioning."""

from repro.deploy.artifact import ModelArtifact
from repro.deploy.store import ModelStore, StoredVersion
from repro.deploy.sync import SyncedPush, data_fingerprint, fetch_pair, push_pair
from repro.deploy.versioning import VersionLog, VersionRecord

__all__ = [
    "ModelArtifact",
    "ModelStore",
    "StoredVersion",
    "SyncedPush",
    "data_fingerprint",
    "fetch_pair",
    "push_pair",
    "VersionLog",
    "VersionRecord",
]
