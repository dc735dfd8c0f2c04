"""Tests for large/small sync and model versioning."""

import pytest

from repro.api import check_pair
from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.deploy import (
    ModelArtifact,
    ModelStore,
    VersionLog,
    data_fingerprint,
    fetch_pair,
    push_pair,
)
from repro.deploy.sync import data_fingerprints
from repro.errors import DeploymentError

from tests.fixtures import compile_from_dataset, mini_dataset


def config(size: int) -> ModelConfig:
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder="bow", size=size),
            "query": PayloadConfig(size=size),
            "entities": PayloadConfig(size=size),
        },
        trainer=TrainerConfig(epochs=1),
    )


def artifact_pair(seed=0, same_data=True):
    ds = mini_dataset(n=20, seed=seed)
    fp = data_fingerprint(ds.records)
    large_model, vocabs = compile_from_dataset(ds, config(32), seed=seed)
    small_model, _ = compile_from_dataset(ds, config(8), seed=seed)
    large = ModelArtifact.from_model(
        large_model, vocabs, extra_metadata={"data_fingerprint": fp}
    )
    small = ModelArtifact.from_model(
        small_model,
        vocabs,
        extra_metadata={"data_fingerprint": fp if same_data else "different"},
    )
    return large, small, ds


class TestSync:
    def test_push_and_fetch_pair(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        large, small, _ = artifact_pair()
        result = push_pair(store, "qa", large, small)
        assert result.large.model_name == "qa/large"
        fetched_large, fetched_small = fetch_pair(store, "qa")
        assert fetched_large.metadata["num_parameters"] > fetched_small.metadata[
            "num_parameters"
        ]

    def test_mismatched_data_rejected(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        large, small, _ = artifact_pair(same_data=False)
        with pytest.raises(DeploymentError, match="different data"):
            push_pair(store, "qa", large, small)

    def test_check_pair_in_sync(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        large, small, ds = artifact_pair()
        push_pair(store, "qa", large, small)
        check = check_pair(store, "qa")
        assert check.in_sync
        assert check.problems == []

    def test_check_pair_with_probes(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        large, small, ds = artifact_pair()
        push_pair(store, "qa", large, small)
        probes = [{"tokens": r.payloads["tokens"], "entities": r.payloads["entities"]}
                  for r in ds.records[:5]]
        check = check_pair(store, "qa", probe_payloads=probes, min_agreement=0.0)
        assert check.agreement is not None
        assert 0.0 <= check.agreement <= 1.0

    def test_check_pair_missing_half(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        large, small, _ = artifact_pair()
        store.push("qa/large", large)  # small never pushed
        check = check_pair(store, "qa")
        assert not check.in_sync

    def test_data_fingerprint_stable(self):
        ds = mini_dataset(n=10, seed=3)
        assert data_fingerprint(ds.records) == data_fingerprint(ds.records)
        assert data_fingerprint(ds.records[:5]) != data_fingerprint(ds.records)

    def test_data_fingerprint_follows_record_order(self):
        records = mini_dataset(n=10, seed=3).records
        assert data_fingerprint(records[::-1]) != data_fingerprint(records)

    def test_data_fingerprints_hash_a_subset_as_its_own_set(self):
        records = mini_dataset(n=10, seed=3).records
        subset = [r for i, r in enumerate(records) if i % 3 == 0]
        assert data_fingerprints(records, subset) == (
            data_fingerprint(records),
            data_fingerprint(subset),
        )

    def test_data_fingerprints_of_an_empty_subset(self):
        records = mini_dataset(n=10, seed=3).records
        whole, part = data_fingerprints(records, [])
        assert whole == data_fingerprint(records)
        assert part == data_fingerprint([])

    def test_mismatched_schemas_rejected(self, tmp_path):
        from repro.workloads import FactoidGenerator, WorkloadConfig

        store = ModelStore(tmp_path / "store")
        large, _, _ = artifact_pair()
        other = FactoidGenerator(WorkloadConfig(n=20, seed=0)).generate()
        small = ModelArtifact.from_model(
            *compile_from_dataset(other, config(8)),
            extra_metadata={"data_fingerprint": large.metadata["data_fingerprint"]},
        )
        with pytest.raises(DeploymentError, match="different schemas"):
            push_pair(store, "qa", large, small)
        assert store.models() == []


class TestVersioning:
    def push_n(self, store, n):
        versions = []
        for seed in range(n):
            artifact, *_ = (lambda s: (ModelArtifact.from_model(
                *compile_from_dataset(mini_dataset(n=10, seed=s), config(8), seed=s)
            ),))(seed)
            versions.append(store.push("qa", artifact).version)
        return versions

    def test_semver_progression(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        contents = self.push_n(store, 3)
        log = VersionLog(store, "qa")
        r1 = log.record(contents[0])
        r2 = log.record(contents[1], bump="patch")
        r3 = log.record(contents[2], bump="major")
        assert (r1.semver, r2.semver, r3.semver) == ("1.0.0", "1.0.1", "2.0.0")
        assert r2.parent == "1.0.0"

    def test_record_requires_pushed_content(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        self.push_n(store, 1)
        log = VersionLog(store, "qa")
        with pytest.raises(DeploymentError, match="never pushed"):
            log.record("doesnotexist")

    def test_release_moves_latest(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        contents = self.push_n(store, 2)
        log = VersionLog(store, "qa")
        r1 = log.record(contents[0])
        log.record(contents[1])
        log.release(r1.semver)
        assert store.latest_version("qa") == contents[0]
        assert log.released().semver == r1.semver

    def test_rollback(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        contents = self.push_n(store, 2)
        log = VersionLog(store, "qa")
        r1 = log.record(contents[0])
        r2 = log.record(contents[1])
        log.release(r1.semver)
        log.release(r2.semver)
        log.rollback(r1.semver)
        assert store.latest_version("qa") == contents[0]
        statuses = {r.semver: r.status for r in log.records()}
        assert statuses[r1.semver] == "released"
        assert statuses[r2.semver] == "rolled_back"

    def test_lineage(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        contents = self.push_n(store, 3)
        log = VersionLog(store, "qa")
        for c in contents:
            log.record(c)
        assert log.lineage("1.2.0") == ["1.0.0", "1.1.0", "1.2.0"]
        with pytest.raises(DeploymentError):
            log.lineage("9.9.9")

    def test_a_write_dying_midway_keeps_the_previous_log(self, tmp_path, monkeypatch):
        import builtins
        import io

        store = ModelStore(tmp_path / "store")
        contents = self.push_n(store, 2)
        log = VersionLog(store, "qa")
        first = log.record(contents[0])
        real_open = io.open

        class DiesMidWrite:
            """A file handle whose first write lands half its text, then fails."""

            def __init__(self, handle):
                self._handle = handle

            def write(self, text):
                self._handle.write(text[: len(text) // 2])
                self._handle.flush()
                raise OSError(28, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def __getattr__(self, name):
                return getattr(self._handle, name)

        def dying_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return DiesMidWrite(handle) if "w" in mode else handle

        # ``Path.write_text`` opens through ``io.open``, ``open()`` through
        # builtins: patch both so any writer's handle dies.
        with monkeypatch.context() as patch:
            patch.setattr(io, "open", dying_open)
            patch.setattr(builtins, "open", dying_open)
            with pytest.raises(OSError):
                log.record(contents[1])
        assert log.records() == [first]
        assert [p.name for p in log._path.parent.glob("*.tmp")] == []

    def test_unknown_version_operations(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        self.push_n(store, 1)
        log = VersionLog(store, "qa")
        with pytest.raises(DeploymentError):
            log.release("3.0.0")

    def test_fingerprints_recorded(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        contents = self.push_n(store, 1)
        log = VersionLog(store, "qa")
        record = log.record(contents[0])
        assert record.schema_fingerprint is not None
