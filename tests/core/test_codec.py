"""Conformance of every declarative spec to the one JSON codec.

Each class in :data:`SAMPLES` is a ``Spec``: its JSON form comes from its
fields, and a malformed document raises the error the class declares.
One parametrised table checks, per class: the round trip, the exact bytes
of ``to_dict`` (pinned, since stores and caches hash them), and the
declared error for an unknown key, a non-object input, a missing required
field and an unreadable file.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.api.application import SupervisionPolicy
from repro.autopilot import (
    DriftTrigger,
    HealPolicy,
    PromotionGate,
    RegressionTrigger,
    RetrainPlan,
)
from repro.core import (
    InputSignature,
    ModelConfig,
    PayloadConfig,
    ServingSignature,
    TaskSignature,
    TrainerConfig,
    TuningSpec,
)
from repro.deploy import StoredVersion, VersionRecord
from repro.errors import (
    AutopilotError,
    DeploymentError,
    FaultError,
    SchemaError,
    ServeError,
    StoreError,
    TuningError,
)
from repro.exec import CacheEntry
from repro.faults import FaultPlan, FaultRule
from repro.serve import BreakerPolicy
from repro.workloads import SYNTH_PRESETS
from repro.workloads.synth.spec import DriftPhase, WorkloadSpec

from tests.fixtures import factoid_schema

_CONFIG = ModelConfig(
    payloads={"tokens": PayloadConfig(encoder="lstm", size=16)},
    trainer=TrainerConfig(lr=0.003, epochs=2),
    dtype="float32",
)
_SPACE = TuningSpec(
    payload_options={"tokens": {"encoder": ["bow", "cnn"], "size": [8, 16]}},
    trainer_options={"lr": [0.01, 0.003]},
)
_RETRAIN = RetrainPlan(candidates=(_CONFIG,), spec=_SPACE, workers=2, cache_dir="c")
_GATE = PromotionGate(metrics=("f1",), blocking_slices=("slice:rare",))
_RULE = FaultRule(
    point="replica.serve",
    kind="latency",
    latency_s=0.25,
    max_fires=2,
    match=(("role", "stable"), ("tier", "small")),
)
_SIGNATURE = ServingSignature.from_schema(factoid_schema())

#: One non-default instance per spec class, with the error it declares.
SAMPLES = {
    DriftTrigger: (DriftTrigger(payload="query", vocab="tokens"), AutopilotError),
    RegressionTrigger: (
        RegressionTrigger(metrics=("accuracy",), slices=("slice:rare",)),
        AutopilotError,
    ),
    RetrainPlan: (_RETRAIN, AutopilotError),
    PromotionGate: (_GATE, AutopilotError),
    HealPolicy: (
        HealPolicy(
            drift_triggers=(DriftTrigger(), DriftTrigger(payload="query")),
            regression_trigger=RegressionTrigger(threshold=0.05),
            max_promotions=2,
            retrain=_RETRAIN,
            gate=_GATE,
            max_heal_failures=None,
        ),
        AutopilotError,
    ),
    PayloadConfig: (PayloadConfig(encoder="gru", dropout=0.1), TuningError),
    TrainerConfig: (TrainerConfig(optimizer="sgd", patience=3), TuningError),
    ModelConfig: (_CONFIG, TuningError),
    TuningSpec: (_SPACE, TuningError),
    DriftPhase: (DriftPhase(start=0.5, oov_rate=0.2, length_delta=2), SchemaError),
    WorkloadSpec: (SYNTH_PRESETS["synth-drift-storm"], SchemaError),
    FaultRule: (_RULE, FaultError),
    FaultPlan: (
        FaultPlan(name="storm", seed=3, rules=(_RULE, FaultRule(point="exec.trial"))),
        FaultError,
    ),
    BreakerPolicy: (BreakerPolicy(failure_threshold=3), ServeError),
    SupervisionPolicy: (
        SupervisionPolicy(method="majority", rebalance=False),
        SchemaError,
    ),
    TaskSignature: (_SIGNATURE.outputs[0], SchemaError),
    InputSignature: (_SIGNATURE.inputs[0], SchemaError),
    ServingSignature: (_SIGNATURE, SchemaError),
    CacheEntry: (
        CacheEntry(key="k1", score=0.5, seed=2, duration_s=1.5, meta={"epochs": 3}),
        TuningError,
    ),
    VersionRecord: (
        VersionRecord(
            semver="1.1.0",
            content_version="abc",
            parent="1.0.0",
            created_at=1.5,
            notes="retrained",
        ),
        DeploymentError,
    ),
    StoredVersion: (
        StoredVersion(
            model_name="m", version="abc", pushed_at=2.0, metadata={"f1": 0.5}
        ),
        StoreError,
    ),
}

#: sha256 of ``json.dumps(sample.to_dict())`` -- unsorted, so key order
#: is pinned too.  Taken from the hand-written serializers this codec
#: replaced; the bytes must never move.
TO_DICT_DIGESTS = {
    "DriftTrigger": "4c6cb57d3bd46e2b849f3b9be6e2a4b4b18c3a81fffd7c2554a74250095455e2",
    "RegressionTrigger": "a59f91c1267fb0d3319386a217a467da36f2f6284b466b718776f1ae5e6b1f8f",
    "RetrainPlan": "914cf9c8d6d0a5eff4aadf5e085994d9839fe9763dd83b346b7880be27288b32",
    "PromotionGate": "b462bce592c49eaf92ba39d1e3152cefdffdb141d39119673f0b3d7cac72a20b",
    "HealPolicy": "3bb02785342120e7f8dec2a8cd7fc53189c208f303ee309055be4447510f85ab",
    "PayloadConfig": "ecc36e2aa0da3442fbe5cec6af1cbb1b657df85e25e3023819a2dda02f3ba544",
    "TrainerConfig": "daa02f7ac9724fe18282909d96787fc1ff247a56341e658f52d3cc07f47ed809",
    "ModelConfig": "35ac193c855b359bc26cc056bfc0dde0a2e51247bb0202e6512e043fafd785e4",
    "TuningSpec": "d85f80a24c10d42b4c2d0f4d5ba9cd77a6c48578eb8ad36fa307a1e076283da9",
    "DriftPhase": "fcf7d79494ccf8608496bf4bf9dad4ce284460c914d334571616937cb5b0b032",
    "WorkloadSpec": "b21daa27d99587761fdbddaeaa1bc07f045e758f3cf73dd84c2573ec3eba47db",
    "FaultRule": "986571bb00698bf18d96cbb4f17baf4e8fb86f406abdb0e725ff55a3a02025d8",
    "FaultPlan": "b6eb36855457a020d53aefea785f766a483424522df212d9654c1d80c80e3f5c",
    "BreakerPolicy": "e1f4b1b114e94d9048f407637120534453682b74a9abd97306789bec5f7368d4",
    "SupervisionPolicy": "31bbcbd00963bea06cc9f11286a0c2fcbb350280674f8895117f24ef50d83e1c",
    "TaskSignature": "f8509f317f8278566cef7d8239bd9a7834a5b18d2a4237f3a4c010dbc6aa3a96",
    "InputSignature": "84a151ce7639e03be4d2a5b686b829e7697c8f92de38618738e5cab03a7d8884",
    "ServingSignature": "4ffe1c8be57b6b88efaedd2e0b78314904ff7b833350881f929e57abf653e82d",
    "CacheEntry": "769a291da774452851807db4ff89ad23234b13cf794bb6fa5482f950b92b0b9c",
    "VersionRecord": "f6684d6186e60e91769bbbfa2a38953f8b367dfe75bc465ee45123488f34d204",
    "StoredVersion": "8df0bfd4505ebf659428dc64f05e1be9e95840f612fbf04c432789cc13156fa6",
}

CLASSES = list(SAMPLES)


def required_keys(cls) -> list[str]:
    return [
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]


def test_every_spec_class_has_a_sample():
    from repro.core.codec import Spec

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert set(subclasses(Spec)) == set(SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_round_trip(cls):
    sample, _ = SAMPLES[cls]
    assert cls.from_dict(sample.to_dict()) == sample
    assert cls.from_dict(json.loads(json.dumps(sample.to_dict()))) == sample


@pytest.mark.parametrize(
    "cls", [c for c in CLASSES if not required_keys(c)], ids=lambda c: c.__name__
)
def test_defaults_round_trip(cls):
    assert cls.from_dict(cls().to_dict()) == cls()
    assert cls.from_json(cls().to_json()) == cls()
    assert cls.from_dict({}) == cls()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_to_dict_bytes_are_pinned(cls):
    sample, _ = SAMPLES[cls]
    digest = hashlib.sha256(json.dumps(sample.to_dict()).encode()).hexdigest()
    assert digest == TO_DICT_DIGESTS[cls.__name__]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_json_and_file_round_trip(cls, tmp_path):
    sample, _ = SAMPLES[cls]
    text = sample.to_json()
    assert text == json.dumps(sample.to_dict(), indent=2, sort_keys=True)
    assert cls.from_json(text) == sample
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    assert cls.from_file(path) == sample


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_unknown_key_raises_the_declared_error(cls):
    sample, error = SAMPLES[cls]
    with pytest.raises(error, match=rf"{cls.__name__}.*'bogus_key'"):
        cls.from_dict({**sample.to_dict(), "bogus_key": 1})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("document", [[], "spec", 3, None])
def test_non_object_raises_the_declared_error(cls, document):
    _, error = SAMPLES[cls]
    with pytest.raises(error, match=f"{cls.__name__} must be a JSON object"):
        cls.from_dict(document)


@pytest.mark.parametrize(
    "cls", [c for c in CLASSES if required_keys(c)], ids=lambda c: c.__name__
)
def test_missing_required_field_raises_the_declared_error(cls):
    sample, error = SAMPLES[cls]
    key = required_keys(cls)[0]
    spec = sample.to_dict()
    del spec[key]
    with pytest.raises(error, match=rf"{cls.__name__} is missing .*'{key}'"):
        cls.from_dict(spec)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_missing_optional_fields_take_their_defaults(cls):
    sample, _ = SAMPLES[cls]
    spec = {key: sample.to_dict()[key] for key in required_keys(cls)}
    assert cls.from_dict(spec) == cls(
        **{key: getattr(sample, key) for key in required_keys(cls)}
    )


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_unreadable_file_raises_the_declared_error(cls, tmp_path):
    _, error = SAMPLES[cls]
    with pytest.raises(error, match="cannot read"):
        cls.from_file(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(error, match="cannot read"):
        cls.from_file(broken)


class TestShapes:
    """A value of the wrong JSON shape is a named error, never a TypeError."""

    @pytest.mark.parametrize(
        "spec, path",
        [
            ({"drift_triggers": {"payload": "x"}}, "HealPolicy.drift_triggers"),
            ({"gate": [1]}, "HealPolicy.gate"),
            ({"min_live_window": "3"}, "HealPolicy"),
            ({"retrain": {"candidates": [3]}}, "HealPolicy.retrain"),
        ],
    )
    def test_policy_shape_errors_name_the_path(self, spec, path):
        with pytest.raises((AutopilotError, TuningError), match=path):
            HealPolicy.from_dict(spec)

    def test_nested_error_keeps_the_inner_class_and_names_the_path(self):
        spec = {"retrain": {"candidates": [{"trainr": {}}]}}
        with pytest.raises(TuningError) as excinfo:
            HealPolicy.from_dict(spec)
        message = str(excinfo.value)
        assert message.startswith("HealPolicy.retrain: RetrainPlan.candidates:")
        assert "unknown ModelConfig keys ['trainr']" in message

    def test_scalars_pass_through_uncoerced(self):
        phase = DriftPhase.from_dict({"start": 1})
        assert phase.start == 1 and isinstance(phase.start, int)

    def test_fault_rule_match_is_an_object_in_json(self):
        assert _RULE.to_dict()["match"] == {"role": "stable", "tier": "small"}
        rule = FaultRule.from_dict({"point": "x", "match": {"tier": "small", "a": 1}})
        assert rule.match == (("a", "1"), ("tier", "small"))
        with pytest.raises(FaultError, match="match must be"):
            FaultRule.from_dict({"point": "x", "match": ["tier"]})

    def test_tuning_spec_uses_the_fig_2a_keys(self):
        assert list(_SPACE.to_dict()) == ["payloads", "trainer"]
        with pytest.raises(TuningError, match="'payload_options'"):
            TuningSpec.from_dict({"payload_options": {}})
