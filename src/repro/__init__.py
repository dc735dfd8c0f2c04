"""repro: an open-source reproduction of Overton (CIDR 2020).

Overton is a data system for monitoring and improving machine-learned
products.  This package reimplements the full system described in the paper
— declarative schemas, weak-supervision combination, slice-based capacity,
schema-to-model compilation, coarse architecture search, and automatic
deployment — on a from-scratch numpy deep-learning substrate.

The public surface is the application-lifecycle API in :mod:`repro.api`:
an :class:`Application` declares the product (schema + slices + supervision
policy), a :class:`Run` owns one training outcome, and an
:class:`Endpoint` serves it.

Quickstart::

    from repro import Dataset
    from repro.api import Application, Endpoint, Run

    app = Application.from_spec("app.json")     # schema, slices, supervision
    dataset = Dataset.from_file(app.schema, "data.jsonl")

    run = app.fit(dataset)                      # combine supervision + train
    print(run.report(dataset, tags=["test"]))   # per-tag quality report
    run.save("runs/tonight")                    # artifact + history + report

    endpoint = Run.load("runs/tonight").endpoint()
    endpoint.predict({"tokens": ["how", "tall", "is", "everest"],
                      "entities": [{"id": "Everest", "range": [3, 4]}]})

Deploying through a :class:`ModelStore` gives versioned serving::

    run.deploy(store)                           # push under the app's name
    endpoint = Endpoint.from_store(store, app.name)   # follows latest
    pinned = Endpoint.from_store(store, app.name, version="abc123")
"""

from repro.api import Application, Endpoint, Run, SupervisionPolicy
from repro.core import (
    ModelConfig,
    PayloadConfig,
    Schema,
    ServingSignature,
    TrainerConfig,
    TuningSpec,
)
from repro.data import Dataset, Record
from repro.deploy import ModelArtifact, ModelStore
from repro.slicing import SliceSet, SliceSpec
from repro.supervision import (
    LabelModel,
    LabelSource,
    combine_supervision,
    labeling_function,
)

__version__ = "1.1.0"

__all__ = [
    "Application",
    "SupervisionPolicy",
    "Run",
    "Endpoint",
    "ModelConfig",
    "PayloadConfig",
    "Schema",
    "ServingSignature",
    "TrainerConfig",
    "TuningSpec",
    "Dataset",
    "Record",
    "ModelArtifact",
    "ModelStore",
    "SliceSet",
    "SliceSpec",
    "LabelModel",
    "LabelSource",
    "combine_supervision",
    "labeling_function",
    "__version__",
]
