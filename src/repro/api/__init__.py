"""repro.api: the unified application-lifecycle API.

One declarative surface for the paper's whole loop (Figure 1):

* :class:`Application` — schema + slices + supervision policy + embedding
  registry, constructible from a single ``app.json``/dict spec;
* :class:`Run` — the result of ``app.fit(...)`` / ``app.tune(...)``: the
  trained model, history, search log, quality report, and a
  ``save()``/``load()`` round-trip;
* :class:`Endpoint` — a serving session over one artifact: validated
  payloads, micro-batched ``predict()``, version pinning against a
  :class:`repro.deploy.ModelStore`.

``TrainedModel`` is the record a :class:`Run` carries: the trained model
plus everything needed to evaluate and deploy it (``run.trained``).
"""

from repro.api.application import Application, SupervisionPolicy
from repro.api.endpoint import Endpoint
from repro.api.run import Run, TrainedModel

__all__ = [
    "Application",
    "SupervisionPolicy",
    "Run",
    "TrainedModel",
    "Endpoint",
]
