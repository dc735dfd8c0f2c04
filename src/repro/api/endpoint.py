"""The :class:`Endpoint`: a serving session over one deployed model.

"Serving code does not change even when inputs, parameters, or resources of
the model change" (§1, model independence).  An endpoint consumes only an
artifact: raw payload dicts in, typed task responses out, shaped by the
serving signature.  Nothing here references tuning configs or supervision.

On top of the bare request/response loop the endpoint owns the serving
session concerns:

* **up-front payload validation** against the serving signature — missing
  and unknown fields raise :class:`DeploymentError` naming the fields,
  before any model work happens;
* **micro-batching** — arbitrarily large request lists are served in
  fixed-size model batches, so one caller cannot blow up memory;
* **version pinning** — an endpoint built via :meth:`from_store` remembers
  its model name and version; unpinned endpoints can ``refresh()`` to the
  store's latest version without the caller re-wiring anything.

``Endpoint(artifact, strict=False, micro_batch_size=None)`` is the
permissive single-batch session: missing signature inputs are allowed and
each ``predict()`` call runs as one model batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.data.batching import encode_inputs
from repro.data.record import Record
from repro.errors import DeploymentError
from repro.obs import get_tracer
from repro.tensor import dtype_policy, no_grad, resolve_dtype

if TYPE_CHECKING:
    from repro.deploy.artifact import ModelArtifact
    from repro.deploy.store import ModelStore


class Endpoint:
    """Loads an artifact and answers requests.

    ``constraints`` optionally enables joint constrained decoding (the
    paper's SRL future work, :mod:`repro.core.constraints`): per-example
    distributions of constrained tasks are rescored jointly, with the
    record passed as constraint context.

    ``micro_batch_size`` caps the model batch; ``None`` serves each request
    list as one batch.  ``strict`` controls whether *missing* signature
    inputs are rejected (unknown fields are always rejected).

    ``dtype`` overrides the artifact's serving precision: ``"float32"``
    casts the restored model's parameters once at load time and scopes
    every encode/forward in the matching
    :func:`~repro.tensor.dtype_policy`, trading a bounded prediction
    divergence (~1e-7 on the bench workload) for forward throughput.
    ``None`` (the default) restores exactly the precision the artifact's
    config was compiled with.  The override survives :meth:`refresh`.
    """

    def __init__(
        self,
        artifact: "ModelArtifact",
        constraints=None,
        micro_batch_size: int | None = 32,
        strict: bool = True,
        dtype: str | None = None,
    ) -> None:
        if micro_batch_size is not None and micro_batch_size <= 0:
            raise DeploymentError("micro_batch_size must be positive (or None)")
        self.micro_batch_size = micro_batch_size
        self.strict = strict
        self._dtype_override = resolve_dtype(dtype) if dtype is not None else None
        self._constraints = constraints
        # Store bookkeeping (populated by from_store).
        self._store: "ModelStore | None" = None
        self.model_name: str | None = None
        self.version: str | None = None
        self.pinned: bool = False
        # Session counters (what the throughput benchmark reads).
        self.requests_served = 0
        self.batches_run = 0
        self._load_artifact(artifact)

    def _load_artifact(self, artifact: "ModelArtifact") -> None:
        # Build and cast before publishing, and publish the model before
        # the artifact: a predict racing a refresh() must never observe a
        # half-cast model, nor a *new* vocab paired with the *old* model
        # (new ids could overrun the old embedding tables — the reverse
        # pairing only under-uses the new tables).  True atomicity across
        # a batch is the serving layer's job (``Replica.lock``).
        model = artifact.build_model()
        if self._dtype_override is not None:
            model.to_dtype(self._dtype_override)
        self._model = model
        self._schema = artifact.schema
        self.artifact = artifact
        self.signature = artifact.signature

    @property
    def store(self) -> "ModelStore | None":
        """The backing model store, if built via :meth:`from_store`."""
        return self._store

    @property
    def dtype_name(self) -> str:
        """The dtype this endpoint serves in (``"float64"``/``"float32"``)."""
        return self._model.dtype.name

    @property
    def dtype_override(self) -> str | None:
        """The constructor's dtype override, or ``None`` (artifact dtype).

        Distinct from :attr:`dtype_name`: an endpoint serving a
        float32-compiled artifact has ``dtype_name == "float32"`` but no
        override.  ``ReplicaPool`` reads this to give candidate replicas
        the same precision as their stable tier.
        """
        return self._dtype_override.name if self._dtype_override is not None else None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_directory(cls, directory, constraints=None, **kwargs) -> "Endpoint":
        from repro.deploy.artifact import ModelArtifact

        return cls(ModelArtifact.load(directory), constraints=constraints, **kwargs)

    @classmethod
    def from_store(
        cls,
        store: "ModelStore",
        name: str,
        version: str | None = None,
        constraints=None,
        **kwargs,
    ) -> "Endpoint":
        """Serve a stored model; passing ``version`` pins the endpoint.

        A pinned endpoint never moves off its version; an unpinned one
        starts at the store's latest and follows it on :meth:`refresh`.
        """
        resolved = version or store.latest_version(name)
        endpoint = cls(
            store.fetch(name, resolved), constraints=constraints, **kwargs
        )
        endpoint._store = store
        endpoint.model_name = name
        endpoint.version = resolved
        endpoint.pinned = version is not None
        return endpoint

    def refresh(self) -> bool:
        """Re-fetch the latest version from the store; True if it changed.

        Pinned endpoints never move.  Raises for endpoints not built via
        :meth:`from_store`.
        """
        if self._store is None or self.model_name is None:
            raise DeploymentError("endpoint is not backed by a model store")
        if self.pinned:
            return False
        latest = self._store.latest_version(self.model_name)
        if latest == self.version:
            return False
        self._load_artifact(self._store.fetch(self.model_name, latest))
        self.version = latest
        return True

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def predict(
        self, requests: dict[str, Any] | Sequence[dict[str, Any]]
    ) -> dict[str, Any] | list[dict[str, Any]]:
        """Answer one request dict or a batch of them.

        Each request is a payload dict matching the signature's inputs, e.g.
        ``{"tokens": ["how", "tall", ...], "entities": [...]}``.  The
        response maps each task to a typed result:

        * multiclass singleton: ``{"label": str, "scores": {class: prob}}``
        * multiclass sequence: ``{"labels": [str per position]}``
        * bitvector: ``{"labels": [classes]}`` (per position for sequences)
        * select: ``{"index": int, "scores": [float per candidate]}``

        A single dict in gets a single response dict out; a sequence gets a
        list, served in micro-batches of ``micro_batch_size``.
        """
        if isinstance(requests, dict):
            return self.predict([requests])[0]
        payloads = list(requests)
        if not payloads:
            return []
        # Validate the whole batch up front: fail before any model work.
        for i, payload in enumerate(payloads):
            self.validate_payload(payload, index=i)
        chunk = self.micro_batch_size or len(payloads)
        responses: list[dict[str, Any]] = []
        for start in range(0, len(payloads), chunk):
            responses.extend(self._predict_batch(payloads[start : start + chunk]))
        self.requests_served += len(payloads)
        return responses

    def predict_one(self, payload: dict[str, Any]) -> dict[str, Any]:
        return self.predict([payload])[0]

    def serve_batch(
        self, payloads: Sequence[dict[str, Any]], validate: bool = False
    ) -> list[dict[str, Any]]:
        """Answer one *already formed* batch in a single model pass.

        This is the encode-then-forward hook the serving gateway's dynamic
        batcher drives: the caller owns batch formation (size/deadline
        policy), so no micro-batch chunking happens here, and validation
        is opt-in because the gateway validates at enqueue time.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        if validate:
            for i, payload in enumerate(payloads):
                self.validate_payload(payload, index=i)
        responses = self.forward_encoded(*self.encode_requests(payloads))
        self.requests_served += len(payloads)
        return responses

    def validate_payload(self, payload: dict[str, Any], index: int | None = None) -> None:
        """Check one request against the serving signature.

        Unknown fields are always rejected; missing signature inputs are
        rejected when the endpoint is strict.  The error names the fields.
        """
        if not isinstance(payload, dict):
            raise DeploymentError(
                f"{_request_label(index)} must be a payload object, "
                f"got {type(payload).__name__}"
            )
        known = {i.name for i in self.signature.inputs}
        unknown = set(payload) - known
        if unknown:
            raise DeploymentError(
                f"{_request_label(index)} has unknown payloads {sorted(unknown)}; "
                f"signature inputs: {sorted(known)}"
            )
        if self.strict:
            missing = known - set(payload)
            if missing:
                raise DeploymentError(
                    f"{_request_label(index)} is missing payloads {sorted(missing)}; "
                    f"signature inputs: {sorted(known)}"
                )

    # ------------------------------------------------------------------
    # The encode-then-forward path (shared with repro.serve's batcher)
    # ------------------------------------------------------------------
    def encode_requests(
        self, payloads: Sequence[dict[str, Any]]
    ) -> tuple[list[Record], dict]:
        """Turn validated payloads into records + one encoded model batch.

        Encoding runs under the model's dtype policy so float batch arrays
        (masks, raw features) are born in the serving dtype instead of
        being cast on every forward.
        """
        with get_tracer().span("endpoint.encode", child_only=True, n=len(payloads)):
            records = [self._to_record(p) for p in payloads]
            with dtype_policy(self._model.dtype):
                batch = encode_inputs(records, self._schema, self.artifact.vocabs)
        return records, batch

    def forward_raw(self, batch: dict) -> dict[str, Any]:
        """The bare model forward over an encoded batch: task outputs only.

        Serving never takes gradients, so the forward runs tape-free: the
        ``no_grad`` guard here is belt-and-braces on top of
        ``MultitaskModel.predict`` (and keeps the fast path even if a
        custom model's ``predict`` forgets it).

        This is the only piece of serving that needs the model, which is
        why it is the slice :mod:`repro.serve.pool_worker` runs inside a
        worker process: encode and :meth:`finalize_outputs` stay in the
        gateway, only ``{task: outputs-with-probs-and-predictions}``
        crosses the process boundary.
        """
        size = batch.size if hasattr(batch, "size") else None
        with get_tracer().span("endpoint.forward", child_only=True, n=size):
            with no_grad():
                outputs = self._model.predict(batch)
        self.batches_run += 1
        return outputs

    def finalize_outputs(
        self, outputs: dict[str, Any], records: list[Record]
    ) -> list[dict[str, Any]]:
        """Constrain and format raw task outputs into per-record responses.

        ``outputs`` only needs per-task ``.probs`` / ``.predictions``
        arrays (a full :class:`~repro.model.task_heads.TaskOutput` or the
        slim cross-process stand-in both work), so the gateway can decode
        worker results without re-running the forward.
        """
        if self._constraints is not None and len(self._constraints):
            self._apply_constraints(outputs, records)
        responses: list[dict[str, Any]] = [{} for _ in records]
        for out_sig in self.signature.outputs:
            task_out = outputs[out_sig.name]
            for i, record in enumerate(records):
                responses[i][out_sig.name] = self._format(out_sig, task_out, i, record)
        return responses

    def forward_encoded(
        self, records: list[Record], batch: dict
    ) -> list[dict[str, Any]]:
        """One model forward over an encoded batch, formatted per record.

        Composition of :meth:`forward_raw` and :meth:`finalize_outputs` —
        the in-process serving path, and the parity reference for the
        process-parallel one.
        """
        return self.finalize_outputs(self.forward_raw(batch), records)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _predict_batch(self, payloads: list[dict[str, Any]]) -> list[dict[str, Any]]:
        return self.forward_encoded(*self.encode_requests(payloads))

    def _apply_constraints(self, outputs, records: list[Record]) -> None:
        """Rewrite constrained tasks' predictions via joint decoding.

        Only singleton-multiclass and select tasks participate (their
        outputs are one distribution per example).
        """
        eligible = set()
        for out_sig in self.signature.outputs:
            singleton_multiclass = (
                out_sig.type == "multiclass" and out_sig.granularity != "sequence"
            )
            if singleton_multiclass or out_sig.type == "select":
                eligible.add(out_sig.name)
        constrained = [
            t for t in self._constraints.constrained_tasks() if t in eligible
        ]
        if not constrained:
            return
        for i, record in enumerate(records):
            distributions = {t: outputs[t].probs[i] for t in constrained}
            result = self._constraints.decode(distributions, context=record)
            for task, (before, after) in result.changed.items():
                outputs[task].predictions[i] = after

    def _to_record(self, payload: dict[str, Any]) -> Record:
        record = Record(payloads=dict(payload))
        record.validate(self._schema)
        return record

    def _format(self, out_sig, task_out, i: int, record: Record) -> dict[str, Any]:
        if out_sig.type == "multiclass" and out_sig.granularity == "sequence":
            seq_payload = self._schema.task(out_sig.name).payload
            tokens = record.payloads.get(seq_payload) or []
            labels = [
                out_sig.classes[int(c)] for c in task_out.predictions[i][: len(tokens)]
            ]
            return {"labels": labels}
        if out_sig.type == "multiclass":
            probs = task_out.probs[i]
            label = out_sig.classes[int(task_out.predictions[i])]
            return {
                "label": label,
                "scores": {c: float(p) for c, p in zip(out_sig.classes, probs)},
            }
        if out_sig.type == "bitvector":
            bits = task_out.predictions[i]
            if out_sig.granularity == "sequence":
                seq_payload = self._schema.task(out_sig.name).payload
                tokens = record.payloads.get(seq_payload) or []
                return {
                    "labels": [
                        [out_sig.classes[k] for k in range(len(out_sig.classes)) if row[k]]
                        for row in bits[: len(tokens)]
                    ]
                }
            return {
                "labels": [
                    out_sig.classes[k] for k in range(len(out_sig.classes)) if bits[k]
                ]
            }
        # select
        set_payload = self._schema.task(out_sig.name).payload
        members = record.payloads.get(set_payload) or []
        scores = task_out.probs[i][: len(members)]
        return {
            "index": int(task_out.predictions[i]) if members else None,
            "scores": [float(s) for s in scores],
        }


def _request_label(index: int | None) -> str:
    return "request" if index is None else f"request {index}"
