"""The per-request response formatter, kept as the oracle for finalize.

``Endpoint.finalize_outputs`` formats each task once per batch, as a
column.  This is the loop it replaced: one call per (request, task), class
names looked up one index at a time.  ``tests/api/test_finalize.py``
compares the two with ``json.dumps`` equality.
"""

from __future__ import annotations

from typing import Any


def format_record(schema, out_sig, task_out, i: int, payload) -> dict[str, Any]:
    """Payload ``i``'s response for one task."""
    if out_sig.type == "multiclass" and out_sig.granularity == "sequence":
        seq_payload = schema.task(out_sig.name).payload
        tokens = payload.get(seq_payload) or []
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
            seq_payload = schema.task(out_sig.name).payload
            tokens = payload.get(seq_payload) or []
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
    set_payload = schema.task(out_sig.name).payload
    members = payload.get(set_payload) or []
    scores = task_out.probs[i][: len(members)]
    return {
        "index": int(task_out.predictions[i]) if members else None,
        "scores": [float(s) for s in scores],
    }


def format_responses(endpoint, outputs, payloads) -> list[dict[str, Any]]:
    """Every payload's response, one (payload, task) at a time."""
    responses: list[dict[str, Any]] = [{} for _ in payloads]
    for out_sig in endpoint.signature.outputs:
        task_out = outputs[out_sig.name]
        for i, payload in enumerate(payloads):
            responses[i][out_sig.name] = format_record(
                endpoint.artifact.schema, out_sig, task_out, i, payload
            )
    return responses
