"""Harness preparation for a serve workload (not a metric).

Trains the artifact to be served, draws the request payloads from the
seeded workload, and answers each one with an in-process
``Endpoint.predict`` — the reference the load generator's oracle holds
the server's answers to.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness.spans import fingerprint  # noqa: E402
from programs.fit import fit_config  # noqa: E402

from repro.api import Endpoint  # noqa: E402
from repro.workloads import resolve_workload  # noqa: E402

WARMUP = 8  # payloads in the file `repro serve --warmup` reads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--encoder", required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--pool", type=int, required=True)
    args = parser.parse_args()
    out = Path(args.out)
    started = time.perf_counter()

    built = resolve_workload("factoid", scale=args.scale, seed=args.seed)
    run = built.application.fit(
        built.dataset, fit_config(args.encoder, args.size, args.epochs)
    )
    artifact = run.artifact()
    artifact.save(out / "artifact")

    endpoint = Endpoint.from_directory(out / "artifact")
    inputs = [i.name for i in endpoint.signature.inputs]
    payloads, seen = [], set()
    for record in built.dataset.records:
        payload = {name: record.payloads[name] for name in inputs}
        mark = fingerprint(payload)
        if mark not in seen:
            seen.add(mark)
            payloads.append(payload)
        if len(payloads) == args.pool:
            break
    if len(payloads) < args.pool:
        raise SystemExit(
            f"workload yields {len(payloads)} distinct payloads, need {args.pool}"
        )
    # JSON round trip: the reference must hold what a client can receive.
    reference = json.loads(json.dumps([endpoint.predict(p) for p in payloads]))
    (out / "payloads.json").write_text(json.dumps(payloads))
    (out / "reference.json").write_text(json.dumps(reference))
    (out / "warmup.json").write_text(json.dumps(payloads[:WARMUP]))
    print(json.dumps({"prepare_s": time.perf_counter() - started,
                      "payloads": len(payloads),
                      "dtype": endpoint.dtype_name}))


if __name__ == "__main__":
    main()
