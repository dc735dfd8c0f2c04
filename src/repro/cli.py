"""Command-line interface: the engineer-facing entry points.

Overton's users interact through data files and reports, not notebooks
(§2.3); the CLI packages the common loop, wired through the
:mod:`repro.api` application-lifecycle layer:

    python -m repro validate --schema schema.json --data data.jsonl
    python -m repro train    --app app.json --data data.jsonl --out artifact/
    python -m repro tune     --app app.json --data data.jsonl --spec tuning.json --workers 4
    python -m repro report   --artifact artifact/ --data data.jsonl
    python -m repro predict  --artifact artifact/ --request requests.json --batch 64
    python -m repro serve    --store store/ --model factoid-qa --port 8080
    python -m repro autopilot --store store/ --model factoid-qa --app app.json --data data.jsonl
    python -m repro query    --schema schema.json --data data.jsonl --tag train --task Intent
    python -m repro obs      --url http://127.0.0.1:8080 --metrics
    python -m repro synth    --preset synth-medium --scale 10000 --materialize data.jsonl

``train`` accepts either a bare ``--schema`` or a full ``--app`` spec
(schema + slices + supervision policy in one file); ``predict`` serves a
request file — one payload object or a list — through an
:class:`repro.api.Endpoint` in micro-batches of ``--batch``; ``serve``
runs the :mod:`repro.serve` gateway (dynamic batching, replica tiers,
canary/shadow rollout, live telemetry) behind a stdlib HTTP server.

Every command is a thin shim over the library API and returns a process
exit code, so it is scriptable in CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api import Application, Endpoint, SupervisionPolicy
from repro.core import ModelConfig, PayloadConfig, Schema, TrainerConfig, TuningSpec
from repro.data import Dataset, RecordQuery
from repro.deploy import ModelArtifact, ModelStore
from repro.errors import ReproError
from repro.monitoring import render_quality_report


def _load(schema_path: str, data_path: str) -> Dataset:
    schema = Schema.from_file(schema_path)
    return Dataset.from_file(schema, data_path)


def _application(args: argparse.Namespace) -> Application:
    """Build the Application from --app (full spec) or --schema (bare)."""
    if getattr(args, "app", None):
        return Application.from_spec(args.app)
    if not args.schema:
        raise ReproError("provide --app app.json or --schema schema.json")
    return Application(
        Schema.from_file(args.schema),
        supervision=SupervisionPolicy(gold_source=args.gold_source),
    )


def cmd_validate(args: argparse.Namespace) -> int:
    dataset = _load(args.schema, args.data)
    stats = dataset.supervision_stats()
    print(f"OK: {len(dataset)} records conform to the schema")
    print("supervision per task:")
    for task, sources in stats.items():
        total = sum(sources.values())
        print(f"  {task:<14} {total:>6} labels from {len(sources)} sources")
    table = dataset.tag_table()
    for split in ("train", "dev", "test"):
        print(f"  tag {split:<11} {table.count(split):>6} records")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    app = _application(args)
    dataset = Dataset.from_file(app.schema, args.data)
    size = args.size
    config = ModelConfig(
        payloads={
            p.name: PayloadConfig(
                encoder=args.encoder if p.type == "sequence" else "bow", size=size
            )
            for p in app.schema.payloads
        },
        trainer=TrainerConfig(
            epochs=args.epochs, batch_size=args.batch_size, lr=args.lr
        ),
    )
    run = app.fit(dataset, config)
    evals = run.evaluate(dataset, tag="test")
    metrics = {
        f"{task}_{name}": value
        for task, ev in evals.items()
        for name, value in ev.metrics.items()
    }
    run.artifact(metrics=metrics).save(args.out)
    print(f"trained {run.model.num_parameters():,} parameters")
    for task, ev in evals.items():
        print(f"  {task:<14} {ev.metrics}")
    print(f"artifact written to {args.out}")
    if args.run_out:
        run.save(args.run_out)
        print(f"run written to {args.run_out}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    app = _application(args)
    dataset = Dataset.from_file(app.schema, args.data)
    try:
        spec = TuningSpec.from_file(args.spec)
    except (OSError, ValueError) as exc:  # missing file or malformed JSON
        raise ReproError(f"cannot read tuning spec {args.spec}: {exc}") from exc
    if args.workers > 1 or args.cache_dir:
        executor = app.tuning_executor(
            dataset, workers=args.workers, cache_dir=args.cache_dir or None
        )
        try:
            run = app.tune(
                dataset,
                spec,
                strategy=args.strategy,
                num_trials=args.num_trials,
                executor=executor,
            )
        finally:
            executor.close()
        stats = executor.stats
        print(
            f"evaluated {run.search.num_trials} trials with {args.workers} "
            f"worker(s): {stats.executed} trained, {stats.cache_hits} from cache; "
            f"best model {'restored from cache' if stats.restored else 'retrained'}"
        )
    else:
        # Plain serial tuning: the legacy in-process path, which keeps the
        # winning trial's already-trained model (no extra refit).
        run = app.tune(
            dataset, spec, strategy=args.strategy, num_trials=args.num_trials
        )
        print(f"evaluated {run.search.num_trials} trials serially")
    search = run.search
    print(f"best dev score {search.best_score:.4f} with config:")
    print(search.best_config.to_json())
    if args.coverage:
        from repro.exec import coverage_report

        print()
        print(coverage_report(spec, search.trials).render())
    if args.out:
        run.artifact().save(args.out)
        print(f"best artifact written to {args.out}")
    if args.run_out:
        run.save(args.run_out)
        print(f"run written to {args.run_out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    artifact = ModelArtifact.load(args.artifact)
    dataset = Dataset.from_file(artifact.schema, args.data)
    app = Application(
        artifact.schema, supervision=SupervisionPolicy(gold_source=args.gold_source)
    )
    run = app.run_from_artifact(artifact)
    tags = args.tags.split(",") if args.tags else None
    print(render_quality_report(run.report(dataset, tags=tags)))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    endpoint = Endpoint.from_directory(
        args.artifact, micro_batch_size=args.batch, strict=args.strict
    )
    request = json.loads(Path(args.request).read_text())
    payloads = request if isinstance(request, list) else [request]
    for response in endpoint.predict(payloads):
        print(json.dumps(response))
    return 0


def _install_fault_plan(args: argparse.Namespace):
    """Arm ``--fault-plan plan.json`` (chaos drills against a live server).

    Returns the installed plan (or ``None``) so worker-pool callers can
    broadcast it to already-running worker processes.
    """
    if not getattr(args, "fault_plan", None):
        return None
    from repro.faults import FaultPlan, install

    plan = FaultPlan.from_file(args.fault_plan)
    install(plan)
    print(
        f"fault plan {plan.name!r} armed (seed={plan.seed}, "
        f"points: {', '.join(plan.points())})"
    )
    return plan


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    import time

    from repro.api import Endpoint as _Endpoint
    from repro.serve import (
        AsyncGatewayServer,
        GatewayConfig,
        ReplicaPool,
        ServingGateway,
    )

    dtype = args.dtype or None
    # --workers 0 keeps the exact in-process path; N > 0 forwards every
    # batch to one of N resident worker processes (docs/serving.md).
    if args.artifact:
        pool = ReplicaPool.from_endpoint(
            _Endpoint.from_directory(args.artifact, dtype=dtype),
            workers=args.workers,
        )
    elif args.store and args.model:
        pool = ReplicaPool.from_store(
            ModelStore(args.store), args.model, dtype=dtype, workers=args.workers
        )
    else:
        raise ReproError("provide --artifact DIR, or --store DIR with --model NAME")

    if args.obs:
        import repro.obs

        repro.obs.enable()
    config = GatewayConfig(
        max_batch_size=args.batch,
        max_wait_s=args.max_wait_ms / 1000.0,
        default_latency_budget=(
            args.budget_ms / 1000.0 if args.budget_ms else None
        ),
    )
    gateway = ServingGateway(pool, config)
    plan = _install_fault_plan(args)
    if plan is not None:
        # Worker processes forked before the plan was armed: ship it.
        pool.set_fault_plan(plan)
    if args.warmup:
        request = json.loads(Path(args.warmup).read_text())
        payloads = request if isinstance(request, list) else [request]
        estimates = pool.warmup(payloads)
        print(
            "warmup: "
            + "  ".join(f"{t}={s * 1000:.1f}ms" for t, s in estimates.items())
        )
    if args.canary:
        gateway.set_canary(args.canary, args.canary_fraction, shadow=args.shadow_canary)
    elif args.shadow:
        gateway.set_shadow(args.shadow)

    # SIGTERM sets a flag the wait loop polls, so the context managers
    # unwind in order: stop intake (server), drain lanes (gateway), join
    # workers (pool) — a rolling restart loses no accepted request.  A
    # flag, not an exception: the signal may land at any line from here
    # on, including before the loop below is entered.
    stop_requested = threading.Event()

    def _sigterm(signum, frame):
        stop_requested.set()

    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # not the main thread (embedded use)
        pass
    try:
        with pool, gateway, AsyncGatewayServer(
            gateway, host=args.host, port=args.port
        ) as server:
            versions = ", ".join(
                f"{tier}@{roles.get('stable')}"
                for tier, roles in pool.versions().items()
            )
            print(f"serving {versions} on {server.url}")
            if args.workers > 0:
                print(f"workers: {args.workers} processes")
            print(
                "routes: POST /predict   "
                "GET /healthz /telemetry /dashboard /metrics /trace/<id>"
            )
            deadline = (
                time.monotonic() + args.max_seconds if args.max_seconds else None
            )
            next_poll = time.monotonic() + args.poll_seconds
            try:
                while deadline is None or time.monotonic() < deadline:
                    if stop_requested.wait(0.2):
                        break
                    if args.poll_seconds and time.monotonic() >= next_poll:
                        next_poll = time.monotonic() + args.poll_seconds
                        for tier, changed in gateway.poll_store().items():
                            if changed:
                                version = pool.versions()[tier].get("stable")
                                print(f"tier {tier} refreshed -> {version}")
            except KeyboardInterrupt:
                pass
            print(gateway.dashboard())
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    return 0


def cmd_autopilot(args: argparse.Namespace) -> int:
    import time

    from repro.autopilot import DecisionJournal, HealPolicy, Supervisor
    from repro.serve import (
        AsyncGatewayServer,
        GatewayConfig,
        ReplicaPool,
        ServingGateway,
    )

    if args.obs:
        import repro.obs

        repro.obs.enable()
    app = _application(args)
    reference = Dataset.from_file(app.schema, args.data)
    if not args.store or not args.model:
        raise ReproError("autopilot needs --store DIR and --model NAME")
    pool = ReplicaPool.from_store(ModelStore(args.store), args.model)
    policy = HealPolicy.from_file(args.policy) if args.policy else HealPolicy()
    journal = DecisionJournal(args.journal or None)
    config = GatewayConfig(
        max_batch_size=args.batch, max_wait_s=args.max_wait_ms / 1000.0
    )
    gateway = ServingGateway(pool, config)
    _install_fault_plan(args)
    supervisor = Supervisor(
        gateway,
        app,
        ModelStore(args.store),
        reference,
        policy,
        journal=journal,
        dry_run=args.dry_run,
    )

    def narrate(outcome: dict) -> None:
        extra = {
            k: v for k, v in outcome.items() if k not in ("state", "action")
        }
        print(f"tick: {outcome['action']}" + (f"  {extra}" if extra else ""))

    with gateway:
        if args.steps:
            # Synchronous mode: a fixed number of decision ticks, then the
            # journal — scriptable in CI without a serving front.
            for _ in range(args.steps):
                narrate(supervisor.step())
            print(supervisor.render())
            return 0
        server = None
        if args.port >= 0:
            server = AsyncGatewayServer(
                gateway, host=args.host, port=args.port, autopilot=supervisor
            ).start()
            print(f"serving {args.model} on {server.url}")
            print(
                "routes: POST /predict   "
                "GET /healthz /telemetry /dashboard /autopilot /metrics"
            )
        supervisor.run(interval_s=args.interval)
        deadline = (
            time.monotonic() + args.max_seconds if args.max_seconds else None
        )
        try:
            while deadline is None or time.monotonic() < deadline:
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            supervisor.stop()
            if server is not None:
                server.stop()
        print(supervisor.render())
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Inspect a running gateway's observability surfaces (or a journal)."""
    import urllib.error
    import urllib.request

    from repro.autopilot import DecisionJournal
    from repro.monitoring import render_spans

    def fetch(path: str) -> bytes:
        url = args.url.rstrip("/") + path
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            raise ReproError(
                f"GET {url} -> {exc.code}: {exc.read().decode('utf-8', 'replace')}"
            ) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise ReproError(f"cannot reach {url}: {exc}") from exc

    acted = False
    if args.metrics:
        acted = True
        print(fetch("/metrics").decode("utf-8"), end="")
    if args.trace:
        acted = True
        payload = json.loads(fetch(f"/trace/{args.trace}").decode("utf-8"))
        print(render_spans(payload["spans"]))
    if args.tail:
        acted = True
        for entry in DecisionJournal.read(args.tail)[-args.n:]:
            print(json.dumps(entry))
    if not acted:
        raise ReproError(
            "nothing to do: pass --metrics, --trace ID, and/or --tail journal.jsonl"
        )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    """Inspect, export, and materialize parametric synth workloads."""
    from repro.workloads.synth import (
        SYNTH_PRESETS,
        SynthGenerator,
        WorkloadSpec,
        build_schema,
        get_workload,
        predicted_components,
        predicted_difficulty,
        preset,
        workload_names,
    )

    if args.list:
        print("registered workloads:")
        for name in workload_names():
            entry = get_workload(name)
            print(f"  {name:<22} [{entry.kind}]  {entry.description}")
        return 0

    if args.spec:
        spec = WorkloadSpec.from_file(args.spec)
    elif args.preset:
        if args.preset not in SYNTH_PRESETS:
            raise ReproError(
                f"unknown preset {args.preset!r}; known: {sorted(SYNTH_PRESETS)}"
            )
        spec = preset(args.preset)
    else:
        raise ReproError("provide --preset NAME or --spec spec.json (or --list)")

    if args.scale:
        spec = spec.scaled(args.scale)
    if args.seed is not None:
        spec = spec.reseeded(args.seed)

    acted = False
    if args.out:
        acted = True
        spec.save(args.out)
        print(f"spec written to {args.out}")
    if args.materialize:
        acted = True
        generator = SynthGenerator(spec)
        written = generator.write_jsonl(args.materialize, spec.n)
        print(f"{written} records written to {args.materialize}")
        if args.schema_out:
            Path(args.schema_out).write_text(build_schema(spec).to_json())
            print(f"schema written to {args.schema_out}")
    if args.inspect or not acted:
        generator = SynthGenerator(spec)
        print(f"spec {spec.name!r}  fingerprint {spec.fingerprint()}")
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        print(f"predicted difficulty: {predicted_difficulty(spec):.3f}")
        for component, value in predicted_components(spec).items():
            print(f"  {component:<16} {value:+.3f}")
        sample = generator.record(0, spec.n)
        print("record 0 payload tokens:", " ".join(sample.payloads["tokens"]))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    dataset = _load(args.schema, args.data)
    query = RecordQuery(dataset.records)
    if args.tag:
        query = query.with_tag(args.tag)
    if args.conflicting:
        query = query.conflicting(args.conflicting)
    print(f"{query.count()} records match")
    if args.task and args.source:
        print(f"label distribution for {args.task} / {args.source}:")
        for label, count in sorted(
            query.label_distribution(args.task, args.source).items(),
            key=lambda kv: -kv[1],
        ):
            print(f"  {label!r:<30} {count}")
    if args.show:
        for row in list(query.project("payloads", "tasks", "tags"))[: args.show]:
            print(json.dumps(row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.serve import GatewayConfig

    # The batching flags default to whatever GatewayConfig does, so the
    # CLI and the library cannot drift apart.
    gateway_defaults = GatewayConfig()
    parser = argparse.ArgumentParser(
        prog="repro", description="Overton reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a data file against a schema")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("train", help="train and write a deployable artifact")
    p.add_argument("--schema", default="", help="schema file (or use --app)")
    p.add_argument("--app", default="", help="application spec (app.json)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--run-out", default="", help="also save the full Run here")
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--size", type=int, default=24)
    p.add_argument("--encoder", default="bow")
    p.add_argument("--gold-source", default="gold")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser(
        "tune", help="parallel hyperparameter/architecture search"
    )
    p.add_argument("--schema", default="", help="schema file (or use --app)")
    p.add_argument("--app", default="", help="application spec (app.json)")
    p.add_argument("--data", required=True)
    p.add_argument("--spec", required=True, help="tuning spec (tuning.json)")
    p.add_argument(
        "--strategy", default="grid", choices=["grid", "random", "halving"]
    )
    p.add_argument("--num-trials", type=int, default=8, help="random-search budget")
    p.add_argument(
        "--workers", type=int, default=1, help="trial worker processes"
    )
    p.add_argument(
        "--cache-dir",
        default="",
        help="trial cache directory: resumed searches skip finished trials",
    )
    p.add_argument("--out", default="", help="write the best artifact here")
    p.add_argument("--run-out", default="", help="also save the full Run here")
    p.add_argument(
        "--no-coverage",
        dest="coverage",
        action="store_false",
        help="skip the search-space coverage report",
    )
    p.add_argument("--gold-source", default="gold")
    p.set_defaults(fn=cmd_tune, coverage=True)

    p = sub.add_parser("report", help="per-tag quality report for an artifact")
    p.add_argument("--artifact", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tags", default="")
    p.add_argument("--gold-source", default="gold")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("predict", help="serve a request file (object or list)")
    p.add_argument("--artifact", required=True)
    p.add_argument("--request", required=True)
    p.add_argument(
        "--batch", type=int, default=32, help="micro-batch size for serving"
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="reject requests missing signature inputs",
    )
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser(
        "serve", help="run the serving gateway behind an HTTP server"
    )
    p.add_argument("--store", default="", help="model store root directory")
    p.add_argument("--model", default="", help="model name in the store")
    p.add_argument("--artifact", default="", help="serve one artifact directory")
    p.add_argument(
        "--dtype",
        default="",
        choices=["", "float32", "float64"],
        help="serving precision override (float32 = fast inference mode)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the forward pass (0 = in-process serving)",
    )
    p.add_argument(
        "--warmup",
        default="",
        help="payload JSON file served to every tier (and worker) at startup",
    )
    p.add_argument(
        "--batch",
        type=int,
        default=gateway_defaults.max_batch_size,
        help="max dynamic batch size",
    )
    p.add_argument(
        "--max-wait-ms",
        type=float,
        default=gateway_defaults.max_wait_s * 1000.0,
        help=(
            "how long a partial batch lingers for batch-mates; 0 (default) "
            "is work-conserving: a free lane serves what is queued at once "
            "and batches fill behind a busy one"
        ),
    )
    p.add_argument(
        "--budget-ms",
        type=float,
        default=0.0,
        help="default per-request latency budget for tier routing",
    )
    p.add_argument("--canary", default="", help="candidate version to canary")
    p.add_argument(
        "--canary-fraction",
        type=float,
        default=0.1,
        help="fraction of traffic the canary answers",
    )
    p.add_argument(
        "--shadow-canary",
        action="store_true",
        help="also mirror stable traffic to the canary candidate",
    )
    p.add_argument(
        "--shadow", default="", help="candidate version to shadow (mirror only)"
    )
    p.add_argument(
        "--poll-seconds",
        type=float,
        default=10.0,
        help="store poll interval for latest-version refresh (0 disables)",
    )
    p.add_argument(
        "--max-seconds",
        type=float,
        default=0.0,
        help="stop after this many seconds (0 = serve until interrupted)",
    )
    p.add_argument(
        "--obs",
        action="store_true",
        help="enable tracing + metrics (GET /metrics, /trace/<id>)",
    )
    p.add_argument(
        "--fault-plan",
        default="",
        help="arm a FaultPlan JSON for chaos drills (see docs/robustness.md)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "autopilot",
        help="serve a model under the self-healing supervisor",
    )
    p.add_argument("--store", required=True, help="model store root directory")
    p.add_argument("--model", required=True, help="model name in the store")
    p.add_argument("--app", default="", help="application spec JSON")
    p.add_argument("--schema", default="", help="bare schema JSON (no --app)")
    p.add_argument("--gold-source", default="gold")
    p.add_argument(
        "--data", required=True, help="reference dataset (JSONL) for drift/retrain"
    )
    p.add_argument("--policy", default="", help="HealPolicy JSON file")
    p.add_argument(
        "--journal", default="", help="append decisions to this JSONL file"
    )
    p.add_argument(
        "--interval", type=float, default=5.0, help="seconds between ticks"
    )
    p.add_argument(
        "--steps",
        type=int,
        default=0,
        help="run N synchronous ticks and exit (no HTTP server; for CI)",
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="journal intended actions without retraining or promoting",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8080,
        help="HTTP port (0 picks a free port, -1 disables the server)",
    )
    p.add_argument(
        "--batch", type=int, default=gateway_defaults.max_batch_size
    )
    p.add_argument(
        "--max-wait-ms",
        type=float,
        default=gateway_defaults.max_wait_s * 1000.0,
        help="how long a partial batch lingers for batch-mates (0 = never)",
    )
    p.add_argument(
        "--max-seconds",
        type=float,
        default=0.0,
        help="stop after this many seconds (0 = run until interrupted)",
    )
    p.add_argument(
        "--obs",
        action="store_true",
        help="enable tracing + metrics (journal entries gain trace ids)",
    )
    p.add_argument(
        "--fault-plan",
        default="",
        help="arm a FaultPlan JSON for chaos drills (see docs/robustness.md)",
    )
    p.set_defaults(fn=cmd_autopilot)

    p = sub.add_parser(
        "obs", help="inspect a gateway's metrics, traces, or a decision journal"
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of a running gateway HTTP server",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="print GET /metrics (Prometheus text format)",
    )
    p.add_argument(
        "--trace", default="", help="render one trace's spans (GET /trace/<id>)"
    )
    p.add_argument(
        "--tail", default="", help="print the newest entries of a journal JSONL file"
    )
    p.add_argument(
        "-n", type=int, default=20, help="how many journal entries --tail prints"
    )
    p.set_defaults(fn=cmd_obs)

    p = sub.add_parser(
        "synth", help="inspect / export / materialize parametric workload specs"
    )
    p.add_argument(
        "--list", action="store_true", help="list every registered workload"
    )
    p.add_argument("--preset", default="", help="a named synth preset")
    p.add_argument("--spec", default="", help="a WorkloadSpec JSON file")
    p.add_argument("--scale", type=int, default=0, help="override record count")
    p.add_argument("--seed", type=int, default=None, help="override sampling seed")
    p.add_argument("--out", default="", help="write the spec JSON here")
    p.add_argument(
        "--materialize", default="", help="stream the dataset to this JSONL file"
    )
    p.add_argument(
        "--schema-out", default="", help="also write the schema JSON here"
    )
    p.add_argument(
        "--inspect",
        action="store_true",
        help="print the spec, its fingerprint, and predicted difficulty",
    )
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("query", help="jq-style queries over a data file")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tag", default="")
    p.add_argument("--conflicting", default="")
    p.add_argument("--task", default="")
    p.add_argument("--source", default="")
    p.add_argument("--show", type=int, default=0)
    p.set_defaults(fn=cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
