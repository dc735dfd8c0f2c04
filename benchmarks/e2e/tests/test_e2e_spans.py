"""The span recorder and reducers, the percentile rule, and the oracle."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import loadgen, metrics, spans  # noqa: E402


def _span(span_id, name, start, end, parent=None, **attrs):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, **attrs}


class TestSelfTime:
    def test_children_are_subtracted_once_where_they_overlap(self):
        tree = [
            _span(1, "serve", 0.0, 10.0),
            _span(2, "encode", 1.0, 4.0, parent=1),
            _span(3, "forward", 3.0, 7.0, parent=1),  # overlaps encode by 1
            _span(4, "matmul", 3.5, 6.5, parent=3),
        ]
        selfs = spans.self_times(tree)
        assert selfs[1] == pytest.approx(10.0 - 6.0)  # union [1, 7]
        assert selfs[3] == pytest.approx(4.0 - 3.0)
        assert selfs[2] == pytest.approx(3.0)
        assert selfs[4] == pytest.approx(3.0)

    def test_child_cover_is_clipped_to_the_parent(self):
        tree = [_span(1, "p", 2.0, 4.0), _span(2, "c", 1.0, 3.0, parent=1)]
        assert spans.self_times(tree)[1] == pytest.approx(1.0)

    def test_tracer_nests_by_thread_and_wraps_calls(self):
        tracer = spans.Tracer()
        double = tracer.wrap(lambda x: 2 * x, "inner")
        with tracer.span("outer", batch=7) as outer:
            assert double(21) == 42
        by_name = {s["name"]: s for s in tracer.spans}
        assert by_name["inner"]["parent"] == outer
        assert by_name["outer"]["parent"] is None and by_name["outer"]["batch"] == 7
        assert by_name["outer"]["start"] <= by_name["inner"]["start"]


class TestPercentileRule:
    def test_tail_needs_ten_samples_beyond_it(self):
        assert metrics.supported_tail(4) == 50
        assert metrics.supported_tail(39) == 50
        assert metrics.supported_tail(40) == 75
        assert metrics.supported_tail(199) == 90
        assert metrics.supported_tail(200) == 95
        assert metrics.supported_tail(5000) == 95  # p99 is never the gated tail

    def test_percentile_interpolates_like_numpy(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert metrics.percentile(values, 50) == pytest.approx(2.5)
        assert metrics.percentile(values, 95) == pytest.approx(3.85)
        assert metrics.tail(values) == pytest.approx(2.5)  # four repeats: the median

    def test_spread_is_quartile_distance_over_median(self):
        assert metrics.spread([10, 10, 10, 10, 12]) == pytest.approx(0.1)


class TestPhaseGrouping:
    def test_a_span_belongs_to_the_phase_it_started_in(self):
        trace = [_span(i, "replica.serve", t, t + 0.5) for i, t in enumerate([0.9, 1.0, 1.9, 2.0])]
        assert [s["id"] for s in spans.in_window(trace, (1.0, 2.0))] == [1, 2]


def _traffic():
    """Two connections: enveloped POSTs, then one 2-payload list POST each."""
    conn_of = {"fp-even": 0, "fp-odd": 1}
    posts = [
        dict(seq=0, conn=0, request_id="single-0-0", n=1, t_send=1.00, t_done=1.09,
             phase="single", timed=True),
        dict(seq=1, conn=1, request_id="single-1-0", n=1, t_send=1.01, t_done=1.10,
             phase="single", timed=True),
        dict(seq=2, conn=1, request_id=None, n=2, t_send=2.00, t_done=2.20,
             phase="bulk", timed=True),
        dict(seq=3, conn=0, request_id=None, n=2, t_send=2.01, t_done=2.30,
             phase="bulk", timed=True),
    ]
    server = [
        _span(1, "gateway.submit", 1.02, 1.021, req=0, request_id="single-0-0", group=1, fp=None),
        _span(2, "gateway.submit", 1.03, 1.031, req=1, request_id="single-1-0", group=2, fp=None),
        _span(3, "replica.serve", 1.05, 1.07, batch=0, n=2, reqs=[0, 1]),
        _span(4, "endpoint.encode", 1.05, 1.055, parent=3),
        _span(5, "endpoint.forward", 1.055, 1.065, parent=3),
        _span(6, "endpoint.finalize", 1.065, 1.07, parent=3),
        _span(7, "future.settled", 1.071, 1.071, req=0),
        _span(8, "future.settled", 1.072, 1.072, req=1),
        # conn 1's list POST arrives first, then conn 0's.
        _span(9, "gateway.submit", 2.02, 2.021, req=2, request_id=None, group=3, fp="fp-odd"),
        _span(10, "gateway.submit", 2.021, 2.022, req=3, request_id=None, group=3, fp=None),
        _span(11, "gateway.submit", 2.03, 2.031, req=4, request_id=None, group=4, fp="fp-even"),
        _span(12, "gateway.submit", 2.031, 2.032, req=5, request_id=None, group=4, fp=None),
        _span(13, "replica.serve", 2.05, 2.15, batch=1, n=4, reqs=[2, 3, 4, 5]),
        _span(14, "endpoint.encode", 2.05, 2.06, parent=13),
        _span(15, "endpoint.finalize", 2.14, 2.15, parent=13),
    ] + [_span(16 + r, "future.settled", 2.16 + r / 100, 2.16 + r / 100, req=r) for r in (2, 3, 4, 5)]
    windows = {"single": (1.0, 2.0), "bulk": (2.0, 3.0)}
    return server, posts, windows, conn_of


class TestServeReduction:
    def test_list_posts_pair_with_submit_runs_by_connection(self):
        server, posts, _, conn_of = _traffic()
        submits = [s for s in server if s["name"] == "gateway.submit"]
        matched = spans.match_posts(posts, submits, conn_of)
        assert [s["req"] for s in matched[2]] == [2, 3]  # conn 1
        assert [s["req"] for s in matched[3]] == [4, 5]  # conn 0
        assert [s["req"] for s in matched[0]] == [0]

    def test_unpairable_traces_are_refused(self):
        server, posts, _, conn_of = _traffic()
        submits = [s for s in server if s["name"] == "gateway.submit" and s["group"] != 4]
        with pytest.raises(ValueError, match="cannot be paired"):
            spans.match_posts(posts, submits, conn_of)

    def test_per_phase_metrics(self):
        server, posts, windows, conn_of = _traffic()
        out = spans.reduce_serve(server, posts, windows, conn_of, max_batch=4, pooled=False)
        assert out["serve.http.in_ms.single"] == pytest.approx(20.0)
        assert out["serve.batcher.queue_wait_ms.single"] == pytest.approx((29 + 19) / 2)
        assert out["serve.replica.serve_ms.single"] == pytest.approx(20.0)
        assert out["serve.replica.busy_share.single"] == pytest.approx(0.02)
        assert out["serve.batcher.batch_fill_share.single"] == pytest.approx(0.5)
        assert out["api.endpoint.forward_ms.single"] == pytest.approx(10.0)
        assert out["serve.gateway.resolve_ms.single"] == pytest.approx(2.0)
        assert out["serve.http.out_ms.single"] == pytest.approx((19 + 28) / 2)
        # bulk: last future of conn 1's POST settled at 2.19, of conn 0's at 2.21
        assert out["serve.http.out_ms.bulk"] == pytest.approx((10 + 90) / 2)
        assert out["serve.batcher.batch_size_mean.bulk"] == 4
        assert "serve.pool_worker.roundtrip_ms.bulk" not in out
        assert "api.endpoint.forward_ms.bulk" not in out  # ran in a worker

    def test_pool_roundtrip_is_serve_minus_the_gateway_side_stages(self):
        server, posts, windows, conn_of = _traffic()
        out = spans.reduce_serve(server, posts, windows, conn_of, max_batch=4, pooled=True)
        assert out["serve.pool_worker.roundtrip_ms.bulk"] == pytest.approx(80.0)

    def test_pool_metrics_from_microloops_and_worker_telemetry(self):
        trace = []
        # Two recorded batches per phase, replayed by the worker replica
        # (12 and 14 ms) and in-process (10 and 11 ms; forward 8 and 9 ms).
        for n, (phase, batch, via_worker, in_process, forward) in enumerate([
            ("single", 0, 0.012, 0.010, 0.008), ("single", 1, 0.014, 0.011, 0.009),
            ("bulk", 2, 0.030, 0.020, 0.016), ("bulk", 3, 0.034, 0.022, 0.018),
        ]):
            t = float(n)
            trace += [
                _span(10 * n + 1, "microloop.worker_serve", t, t + via_worker,
                      phase=phase, batch=batch),
                _span(10 * n + 2, "microloop.inproc_serve", t + 0.5, t + 0.5 + in_process,
                      phase=phase, batch=batch),
                _span(10 * n + 3, "endpoint.forward", t + 0.5, t + 0.5 + forward,
                      parent=10 * n + 2),
            ]
        # A live batch's forward is not a microloop's: it must not count.
        trace += [_span(90, "replica.serve", 9.0, 9.9), _span(91, "endpoint.forward", 9.0, 9.9, parent=90)]
        trace += [_span(100 + i, "shm.pack", 20.0 + i, 20.0 + i + 40e-6) for i in range(3)]
        trace += [_span(200 + i, "shm.read", 30.0 + i, 30.0 + i + 25e-6) for i in range(3)]
        workers = [{"batches": 30, "restarts": 0}, {"batches": 50, "restarts": 1}]
        out = spans.reduce_pool(trace, 4096, workers)
        # worker - in-process per batch: 2, 3, 10, 12 ms
        assert out["serve.pool_worker.transport_ms"] == pytest.approx(6.5)
        assert out["api.endpoint.forward_ms.single"] == pytest.approx(8.5)
        assert out["api.endpoint.forward_ms.bulk"] == pytest.approx(17.0)
        assert out["serve.shm.bytes_per_batch"] == 4096.0
        assert out["serve.shm.pack_us"] == pytest.approx(40.0)
        assert out["serve.shm.read_us"] == pytest.approx(25.0)
        assert out["serve.pool_worker.batch_imbalance"] == pytest.approx(0.5)
        assert out["serve.pool_worker.restarts"] == 1.0

    def test_stage_sum_share(self):
        server, _, windows, _ = _traffic()
        assert spans.stage_sum_share(server, windows["single"]) == pytest.approx(1.0)


class TestFitReduction:
    def test_unattributed_time_is_root_and_step_self_time(self):
        trace = [
            _span(1, "application.fit", 0.0, 10.0),
            _span(2, "supervision.combine", 0.0, 2.0, parent=1),
            _span(3, "dataset.build_vocabs", 2.0, 2.5, parent=1),
            _span(4, "compiler.compile_model", 2.5, 3.0, parent=1),
            _span(5, "encoded.build", 3.0, 4.0, parent=1),
            _span(6, "trainer.step", 4.0, 6.0, parent=1),
            _span(7, "encoded.batch", 4.0, 4.1, parent=6),
            _span(8, "multitask.forward", 4.1, 4.6, parent=6),
            _span(9, "multitask.loss", 4.6, 4.8, parent=6),
            _span(10, "tensor.backward", 4.8, 5.6, parent=6),
            _span(11, "optim.step", 5.6, 5.9, parent=6),
            _span(12, "evaluation.dev_eval", 6.0, 9.0, parent=1),
        ]
        out = spans.reduce_fit(trace)
        assert out["supervision.combine_s"] == pytest.approx(2.0)
        assert out["tensor.backward_ms"] == pytest.approx(800.0)
        assert out["training.trainer.steps"] == 1.0
        # root self 1.0 (9..10) + step self 0.1 (5.9..6.0) over 10 s
        assert out["training.trainer.unattributed_share"] == pytest.approx(0.11)


class TestOracle:
    WANT = {"Intent": {"label": "age", "scores": {"age": 0.75, "height": 0.25}},
            "IntentArg": {"index": 1, "scores": [0.1, 0.9]}, "POS": {"labels": ["a", "b"]}}

    def test_scores_within_tolerance_labels_exact(self):
        close = {"Intent": {"label": "age", "scores": {"age": 0.75 + 5e-7, "height": 0.25}},
                 "IntentArg": {"index": 1, "scores": [0.1, 0.9]}, "POS": {"labels": ["a", "b"]}}
        assert loadgen.matches(close, self.WANT)
        far = {**close, "Intent": {"label": "age", "scores": {"age": 0.7501, "height": 0.25}}}
        assert not loadgen.matches(far, self.WANT)
        relabelled = {**close, "IntentArg": {"index": 0, "scores": [0.1, 0.9]}}
        assert not loadgen.matches(relabelled, self.WANT)
        assert not loadgen.matches({**close, "POS": {"labels": ["a"]}}, self.WANT)
        assert not loadgen.matches({k: v for k, v in close.items() if k != "POS"}, self.WANT)

    def test_list_answers_are_checked_for_length_and_order(self):
        pool = loadgen.PayloadPool([{"q": "a"}, {"q": "b"}], [{"y": "A"}, {"y": "B"}], conns=2)
        spec = loadgen.PhaseSpec("bulk", 2, 1.0, 0.0)

        def post(body, status=200, request_id=None, idxs=(0, 1)):
            return dict(idxs=idxs, n=len(idxs), status=status, body=body,
                        request_id=request_id, timed=True)

        log = loadgen.PhaseLog(spec, (0.0, 1.0), [
            post(b'[{"y": "A"}, {"y": "B"}]'),
            post(b'[{"y": "B"}, {"y": "A"}]'),       # right answers, wrong order
            post(b'[{"y": "A"}]'),                    # short
            post(b'[{"y": "A"}, {"y": "B"}]', status=503),
            post(b'{"y": "A"}', request_id="r", idxs=(0,)),
            post(b"not json"),
        ])
        loadgen.verify(log, pool)
        assert [p["ok"] for p in log.posts] == [True, False, False, False, True, False]
        assert [p["n_correct"] for p in log.posts] == [2, 0, 0, 0, 1, 0]

    def test_pool_refuses_duplicate_payloads(self):
        with pytest.raises(ValueError, match="duplicates"):
            loadgen.PayloadPool([{"q": "a"}, {"q": "a"}], [{}, {}], conns=2)
