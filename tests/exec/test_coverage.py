"""Tests for the search-space coverage report."""

from repro.core import TuningSpec
from repro.exec import TrialExecutor, coverage_report
from repro.tuning import Trial, grid_search, random_search
from repro.tuning.search import _evaluate_all

from tests.helpers import scoring_executor


def spec() -> TuningSpec:
    return TuningSpec(
        payload_options={"tokens": {"encoder": ["bow", "cnn", "lstm"], "size": [8, 16]}},
        trainer_options={"lr": [0.01, 0.1]},
    )


def score(config) -> float:
    p = config.for_payload("tokens")
    bonus = {"bow": 0.0, "cnn": 0.5, "lstm": 1.0}[p.encoder]
    return bonus + p.size / 100.0 + config.trainer.lr


class TestFullCoverage:
    def test_grid_covers_everything(self):
        result = grid_search(spec(), scoring_executor(score))
        report = coverage_report(spec(), result.trials)
        assert report.fraction_tried() == 1.0
        assert report.untried() == []
        assert report.total_candidates == 12
        assert report.evaluated_configs == 12
        assert report.total_trials == 12

    def test_best_per_block_matches_scores(self):
        result = grid_search(spec(), scoring_executor(score))
        best = coverage_report(spec(), result.trials).best_per_block()
        assert best["tokens.encoder"] == "lstm"
        assert best["tokens.size"] == 16
        assert best["trainer.lr"] == 0.1

    def test_cell_counts(self):
        result = grid_search(spec(), scoring_executor(score))
        report = coverage_report(spec(), result.trials)
        by_cell = {(o.block, o.value): o.trials for o in report.options}
        # Each encoder appears in 2 sizes x 2 lrs = 4 of the 12 candidates.
        assert by_cell[("tokens.encoder", "bow")] == 4
        assert by_cell[("tokens.size", 8)] == 6
        assert by_cell[("trainer.lr", 0.1)] == 6


class TestPartialCoverage:
    def test_random_subset_reports_untried_values(self):
        result = random_search(spec(), scoring_executor(score), num_trials=2, seed=0)
        report = coverage_report(spec(), result.trials)
        assert report.evaluated_configs == 2
        assert report.fraction_tried() < 1.0
        assert len(report.untried()) >= 1
        tried_blocks = {o.block for o in report.options if o.trials}
        assert tried_blocks  # something was exercised

    def test_handmade_trials(self):
        candidates = spec().expand()
        trials = [Trial(config=candidates[0], score=0.25)]
        report = coverage_report(spec(), trials)
        assert report.total_trials == 1
        tried = [(o.block, o.value) for o in report.options if o.trials]
        p = candidates[0].for_payload("tokens")
        assert ("tokens.encoder", p.encoder) in tried
        assert ("tokens.size", p.size) in tried


class TestRendering:
    def test_render_mentions_blocks_and_summary(self):
        result = grid_search(spec(), scoring_executor(score))
        text = coverage_report(spec(), result.trials).render()
        assert "tokens.encoder" in text
        assert "trainer.lr" in text
        assert "coverage: 100%" in text

    def test_render_lists_untried_cells(self):
        result = random_search(spec(), scoring_executor(score), num_trials=2, seed=0)
        report = coverage_report(spec(), result.trials)
        text = report.render()
        assert "never tried:" in text

    def test_to_dict_round_trips_through_json(self):
        import json

        result = grid_search(spec(), scoring_executor(score))
        payload = coverage_report(spec(), result.trials).to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_report_is_stamped_with_the_space_fingerprint(self):
        result = grid_search(spec(), scoring_executor(score))
        report = coverage_report(spec(), result.trials)
        assert report.spec_fingerprint == spec().fingerprint()
        assert report.spec_fingerprint in report.render()


class TestHalvingCoverage:
    def test_rewritten_epochs_do_not_read_as_untried(self):
        from repro.tuning import successive_halving

        halving_spec = TuningSpec(
            payload_options={"tokens": {"encoder": ["bow", "lstm"]}},
            trainer_options={"epochs": [10]},  # halving rewrites this axis
        )
        result = successive_halving(
            halving_spec,
            scoring_executor(
                lambda c: 1.0 if c.for_payload("tokens").encoder == "lstm" else 0.0
            ),
            min_epochs=1,
            max_epochs=4,
        )
        report = coverage_report(halving_spec, result.trials)
        assert ("trainer.epochs", 10) not in [
            (o.block, o.value) for o in report.options
        ]
        assert report.untried() == []
        assert report.fraction_tried() == 1.0

    def test_single_rung_halving_also_excludes_epochs(self):
        from repro.tuning import successive_halving

        halving_spec = TuningSpec(
            payload_options={"tokens": {"encoder": ["bow"]}},  # one candidate
            trainer_options={"epochs": [10]},
        )
        result = successive_halving(
            halving_spec, scoring_executor(lambda c: 1.0), min_epochs=2, max_epochs=8
        )
        assert all(t.rung == 0 for t in result.trials)  # ended inside rung 0
        report = coverage_report(halving_spec, result.trials)
        assert report.untried() == []


class TestWithExecutor:
    def test_coverage_from_parallel_trials(self):
        from tests.exec.test_executor import score_trial

        executor = TrialExecutor(score_trial, workers=2)
        result = _evaluate_all(spec().expand(), executor)
        report = coverage_report(spec(), result.trials)
        assert report.fraction_tried() == 1.0
