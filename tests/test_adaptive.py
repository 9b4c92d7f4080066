"""Engine recursions, class arbitration, voting, and window selection tests."""

from __future__ import annotations

import io
from functools import partial

import pytest
from hypothesis import given, strategies as st

from conftest import make_series
from oracles import replay_engine
from sentrade.adaptive import (
    ClassOutcome,
    PipelineParams,
    PredictionRecord,
    TfwEngine,
    class_outcomes,
    majority_sign,
    run_pipeline,
    select_class,
    select_tfw,
    update_quality,
    update_spread,
    write_predictions_csv,
)
from sentrade.errors import ConfigError, DataError
from sentrade.model_space import CANDIDATES, FittedModel, ModelClass, Variable, fit_window, votes

FINANCIAL = next(c for c in CANDIDATES if c.model_class is ModelClass.FINANCIAL)
SENTIMENT = next(c for c in CANDIDATES if c.variables == (Variable.P1,))


def fitted(candidate, predicted, passed=True) -> FittedModel:
    return FittedModel(candidate, fit=None, predicted_next=predicted, passed_filter=passed)


def vote_sign(predictions) -> int | None:
    """Majority sign of sentiment models predicting ``predictions``, through ``votes``."""
    _, (_, up, down) = votes([fitted(SENTIMENT, p) for p in predictions])
    return majority_sign(up, down)


def outcome(model_class, n_models, n_correct) -> ClassOutcome:
    return ClassOutcome(model_class, n_models, n_correct, None)


class TestMajoritySign:
    @pytest.mark.parametrize(
        "predictions,expected",
        [
            ([0.002, 0.001, -0.003], 1),
            ([0.002, -0.001], None),
            ([], None),
            ([-0.001, -0.002, 0.003], -1),
            ([0.0, 0.5], 1),
            ([0.0], None),
            ([0.0, 0.0], None),
        ],
    )
    def test_cases(self, predictions, expected):
        assert vote_sign(predictions) == expected

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    def test_negation_flips(self, predictions):
        sign = vote_sign(predictions)
        flipped = vote_sign([-p for p in predictions])
        assert flipped == (None if sign is None else -sign)


class TestClassOutcomes:
    def test_single_financial_correct(self):
        fin, sent = class_outcomes(votes([fitted(FINANCIAL, 0.002)]), realized_return=0.01)
        assert fin.n_models == 1
        assert fin.n_correct == 1
        assert fin.correctness == 1.0
        assert sent.n_models == 0
        assert sent.correctness is None

    def test_sentiment_counting(self):
        models = [
            fitted(SENTIMENT, 0.004),
            fitted(SENTIMENT, 0.002),
            fitted(SENTIMENT, -0.001),
        ]
        fin, sent = class_outcomes(votes(models), realized_return=-0.02)
        assert sent.n_models == 3
        assert sent.n_correct == 1
        assert sent.correctness == pytest.approx(1 / 3)
        assert sent.majority_sign == 1

    def test_tied_votes_abstain(self):
        models = [fitted(SENTIMENT, 0.004), fitted(SENTIMENT, -0.002)]
        _, sent = class_outcomes(votes(models), realized_return=0.05)
        assert sent.majority_sign is None

    def test_zero_realized_scores_nothing(self):
        models = [fitted(FINANCIAL, 0.002), fitted(SENTIMENT, -0.001)]
        fin, sent = class_outcomes(votes(models), realized_return=0.0)
        assert fin.n_correct == 0
        assert sent.n_correct == 0

    def test_failed_models_ignored(self):
        models = [fitted(FINANCIAL, 0.002, passed=False)]
        fin, _ = class_outcomes(votes(models), realized_return=0.01)
        assert fin.n_models == 0

    def test_invalid_counts_rejected(self):
        with pytest.raises(DataError):
            ClassOutcome(ModelClass.FINANCIAL, 1, 2, None)


class TestSelectClass:
    def test_initial_spread_favors_financial(self):
        assert select_class(1.0) is ModelClass.FINANCIAL

    def test_strictly_negative_selects_sentiment(self):
        assert select_class(-0.001) is ModelClass.SENTIMENT

    def test_zero_boundary_is_financial(self):
        assert select_class(0.0) is ModelClass.FINANCIAL


class TestUpdateSpread:
    def test_financial_win_gamma_zero(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        new = update_spread(
            engine, outcome(ModelClass.FINANCIAL, 1, 1), outcome(ModelClass.SENTIMENT, 1, 0), 0.02
        )
        assert new == pytest.approx(2.0)

    def test_sentiment_win_with_decay(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.5)
        new = update_spread(
            engine, outcome(ModelClass.FINANCIAL, 1, 0), outcome(ModelClass.SENTIMENT, 1, 1), 0.01
        )
        assert new == pytest.approx(-0.5)

    def test_both_empty_pure_decay(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.5, initial_spread=-2.0)
        new = update_spread(
            engine, outcome(ModelClass.FINANCIAL, 0, 0), outcome(ModelClass.SENTIMENT, 0, 0), 0.03
        )
        assert new == pytest.approx(-1.0)

    def test_tie_favors_financial(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        new = update_spread(
            engine, outcome(ModelClass.FINANCIAL, 2, 1), outcome(ModelClass.SENTIMENT, 2, 1), 0.01
        )
        assert new == pytest.approx(1.0)

    def test_equal_ratios_compare_exactly(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        new = update_spread(
            engine, outcome(ModelClass.FINANCIAL, 3, 1), outcome(ModelClass.SENTIMENT, 6, 2), 0.01
        )
        assert new == pytest.approx(1.0)

    def test_sentiment_empty_favors_financial(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        new = update_spread(
            engine, outcome(ModelClass.FINANCIAL, 1, 0), outcome(ModelClass.SENTIMENT, 0, 0), 0.01
        )
        assert new == pytest.approx(1.0)

    def test_financial_empty_goes_negative(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        new = update_spread(
            engine, outcome(ModelClass.FINANCIAL, 0, 0), outcome(ModelClass.SENTIMENT, 1, 0), 0.01
        )
        assert new == pytest.approx(-1.0)


class TestUpdateQuality:
    def test_reward(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        engine.quality = 5.0
        assert update_quality(engine, 1, 0.01) == pytest.approx(3.0)

    def test_decay_without_prediction(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        engine.quality = 5.0
        assert update_quality(engine, 0, 0.07) == pytest.approx(2.0)

    def test_penalty_from_zero(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        assert update_quality(engine, -1, 0.02) == pytest.approx(-2.0)

    def test_invalid_lam(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        with pytest.raises(DataError):
            update_quality(engine, 2, 0.01)


class TestTfwEngine:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TfwEngine(w=0, beta=0.4, gamma=0.0)
        with pytest.raises(ConfigError):
            TfwEngine(w=20, beta=1.5, gamma=0.0)
        with pytest.raises(ConfigError):
            TfwEngine(w=20, beta=0.4, gamma=-0.1)

    def test_propose_resolve_round(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        emitted = engine.propose(30, votes([fitted(FINANCIAL, 0.004)]))
        assert emitted == 1
        step = engine.resolve(0.01)
        assert step.index == 30
        assert step.emitted == 1
        assert step.lam == 1
        assert step.chosen_class is ModelClass.FINANCIAL
        assert engine.spread == pytest.approx(1.0)  # financial won: 0*1 + |100*0.01|
        assert engine.quality == pytest.approx(1.0)

    def test_wrong_emission_penalized(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        engine.propose(30, votes([fitted(FINANCIAL, 0.004)]))
        step = engine.resolve(-0.02)
        assert step.lam == -1
        assert engine.quality == pytest.approx(-2.0)

    def test_zero_realized_with_emission(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        engine.quality = 5.0
        engine.propose(30, votes([fitted(FINANCIAL, 0.004)]))
        step = engine.resolve(0.0)
        assert step.lam == -1
        # Magnitude weighting nulls the penalty; only the decay acts.
        assert engine.quality == pytest.approx(2.0)
        assert engine.spread == pytest.approx(0.0)

    def test_spread_chooses_sentiment_after_flip(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        engine.propose(30, votes([fitted(SENTIMENT, -0.004)]))
        engine.resolve(-0.01)  # financial empty: spread goes negative
        assert engine.spread < 0
        emitted = engine.propose(
            31, votes([fitted(SENTIMENT, -0.004), fitted(FINANCIAL, 0.002)])
        )
        assert engine.pending.chosen_class is ModelClass.SENTIMENT
        assert emitted == -1

    def test_class_override(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        emitted = engine.propose(
            30,
            votes([fitted(SENTIMENT, -0.004), fitted(FINANCIAL, 0.002)]),
            class_override=ModelClass.SENTIMENT,
        )
        assert emitted == -1

    def test_infeasible_decays_quality_only(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.5)
        engine.quality = 4.0
        engine.propose(30, None)
        step = engine.resolve(0.05)
        assert not step.feasible
        assert step.emitted is None
        assert engine.spread == 1.0  # untouched, not even decayed
        assert engine.quality == pytest.approx(1.6)

    def test_unresolved_propose_rejected(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        engine.propose(30, None)
        with pytest.raises(DataError, match="unresolved"):
            engine.propose(31, None)

    def test_resolve_without_propose_rejected(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        with pytest.raises(DataError, match="pending"):
            engine.resolve(0.01)

    def test_history_must_stay_contiguous(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        engine.propose(30, None)
        engine.resolve(0.01)
        with pytest.raises(DataError, match="expected session 31"):
            engine.propose(33, None)

    def test_abstains_when_nothing_passes(self):
        # Pure noise rarely lets models through; feed an explicit empty pass set.
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        emitted = engine.propose(30, votes([fitted(FINANCIAL, 0.002, passed=False)]))
        assert emitted is None
        step = engine.resolve(0.01)
        assert step.lam == 0


class TestSelectTfw:
    def make_emitting_engine(self, w, quality, prediction):
        engine = TfwEngine(w=w, beta=0.4, gamma=0.0)
        engine.quality = quality
        engine.propose(50, votes([fitted(FINANCIAL, prediction)]))
        return engine

    def test_highest_quality_wins(self):
        low = self.make_emitting_engine(20, 1.5, 0.004)
        high = self.make_emitting_engine(25, 2.0, -0.004)
        record = select_tfw([low, high], 50, realized_return=-0.01)
        assert record.chosen_tfw == 25
        assert record.predicted_sign == -1
        assert record.correct is True

    def test_quality_tie_prefers_smallest_window(self):
        first = self.make_emitting_engine(20, 2.0, 0.004)
        second = self.make_emitting_engine(30, 2.0, -0.004)
        record = select_tfw([second, first], 50, realized_return=0.02)
        assert record.chosen_tfw == 20
        assert record.predicted_sign == 1

    def test_no_emission_anywhere(self):
        engine = TfwEngine(w=20, beta=0.4, gamma=0.0)
        engine.propose(50, votes([fitted(FINANCIAL, 0.002, passed=False)]))
        record = select_tfw([engine], 50, realized_return=0.01)
        assert record.chosen_tfw is None
        assert record.predicted_sign is None
        assert record.correct is None

    def test_zero_realized_has_undefined_correctness(self):
        engine = self.make_emitting_engine(20, 1.0, 0.004)
        record = select_tfw([engine], 50, realized_return=0.0)
        assert record.predicted_sign == 1
        assert record.correct is None

    def test_all_engines_must_have_proposed(self):
        ready = self.make_emitting_engine(20, 1.0, 0.004)
        stale = TfwEngine(w=21, beta=0.4, gamma=0.0)
        with pytest.raises(DataError, match="proposed"):
            select_tfw([ready, stale], 50, realized_return=0.01)


class TestPredictionRecord:
    def test_sign_and_window_absent_together(self):
        with pytest.raises(DataError):
            PredictionRecord(0, 20, None, None, 0.01, None)
        with pytest.raises(DataError):
            PredictionRecord(0, None, None, 1, 0.01, None)

    def test_correct_requires_prediction_and_nonzero_return(self):
        with pytest.raises(DataError):
            PredictionRecord(0, None, None, None, 0.01, True)
        with pytest.raises(DataError):
            PredictionRecord(0, 20, ModelClass.FINANCIAL, 1, 0.0, True)

    def test_sign_values_restricted(self):
        with pytest.raises(DataError):
            PredictionRecord(0, 20, ModelClass.FINANCIAL, 0, 0.01, None)


class TestPipelineParams:
    def test_validation_messages_name_fields(self):
        with pytest.raises(ConfigError, match="beta"):
            PipelineParams(beta=2.0, gamma=0.0)
        with pytest.raises(ConfigError, match="p_threshold"):
            PipelineParams(beta=0.4, gamma=0.0, p_threshold=0.0)
        with pytest.raises(ConfigError, match="tfw_max"):
            PipelineParams(beta=0.4, gamma=0.0, tfw_min=30, tfw_max=20)
        with pytest.raises(ConfigError, match="spread_scope"):
            PipelineParams(beta=0.4, gamma=0.0, spread_scope="both")

    def test_windows(self):
        params = PipelineParams(beta=0.4, gamma=0.0, tfw_min=5, tfw_max=8)
        assert list(params.windows) == [5, 6, 7, 8]


SMALL = PipelineParams(beta=0.4, gamma=0.0, tfw_min=20, tfw_max=24)


class TestRunPipeline:
    def test_warm_up_and_span(self, series_b):
        result = run_pipeline(series_b, SMALL, start=0, end=60)
        assert result.start == 26  # tfw_max + 2
        assert [r.index for r in result.records] == list(range(26, 60))
        for engine in result.engines:
            assert [s.index for s in engine.history] == list(range(26, 60))

    def test_engine_results_independent_of_other_windows(self, series_b):
        # Pin the same start for both runs; otherwise the wider run's later
        # warm-up would give the shared engine a shorter private history.
        narrow = run_pipeline(series_b, SMALL, start=32, end=70)
        wide = run_pipeline(
            series_b,
            PipelineParams(beta=0.4, gamma=0.0, tfw_min=20, tfw_max=30),
            start=32,
            end=70,
        )
        assert narrow.engines[0].w == wide.engines[0].w == 20
        assert narrow.engines[0].history == wide.engines[0].history

    def test_replay_oracle_matches_stored_state(self, series_b):
        result = run_pipeline(series_b, SMALL, start=0, end=90)
        for engine in result.engines:
            spreads, qualities = replay_engine(engine.history, engine.beta, engine.gamma)
            for step, s_ref, q_ref in zip(engine.history, spreads, qualities):
                assert abs(step.spread_after - s_ref) <= 1e-12
                assert abs(step.quality_after - q_ref) <= 1e-12

    def test_gamma_zero_memorylessness(self, series_b):
        params = PipelineParams(beta=0.4, gamma=0.0, tfw_min=20, tfw_max=22)
        result = run_pipeline(series_b, params, start=0, end=80)
        reference = partial(
            fit_window, series_b, p_threshold=params.p_threshold, normalize=params.normalize_sentiment
        )
        for engine in result.engines:
            for position in (5, 17, 40):
                step = engine.history[position]
                # Rebuild only session t-1 on top of garbage state: with
                # gamma = 0 the class choice at t must not notice.
                corrupted = TfwEngine(engine.w, engine.beta, engine.gamma, initial_spread=-999.0)
                corrupted.quality = 123.0
                corrupted.propose(step.index - 1, votes(reference(step.index - 1, engine.w)))
                corrupted.resolve(series_b.returns[step.index - 1])
                assert select_class(corrupted.spread) is step.chosen_class

    def test_global_scope_aligns_classes(self, series_b):
        params = PipelineParams(
            beta=0.4, gamma=0.0, tfw_min=20, tfw_max=24, spread_scope="global"
        )
        result = run_pipeline(series_b, params, start=0, end=90)
        for position in range(len(result.records)):
            classes = {e.history[position].chosen_class for e in result.engines}
            assert len(classes) == 1

    def test_invalid_span(self, series_b):
        with pytest.raises(DataError):
            run_pipeline(series_b, SMALL, start=50, end=20)

    def test_missing_returns_rejected(self):
        series = make_series([0.01] * 60)
        bare = series.__class__(brand=series.brand, sessions=series.sessions)
        with pytest.raises(DataError):
            run_pipeline(bare, SMALL)


class TestPredictionsCsv:
    def test_sentinels_and_layout(self):
        records = [
            PredictionRecord(7, 20, ModelClass.SENTIMENT, -1, -0.01, True),
            PredictionRecord(8, None, None, None, 0.5, None),
            PredictionRecord(9, 21, ModelClass.FINANCIAL, 1, 0.0, None),
        ]
        buffer = io.StringIO()
        write_predictions_csv(records, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "index,chosen_tfw,chosen_class,predicted_sign,realized_return,correct"
        assert lines[1] == "7,20,sentiment,-1,-0.01,true"
        assert lines[2] == "8,none,none,none,0.5,na"
        assert lines[3] == "9,21,financial,1,0.0,na"
