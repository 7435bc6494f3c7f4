"""Metrics against brute-force oracles; statistical baselines; reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventqa.codec import DatasetCodec
from eventqa.data import Dataset, EventSequence, FeatureSpec, Schema
from eventqa.errors import DataError
from eventqa.metrics import (EvalReport, TaskResult, accuracy, f1_binary,
                             f1_macro, mae, mse, roc_auc, score_task,
                             statistical_baseline)
from eventqa.qa import DEFAULT_PREFIX, Unparseable, build_corpus, build_task


def pairwise_auc_oracle(scores, labels):
    """O(n^2) comparison count with ties worth one half."""
    wins = ties = total = 0
    for sp, lp in zip(scores, labels):
        if lp != 1:
            continue
        for sn, ln in zip(scores, labels):
            if ln != 0:
                continue
            total += 1
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / total


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_two_thirds(self):
        assert accuracy(["a", "b", "c"], ["a", "b", "d"]) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            accuracy([], [])

    def test_matches_recount_oracle_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            preds = rng.integers(0, 4, n).tolist()
            truths = rng.integers(0, 4, n).tolist()
            manual = sum(int(p == t) for p, t in zip(preds, truths)) / n
            assert accuracy(preds, truths) == pytest.approx(manual, abs=1e-15)


class TestF1:
    def test_tp1_fp1_fn1_is_half(self):
        # preds vs truths: one TP, one FP, one FN
        assert f1_binary([1, 1, 0], [1, 0, 1]) == pytest.approx(0.5)

    def test_perfect_is_one(self):
        assert f1_binary([1, 0, 1], [1, 0, 1]) == 1.0

    def test_all_negative_convention_zero(self):
        assert f1_binary([0, 0], [0, 0]) == 0.0

    def test_macro_averages_per_class(self):
        preds = ["a", "a", "b", "c"]
        truths = ["a", "b", "b", "c"]
        per_class = [f1_binary(preds, truths, positive=c)
                     for c in ("a", "b", "c")]
        assert f1_macro(preds, truths) == pytest.approx(sum(per_class) / 3)


class TestRegressionErrors:
    def test_zero_when_equal(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_arithmetic(self):
        assert mae([0.0, 2.0], [1.0, 1.0]) == 1.0
        assert mse([0.0, 2.0], [1.0, 1.0]) == 1.0

    def test_nan_rejected_with_index(self):
        with pytest.raises(DataError, match=r"\[1\]"):
            mae([1.0, float("nan")], [1.0, 1.0])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_mse_at_least_mae_squared(self, truths, seed):
        rng = np.random.default_rng(seed)
        preds = rng.normal(size=len(truths)).tolist()
        assert mse(preds, truths) >= mae(preds, truths) ** 2 - 1e-12


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_pure_ties_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            roc_auc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = 50
            # quantized scores force plenty of ties
            scores = (rng.integers(0, 7, n) / 6.0).tolist()
            labels = rng.integers(0, 2, n).tolist()
            if len(set(labels)) < 2:
                continue
            assert roc_auc(scores, labels) == pytest.approx(
                pairwise_auc_oracle(scores, labels), abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from(["exp", "affine", "cube"]))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_strictly_increasing_transforms(self, seed, kind):
        rng = np.random.default_rng(seed)
        n = 30
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, n)
        if len(set(labels.tolist())) < 2:
            return
        if kind == "exp":
            transformed = np.exp(scores / 4.0)
        elif kind == "affine":
            transformed = 3.0 * scores + 11.0
        else:
            transformed = scores ** 3
        a = roc_auc(scores.tolist(), labels.tolist())
        b = roc_auc(transformed.tolist(), labels.tolist())
        assert a == pytest.approx(b, abs=1e-12)


def baseline_fixture(categories, seed=0):
    schema = Schema((FeatureSpec("cat", "categorical",
                                 values=tuple(sorted(set(categories)))),))
    seqs = []
    for i, c in enumerate(categories):
        seqs.append(EventSequence(f"c{i}", [1, 2],
                                  {"cat": [c, c]}))
    ds = Dataset(schema, seqs)
    return ds, DatasetCodec.fit(ds)


def corpus_truths(task, ds, codec):
    """The truths of every pair ``build_corpus`` admits (1 to 32 events)."""
    return [p.truth for p in build_corpus(ds, [task], codec, 0,
                                          DEFAULT_PREFIX, 1, 32)]


class TestStatisticalBaseline:
    def test_mode_predictor(self):
        ds, codec = baseline_fixture(["a", "a", "b"])
        task = build_task({"id": "last", "family": "last_value",
                           "feature": "cat"})
        predictors = statistical_baseline(task, corpus_truths(task, ds, codec))
        assert predictors["mode"] == "a"

    def test_mean_and_median_predictors(self):
        schema = Schema((FeatureSpec("x", "real"),))
        seqs = [EventSequence(f"c{i}", [1], {"x": [v]})
                for i, v in enumerate([1.0, 2.0, 9.0])]
        ds = Dataset(schema, seqs)
        codec = DatasetCodec.fit(ds)
        task = build_task({"id": "m", "family": "last_value", "feature": "x"})
        # numeric truth type comes from the family; use next_value_number-like
        task = build_task({"id": "m", "family": "max_value", "feature": "x"})
        predictors = statistical_baseline(task, corpus_truths(task, ds, codec))
        reps = [codec["x"].bins.discretize(v)[0] for v in (1.0, 2.0, 9.0)]
        assert predictors["mean"] == pytest.approx(sum(reps) / 3)
        assert predictors["median"] == pytest.approx(
            float(np.median(reps)))

    def test_empty_training_split_rejected(self):
        ds, codec = baseline_fixture(["a", "b"])
        empty = Dataset(ds.schema, [])
        task = build_task({"id": "last", "family": "last_value",
                           "feature": "cat"})
        with pytest.raises(DataError):
            statistical_baseline(task, corpus_truths(task, empty, codec))

    def test_uniform_random_targets_score_near_chance(self):
        rng = np.random.default_rng(7)
        cats = [f"v{int(i)}" for i in rng.integers(0, 4, 400)]
        ds, codec = baseline_fixture(cats)
        task = build_task({"id": "last", "family": "last_value",
                           "feature": "cat"})
        predictors = statistical_baseline(task, corpus_truths(task, ds, codec))
        truths = [s.values["cat"][-1] for s in ds.sequences]
        preds = [predictors["mode"]] * len(truths)
        assert accuracy(preds, truths) == pytest.approx(0.25, abs=0.05)


class TestScoreTaskAndReport:
    def test_unparseable_classification_counts_as_error(self):
        task = build_task({"id": "last", "family": "last_value",
                           "feature": "cat"})
        parsed = ["a", Unparseable("nope"), "b"]
        truths = ["a", "a", "b"]
        metrics, n_unparseable = score_task(task, parsed, truths)
        assert n_unparseable == 1
        assert metrics["accuracy"] == pytest.approx(2 / 3)

    def test_unparseable_numeric_excluded(self):
        task = build_task({"id": "m", "family": "mean_value", "feature": "x"})
        parsed = [1.0, Unparseable("nope"), 3.0]
        truths = [1.0, 5.0, 3.0]
        metrics, n_unparseable = score_task(task, parsed, truths)
        assert n_unparseable == 1
        assert metrics["mae"] == 0.0

    def test_binary_gets_auc_from_scores(self):
        task = build_task({"id": "b", "family": "occurrence",
                           "feature": "cat"})
        metrics, _ = score_task(task, [1, 0, 1, 0], [1, 0, 0, 1],
                                scores=[0.9, -0.5, 0.2, 0.4])
        assert "roc_auc" in metrics
        assert metrics["roc_auc"] == pytest.approx(
            pairwise_auc_oracle([0.9, -0.5, 0.2, 0.4], [1, 0, 0, 1]))

    def test_report_bookkeeping_and_json(self):
        report = EvalReport(seed=3, checkpoint_id="abc")
        report.tasks.append(TaskResult(
            task_id="last", metrics={"accuracy": 0.5}, baselines={},
            n_total=10, n_unparseable=2))
        payload = report.to_json()
        assert payload["seed"] == 3
        for tr in payload["tasks"]:
            assert tr["n_unparseable"] <= tr["n_total"]
        table = report.render_table()
        assert "last" in table and "accuracy" in table

    def test_report_hash_stable(self):
        a = EvalReport(seed=1, checkpoint_id="x")
        b = EvalReport(seed=1, checkpoint_id="x")
        assert a.dumps() == b.dumps()
