"""QA engine: rendering, ground truth, parsing, corpus building."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventqa.codec import DatasetCodec
from eventqa.data import Dataset, EventSequence, FeatureSpec, Schema
from eventqa.errors import ConfigError, DataError
from eventqa.qa import (DEFAULT_PREFIX, QATask, Unparseable, build_corpus,
                        build_pair, build_task, build_tasks,
                        corpus_word_inventory, ground_truth, parse_answer,
                        render_question, serialize_answer)
from tests.test_codec import encode_sequence

PRODUCTS = ("black tea", "bread", "drinking water", "grapes")


def product_dataset(n=6, seed=0):
    schema = Schema((
        FeatureSpec("product", "categorical", values=PRODUCTS),
        FeatureSpec("amount", "real"),
    ))
    rng = np.random.default_rng(seed)
    seqs = []
    for i in range(n):
        length = int(rng.integers(3, 8))
        seqs.append(EventSequence(
            f"c{i}", list(range(1, length + 1)),
            {"product": [PRODUCTS[int(j)] for j in rng.integers(0, 4, length)],
             "amount": [float(x) for x in rng.lognormal(0, 0.5, length)]}))
    return Dataset(schema, seqs)


def fitted(dataset=None):
    dataset = dataset or product_dataset()
    return dataset, DatasetCodec.fit(dataset)


def seq_of(products, amounts=None):
    amounts = amounts or [1.0] * len(products)
    return EventSequence("x", list(range(1, len(products) + 1)),
                         {"product": list(products),
                          "amount": list(amounts)})


class TestRendering:
    def test_mode_task_uses_paper_phrasing(self):
        ds, codec = fitted()
        task = build_task({"id": "mode", "family": "most_frequent",
                           "feature": "product"})
        _, body, _ = render_question(task, ds.sequences[0], 0, codec)
        assert body.startswith(
            "What is the most frequent value of product in the entire dataset?")

    def test_binary_form_renders_like_paper_example(self):
        ds, codec = fitted()
        task = build_task({
            "id": "is_mode", "family": "is_most_frequent",
            "feature": "product",
            "template": "Is {value} the most frequently purchased product?",
            "instruction": ""})
        seq = seq_of(["drinking water", "drinking water", "bread"])
        found = False
        for seed in range(20):
            _, body, slots = render_question(task, seq, seed, codec)
            assert body.startswith("Is ")
            assert body.endswith("the most frequently purchased product?")
            if slots["value"] == "drinking water":
                found = True
                assert body == ("Is drinking water the most frequently "
                                "purchased product?")
        assert found

    def test_multi_choice_options_formatting(self):
        ds, codec = fitted()
        task = build_task({"id": "mode_mc", "family": "most_frequent_mc",
                           "feature": "product", "n_options": 4})
        seq = seq_of(["bread", "bread", "grapes"])
        _, body, slots = render_question(task, seq, 3, codec)
        options = slots["options"]
        assert body.endswith(f"Options: {'; '.join(options)}.")
        assert sorted(options) == sorted(PRODUCTS)
        assert options.count("bread") == 1  # truth among options exactly once

    def test_multi_choice_truth_always_present(self):
        ds, codec = fitted()
        task = build_task({"id": "mode_mc", "family": "most_frequent_mc",
                           "feature": "product", "n_options": 2})
        for seed in range(25):
            for seq in ds.sequences:
                _, _, slots = render_question(task, seq, seed, codec)
                truth = ground_truth(task, seq, codec, slots)
                assert slots["options"].count(truth) == 1

    def test_render_deterministic_under_seed(self):
        ds, codec = fitted()
        task = build_task({"id": "is_mode", "family": "is_most_frequent",
                           "feature": "product"})
        for seq in ds.sequences:
            a = render_question(task, seq, 11, codec)
            b = render_question(task, seq, 11, codec)
            assert a == b

    def test_body_ends_with_instruction(self):
        ds, codec = fitted()
        task = build_task({"id": "last", "family": "last_value",
                           "feature": "product"})
        _, body, _ = render_question(task, ds.sequences[0], 0, codec)
        assert body.endswith("Answer with a single value name.")

    def test_option_pool_missing_truth_rejected(self):
        ds, codec = fitted()
        # amounts are binned, not categorical: no vocabulary to draw from
        task = build_task({"id": "mc_amount", "family": "most_frequent_mc",
                           "feature": "amount"})
        with pytest.raises(ConfigError, match="vocabulary|option pool"):
            render_question(task, ds.sequences[0], 0, codec)

    def test_prefix_constant_and_configurable(self):
        ds, codec = fitted()
        task = build_task({"id": "last", "family": "last_value",
                           "feature": "product"})
        prefix, _, _ = render_question(task, ds.sequences[0], 0, codec)
        assert prefix == DEFAULT_PREFIX
        prefix2, _, _ = render_question(task, ds.sequences[0], 0, codec,
                                        prefix="Transactions so far,")
        assert prefix2 == "Transactions so far,"


class TestGroundTruth:
    def setup_method(self):
        _, self.codec = fitted()

    def task(self, family, **kw):
        spec = {"id": f"t_{family}", "family": family}
        spec.update(kw)
        return build_task(spec)

    def test_mode_brute_force(self):
        task = self.task("most_frequent", feature="product")
        seq = seq_of(["black tea", "bread", "black tea"])
        assert ground_truth(task, seq, self.codec) == "black tea"

    def test_mode_tie_breaks_to_first_occurrence(self):
        task = self.task("most_frequent", feature="product")
        seq = seq_of(["bread", "bread", "grapes", "grapes"])
        assert ground_truth(task, seq, self.codec) == "bread"
        seq2 = seq_of(["grapes", "bread", "bread", "grapes"])
        assert ground_truth(task, seq2, self.codec) == "grapes"

    def test_count_events(self):
        task = self.task("count_events")
        seq = seq_of(["bread"] * 7)
        assert ground_truth(task, seq, self.codec) == 7

    def test_last_and_first(self):
        seq = seq_of(["bread", "grapes", "black tea"])
        assert ground_truth(self.task("last_value", feature="product"),
                            seq, self.codec) == "black tea"
        assert ground_truth(self.task("first_value", feature="product"),
                            seq, self.codec) == "bread"

    def test_least_frequent(self):
        task = self.task("least_frequent", feature="product")
        seq = seq_of(["bread", "bread", "grapes"])
        assert ground_truth(task, seq, self.codec) == "grapes"
        tie = seq_of(["grapes", "bread", "bread", "black tea"])
        assert ground_truth(task, tie, self.codec) == "grapes"

    def test_occurrence_flag(self):
        task = self.task("occurrence", feature="product")
        seq = seq_of(["bread", "grapes"])
        assert ground_truth(task, seq, self.codec,
                            {"value": "bread"}) == 1
        assert ground_truth(task, seq, self.codec,
                            {"value": "black tea"}) == 0

    def test_numeric_answers_live_in_discretized_space(self):
        task = self.task("mean_value", feature="amount")
        seq = seq_of(["bread"] * 3, amounts=[1.0, 2.0, 6.0])
        truth = ground_truth(task, seq, self.codec)
        assert truth in self.codec["amount"].bins.boundaries

    def test_predictive_reads_held_out_event(self):
        task = self.task("next_value", feature="product")
        seq = seq_of(["bread", "grapes", "black tea"])
        assert ground_truth(task, seq, self.codec) == "black tea"
        assert task.visible_sequence(seq).values["product"] == \
            ["bread", "grapes"]

    def test_predictive_rejects_length_one(self):
        task = self.task("next_value", feature="product")
        with pytest.raises(DataError, match="length-1|held-out"):
            ground_truth(task, seq_of(["bread"]), self.codec)

    def test_sequence_label_reads_stored_target(self):
        task = self.task("sequence_label", target="label")
        seq = seq_of(["bread", "grapes"])
        seq.targets["label"] = 1
        assert ground_truth(task, seq, self.codec) == 1

    def test_leakage_guard_holdout_event_invisible(self):
        """Changing the held-out event alters the truth, not the encoder
        input indices."""
        task = self.task("next_value", feature="product")
        a = seq_of(["bread", "grapes", "black tea"])
        b = seq_of(["bread", "grapes", "grapes"])
        enc_a = encode_sequence(self.codec, task.visible_sequence(a))
        enc_b = encode_sequence(self.codec, task.visible_sequence(b))
        for f in self.codec.feature_names:
            np.testing.assert_array_equal(enc_a[f], enc_b[f])
        assert ground_truth(task, a, self.codec) != \
            ground_truth(task, b, self.codec)

    def test_agrees_with_independent_bruteforce_on_random_sequences(self):
        """Second, independently written oracle over 1000 random sequences."""
        from collections import Counter

        rng = np.random.default_rng(99)
        mode_task = self.task("most_frequent", feature="product")
        count_task = self.task("count_events")
        last_task = self.task("last_value", feature="product")
        for _ in range(1000):
            length = int(rng.integers(1, 9))
            products = [PRODUCTS[int(i)] for i in rng.integers(0, 4, length)]
            seq = seq_of(products)

            counter = Counter(products)
            top = max(counter.values())
            oracle_mode = next(p for p in products if counter[p] == top)

            assert ground_truth(mode_task, seq, self.codec) == oracle_mode
            assert ground_truth(count_task, seq, self.codec) == len(products)
            assert ground_truth(last_task, seq, self.codec) == products[-1]


class TestParseAnswer:
    def task(self, family, **kw):
        spec = {"id": f"t_{family}", "family": family}
        spec.update(kw)
        return build_task(spec)

    def test_yes_gives_positive_label(self):
        task = self.task("is_most_frequent", feature="product")
        assert parse_answer("Yes", task) == 1
        assert parse_answer("yes of course", task) == 1
        assert parse_answer("No", task) == 0
        assert parse_answer("  nO", task) == 0

    def test_numeric_literal_extracted(self):
        task = self.task("mean_value", feature="amount")
        assert parse_answer("The answer is 42.5", task) == 42.5
        assert parse_answer("-3.25 roughly", task) == -3.25

    def test_non_numeric_is_unparseable(self):
        task = self.task("mean_value", feature="amount")
        result = parse_answer("banana", task)
        assert isinstance(result, Unparseable)
        assert not result

    def test_categorical_longest_match(self):
        task = self.task("most_frequent", feature="product")
        vocab = list(PRODUCTS)
        assert parse_answer("drinking water", task, vocab) == "drinking water"
        # 'drinking water' contains no other value; 'bread' wins only alone
        assert parse_answer("I think bread", task, vocab) == "bread"

    def test_categorical_after_format_marker(self):
        task = self.task("most_frequent", feature="product")
        vocab = list(PRODUCTS)
        assert parse_answer("bread? Answer: grapes", task, vocab) == "grapes"

    def test_empty_unparseable(self):
        task = self.task("most_frequent", feature="product")
        assert isinstance(parse_answer("", task, list(PRODUCTS)), Unparseable)

    def test_count_parses_integral(self):
        task = self.task("count_events")
        assert parse_answer("7", task) == 7
        assert parse_answer("7.0 events", task) == 7

    def test_binary_without_yes_no_unparseable(self):
        task = self.task("is_most_frequent", feature="product")
        assert isinstance(parse_answer("maybe", task), Unparseable)


class TestSerializeRoundTrip:
    def test_binary(self):
        task = build_task({"id": "b", "family": "is_most_frequent",
                           "feature": "product"})
        for truth in (0, 1):
            assert parse_answer(serialize_answer(truth, task), task) == truth

    @given(st.sampled_from(PRODUCTS))
    @settings(max_examples=20, deadline=None)
    def test_categorical(self, value):
        task = build_task({"id": "c", "family": "most_frequent",
                           "feature": "product"})
        text = serialize_answer(value, task)
        assert parse_answer(text, task, list(PRODUCTS)) == value

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_numeric(self, value):
        task = build_task({"id": "n", "family": "mean_value",
                           "feature": "amount"})
        text = serialize_answer(value, task)
        assert parse_answer(text, task) == float(value)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_count(self, value):
        task = build_task({"id": "k", "family": "count_events"})
        text = serialize_answer(value, task)
        assert parse_answer(text, task) == value


class TestCorpus:
    def test_two_tasks_hundred_sequences(self):
        ds, codec = fitted(product_dataset(n=100, seed=1))
        tasks = build_tasks([
            {"id": "last", "family": "last_value", "feature": "product"},
            {"id": "mode", "family": "most_frequent", "feature": "product"},
        ])
        pairs = build_corpus(ds, tasks, codec, 0, DEFAULT_PREFIX, 1, 32)
        assert len(pairs) == 200
        assert Counter(p.task_id for p in pairs) == {"last": 100, "mode": 100}

    def test_interleaved_uniformly(self):
        ds, codec = fitted(product_dataset(n=10, seed=2))
        tasks = build_tasks([
            {"id": "last", "family": "last_value", "feature": "product"},
            {"id": "mode", "family": "most_frequent", "feature": "product"},
        ])
        pairs = build_corpus(ds, tasks, codec, 0, DEFAULT_PREFIX, 1, 32)
        assert [p.task_id for p in pairs[:4]] == ["last", "mode",
                                                  "last", "mode"]

    def test_seeded_corpora_identical(self):
        ds, codec = fitted(product_dataset(n=30, seed=3))
        tasks = build_tasks([
            {"id": "is_mode", "family": "is_most_frequent",
             "feature": "product"},
            {"id": "mc", "family": "most_frequent_mc", "feature": "product"},
        ])
        a = build_corpus(ds, tasks, codec, 5, DEFAULT_PREFIX, 1, 32)
        b = build_corpus(ds, tasks, codec, 5, DEFAULT_PREFIX, 1, 32)
        assert a == b
        c = build_corpus(ds, tasks, codec, 6, DEFAULT_PREFIX, 1, 32)
        assert a != c

    def test_empty_task_list_rejected(self):
        ds, codec = fitted()
        with pytest.raises(ConfigError):
            build_corpus(ds, [], codec, 0, DEFAULT_PREFIX, 1, 32)

    def test_truth_covers_the_visible_window(self):
        products = [PRODUCTS[0]] * 22 + [PRODUCTS[1]] + [PRODUCTS[2]] * 7
        ds = Dataset(product_dataset().schema, [seq_of(products)])
        _, codec = fitted()
        tasks = build_tasks([
            {"id": "count", "family": "count_events"},
            {"id": "first", "family": "first_value", "feature": "product"},
            {"id": "next", "family": "next_value", "feature": "product"},
        ])
        pairs = build_corpus(ds, tasks, codec, 0, DEFAULT_PREFIX, 1, 8)
        truths = {p.task_id: p.truth for p in pairs}
        assert truths["count"] == 8
        assert truths["first"] == products[22] != products[0]
        assert truths["next"] == products[29]

    def test_pair_answer_matches_truth_serialization(self):
        ds, codec = fitted(product_dataset(n=10, seed=5))
        task = build_task({"id": "mode", "family": "most_frequent",
                           "feature": "product"})
        for seq in ds.sequences:
            pair = build_pair(task, seq, codec, seed=0)
            assert parse_answer(pair.answer, task, list(PRODUCTS)) == pair.truth

    def test_word_inventory_covers_rendered_questions(self):
        ds, codec = fitted()
        tasks = build_tasks([
            {"id": "mode", "family": "most_frequent", "feature": "product"},
            {"id": "is_mode", "family": "is_most_frequent",
             "feature": "product"},
        ])
        words = corpus_word_inventory(codec, tasks)
        joined = " ".join(words)
        for needed in ("most", "frequent", "product", "drinking", "Yes", "No"):
            assert needed in joined


class TestTaskRegistry:
    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="family"):
            build_task({"id": "x", "family": "poetry"})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            build_tasks([
                {"id": "a", "family": "count_events"},
                {"id": "a", "family": "count_events"}])

    def test_binary_tasks_admit_exactly_yes_no(self):
        task = build_task({"id": "b", "family": "occurrence",
                           "feature": "product"})
        assert serialize_answer(1, task) == "Yes"
        assert serialize_answer(0, task) == "No"

    def test_multi_choice_needs_two_options(self):
        with pytest.raises(ConfigError):
            build_task({"id": "mc", "family": "most_frequent_mc",
                        "feature": "product", "n_options": 1})
