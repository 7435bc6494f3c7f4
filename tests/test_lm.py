"""Text model: tokenizer, injection layout, LoRA, generation, scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventqa import autodiff as ad
from eventqa import nn
from eventqa.autodiff import Tensor, backward, grad_check
from eventqa.errors import ConfigError, DataError
from eventqa.lm import (BOS, EOS, PAD, SEQ_PREFIX, SEQ_SUFFIX, LoraConfig,
                        Tokenizer, ToyLm, ToyLmConfig, apply_lora,
                        length_groups, pad_rows, token_rows)
from eventqa.optim import AdamW, OptimizerConfig

WORDS = ["What", "is", "the", "category", "of", "last", "event", "Answer",
         "with", "a", "single", "value", "name", "alpha", "bravo", "charlie",
         "Given", "history", "Options", "most", "frequent", "drinking",
         "water", "Repeat", "word", "number", "yes", "no"]


def make_tokenizer():
    return Tokenizer.build(WORDS)


def tiny_lm(seed=0, **kw):
    base = dict(d_model=16, enc_layers=1, dec_layers=1, heads=4, d_ff=24,
                max_input_len=64, max_output_len=10)
    base.update(kw)
    return ToyLm(make_tokenizer(), ToyLmConfig(**base),
                 np.random.default_rng(seed))


def one_row(lm, prefix, body, answer="Yes"):
    """Token rows of a batch of one, through ``token_rows``."""
    return token_rows(lm.tokenizer, prefix, [body], [answer])


def yes_minus_no(lm, rows):
    """p(Yes) - p(No) of the first row from generate's step-0 distribution,
    the quantity the pipeline reports as the Yes/No score."""
    _, steps = lm.generate(rows, None)
    return float(steps[0][0, lm.tokenizer.yes_id]
                 - steps[0][0, lm.tokenizer.no_id])


class TestTokenizer:
    def test_specials_reserved_0_to_4(self):
        tok = make_tokenizer()
        assert tok.tokens[:5] == ["<pad>", "<bos>", "<eos>", "<seq>", "</seq>"]
        assert (PAD, BOS, EOS, SEQ_PREFIX, SEQ_SUFFIX) == (0, 1, 2, 3, 4)

    def test_roundtrip_exact(self):
        tok = make_tokenizer()
        text = "What is the category of the last event? Answer: alpha 42.5;"
        assert tok.detokenize(tok.tokenize(text)) == text

    def test_numbers_tokenize_digit_by_digit(self):
        tok = make_tokenizer()
        ids = tok.tokenize("42.5")
        assert [tok.tokens[i] for i in ids] == ["4", "2", ".", "5"]

    def test_yes_no_single_leading_tokens(self):
        tok = make_tokenizer()
        assert tok.tokenize("Yes") == [tok.yes_id]
        assert tok.tokenize("No") == [tok.no_id]

    def test_build_without_yes_no_rejected(self):
        with pytest.raises(ConfigError, match="Yes"):
            Tokenizer(list(("<pad>", "<bos>", "<eos>", "<seq>", "</seq>"))
                      + ["hello"])

    def test_unknown_word_rejected(self):
        tok = make_tokenizer()
        with pytest.raises(DataError, match="zebra"):
            tok.tokenize("zebra")

    def test_specials_never_produced_from_text(self):
        tok = make_tokenizer()
        ids = tok.tokenize("What is the last event?")
        assert all(i >= 5 for i in ids)

    def test_detokenize_rejects_specials(self):
        tok = make_tokenizer()
        with pytest.raises(DataError, match="special"):
            tok.detokenize([BOS])

    @given(st.lists(
        st.sampled_from(WORDS + list("0123456789") + list(".,;:?! ")),
        min_size=0, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property_over_corpus_alphabet(self, pieces):
        tok = make_tokenizer()
        text = " ".join(pieces)
        assert tok.detokenize(tok.tokenize(text)) == text

    def test_json_roundtrip(self):
        tok = make_tokenizer()
        again = Tokenizer.from_json(tok.to_json())
        assert again.tokens == tok.tokens


class TestInjection:
    def test_layout_arithmetic(self):
        # spec of the stream: prefix + <seq> + q rows + </seq> + body
        lm = tiny_lm()
        queries = Tensor(np.zeros((1, 8, 16)))
        prefix = "Given the history"          # 4 words + 2 spaces? tokens: 5
        body = "What is the last event?"
        rows = one_row(lm, prefix, body)
        p = len(lm.tokenizer.tokenize(prefix))
        b = len(lm.tokenizer.tokenize(body))
        with ad.no_grad():
            out, valid = lm.encode(rows, queries)
        assert out.shape == (1, p + 1 + 8 + 1 + b, 16)
        np.testing.assert_array_equal(valid, np.ones((1, p + 1 + 8 + 1 + b)))

    def test_q_zero_pure_text_still_decodes(self):
        lm = tiny_lm()
        rows = one_row(lm, "Given the history", "Answer yes.")
        with ad.no_grad():
            out, _ = lm.encode(rows, None)
        assert out.shape[1] == rows.prefix_ids.shape[1] + 2 + \
            rows.body_ids.shape[1]
        texts, steps = lm.generate(rows, None)
        assert isinstance(texts[0], str)
        assert steps, "expected at least one decoding step"

    def test_same_question_differs_only_in_injected_rows(self):
        lm = tiny_lm()
        rng = np.random.default_rng(0)
        q1 = Tensor(rng.normal(size=(1, 4, 16)))
        q2 = Tensor(rng.normal(size=(1, 4, 16)))
        rows1 = one_row(lm, "Given the history", "What is the last event?")
        rows2 = one_row(lm, "Given the history", "What is the last event?")
        np.testing.assert_array_equal(rows1.prefix_ids, rows2.prefix_ids)
        np.testing.assert_array_equal(rows1.body_ids, rows2.body_ids)
        with ad.no_grad():
            out1, _ = lm.encode(rows1, q1)
            out2, _ = lm.encode(rows2, q2)
        assert not np.array_equal(out1.data, out2.data)

    def test_overlength_stream_rejected_with_measured_lengths(self):
        lm = tiny_lm(max_input_len=10)
        queries = Tensor(np.zeros((1, 8, 16)))
        rows = one_row(lm, "Given the history", "What is the last event?")
        with pytest.raises(ConfigError, match="exceeds max input"):
            lm.encode(rows, queries)

    def test_injected_width_checked(self):
        lm = tiny_lm()
        with pytest.raises(ConfigError, match="injected rows"):
            lm.encode(one_row(lm, "Given", "Answer yes."),
                      Tensor(np.zeros((1, 4, 7))))


class TestLora:
    def test_single_matrix_census(self):
        rng = np.random.default_rng(0)
        base = nn.Linear(64, 64, rng)
        wrapped = nn.LoraLinear(base, rank=4, alpha=8.0, rng=rng)
        assert wrapped.lora_a.size + wrapped.lora_b.size == 2 * 64 * 4

    def test_one_graph_node_per_call(self):
        rng = np.random.default_rng(1)
        base = nn.Linear(8, 8, rng)
        base.freeze()
        wrapped = nn.LoraLinear(base, rank=2, alpha=4.0, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        out = wrapped(x)
        assert out._parents == (x, base.w, base.b, wrapped.lora_a,
                                wrapped.lora_b)

    def test_zero_init_identity_exact(self):
        lm = tiny_lm(seed=1)
        rows = one_row(lm, "Given the history", "Answer yes.")
        with ad.no_grad():
            base_out, _ = lm.encode(rows, None)
            base_logits = lm.decode(np.array([[BOS]]), base_out,
                                    np.ones((1, base_out.shape[1])))
        report = apply_lora(lm, LoraConfig(rank=2, alpha=4.0, dropout=0.0),
                            np.random.default_rng(2))
        with ad.no_grad():
            out, _ = lm.encode(rows, None)
            logits = lm.decode(np.array([[BOS]]), out,
                               np.ones((1, out.shape[1])))
        np.testing.assert_array_equal(base_logits.data, logits.data)
        assert report["trainable_adapter_values"] > 0

    def test_only_adapters_and_markers_trainable(self):
        lm = tiny_lm(seed=3)
        apply_lora(lm, LoraConfig(rank=2, alpha=4.0, dropout=0.0),
                   np.random.default_rng(4))
        for name, p in lm.parameters().items():
            if p.requires_grad:
                assert "lora_" in name or name == "inj_markers", name
            else:
                assert "lora_" not in name, name

    def test_census_matches_shape_count_and_reports_formula(self):
        lm = tiny_lm(seed=5, enc_layers=2, dec_layers=2)
        report = apply_lora(lm, LoraConfig(rank=2, alpha=4.0, dropout=0.0),
                            np.random.default_rng(6))
        census = sum(p.size for name, p in lm.parameters().items()
                     if "lora_" in name)
        assert report["trainable_adapter_values"] == census
        # attention modules: 2 enc self + 2 dec self + 2 dec cross = 6, each
        # with wq and wv adapted at d=16: 12 matrices * 2*16*2 values
        assert census == 12 * 2 * 16 * 2
        assert report["rule_of_thumb_2_L_d_r"] == 2 * 4 * 16 * 2

    def test_frozen_base_hash_unchanged_after_training_step(self):
        lm = tiny_lm(seed=7)
        apply_lora(lm, LoraConfig(rank=2, alpha=4.0, dropout=0.0),
                   np.random.default_rng(8))
        frozen_names = sorted(n for n, p in lm.parameters().items()
                              if not p.requires_grad)

        def frozen_hash():
            import hashlib
            h = hashlib.sha256()
            params = lm.parameters()
            for n in frozen_names:
                h.update(params[n].data.tobytes())
            return h.hexdigest()

        before = frozen_hash()
        rows = one_row(lm, "Given the history", "Answer yes.")
        params = lm.trainable_parameters()
        opt = AdamW(params)
        for _ in range(3):
            opt.zero_grad()
            loss = lm.answer_loss(rows, None)
            backward(loss)
            opt.step(0.05)
        assert frozen_hash() == before
        assert any(np.abs(p.data).sum() > 0 for n, p in params.items()
                   if "lora_b" in n), "adapters never moved"

    def test_rank_too_large_rejected(self):
        rng = np.random.default_rng(9)
        base = nn.Linear(8, 8, rng)
        with pytest.raises(ValueError, match="rank"):
            nn.LoraLinear(base, rank=8, alpha=8.0, rng=rng)

    def test_gradcheck_through_lora_adapters(self):
        """Encoder block + decoder block + adapters at 1e-4."""
        lm = tiny_lm(seed=10, d_model=8, heads=2, d_ff=12, enc_layers=1,
                     dec_layers=1)
        apply_lora(lm, LoraConfig(rank=2, alpha=4.0, dropout=0.0),
                   np.random.default_rng(11))
        rows = one_row(lm, "Given the history", "Answer yes.")
        params = lm.trainable_parameters()

        report = grad_check(lambda: lm.answer_loss(rows, None), params,
                            tolerance=1e-4, max_entries=40)
        assert report["passed"], report["failures"][:3]


class TestGeneration:
    def test_degenerate_always_yes_model(self):
        """A model fine-tuned onto the constant answer emits Yes anywhere."""
        lm = tiny_lm(seed=12)
        rows_train = one_row(lm, "Given the history", "Answer yes.")
        opt = AdamW(lm.parameters(), OptimizerConfig(weight_decay=0.0))
        for _ in range(40):
            opt.zero_grad()
            loss = lm.answer_loss(rows_train, None)
            backward(loss)
            opt.step(0.05)
        for body in ("Answer yes.", "What is the last event?"):
            rows = one_row(lm, "Given the history", body)
            texts, steps = lm.generate(rows, None)
            assert texts[0] == "Yes"
            assert yes_minus_no(lm, rows) > 0.0

    def test_greedy_decoding_deterministic(self):
        lm = tiny_lm(seed=13)
        rows = one_row(lm, "Given the history", "What is the last event?")
        a, _ = lm.generate(rows, None)
        b, _ = lm.generate(rows, None)
        assert a == b

    def test_first_position_distribution_sums_to_one(self):
        lm = tiny_lm(seed=14)
        rows = one_row(lm, "Given the history", "Answer yes.")
        _, steps = lm.generate(rows, None)
        assert steps[0].sum(axis=-1)[0] == pytest.approx(1.0, abs=1e-9)

    def test_tied_yes_no_logits_score_zero(self):
        lm = tiny_lm(seed=15)
        lm.lm_head.w.data[:] = 0.0
        lm.lm_head.b.data[:] = 0.0  # all logits equal -> p(yes) == p(no)
        rows = one_row(lm, "Given the history", "Answer yes.")
        assert yes_minus_no(lm, rows) == pytest.approx(0.0, abs=1e-15)

    def test_score_range(self):
        lm = tiny_lm(seed=16)
        rows = one_row(lm, "Given the history", "Answer yes.")
        score = yes_minus_no(lm, rows)
        assert -1.0 <= score <= 1.0

    def test_generation_stops_at_eos_limit(self):
        lm = tiny_lm(seed=17, max_output_len=4)
        rows = one_row(lm, "Given the history", "Answer yes.")
        texts, steps = lm.generate(rows, None)
        assert len(steps) <= 3


class TestBatchedForward:
    def test_padded_batch_matches_single(self):
        lm = tiny_lm(seed=18)
        tok = lm.tokenizer
        prefix = "Given the history"
        bodies = ["Answer yes.", "What is the last event?"]
        rows_batch = token_rows(tok, prefix, bodies, ["Yes", "Yes"])
        assert rows_batch.body_valid[0].sum() < rows_batch.body_ids.shape[1]
        texts_batch, _ = lm.generate(rows_batch, None)

        rows_single = one_row(lm, prefix, bodies[0])
        texts_single, _ = lm.generate(rows_single, None)
        assert texts_batch[0] == texts_single[0]

    def test_pad_rows_layout(self):
        ids, valid = pad_rows([[7, 8, 9], [5]])
        np.testing.assert_array_equal(ids, [[7, 8, 9], [5, PAD, PAD]])
        np.testing.assert_array_equal(valid, [[1, 1, 1], [1, 0, 0]])
        assert ids.dtype == np.int64 and valid.dtype == np.float64

    def test_token_rows_layout(self):
        tok = make_tokenizer()
        rows = token_rows(tok, "Given the history", ["Answer yes.", "What"],
                          ["Yes", "alpha 42"])
        prefix = tok.tokenize("Given the history")
        np.testing.assert_array_equal(rows.prefix_ids, [prefix, prefix])
        want_ids, want_valid = pad_rows([tok.tokenize("Answer yes."),
                                         tok.tokenize("What")])
        np.testing.assert_array_equal(rows.body_ids, want_ids)
        np.testing.assert_array_equal(rows.body_valid, want_valid)
        alpha = tok.tokenize("alpha 42")
        np.testing.assert_array_equal(
            rows.answer_ids,
            [[tok.yes_id, EOS] + [PAD] * (len(alpha) - 1), alpha + [EOS]])
        np.testing.assert_array_equal(
            rows.answer_valid.sum(axis=1), [2, len(alpha) + 1])
        assert rows.prefix_ids.dtype == np.int64

    def test_length_groups_trim_rows_to_their_lengths(self):
        tok = make_tokenizer()
        bodies = ["What is the last event?", "Answer yes.",
                  "What is the event?", "Answer no."]
        answers = ["alpha 42", "Yes", "Yes", "No"]
        rows = token_rows(tok, "Given the history", bodies, answers)
        groups = length_groups(rows)
        lengths = [len(tok.tokenize(b)) for b in bodies]
        assert [len(text.body_ids[0]) for _, text in groups] == \
            sorted(set(lengths))
        assert sorted(r for g, _ in groups for r in g) == list(range(4))
        for g, text in groups:
            assert text.body_valid.all()
            want = token_rows(tok, "Given the history",
                              [bodies[r] for r in g], [answers[r] for r in g])
            for field in ("prefix_ids", "body_ids", "body_valid",
                          "answer_ids", "answer_valid"):
                np.testing.assert_array_equal(getattr(text, field),
                                              getattr(want, field), field)

    def test_unpadded_rows_skip_an_all_zero_mask_bitwise(self, monkeypatch):
        """Skipping the mask of a batch without PAD changes no bit of the
        encoder states, the loss or the generated distributions."""
        lm = tiny_lm(seed=19)
        rows = token_rows(lm.tokenizer, "Given the history",
                          ["Answer yes.", "Answer no."], ["Yes", "No"])
        assert rows.body_valid.all()
        injected = Tensor(np.random.default_rng(3).normal(size=(2, 3, 16)))

        def outputs():
            enc, _ = lm.encode(rows, injected)
            _, steps = lm.generate(rows, injected)
            return [enc.data, lm.answer_loss(rows, injected).data, *steps]

        skipped = outputs()
        attention = ad.attention
        seen = []

        def with_zero_mask(q, k, v, scale, mask=None):
            seen.append(mask is None)
            if mask is None:
                mask = nn.padding_mask(np.ones((k.shape[0], k.shape[2])))
            return attention(q, k, v, scale, mask)

        monkeypatch.setattr(ad, "attention", with_zero_mask)
        masked = outputs()
        assert any(seen)
        assert len(skipped) == len(masked)
        for got, want in zip(skipped, masked):
            assert np.array_equal(got, want)
