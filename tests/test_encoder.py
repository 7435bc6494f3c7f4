"""Event encoder: projection, causality, batch invariance, pretraining."""

import numpy as np
import pytest

from eventqa import autodiff as ad
from eventqa.autodiff import Tensor, backward, grad_check
from eventqa.codec import DatasetCodec, EventEmbedder
from eventqa.data import Dataset, EventSequence, FeatureSpec, Schema
from eventqa.encoder import (EncoderConfig, EventEncoder, NextEventHeads,
                             next_event_loss)
from eventqa.errors import ConfigError
from eventqa.optim import AdamW, OptimizerConfig


def tiny_config(**kw):
    base = dict(layers=2, d_model=16, heads=4, d_ff=24, max_positions=12)
    base.update(kw)
    return EncoderConfig(**base)


def cat_dataset(n_clients=12, n_events=6, k=4, seed=0, rule="iid"):
    values = tuple(f"v{i}" for i in range(k))
    schema = Schema((FeatureSpec("category", "categorical", values=values),))
    rng = np.random.default_rng(seed)
    seqs = []
    for i in range(n_clients):
        if rule == "repeat":
            c = values[int(rng.integers(0, k))]
            cats = [c] * n_events
        else:
            cats = [values[int(j)] for j in rng.integers(0, k, n_events)]
        seqs.append(EventSequence(f"c{i}", list(range(1, n_events + 1)),
                                  {"category": cats}))
    return Dataset(schema, seqs)


class TestProjection:
    def test_identity_initialized_square_projection(self):
        rng = np.random.default_rng(0)
        enc = EventEncoder(16, tiny_config(), rng)
        enc.projection.w.data = np.eye(16)
        enc.projection.b.data[:] = 0.0
        x = Tensor(rng.normal(size=(2, 5, 16)))
        np.testing.assert_array_equal(enc.project_inputs(x).data, x.data)

    def test_zero_projection(self):
        rng = np.random.default_rng(0)
        enc = EventEncoder(10, tiny_config(), rng)
        enc.projection.w.data[:] = 0.0
        enc.projection.b.data[:] = 0.0
        x = Tensor(rng.normal(size=(1, 4, 10)))
        np.testing.assert_array_equal(enc.project_inputs(x).data,
                                      np.zeros((1, 4, 16)))

    def test_rowwise_equals_independent_recomputation(self):
        rng = np.random.default_rng(7)
        enc = EventEncoder(10, tiny_config(), rng)
        x = rng.normal(size=(1, 3, 10))
        out = enc.project_inputs(Tensor(x)).data
        for i in range(3):
            expected = x[0, i] @ enc.projection.w.data + enc.projection.b.data
            np.testing.assert_allclose(out[0, i], expected, rtol=1e-12)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        enc = EventEncoder(10, tiny_config(), rng)
        with pytest.raises(ConfigError, match="width"):
            enc.project_inputs(Tensor(np.zeros((1, 3, 11))))


class TestEncodeContract:
    def test_shape_contract(self):
        rng = np.random.default_rng(1)
        cfg = tiny_config(d_model=32, heads=4)
        enc = EventEncoder(8, cfg, rng)
        out = enc.encode(Tensor(rng.normal(size=(3, 5, 8))))
        assert out.shape == (3, 5, 32)

    def test_single_event_sequence(self):
        rng = np.random.default_rng(2)
        enc = EventEncoder(8, tiny_config(), rng)
        out = enc.encode(Tensor(rng.normal(size=(1, 1, 8))))
        assert out.shape == (1, 1, 16)

    def test_overlength_rejected(self):
        rng = np.random.default_rng(3)
        enc = EventEncoder(8, tiny_config(max_positions=4), rng)
        with pytest.raises(ConfigError, match="max positions"):
            enc.encode(Tensor(np.zeros((1, 5, 8))))

    def test_causality_bit_identical(self):
        """Perturbing event j leaves outputs at positions < j untouched."""
        rng = np.random.default_rng(4)
        enc = EventEncoder(8, tiny_config(), rng)
        x = rng.normal(size=(2, 6, 8))
        with ad.no_grad():
            base = enc.encode(Tensor(x)).data.copy()
        perturbed = x.copy()
        perturbed[:, 4, :] += rng.normal(size=8) * 5.0
        with ad.no_grad():
            out = enc.encode(Tensor(perturbed)).data
        assert np.array_equal(out[:, :4, :], base[:, :4, :])
        assert not np.array_equal(out[:, 4:, :], base[:, 4:, :])

    @pytest.mark.parametrize("seed", range(5))
    def test_causality_property_random_seeds(self, seed):
        rng = np.random.default_rng(seed)
        enc = EventEncoder(6, tiny_config(layers=1), rng)
        x = rng.normal(size=(1, 8, 6))
        pos = int(rng.integers(1, 8))
        perturbed = x.copy()
        perturbed[:, pos:, :] = rng.normal(size=(1, 8 - pos, 6))
        with ad.no_grad():
            a = enc.encode(Tensor(x)).data
            b = enc.encode(Tensor(perturbed)).data
        assert np.array_equal(a[:, :pos, :], b[:, :pos, :])

    def test_batch_invariance_with_padding(self):
        """A sequence encodes the same alone and inside a padded batch."""
        rng = np.random.default_rng(5)
        enc = EventEncoder(8, tiny_config(), rng)
        short = rng.normal(size=(1, 3, 8))
        long = rng.normal(size=(1, 7, 8))
        padded = np.zeros((2, 7, 8))
        padded[0, :3] = short[0]
        padded[1] = long[0]
        with ad.no_grad():
            alone = enc.encode(Tensor(short)).data
            batch = enc.encode(Tensor(padded)).data
        np.testing.assert_allclose(batch[0, :3], alone[0], atol=1e-10)


class TestNextEventPretraining:
    def build(self, dataset, seed=0, **cfg):
        codec = DatasetCodec.fit(dataset)
        rng = np.random.default_rng(seed)
        config = tiny_config(**cfg)
        emb = EventEmbedder(codec, rng)
        enc = EventEncoder(codec.event_dim, config, rng)
        heads = NextEventHeads(codec, config.d_model, rng)
        return codec, emb, enc, heads

    def test_untrained_heads_uniform_cross_entropy(self):
        ds = cat_dataset(k=4)
        codec, emb, enc, heads = self.build(ds)
        batch, mask = codec.encode_batch(ds.sequences)
        loss, _ = next_event_loss(enc, heads, emb, batch, mask)
        # zero-initialized heads emit uniform logits over the head arity
        # (the K real values plus the reserved missing slot)
        arity = codec["category"].arity
        assert loss.item() == pytest.approx(np.log(arity), abs=1e-9)

    def test_length_one_sequences_contribute_nothing(self):
        ds = cat_dataset(n_events=1)
        codec, emb, enc, heads = self.build(ds)
        batch, mask = codec.encode_batch(ds.sequences)
        with pytest.raises(ConfigError, match="adjacent"):
            next_event_loss(enc, heads, emb, batch, mask)

    def _train(self, ds, steps=60, lr=0.05, seed=1, eval_ds=None):
        codec, emb, enc, heads = self.build(ds, seed=seed)
        params = {}
        params.update(emb.parameters("e."))
        params.update(enc.parameters("enc."))
        params.update(heads.parameters("h."))
        opt = AdamW(params, OptimizerConfig(weight_decay=0.0))
        batch, mask = codec.encode_batch(ds.sequences)
        for _ in range(steps):
            opt.zero_grad()
            loss, _ = next_event_loss(enc, heads, emb, batch, mask)
            backward(loss)
            opt.step(lr)
        if eval_ds is not None:
            batch, mask = codec.encode_batch(eval_ds.sequences)
        loss, logits = next_event_loss(enc, heads, emb, batch, mask)
        preds = logits["category"].data.argmax(axis=-1)
        targets = batch["category"][:, 1:]
        pair_mask = (mask[:, :-1] * mask[:, 1:]).astype(bool)
        acc = (preds == targets)[pair_mask].mean()
        return loss.item(), float(acc)

    def test_deterministic_repeat_rule_learned(self):
        ds = cat_dataset(n_clients=24, n_events=6, k=4, rule="repeat", seed=3)
        held_out = cat_dataset(n_clients=24, n_events=6, k=4, rule="repeat",
                               seed=30)
        _, acc = self._train(ds, steps=80, eval_ds=held_out)
        assert acc > 0.95

    def test_uniform_random_capped_at_chance(self):
        # the Bayes rate 1/K shows on sequences the model never saw
        ds = cat_dataset(n_clients=60, n_events=8, k=4, rule="iid", seed=4)
        held_out = cat_dataset(n_clients=120, n_events=8, k=4, rule="iid",
                               seed=40)
        _, acc = self._train(ds, steps=40, eval_ds=held_out)
        assert acc == pytest.approx(0.25, abs=0.05)

    def test_gradient_check_full_pretraining_loss(self):
        """Autodiff vs central differences through the whole loss at 1e-4."""
        ds = cat_dataset(n_clients=2, n_events=3, k=2, seed=5)
        codec, emb, enc, heads = self.build(ds, d_model=8, heads=2, layers=1,
                                            d_ff=12)
        batch, mask = codec.encode_batch(ds.sequences)
        params = {}
        params.update(emb.parameters("e."))
        params.update(enc.parameters("enc."))
        params.update(heads.parameters("h."))

        def fn():
            loss, _ = next_event_loss(enc, heads, emb, batch, mask)
            return loss

        report = grad_check(fn, params, tolerance=1e-4, max_entries=40)
        assert report["passed"], report["failures"][:3]


class TestConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError):
            tiny_config(d_model=10, heads=4)

    def test_unknown_architecture(self):
        """The encoder is always the causal transformer; a config that
        names an architecture is rejected."""
        payload = tiny_config().to_json() | {"architecture": "gru"}
        with pytest.raises(ConfigError, match="architecture"):
            EncoderConfig.from_json(payload)

    def test_json_roundtrip(self):
        cfg = tiny_config(layers=3)
        assert EncoderConfig.from_json(cfg.to_json()) == cfg
