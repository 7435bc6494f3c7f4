"""Query connector: fixed-arity output, cross-attention wiring, gradients."""

import numpy as np
import pytest

from eventqa import autodiff as ad
from eventqa.autodiff import Tensor, grad_check
from eventqa.connector import Connector, ConnectorConfig
from eventqa.errors import ConfigError


def tiny_connector(seed=0, **kw):
    base = dict(queries=2, d_model=8, layers=2, heads=2, d_enc=6, d_out=10,
                max_events=512)
    base.update(kw)
    return Connector(ConnectorConfig(**base), np.random.default_rng(seed))


def sensitivity_probe(connector: Connector, enc_out: np.ndarray) -> np.ndarray:
    """Influence of each event row on the connector output.

    Score i is the Frobenius norm of the output change when row i of the
    encoder output is zeroed.
    """
    enc_out = np.asarray(enc_out, dtype=np.float64)
    if enc_out.ndim != 2:
        raise ConfigError(f"probe expects (events, width), got {enc_out.shape}")
    with ad.no_grad():
        base = connector.connect(Tensor(enc_out)).data
        scores = np.zeros(enc_out.shape[0])
        for i in range(enc_out.shape[0]):
            masked = enc_out.copy()
            masked[i, :] = 0.0
            out = connector.connect(Tensor(masked)).data
            scores[i] = np.sqrt(((out - base) ** 2).sum())
    return scores


class TestOutputContract:
    @pytest.mark.parametrize("n_events", [1, 10, 500])
    def test_fixed_query_count_for_any_length(self, n_events):
        conn = tiny_connector(queries=8)
        rng = np.random.default_rng(n_events)
        out = conn.connect(Tensor(rng.normal(size=(n_events, 6))))
        assert out.shape == (8, 10)

    def test_batched_shape(self):
        conn = tiny_connector(queries=4)
        rng = np.random.default_rng(1)
        out = conn.forward(Tensor(rng.normal(size=(3, 7, 6))))
        assert out.shape == (3, 4, 10)

    def test_width_mismatch_rejected(self):
        conn = tiny_connector()
        with pytest.raises(ConfigError, match="width"):
            conn.connect(Tensor(np.zeros((4, 7))))

    def test_too_many_events_rejected(self):
        conn = tiny_connector(max_events=8)
        with pytest.raises(ConfigError, match="max_events"):
            conn.connect(Tensor(np.zeros((9, 6))))

    def test_doubling_length_keeps_output_arity(self):
        conn = tiny_connector(queries=3)
        rng = np.random.default_rng(2)
        a = conn.connect(Tensor(rng.normal(size=(25, 6))))
        b = conn.connect(Tensor(rng.normal(size=(50, 6))))
        assert a.shape == b.shape == (3, 10)


class TestCrossAttentionWiring:
    def test_zeroed_value_projections_make_output_content_independent(self):
        conn = tiny_connector(seed=3)
        for block in conn.blocks:
            if block.has_cross:
                block.cross_attn.wv.w.data[:] = 0.0
                block.cross_attn.wv.b.data[:] = 0.0
        rng = np.random.default_rng(4)
        with ad.no_grad():
            a = conn.connect(Tensor(rng.normal(size=(6, 6)))).data
            b = conn.connect(Tensor(rng.normal(size=(6, 6)))).data
        np.testing.assert_array_equal(a, b)

    def test_output_depends_on_encoder_content_by_default(self):
        conn = tiny_connector(seed=3)
        rng = np.random.default_rng(4)
        with ad.no_grad():
            a = conn.connect(Tensor(rng.normal(size=(6, 6)))).data
            b = conn.connect(Tensor(rng.normal(size=(6, 6)))).data
        assert not np.array_equal(a, b)

    def test_cross_attention_in_odd_blocks_only(self):
        conn = tiny_connector(layers=4)
        assert [b.has_cross for b in conn.blocks] == [False, True, False, True]

    def test_period_one_gives_cross_everywhere(self):
        conn = tiny_connector(layers=2, cross_attention_period=1)
        assert all(b.has_cross for b in conn.blocks)

    def test_config_requires_a_cross_block(self):
        with pytest.raises(ConfigError, match="cross"):
            ConnectorConfig(queries=2, d_model=8, layers=2, heads=2,
                            cross_attention_period=3)

    def test_config_requires_two_blocks(self):
        with pytest.raises(ConfigError, match="blocks"):
            ConnectorConfig(queries=2, d_model=8, layers=1, heads=2)

    def test_padding_mask_blocks_pad_rows(self):
        conn = tiny_connector(seed=5)
        rng = np.random.default_rng(6)
        real = rng.normal(size=(1, 3, 6))
        padded = np.concatenate([real, rng.normal(size=(1, 2, 6))], axis=1)
        valid = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        with ad.no_grad():
            alone = conn.forward(Tensor(real)).data
            batch = conn.forward(Tensor(padded), valid=valid).data
        np.testing.assert_allclose(batch, alone, atol=1e-10)

    def test_recency_indices_match_per_row_reference(self):
        conn = tiny_connector()
        rng = np.random.default_rng(7)
        for trial in range(200):
            width = int(rng.integers(1, 13))
            lengths = rng.integers(1, width + 1, size=int(rng.integers(1, 6)))
            lengths[0] = 1           # a length-1 row
            lengths[-1] = width      # a full row
            valid = (np.arange(width) < lengths[:, None]).astype(np.float64)
            expected = np.zeros(valid.shape, dtype=np.int64)
            for row, n in enumerate(lengths):
                expected[row, :n] = np.arange(n - 1, -1, -1)
            got = conn._recency_indices(valid)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)


class TestGradients:
    def test_query_set_gradient_matches_finite_differences(self):
        conn = tiny_connector(seed=7)
        rng = np.random.default_rng(8)
        enc_out = Tensor(rng.normal(size=(5, 6)))

        report = grad_check(lambda: ad.tsum(conn.connect(enc_out)),
                            {"queries": conn.queries}, tolerance=1e-4)
        assert report["passed"], report["failures"][:3]

    def test_full_two_block_gradient_check(self):
        """All parameters of a two-block connector at 1e-4 tolerance."""
        conn = tiny_connector(seed=9)
        rng = np.random.default_rng(10)
        enc_out = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        params = dict(conn.parameters("conn."))
        params["enc_out"] = enc_out

        def fn():
            out = conn.connect(enc_out)
            return ad.tsum(ad.mul(out, out))

        report = grad_check(fn, params, tolerance=1e-4, max_entries=30)
        assert report["passed"], report["failures"][:3]


class TestSensitivityProbe:
    def test_single_nonzero_row_dominates(self):
        conn = tiny_connector(seed=11)
        enc_out = np.zeros((5, 6))
        enc_out[2] = np.random.default_rng(12).normal(size=6) * 3.0
        scores = sensitivity_probe(conn, enc_out)
        assert scores.argmax() == 2
        assert scores[2] > 0.0
        others = np.delete(scores, 2)
        assert (scores[2] > others).all()

    def test_all_zero_input_all_zero_influence(self):
        conn = tiny_connector(seed=13)
        scores = sensitivity_probe(conn, np.zeros((4, 6)))
        np.testing.assert_array_equal(scores, np.zeros(4))

    def test_matches_bruteforce_masking_oracle(self):
        conn = tiny_connector(seed=14)
        rng = np.random.default_rng(15)
        enc_out = rng.normal(size=(5, 6))
        scores = sensitivity_probe(conn, enc_out)
        with ad.no_grad():
            base = conn.connect(Tensor(enc_out)).data
        for i in range(5):
            masked = enc_out.copy()
            masked[i] = 0.0
            with ad.no_grad():
                out = conn.connect(Tensor(masked)).data
            expected = float(np.sqrt(((out - base) ** 2).sum()))
            assert scores[i] == pytest.approx(expected, abs=1e-12)


def test_query_rows_differ_across_queries():
    conn = tiny_connector(seed=16, queries=4)
    rng = np.random.default_rng(17)
    out = conn.connect(Tensor(rng.normal(size=(6, 6)))).data
    assert not np.allclose(out[0], out[1])
