"""Feature coding: skew-aware bins, vocabularies, embedding sizing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventqa import autodiff as ad
from eventqa.codec import (BinningSpec, DatasetCodec, EventEmbedder,
                           FeatureCodec, Vocabulary, doane_bin_count,
                           embedding_dim, fit_bins, fit_vocabulary, skewness,
                           skewness_sigma)
from eventqa.data import (Dataset, EventSequence, FeatureSpec, Schema)
from eventqa.errors import ConfigError, DataError


def third_moment_skewness_oracle(xs):
    """Independent biased-skewness computation (plain loops)."""
    n = len(xs)
    mean = sum(xs) / n
    m2 = sum((x - mean) ** 2 for x in xs) / n
    m3 = sum((x - mean) ** 3 for x in xs) / n
    return m3 / m2 ** 1.5


class TestDoane:
    def test_symmetric_256_sample_gives_9_bins(self):
        half = np.linspace(0.1, 12.8, 128)
        sample = np.concatenate([half, -half])
        assert sample.size == 256
        assert abs(skewness(sample)) < 1e-12
        count, stats = doane_bin_count(sample)
        assert count == 9  # ceil(1 + log2(256) + log2(1 + 0))
        assert stats["n_samples"] == 256

    def test_sigma_formula_n8(self):
        assert skewness_sigma(8) == pytest.approx(math.sqrt(36.0 / 99.0),
                                                  abs=1e-12)

    def test_skewed_8_sample_hand_evaluated(self):
        # concrete sample; expected count derived from the measured skewness
        sample = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0, 3.0]
        g1 = third_moment_skewness_oracle(sample)
        assert skewness(np.array(sample)) == pytest.approx(g1, abs=1e-12)
        sigma = math.sqrt(36.0 / 99.0)
        expected = math.ceil(1 + math.log2(8) + math.log2(1 + abs(g1) / sigma))
        count, _ = doane_bin_count(np.array(sample))
        assert count == expected

    def test_constant_sample_one_bin(self):
        spec = fit_bins("x", [4.2] * 17)
        assert spec.n_values == 2
        assert spec.boundaries == [4.2, 4.2]

    def test_tiny_sample_fallback(self):
        count, stats = doane_bin_count(np.array([1.0, 2.0]))
        assert stats["fallback"]
        assert count == max(1, math.ceil(1 + math.log2(2)))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            fit_bins("x", [])

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"),
                                     float("nan")])
    def test_non_finite_sample_rejected(self, bad):
        """Doane's rule has no count for a sample holding an infinity (its
        skewness is NaN); the fit names the feature."""
        with pytest.raises(DataError, match="NaN or an infinity"):
            doane_bin_count(np.array([1.0, 2.0, 3.0, bad, 5.0]))
        with pytest.raises(DataError, match="amount: NaN or an infinity"):
            fit_bins("amount", [1.0, 2.0, 3.0, bad, 5.0])

    def test_shuffle_invariant_boundaries(self):
        rng = np.random.default_rng(3)
        sample = rng.lognormal(0.0, 1.0, size=200)
        spec_a = fit_bins("x", sample)
        shuffled = sample.copy()
        rng.shuffle(shuffled)
        spec_b = fit_bins("x", shuffled)
        assert spec_a.boundaries == spec_b.boundaries

    def test_quantile_boundaries_balance_counts(self):
        rng = np.random.default_rng(11)
        sample = rng.normal(size=500)
        assert np.unique(sample).size == sample.size
        spec = fit_bins("x", sample)
        n = len(spec.boundaries) - 1
        # count points mapped into each interval (b[i-1], b[i]] by index
        idx = [spec.discretize(float(x))[1] for x in sample]
        counts = np.bincount(idx, minlength=n + 1)
        interior = counts[1:]          # index 0 is only the exact minimum
        interior[0] += counts[0]
        low = math.floor(500 / n) - 1
        high = math.ceil(500 / n) + 1
        assert all(low <= c <= high for c in interior), interior

    def test_duplicate_quantiles_deduplicated(self):
        sample = [1.0] * 60 + [2.0] * 10 + list(np.linspace(3, 4, 30))
        spec = fit_bins("x", sample)
        assert all(b > a for a, b in zip(spec.boundaries, spec.boundaries[1:]))
        assert spec.stats["effective_bins"] <= spec.stats["requested_bins"]


class TestDiscretize:
    def spec(self):
        return BinningSpec("x", [0.0, 10.0, 20.0])

    def test_below_clamps_to_first(self):
        assert self.spec().discretize(-5.0) == (0.0, 0)

    def test_above_clamps_to_last(self):
        assert self.spec().discretize(25.0) == (20.0, 2)

    def test_interior_maps_to_right_boundary(self):
        assert self.spec().discretize(7.0) == (10.0, 1)

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            self.spec().discretize(float("nan"))

    @pytest.mark.parametrize("x", [float("inf"), float("-inf")])
    def test_infinity_rejected(self, x):
        with pytest.raises(DataError, match="NaN or an infinity, got -?inf"):
            self.spec().discretize(x)

    def test_boundaries_are_fixed_points(self):
        spec = self.spec()
        for b in spec.boundaries:
            value, _ = spec.discretize(b)
            assert value == b

    def test_strictly_increasing_required(self):
        with pytest.raises(ConfigError):
            BinningSpec("x", [0.0, 0.0, 1.0])

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_totality_membership_idempotency(self, x):
        spec = BinningSpec("x", [-3.0, -1.0, 0.5, 2.0, 8.0])
        value, idx = spec.discretize(x)
        assert value in spec.boundaries
        assert spec.boundaries[idx] == value
        assert spec.discretize(value) == (value, idx)

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2,
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_monotone_nondecreasing(self, xs):
        spec = BinningSpec("x", [-50.0, -10.0, 0.0, 10.0, 50.0])
        xs = sorted(xs)
        values = [spec.discretize(x)[0] for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestEmbeddingDim:
    @pytest.mark.parametrize("k,expected", [(1, 2), (2, 3), (10, 6)])
    def test_reference_values(self, k, expected):
        assert embedding_dim(k) == expected

    def test_monotone_and_bounded(self):
        prev = 0
        for k in [1, 2, 3, 5, 10, 100, 1000, 10_000, 100_000, 1_000_000]:
            dim = embedding_dim(k)
            assert dim >= max(2, prev)
            assert math.isfinite(dim)
            prev = dim

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            embedding_dim(0)


class TestVocabulary:
    def test_reserved_zero_and_bijection(self):
        vocab = fit_vocabulary("f", ["b", "a", "b", None, "c"])
        assert vocab.cardinality == 3
        indices = {v: vocab.index_of(v) for v in vocab.values}
        assert sorted(indices.values()) == [1, 2, 3]
        assert vocab.index_of(None) == 0
        for v, i in indices.items():
            assert vocab.values[i - 1] == v

    def test_unknown_raises(self):
        vocab = fit_vocabulary("f", ["a", "b"])
        with pytest.raises(DataError, match="zz"):
            vocab.index_of("zz")

    def test_declared_values_take_precedence(self):
        vocab = fit_vocabulary("f", ["b"], declared=("x", "y", "z"))
        assert vocab.values == ["x", "y", "z"]


def small_dataset():
    schema = Schema((
        FeatureSpec("category", "categorical", values=("a", "b", "c")),
        FeatureSpec("count", "integer"),
        FeatureSpec("amount", "real"),
    ))
    rng = np.random.default_rng(0)
    seqs = []
    for i in range(20):
        n = 6
        seqs.append(EventSequence(
            f"c{i}", list(range(1, n + 1)),
            {"category": [("a", "b", "c")[int(j)] for j in
                          rng.integers(0, 3, n)],
             "count": [int(v) for v in rng.integers(0, 5, n)],
             "amount": [float(v) for v in rng.lognormal(0, 1, n)]}))
    return Dataset(schema, seqs)


class TestDatasetCodec:
    def test_fit_kinds(self):
        codec = DatasetCodec.fit(small_dataset())
        assert codec["category"].vocab is not None
        assert codec["count"].vocab is not None        # small-cardinality integer
        assert codec["amount"].bins is not None

    def test_integer_cap_forces_binning(self):
        codec = DatasetCodec.fit(small_dataset(), integer_vocab_cap=2)
        assert codec["count"].bins is not None

    def test_event_dim_is_sum_of_feature_dims(self):
        codec = DatasetCodec.fit(small_dataset())
        assert codec.event_dim == sum(codec[f].dim for f in codec.feature_names)

    def test_json_roundtrip(self, tmp_path):
        codec = DatasetCodec.fit(small_dataset())
        codec.save(tmp_path / "codec.json")
        loaded = DatasetCodec.load(tmp_path / "codec.json")
        assert loaded.to_json() == codec.to_json()
        ds = small_dataset()
        a = encode_sequence(codec, ds.sequences[0])
        b = encode_sequence(loaded, ds.sequences[0])
        for f in codec.feature_names:
            np.testing.assert_array_equal(a[f], b[f])

    def test_encode_batch_pads_left_aligned(self):
        ds = small_dataset()
        short = EventSequence("s", [1, 2], {
            "category": ["a", "b"], "count": [0, 1], "amount": [1.0, 2.0]})
        codec = DatasetCodec.fit(ds)
        batch, mask = codec.encode_batch([ds.sequences[0], short])
        assert mask.shape == (2, 6)
        np.testing.assert_array_equal(mask[1], [1, 1, 0, 0, 0, 0])
        assert batch["category"][1, 2:].sum() == 0  # pad index 0

    def test_missing_value_maps_to_reserved_zero(self):
        ds = small_dataset()
        codec = DatasetCodec.fit(ds)
        seq = EventSequence("m", [1], {"category": [None], "count": [None],
                                       "amount": [None]})
        enc = encode_sequence(codec, seq)
        assert all(enc[f][0] == 0 for f in codec.feature_names)


def encode_sequence(codec, seq):
    """Feature name -> int index array of length len(seq): a batch of one."""
    batch, _ = codec.encode_batch([seq])
    return {f: codes[0] for f, codes in batch.items()}


def embed_sequence(emb, codec, seq):
    """(len(seq), D) matrix, row i embedding event i."""
    return emb.embed_indices(encode_sequence(codec, seq))


def embed_event(emb, codec, seq, position):
    """(D,) embedding of event ``position`` of ``seq``."""
    encoded = encode_sequence(codec, seq)
    one = {f: encoded[f][position:position + 1] for f in codec.feature_names}
    return ad.reshape(emb.embed_indices(one), (codec.event_dim,))


def per_value_codes(fc, column):
    """Reference coding of a column, one value at a time."""
    if fc.vocab is not None:
        return [fc.vocab.index_of(v) for v in column]
    return [0 if v is None else fc.bins.discretize(float(v))[1] + 1
            for v in column]


def per_value_batch(codec, seqs):
    """Reference for ``DatasetCodec.encode_batch``: per-value codes,
    left-aligned and zero-padded, plus the validity mask."""
    width = max(len(s) for s in seqs)
    batch = {f: np.zeros((len(seqs), width), dtype=np.int64)
             for f in codec.feature_names}
    mask = np.zeros((len(seqs), width))
    for i, seq in enumerate(seqs):
        for spec in codec.schema.features:
            batch[spec.name][i, :len(seq)] = per_value_codes(
                codec[spec.name], seq.feature_column(spec))
        mask[i, :len(seq)] = 1.0
    return batch, mask


def assert_batches_equal(got, want):
    (got_codes, got_mask), (want_codes, want_mask) = got, want
    assert got_codes.keys() == want_codes.keys()
    for f, codes in want_codes.items():
        assert got_codes[f].dtype == np.int64
        np.testing.assert_array_equal(got_codes[f], codes)
    assert got_mask.dtype == want_mask.dtype
    np.testing.assert_array_equal(got_mask, want_mask)


FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def binned_columns(draw):
    """A binning (sometimes collapsed to [c, c]) and a column of values on
    its boundaries, between them, beyond both ends, integral or missing."""
    if draw(st.booleans()):
        bounds = [draw(FINITE)] * 2
    else:
        bounds = sorted(set(draw(st.lists(FINITE, min_size=2, max_size=8))))
        if len(bounds) < 2:
            bounds = [bounds[0], bounds[0] + 1.0]
    fc = FeatureCodec(FeatureSpec("x", "real"), bins=BinningSpec("x", bounds))
    middles = [(lo + hi) / 2 for lo, hi in zip(bounds, bounds[1:])]
    value = st.one_of(
        st.sampled_from(bounds), st.sampled_from(middles),
        st.floats(max_value=bounds[0], allow_nan=False),
        st.floats(min_value=bounds[-1], allow_nan=False),
        st.floats(min_value=bounds[0], max_value=bounds[-1]),
        st.integers(min_value=-10**6, max_value=10**6), st.none())
    return fc, draw(st.lists(value, max_size=30))


class TestEncodeColumn:
    def vocab_codec(self):
        return FeatureCodec(FeatureSpec("cat", "categorical",
                                        values=("a", "b", "c")),
                            vocab=Vocabulary("cat", ["a", "b", "c"]))

    @settings(max_examples=300, deadline=None)
    @given(binned_columns())
    def test_binned_column_matches_discretize(self, drawn):
        fc, column = drawn
        if any(v is not None and not math.isfinite(v) for v in column):
            with pytest.raises(DataError, match="NaN or an infinity"):
                fc.encode_column(column)
            return
        got = fc.encode_column(column)
        assert got.dtype == np.int64
        assert got.tolist() == per_value_codes(fc, column)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "zz", None]),
                    max_size=20))
    def test_vocabulary_column_matches_index_of(self, column):
        fc = self.vocab_codec()
        if "zz" in column:
            with pytest.raises(DataError, match="'zz' not in vocabulary"):
                fc.encode_column(column)
        else:
            got = fc.encode_column(column)
            assert got.dtype == np.int64
            assert got.tolist() == per_value_codes(fc, column)

    def test_unknown_value_raises(self):
        fc = self.vocab_codec()
        with pytest.raises(DataError, match="cat: value 'zz'"):
            fc.encode_column(["a", "zz", None])

    @pytest.mark.parametrize("bounds", [[0.0, 10.0, 20.0], [3.0, 3.0]])
    def test_nan_raises(self, bounds):
        fc = FeatureCodec(FeatureSpec("x", "real"),
                          bins=BinningSpec("x", bounds))
        with pytest.raises(DataError, match="x: cannot discretize NaN"):
            fc.encode_column([1.0, float("nan")])

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_infinity_raises(self, bad):
        fc = FeatureCodec(FeatureSpec("x", "real"),
                          bins=BinningSpec("x", [0.0, 10.0]))
        with pytest.raises(DataError, match="x: cannot discretize NaN or an "
                                            "infinity, got -?inf"):
            fc.encode_column([1.0, None, bad])

    def test_encode_batch_matches_per_value_reference(self):
        ds = small_dataset()
        codec = DatasetCodec.fit(ds, integer_vocab_cap=2)  # "count" binned
        short = EventSequence("s", [1, 2], {
            "category": ["a", None], "count": [None, 9], "amount": [1.0, -4.0]})
        seqs = ds.sequences + [short]
        assert_batches_equal(codec.encode_batch(seqs),
                             per_value_batch(codec, seqs))


@pytest.fixture(scope="module")
def codec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("codec") / "codec.json"
    DatasetCodec.fit(small_dataset()).save(path)
    return path, path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(min_value=0, max_value=100_000))
def test_truncated_codec_raises_only_data_or_config_error(codec_file, cut):
    path, raw = codec_file
    damaged = path.with_name("damaged.json")
    damaged.write_bytes(raw[:cut % len(raw)])
    try:
        DatasetCodec.load(damaged)
    except (DataError, ConfigError):
        pass


@settings(max_examples=300, deadline=None)
@given(bit=st.integers(min_value=0, max_value=1_000_000))
def test_bit_flipped_codec_raises_only_data_or_config_error(codec_file, bit):
    path, raw = codec_file
    flipped = bytearray(raw)
    bit %= 8 * len(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    damaged = path.with_name("damaged.json")
    damaged.write_bytes(bytes(flipped))
    try:
        DatasetCodec.load(damaged)
    except (DataError, ConfigError):
        pass


@pytest.mark.parametrize("text,error,match", [
    (None, DataError, "cannot read codec"),
    ('{"version": 1', DataError, "cannot read codec"),
    ('[1]', DataError, "not a JSON object"),
    ('{"version": 1}', DataError, "'schema'"),
    ('{"version": 2}', ConfigError, "unsupported codec version"),
], ids=["missing", "truncated", "not_object", "no_schema", "version"])
def test_unusable_codec_file_named(tmp_path, text, error, match):
    path = tmp_path / "codec.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(error, match=match) as info:
        DatasetCodec.load(path)
    assert error is ConfigError or str(path) in str(info.value)


class TestEventEmbedder:
    def build(self):
        ds = small_dataset()
        codec = DatasetCodec.fit(ds)
        rng = np.random.default_rng(1)
        return ds, codec, EventEmbedder(codec, rng)

    def test_embed_event_concatenates_in_schema_order(self):
        ds, codec, emb = self.build()
        dims = [codec[f].dim for f in codec.feature_names]
        out = embed_event(emb, codec, ds.sequences[0], 0)
        assert out.shape == (sum(dims),)
        # concatenation order: compare against manual per-feature lookup
        enc = encode_sequence(codec, ds.sequences[0])
        offset = 0
        for f, d, table in zip(codec.feature_names, dims, emb.tables):
            np.testing.assert_array_equal(
                out.data[offset:offset + d], table.table.data[enc[f][0]])
            offset += d

    def test_identical_events_identical_vectors(self):
        ds, codec, emb = self.build()
        seq = EventSequence("m", [1, 5], {
            "category": ["a", "a"], "count": [2, 2], "amount": [1.0, 1.0]})
        mat = embed_sequence(emb, codec, seq)
        np.testing.assert_array_equal(mat.data[0], mat.data[1])

    def test_zero_tables_give_zero_vector(self):
        ds, codec, emb = self.build()
        for table in emb.tables:
            table.table.data[:] = 0.0
        out = embed_event(emb, codec, ds.sequences[0], 3)
        np.testing.assert_array_equal(out.data, np.zeros(codec.event_dim))

    def test_embed_sequence_rows_match_events(self):
        ds, codec, emb = self.build()
        seq = ds.sequences[2]
        mat = embed_sequence(emb, codec, seq)
        assert mat.shape == (len(seq), codec.event_dim)
        for i in range(len(seq)):
            np.testing.assert_array_equal(
                mat.data[i], embed_event(emb, codec, seq, i).data)

    def test_permuting_events_permutes_rows(self):
        ds, codec, emb = self.build()
        a = EventSequence("p", [1, 2], {"category": ["a", "b"],
                                        "count": [0, 1],
                                        "amount": [1.0, 9.0]})
        b = EventSequence("p", [1, 2], {"category": ["b", "a"],
                                        "count": [1, 0],
                                        "amount": [9.0, 1.0]})
        ma, mb = embed_sequence(emb, codec, a), embed_sequence(emb, codec, b)
        np.testing.assert_array_equal(ma.data[0], mb.data[1])
        np.testing.assert_array_equal(ma.data[1], mb.data[0])

    def test_empty_sequence_rejected(self):
        ds, codec, emb = self.build()
        with pytest.raises(DataError, match="empty"):
            codec.encode_batch([])

    def test_unknown_categorical_strict_errors(self):
        ds, codec, emb = self.build()
        seq = EventSequence("u", [1], {"category": ["zz"], "count": [0],
                                       "amount": [1.0]})
        with pytest.raises(DataError, match="zz"):
            embed_sequence(emb, codec, seq)

    def test_tables_are_trainable(self):
        _, _, emb = self.build()
        params = emb.parameters()
        assert params
        assert all(p.requires_grad for p in params.values())
