"""Event data model, JSONL ingestion, splitting, synthetic generation."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventqa.codec import DatasetCodec
from eventqa.data import (Dataset, EventSequence, FeatureSpec, GeneratorConfig,
                          Schema, dataset_to_jsonl, derive_time_feature,
                          generate_synthetic, load_jsonl, save_jsonl,
                          split_by_client)
from eventqa.errors import ConfigError, DataError


def toy_schema():
    return Schema((
        FeatureSpec("category", "categorical", values=("a", "b", "c")),
        FeatureSpec("amount", "real"),
    ))


def write_lines(tmp_path, lines):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    return path


def valid_line(client="c1", ts=(10, 20, 30)):
    return {"client_id": client, "targets": {},
            "events": [{"t": t, "category": "a", "amount": 1.5} for t in ts]}


class TestLoadJsonl:
    def test_two_clients_three_events(self, tmp_path):
        path = write_lines(tmp_path, [valid_line("c1"), valid_line("c2")])
        ds = load_jsonl(path, toy_schema())
        assert len(ds) == 2
        assert all(len(s) == 3 for s in ds.sequences)

    def test_equal_timestamps_name_client_and_line(self, tmp_path):
        path = write_lines(tmp_path, [valid_line("c1"),
                                      valid_line("bad", ts=(5, 5))])
        with pytest.raises(DataError) as err:
            load_jsonl(path, toy_schema())
        assert "bad" in str(err.value)
        assert "line 2" in str(err.value)

    def test_timestamp_beyond_64_bits_named(self, tmp_path):
        path = write_lines(tmp_path, [valid_line("c1"),
                                      valid_line("big", ts=(1, 2**63))])
        with pytest.raises(DataError, match="line 2.*64-bit integer"):
            load_jsonl(path, toy_schema())

    def test_unknown_feature_rejected(self, tmp_path):
        line = valid_line()
        line["events"][0]["extra"] = 1
        path = write_lines(tmp_path, [line])
        with pytest.raises(DataError, match="extra"):
            load_jsonl(path, toy_schema())

    def test_strict_vocabulary_violation_lists_value(self, tmp_path):
        line = valid_line()
        line["events"][1]["category"] = "zz"
        path = write_lines(tmp_path, [line])
        with pytest.raises(DataError, match="zz"):
            load_jsonl(path, toy_schema())

    def test_type_mismatch_reported_with_line(self, tmp_path):
        line = valid_line()
        line["events"][0]["amount"] = "not-a-number"
        path = write_lines(tmp_path, [line])
        with pytest.raises(DataError, match="line 1"):
            load_jsonl(path, toy_schema())

    @pytest.mark.parametrize("line", [
        json.dumps({**valid_line("c2"), "events": [5]}).encode(),
        json.dumps({**valid_line("c2"), "targets": 5}).encode(),
        json.dumps({**valid_line("c2"), "targets": [1]}).encode(),
        json.dumps({**valid_line("c2"), "client_id": ["x"]}).encode(),
        json.dumps(valid_line("c2")).encode().replace(b"c2", b"c\xff"),
    ], ids=["event_not_object", "targets_number", "targets_array",
            "client_id_array", "not_utf8"])
    def test_malformed_line_is_a_data_error_naming_it(self, tmp_path, line):
        path = tmp_path / "data.jsonl"
        path.write_bytes(json.dumps(valid_line("c1")).encode() + b"\n"
                         + line + b"\n")
        with pytest.raises(DataError, match="line 2"):
            load_jsonl(path, toy_schema())

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such"):
            load_jsonl(tmp_path / "absent.jsonl", toy_schema())

    def test_roundtrip_byte_identical(self, tmp_path):
        path = write_lines(tmp_path, [valid_line("c1"), valid_line("c2")])
        ds = load_jsonl(path, toy_schema())
        first = dataset_to_jsonl(ds)
        out = tmp_path / "echo.jsonl"
        save_jsonl(ds, out)
        again = dataset_to_jsonl(load_jsonl(out, toy_schema()))
        assert first == again
        assert out.read_text() == first


class TestEventSequence:
    def test_rejects_nonmonotone(self):
        with pytest.raises(DataError, match="strictly increasing"):
            EventSequence("x", [3, 2], {"category": ["a", "b"],
                                        "amount": [1.0, 2.0]})

    def test_rejects_column_length_mismatch(self):
        with pytest.raises(DataError, match="values for"):
            EventSequence("x", [1, 2], {"category": ["a"],
                                        "amount": [1.0, 2.0]})

    def test_tail_keeps_most_recent(self):
        seq = EventSequence("x", [1, 2, 3], {"amount": [1.0, 2.0, 3.0]})
        tail = seq.tail(2)
        assert tail.timestamps == [2, 3]
        assert tail.values["amount"] == [2.0, 3.0]

    def test_drop_last_needs_two_events(self):
        seq = EventSequence("x", [1], {"amount": [1.0]})
        with pytest.raises(DataError, match="length-1"):
            seq.drop_last()

    def test_time_derived_features(self):
        # 1970-01-01 00:00 UTC was a Thursday
        assert derive_time_feature("hour", 3 * 3600 + 5) == 3
        assert derive_time_feature("weekday", 0) == 3
        assert derive_time_feature("weekday", 4 * 86400) == 0  # Monday
        assert derive_time_feature("week", 0) == 1

    @pytest.mark.parametrize("kind", ["hour", "weekday", "week"])
    def test_time_column_matches_per_timestamp_derivation(self, kind):
        """hour and weekday are one numpy expression over the timestamps;
        numpy floors ``//`` and ``%`` as Python does, negatives included."""
        ts = [-10**9 - 7, -86401, -86400, -3601, -1, 0, 1, 3599, 86399,
              4 * 86400, 10**9 + 12345]
        seq = EventSequence("x", ts, {})
        got = seq.feature_column(FeatureSpec(kind, "time_derived",
                                             derive=kind))
        want = [derive_time_feature(kind, t) for t in ts]
        assert got == want
        assert all(type(v) is int for v in got)

    def test_long_history_batches_match_per_timestamp_derivation(
            self, monkeypatch):
        cfg = generator_config(n_clients=20, events_min=40, events_max=64,
                               time_derived=["hour", "weekday"], targets=[])
        ds, _ = generate_synthetic(cfg, seed=5)
        codec = DatasetCodec.fit(ds)
        got, got_mask = codec.encode_batch(ds.sequences)

        def per_timestamp(seq, spec):
            if spec.stored:
                return seq.values[spec.name]
            return [derive_time_feature(spec.derive, t)
                    for t in seq.timestamps]

        monkeypatch.setattr(EventSequence, "feature_column", per_timestamp)
        want, want_mask = codec.encode_batch(ds.sequences)
        np.testing.assert_array_equal(got_mask, want_mask)
        assert set(got) == set(want) >= {"hour", "weekday"}
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], name)


class TestSplitByClient:
    def make(self, n):
        seqs = [EventSequence(f"c{i}", [1, 2], {"amount": [1.0, 2.0]})
                for i in range(n)]
        schema = Schema((FeatureSpec("amount", "real"),))
        return Dataset(schema, seqs)

    def test_ten_clients_fraction_03_seed7(self):
        train, val = split_by_client(self.make(10), 0.3, seed=7)
        assert len(train) == 7 and len(val) == 3
        assert set(train.client_ids()).isdisjoint(val.client_ids())

    def test_deterministic(self):
        ds = self.make(25)
        a = split_by_client(ds, 0.4, seed=3)
        b = split_by_client(ds, 0.4, seed=3)
        assert a[0].client_ids() == b[0].client_ids()
        assert a[1].client_ids() == b[1].client_ids()

    def test_paper_scale_90_10_convention(self):
        # 30,000 clients at fraction 0.1 -> 27,000 / 3,000
        train, val = split_by_client(self.make(30_000), 0.1, seed=0)
        assert len(train) == 27_000
        assert len(val) == 3_000

    def test_too_few_clients_rejected(self):
        with pytest.raises(DataError):
            split_by_client(self.make(1), 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        for f in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ConfigError):
                split_by_client(self.make(4), f, seed=0)

    @given(seed=st.integers(0, 10_000),
           n=st.integers(2, 40),
           fraction=st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_partition_disjoint_and_exhaustive(self, seed, n, fraction):
        ds = self.make(n)
        train, val = split_by_client(ds, fraction, seed=seed)
        train_ids, val_ids = set(train.client_ids()), set(val.client_ids())
        assert train_ids.isdisjoint(val_ids)
        assert train_ids | val_ids == set(ds.client_ids())
        assert train_ids and val_ids


def generator_config(**kw):
    base = dict(
        n_clients=4, events_min=5, events_max=5,
        features=[
            {"name": "category", "kind": "categorical", "k": 3,
             "rule": {"type": "client_dirichlet", "alpha": 0.5}},
            {"name": "amount", "kind": "real",
             "rule": {"type": "lognormal_by_category", "of": "category",
                      "mu_min": -0.5, "mu_max": 1.0, "sigma": 0.3}},
        ],
        targets=[{"name": "label",
                  "rule": {"type": "mean_gt", "feature": "amount",
                           "threshold": 1.0}}])
    base.update(kw)
    return GeneratorConfig(**base)


SAVED = generate_synthetic(generator_config(
    n_clients=3, events_min=2, events_max=4, time_derived=["hour"]), seed=3)[0]
SAVED_BYTES = dataset_to_jsonl(SAVED).encode()


@given(cut=st.integers(0, len(SAVED_BYTES)),
       flips=st.lists(st.tuples(st.integers(0, len(SAVED_BYTES) - 1),
                                st.integers(0, 7)), max_size=3))
@settings(max_examples=300, deadline=None)
def test_damaged_dataset_file_is_a_data_error(cut, flips):
    """Truncations and bit flips of a saved dataset.jsonl: loading either
    succeeds or raises DataError/ConfigError, never anything else."""
    raw = bytearray(SAVED_BYTES[:cut])
    for pos, bit in flips:
        if pos < len(raw):
            raw[pos] ^= 1 << bit
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.jsonl"
        path.write_bytes(bytes(raw))
        try:
            load_jsonl(path, SAVED.schema)
        except (DataError, ConfigError):
            pass


class TestGenerateSynthetic:
    def test_shapes(self):
        ds, _ = generate_synthetic(generator_config(), seed=1)
        assert len(ds) == 4
        assert all(len(s) == 5 for s in ds.sequences)
        assert {f.name for f in ds.schema.features} == {"category", "amount"}

    def test_label_rule_recomputable_from_raw_events(self):
        ds, prov = generate_synthetic(generator_config(n_clients=50), seed=9)
        rule = prov["config"]["targets"][0]["rule"]
        for seq in ds.sequences:
            mean = sum(seq.values["amount"]) / len(seq)
            assert seq.targets["label"] == int(mean > rule["threshold"])

    def test_seed_fixed_byte_identical_export(self):
        a, _ = generate_synthetic(generator_config(), seed=5)
        b, _ = generate_synthetic(generator_config(), seed=5)
        assert dataset_to_jsonl(a) == dataset_to_jsonl(b)

    def test_different_seeds_differ(self):
        a, _ = generate_synthetic(generator_config(), seed=5)
        b, _ = generate_synthetic(generator_config(), seed=6)
        assert dataset_to_jsonl(a) != dataset_to_jsonl(b)

    def test_zero_categories_rejected(self):
        with pytest.raises(ConfigError):
            generator_config(features=[
                {"name": "category", "kind": "categorical", "k": 0}])

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ConfigError):
            generator_config(events_min=9, events_max=3)

    def test_markov_rule_stored_in_provenance(self):
        cfg = generator_config(features=[
            {"name": "category", "kind": "categorical", "k": 4,
             "rule": {"type": "markov", "peak": 0.7}}],
            targets=[])
        ds, prov = generate_synthetic(cfg, seed=2)
        matrix = np.array(prov["rules"]["category"]["matrix"])
        assert matrix.shape == (4, 4)
        np.testing.assert_allclose(matrix.sum(axis=1), np.ones(4))
        np.testing.assert_allclose(matrix.max(axis=1), np.full(4, 0.7))

    def test_time_derived_in_schema(self):
        cfg = generator_config(time_derived=["hour", "weekday"], targets=[])
        ds, _ = generate_synthetic(cfg, seed=3)
        names = [f.name for f in ds.schema.features]
        assert names == ["category", "amount", "hour", "weekday"]
        seq = ds.sequences[0]
        hours = seq.feature_column(ds.schema.feature("hour"))
        assert all(0 <= h <= 23 for h in hours)

    def test_every_sequence_satisfies_schema_invariants(self):
        ds, _ = generate_synthetic(generator_config(n_clients=30), seed=7)
        for seq in ds.sequences:
            assert all(b > a for a, b in zip(seq.timestamps, seq.timestamps[1:]))
            for col in seq.values.values():
                assert len(col) == len(seq)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            Schema((FeatureSpec("x", "real"), FeatureSpec("x", "real")))

    def test_reserved_timestamp_name(self):
        with pytest.raises(ConfigError, match="reserved"):
            Schema((FeatureSpec("t", "real"),))

    def test_json_roundtrip(self):
        schema = Schema((
            FeatureSpec("category", "categorical", values=("a", "b")),
            FeatureSpec("n", "integer"),
            FeatureSpec("hour", "time_derived",
                        values=tuple(range(24)), derive="hour"),
        ))
        assert Schema.from_json(schema.to_json()) == schema

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSpec("x", "complex")

    def test_categorical_cardinality_positive(self):
        with pytest.raises(ConfigError):
            FeatureSpec("x", "categorical", values=())
