"""Checkpoint pairs: a bare float64 payload indexed by its JSON sidecar."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventqa.checkpoint import load_checkpoint, load_sidecar, save_checkpoint
from eventqa.errors import DataError

ONE = np.ones(1).tobytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("raw")


@pytest.fixture(scope="module")
def sample(scratch) -> tuple[bytes, bytes]:
    """The payload and sidecar bytes of a small checkpoint."""
    rng = np.random.default_rng(1)
    bin_path, json_path = save_checkpoint(
        scratch / "sample",
        {"enc.w": rng.normal(size=(3, 2)), "scalar": np.array(1.5),
         "empty": np.zeros((0, 4)), "bé": rng.normal(size=(2,))},
        {"stage": "test"})
    return bin_path.read_bytes(), json_path.read_bytes()


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "enc.w": rng.normal(size=(3, 4)),
        "enc.b": rng.normal(size=(4,)),
        "scalar": np.array(3.25),
        "deep.nested.name": rng.normal(size=(2, 2, 2)),
    }
    save_checkpoint(tmp_path / "model", tensors, {})
    loaded, _ = load_checkpoint(tmp_path / "model")
    assert list(loaded) == sorted(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        np.testing.assert_array_equal(loaded[name], tensors[name])


def root(arr: np.ndarray) -> np.ndarray:
    while arr.base is not None:
        arr = arr.base
    return arr


def test_loaded_tensors_are_writable_views_of_one_array(tmp_path):
    save_checkpoint(tmp_path / "model",
                    {"a": np.ones((2, 3)), "b": np.full(4, 2.0)}, {})
    loaded, _ = load_checkpoint(tmp_path / "model")
    assert root(loaded["a"]) is root(loaded["b"])
    assert all(t.flags.writeable and t.dtype == np.float64
               for t in loaded.values())
    loaded["a"] -= 1.0
    np.testing.assert_array_equal(loaded["a"], np.zeros((2, 3)))
    np.testing.assert_array_equal(loaded["b"], np.full(4, 2.0))


def test_payload_is_little_endian_f8_in_name_order(tmp_path):
    bin_path, json_path = save_checkpoint(
        tmp_path / "one", {"b": np.array([[1.0, 2.0]]), "a": np.array(3.0)},
        {"stage": "test"})
    raw = bin_path.read_bytes()
    assert raw == np.array([3.0, 1.0, 2.0], dtype="<f8").tobytes()
    sidecar = json.loads(json_path.read_text())
    assert sidecar == {"stage": "test", "tensors": {"a": [], "b": [1, 2]},
                       "crc32": zlib.crc32(raw)}


def test_truncated_file_reported(tmp_path):
    bin_path, _ = save_checkpoint(tmp_path / "model", {"w": np.ones((2, 2))},
                                  {})
    bin_path.write_bytes(bin_path.read_bytes()[:-8])
    with pytest.raises(DataError, match="model.bin does not match its "
                                        "sidecar .*model.json: 24 bytes"):
        load_checkpoint(tmp_path / "model")


def test_checkpoint_with_sidecar(tmp_path):
    sidecar = {"schedule": {"peak_lr": 0.1}, "optimizer": {"beta1": 0.9},
               "frozen": ["lm.tok_emb.table"]}
    bin_path, json_path = save_checkpoint(
        tmp_path / "ckpt", {"w": np.zeros(3)}, sidecar)
    assert bin_path.exists() and json_path.exists()
    tensors, meta = load_checkpoint(tmp_path / "ckpt")
    assert meta == {**sidecar, "tensors": {"w": [3]},
                    "crc32": zlib.crc32(bin_path.read_bytes())}
    assert "w" in tensors


def test_atomic_write_leaves_no_temp_files(tmp_path):
    save_checkpoint(tmp_path / "a", {"w": np.ones(4)}, {})
    leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
    assert leftovers == []


def load_raw(tmp_path, payload: bytes, sidecar: bytes):
    (tmp_path / "raw.bin").write_bytes(payload)
    (tmp_path / "raw.json").write_bytes(sidecar)
    return load_checkpoint(tmp_path / "raw")


def damaged(raw: bytes, bit: int) -> bytes:
    flipped = bytearray(raw)
    bit %= 8 * len(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(min_value=0, max_value=10_000),
       which=st.sampled_from([0, 1]))
def test_truncation_raises_only_data_error(scratch, sample, cut, which):
    files = list(sample)
    files[which] = files[which][:cut % len(files[which])]
    try:
        load_raw(scratch, *files)
    except DataError:
        pass


@settings(max_examples=300, deadline=None)
@given(bit=st.integers(min_value=0, max_value=100_000),
       which=st.sampled_from([0, 1]))
def test_bit_flip_raises_only_data_error(scratch, sample, bit, which):
    files = list(sample)
    files[which] = damaged(files[which], bit)
    try:
        load_raw(scratch, *files)
    except DataError:
        pass


def sidecar_of(tensors, payload: bytes = b"", **entries) -> bytes:
    """A sidecar indexing ``payload`` as ``tensors``, with its crc32 unless
    ``entries`` overrides it; a None entry is left out."""
    payload_entries = {"tensors": tensors, "crc32": zlib.crc32(payload),
                       **entries}
    return json.dumps({k: v for k, v in payload_entries.items()
                       if v is not None}).encode()


@pytest.mark.parametrize("payload,sidecar,match", [
    (b"", b'{"tensors": {"\xff": []}, "crc32": 0}', "cannot read .*raw.json"),
    (b"", sidecar_of({"w": [2**32, 2**32]}), "raw.bin does not match"),
    (b"", sidecar_of({"w": [0, 2**64 - 1]}), "unusable shape"),
    (2 * ONE, sidecar_of({"w": [1]}, 2 * ONE).replace(
        b'{"w": [1]}', b'{"w": [1], "w": [1]}'), "raw.bin does not match"),
    (ONE, sidecar_of([["w", [1]]], ONE), "'tensors' in .*raw.json"),
    (ONE, sidecar_of({"w": 1}, ONE), "'tensors' in .*raw.json"),
    (ONE, sidecar_of({"w": [-1]}, ONE), "'tensors' in .*raw.json"),
    (ONE, sidecar_of({"w": [True]}, ONE), "'tensors' in .*raw.json"),
    (2 * ONE, sidecar_of({"w": [1]}, 2 * ONE), "16 bytes .* indexes 8 bytes"),
    (ONE, sidecar_of({"w": [1]}, ONE, crc32=1), "raw.bin does not match"),
    (ONE, sidecar_of(None, ONE), "raw.json has no 'tensors' entry"),
    (ONE, sidecar_of({"w": [1]}, ONE, crc32=None),
     "raw.json has no 'crc32' entry"),
], ids=["utf8", "extents_wrap", "huge_extent", "duplicate",
        "tensors_not_object", "shape_not_list", "negative_extent",
        "bool_extent", "byte_count", "crc32", "no_tensors", "no_crc32"])
def test_malformed_container_named(tmp_path, payload, sidecar, match):
    with pytest.raises(DataError, match=match):
        load_raw(tmp_path, payload, sidecar)


def test_missing_or_unparseable_files_named(tmp_path):
    with pytest.raises(DataError, match="missing.bin"):
        load_checkpoint(tmp_path / "missing")
    (tmp_path / "ckpt.bin").write_bytes(b"")
    with pytest.raises(DataError, match="ckpt.json"):
        load_checkpoint(tmp_path / "ckpt")
    for text in ("{not json", "[1, 2]", "\udcff"):
        (tmp_path / "ckpt.json").write_text(text, errors="surrogateescape")
        with pytest.raises(DataError, match="ckpt.json"):
            load_sidecar(tmp_path / "ckpt.json")
