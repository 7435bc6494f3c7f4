"""Binary tensor container and JSON sidecar."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventqa.checkpoint import (load_checkpoint, load_sidecar, load_tensors,
                                save_checkpoint, save_tensors)
from eventqa.errors import DataError

U64 = struct.Struct("<Q")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("raw")


@pytest.fixture(scope="module")
def sample(scratch) -> bytes:
    rng = np.random.default_rng(1)
    save_tensors(scratch / "sample.bin",
                 {"enc.w": rng.normal(size=(3, 2)), "scalar": np.array(1.5),
                  "empty": np.zeros((0, 4)), "b\u00e9": rng.normal(size=(2,))})
    return (scratch / "sample.bin").read_bytes()


def entry(name: bytes, shape: tuple) -> bytes:
    """A container entry up to its values."""
    return (U64.pack(len(name)) + name + U64.pack(len(shape))
            + b"".join(U64.pack(e) for e in shape))


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "enc.w": rng.normal(size=(3, 4)),
        "enc.b": rng.normal(size=(4,)),
        "scalar": np.array(3.25),
        "deep.nested.name": rng.normal(size=(2, 2, 2)),
    }
    path = tmp_path / "model.bin"
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        np.testing.assert_array_equal(loaded[name], tensors[name])


def test_binary_layout_is_little_endian_u64(tmp_path):
    path = tmp_path / "one.bin"
    save_tensors(path, {"ab": np.array([[1.0, 2.0]])})
    raw = path.read_bytes()
    name_len = struct.unpack_from("<Q", raw, 0)[0]
    assert name_len == 2
    assert raw[8:10] == b"ab"
    rank = struct.unpack_from("<Q", raw, 10)[0]
    assert rank == 2
    extents = struct.unpack_from("<QQ", raw, 18)
    assert extents == (1, 2)
    values = np.frombuffer(raw, dtype="<f8", count=2, offset=34)
    np.testing.assert_array_equal(values, [1.0, 2.0])
    assert len(raw) == 34 + 16


def test_truncated_file_reported(tmp_path):
    path = tmp_path / "model.bin"
    save_tensors(path, {"w": np.ones((2, 2))})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_tensors(path)


def test_checkpoint_with_sidecar(tmp_path):
    sidecar = {"schedule": {"peak_lr": 0.1}, "optimizer": {"beta1": 0.9},
               "frozen": ["lm.tok_emb.table"]}
    bin_path, json_path = save_checkpoint(
        tmp_path / "ckpt", {"w": np.zeros(3)}, sidecar)
    assert bin_path.exists() and json_path.exists()
    tensors, meta = load_checkpoint(tmp_path / "ckpt")
    assert meta == sidecar
    assert "w" in tensors


def test_atomic_write_leaves_no_temp_files(tmp_path):
    save_tensors(tmp_path / "a.bin", {"w": np.ones(4)})
    leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
    assert leftovers == []


def load_raw(tmp_path, raw: bytes):
    path = tmp_path / "raw.bin"
    path.write_bytes(raw)
    return load_tensors(path)


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(min_value=0, max_value=10_000))
def test_truncation_raises_only_data_error(scratch, sample, cut):
    try:
        load_raw(scratch, sample[:cut % len(sample)])
    except DataError:
        pass


@settings(max_examples=300, deadline=None)
@given(bit=st.integers(min_value=0, max_value=100_000))
def test_bit_flip_raises_only_data_error(scratch, sample, bit):
    raw = bytearray(sample)
    bit %= 8 * len(raw)
    raw[bit // 8] ^= 1 << (bit % 8)
    try:
        load_raw(scratch, bytes(raw))
    except DataError:
        pass


@pytest.mark.parametrize("raw,match", [
    (U64.pack(2**63) + b"ab", "truncated"),              # name length
    (entry(b"\xff\xfe", ()) + b"\0" * 8, "not UTF-8"),
    (U64.pack(1) + b"w" + U64.pack(2**62), "truncated"),  # rank
    (entry(b"w", (2**32, 2**32)), "truncated"),          # extents wrap np.prod
    (entry(b"w", (0, 2**64 - 1)), "unusable shape"),
    (entry(b"w", ()) + b"\0" * 8 + entry(b"w", ()) + b"\0" * 8, "duplicate"),
], ids=["name_length", "utf8", "rank", "extents_wrap", "huge_extent",
        "duplicate"])
def test_malformed_container_named(tmp_path, raw, match):
    with pytest.raises(DataError, match=match):
        load_raw(tmp_path, raw)


def test_missing_or_unparseable_files_named(tmp_path):
    with pytest.raises(DataError, match="missing.bin"):
        load_checkpoint(tmp_path / "missing")
    save_tensors(tmp_path / "ckpt.bin", {"w": np.zeros(2)})
    with pytest.raises(DataError, match="ckpt.json"):
        load_checkpoint(tmp_path / "ckpt")
    for text in ("{not json", "[1, 2]", "\udcff"):
        (tmp_path / "ckpt.json").write_text(text, errors="surrogateescape")
        with pytest.raises(DataError, match="ckpt.json"):
            load_sidecar(tmp_path / "ckpt.json")
