"""Checkpoints of named float64 tensors: a bare payload and its JSON sidecar.

``<stem>.bin`` is the tensors' values back to back, row-major little-endian
float64 in sorted-name order. The sidecar ``<stem>.json`` is its one header:
besides hyperparameters, configs and flags such as the frozen tensors, it
holds ``tensors`` (name -> shape, the payload's index) and ``crc32`` (the
payload's ``zlib.crc32``). Writes are atomic: temp file then rename. A
missing, truncated or malformed file, or a pair that does not match, raises
DataError naming the file(s).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a temp file in its directory,
    making the directory first; an OSError is a DataError naming ``path``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror or e}") from None


def atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def save_sidecar(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as one line of compact JSON with sorted keys."""
    atomic_write_text(Path(path), json.dumps(
        payload, sort_keys=True, separators=(",", ":")) + "\n")


class Entries(dict):
    """The tensors or sidecar entries read from one checkpoint file; indexing
    a key it lacks raises DataError naming the file and the key."""

    def __init__(self, path: Path, payload: dict):
        super().__init__(payload)
        self.path = path

    def __missing__(self, key):
        raise DataError(f"checkpoint file {self.path} has no {key!r} entry")


def read_bytes(path: str | Path, what: str) -> bytes:
    """The bytes of ``path``; an unreadable file is a DataError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: "
                        f"{e.strerror or e}") from None


def read_json(path: str | Path, what: str, from_json=None, data=None):
    """The JSON object in ``path`` (or in ``data``, its bytes when already
    read), passed through ``from_json`` when given. An unreadable file, bad
    JSON, a non-object, or a missing or mistyped entry raises DataError
    naming ``what`` and the path."""
    if data is None:
        data = read_bytes(path, what)
    try:
        payload = json.loads(data)
    except ValueError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{what} {path} is not a JSON object")
    if from_json is None:
        return payload
    try:
        return from_json(payload)
    except (KeyError, TypeError, AttributeError) as e:
        raise DataError(f"{what} {path} has a missing or mistyped entry: "
                        f"{type(e).__name__} {e}") from None


def load_sidecar(path: str | Path, data: bytes | None = None) -> Entries:
    return Entries(Path(path), read_json(path, "checkpoint sidecar", data=data))


def save_checkpoint(base_path: str | Path, tensors: dict[str, np.ndarray],
                    sidecar: dict) -> tuple[Path, Path]:
    """Write <base>.bin plus <base>.json; returns both paths. The sidecar
    gets the payload's index (``tensors``) and checksum (``crc32``)."""
    base = Path(base_path)
    bin_path = base.with_suffix(".bin")
    json_path = base.with_suffix(".json")
    arrays = {name: np.asarray(tensors[name], dtype="<f8")
              for name in sorted(tensors)}
    payload = b"".join(a.tobytes() for a in arrays.values())
    _atomic_write_bytes(bin_path, payload)
    save_sidecar(json_path, {
        **sidecar, "tensors": {n: list(a.shape) for n, a in arrays.items()},
        "crc32": zlib.crc32(payload)})
    return bin_path, json_path


def read_checkpoint(base_path: str | Path) -> tuple[np.ndarray, bytes]:
    """The unchecked bytes of <base>.bin, as a writable uint8 array, and of
    <base>.json."""
    bin_path = Path(base_path).with_suffix(".bin")
    try:
        raw = np.fromfile(bin_path, dtype=np.uint8)
    except OSError as e:
        raise DataError(f"cannot read checkpoint {bin_path}: "
                        f"{e.strerror or e}") from None
    return raw, read_bytes(bin_path.with_suffix(".json"), "checkpoint sidecar")


def load_checkpoint(base_path: str | Path, files=None
                    ) -> tuple[Entries, Entries]:
    """The tensors and the sidecar of <base>, parsed from ``files`` (what
    ``read_checkpoint`` returned) when given. The tensors are writable views
    into the one payload array, so adopting them copies nothing."""
    bin_path = Path(base_path).with_suffix(".bin")
    raw, data = files or read_checkpoint(base_path)
    sidecar = load_sidecar(bin_path.with_suffix(".json"), data)
    index, crc = sidecar["tensors"], sidecar["crc32"]
    if not isinstance(index, dict) or not all(
            isinstance(shape, list)
            and all(type(e) is int and e >= 0 for e in shape)
            for shape in index.values()):
        raise DataError(f"'tensors' in {sidecar.path} must map each name to "
                        f"a list of non-negative extents")
    sizes = {name: math.prod(index[name]) for name in sorted(index)}
    if raw.size != 8 * sum(sizes.values()) or zlib.crc32(raw) != crc:
        raise DataError(
            f"{bin_path} does not match its sidecar {sidecar.path}: "
            f"{raw.size} bytes with crc32 {zlib.crc32(raw)}, the sidecar "
            f"indexes {8 * sum(sizes.values())} bytes with crc32 {crc!r}")
    values, tensors, start = raw.view("<f8"), {}, 0
    for name, size in sizes.items():
        try:
            tensors[name] = values[start:start + size].reshape(index[name])
        except ValueError as e:
            raise DataError(f"tensor {name!r} in {sidecar.path} has unusable "
                            f"shape {index[name]}: {e}") from None
        start += size
    return Entries(bin_path, tensors), sidecar
