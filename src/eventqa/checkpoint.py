"""Binary checkpoint container for named float64 tensors.

Layout, per entry, back to back until end of file (all integers are 64-bit
little-endian unsigned):

    name_length | name (UTF-8) | rank | extent_0 .. extent_{rank-1} | values

Values are row-major float64. A JSON sidecar next to the container records
hyperparameters (schedule, optimizer), configs, and flags such as which
tensors are frozen. Writes are atomic: temp file then rename. Reading a
missing, truncated or malformed file raises DataError naming the path.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataError

_U64 = struct.Struct("<Q")


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    path = Path(path)
    parts: list[bytes] = []
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        parts.append(_U64.pack(len(encoded)))
        parts.append(encoded)
        parts.append(_U64.pack(arr.ndim))
        for extent in arr.shape:
            parts.append(_U64.pack(extent))
        # ascontiguousarray would promote 0-d to 1-d, so serialize via tobytes
        parts.append(arr.tobytes(order="C"))
    _atomic_write_bytes(path, b"".join(parts))


def load_tensors(path: str | Path) -> Entries:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from None
    out: dict[str, np.ndarray] = {}
    pos = 0
    end = len(raw)

    def take(n: int, what: str) -> int:
        """Advance past ``n`` bytes; returns where they start."""
        nonlocal pos
        if n > end - pos:
            raise DataError(f"truncated checkpoint {path}: {what} at byte "
                            f"{pos} needs {n} bytes, {end - pos} left")
        pos += n
        return pos - n

    def read_u64(what: str) -> int:
        return _U64.unpack_from(raw, take(8, what))[0]

    while pos < end:
        name_len = read_u64("name length")
        start = take(name_len, "name")
        try:
            name = raw[start:pos].decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"tensor name at byte {start} of {path} is not "
                            f"UTF-8") from None
        if name in out:
            raise DataError(f"duplicate tensor {name!r} in {path}")
        rank = read_u64(f"rank of {name!r}")
        shape = struct.unpack_from(f"<{rank}Q", raw,
                                   take(8 * rank, f"shape of {name!r}"))
        count = math.prod(shape)
        start = take(8 * count, f"data of {name!r}")
        try:
            arr = np.frombuffer(raw, dtype="<f8", count=count,
                                offset=start).reshape(shape)
        except ValueError as e:
            raise DataError(f"tensor {name!r} in {path} has unusable shape "
                            f"{shape}: {e}") from None
        out[name] = arr.astype(np.float64)
    return Entries(path, out)


def save_sidecar(path: str | Path, payload: dict) -> None:
    atomic_write_text(Path(path), json.dumps(payload, indent=2, sort_keys=True) + "\n")


class Entries(dict):
    """The tensors or sidecar entries read from one checkpoint file; indexing
    a key it lacks raises DataError naming the file and the key."""

    def __init__(self, path: Path, payload: dict):
        super().__init__(payload)
        self.path = path

    def __missing__(self, key):
        raise DataError(f"checkpoint file {self.path} has no {key!r} entry")


def read_json(path: str | Path, what: str, from_json=None):
    """The JSON object in ``path``, passed through ``from_json`` when given.
    An unreadable file, bad JSON, a non-object, or a missing or mistyped
    entry raises DataError naming ``what`` and the path."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
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


def load_sidecar(path: str | Path) -> Entries:
    return Entries(Path(path), read_json(path, "checkpoint sidecar"))


def save_checkpoint(base_path: str | Path, tensors: dict[str, np.ndarray],
                    sidecar: dict) -> tuple[Path, Path]:
    """Write <base>.bin plus <base>.json; returns both paths."""
    base = Path(base_path)
    bin_path = base.with_suffix(".bin")
    json_path = base.with_suffix(".json")
    save_tensors(bin_path, tensors)
    save_sidecar(json_path, sidecar)
    return bin_path, json_path


def load_checkpoint(base_path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    base = Path(base_path)
    return load_tensors(base.with_suffix(".bin")), load_sidecar(base.with_suffix(".json"))
