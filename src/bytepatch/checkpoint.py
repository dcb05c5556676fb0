"""Checkpoint container: a JSON header (format version, model config, kind,
metadata, and a tensor table with shapes/dtypes/offsets), the concatenated
little-endian tensor payload, and a trailing SHA-256 over header plus payload.
Round trips are bit-exact; version and checksum are validated on load, and
the tensor table must name exactly the parameters, with their shapes, that
the header's kind builds from the header's config.

Layout:
    8 bytes   magic  b"BPCKPT\\x00\\x01"
    8 bytes   header length (uint64 LE)
    N bytes   header JSON (UTF-8)
    M bytes   payload (tensors in header-table order, little-endian)
    32 bytes  SHA-256(header JSON + payload)
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .model import ModelConfig, ParamStore, init_byte_model, init_teacher
from .tensor import Tensor

MAGIC = b"BPCKPT\x00\x01"
FORMAT_VERSION = 2
ENTRY_KEYS = {"name", "shape", "dtype", "nbytes"}


class CheckpointError(ValueError):
    pass


def save_checkpoint(
    path: str | Path,
    params: ParamStore,
    config: ModelConfig,
    kind: str = "byte_model",
    metadata: dict | None = None,
) -> None:
    table = []
    payload = bytearray()
    for name in sorted(params):  # name order: the bytes written must not depend on insertion order
        arr = np.ascontiguousarray(params[name].data)
        raw = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        table.append(
            {"name": name, "shape": list(arr.shape), "dtype": arr.dtype.name, "nbytes": len(raw)}
        )
        payload += raw
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config.to_dict(),
        "metadata": metadata or {},
        "tensors": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(header_bytes + bytes(payload)).digest()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(header_bytes).to_bytes(8, "little"))
        f.write(header_bytes)
        f.write(payload)
        f.write(digest)


def load_checkpoint(path: str | Path) -> tuple[ParamStore, ModelConfig, dict]:
    """Returns (params, config, header). Raises on bad magic, version,
    truncation, checksum mismatch, a config this build cannot construct, or a
    tensor set other than the one the kind and config build."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 8 + 32 or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    hlen = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "little")
    start = len(MAGIC) + 8
    header_bytes = blob[start : start + hlen]
    payload = blob[start + hlen : -32]
    digest = blob[-32:]
    if hashlib.sha256(header_bytes + payload).digest() != digest:
        raise CheckpointError("checksum mismatch (file corrupted or truncated)")
    header = json.loads(header_bytes.decode("utf-8"))
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format version {header.get('format_version')} "
            f"(this build reads {FORMAT_VERSION})"
        )
    if not isinstance(header.get("tensors"), list):
        raise CheckpointError("header has no tensor table")
    tensors = ParamStore()
    offset = 0
    for entry in header["tensors"]:
        n = _entry_nbytes(entry, tensors)
        if offset + n > len(payload):
            raise CheckpointError("payload shorter than tensor table")
        arr = np.frombuffer(payload[offset : offset + n], dtype="<f8").reshape(entry["shape"])
        tensors[entry["name"]] = Tensor(arr.copy())
        offset += n
    if offset != len(payload):
        raise CheckpointError("trailing bytes after tensor table")
    try:
        config = ModelConfig.from_dict(header["config"])
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"bad model config in header: {e}") from None
    kind = header.get("kind")
    if kind not in ("teacher", "byte_model"):
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    # init whose every draw is zeros builds the names and shapes without random numbers
    init = init_teacher if kind == "teacher" else init_byte_model
    want = {(n, t.shape) for n, t in init(config, SimpleNamespace(standard_normal=np.zeros)).items()}
    if diff := sorted(want ^ {(n, t.shape) for n, t in tensors.items()}):
        raise CheckpointError(f"{len(diff)} tensor names/shapes differ from the {kind} its config builds, "
                              f"first {diff[:3]}")
    return tensors, config, header


def _entry_nbytes(entry, seen: dict) -> int:
    """The payload size of a tensor-table entry, which must hold exactly a
    name not in `seen`, a shape, dtype float64 and the shape's byte count."""
    if not isinstance(entry, dict) or set(entry) != ENTRY_KEYS:
        raise CheckpointError(f"tensor entry {entry!r} needs exactly the keys {sorted(ENTRY_KEYS)}")
    name, shape = entry["name"], entry["shape"]
    if not isinstance(name, str) or name in seen:
        raise CheckpointError(f"tensor name {name!r} is not a new string")
    if not isinstance(shape, list) or any(type(s) is not int or s < 0 for s in shape):
        raise CheckpointError(f"tensor {name}: shape {shape!r} is not a list of sizes")
    if entry["dtype"] != "float64":
        raise CheckpointError(f"tensor {name}: dtype {entry['dtype']!r}, this build stores float64")
    n = 8 * math.prod(shape)
    if entry["nbytes"] != n:
        raise CheckpointError(f"tensor {name}: nbytes {entry['nbytes']!r} != {n} for shape {shape}")
    return n
