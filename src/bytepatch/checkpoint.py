"""Checkpoint container: a JSON header (format version, model config, kind,
metadata, and a tensor table with shapes/dtypes/offsets), the concatenated
little-endian tensor payload, and a trailing SHA-256 over header plus payload.
Round trips are bit-exact; version and checksum are validated on load.

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
from pathlib import Path

import numpy as np

from .model import ModelConfig, ParamStore
from .tensor import Tensor

MAGIC = b"BPCKPT\x00\x01"
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def save_checkpoint(
    path: str | Path,
    params: ParamStore,
    config: ModelConfig,
    kind: str = "byte_model",
    metadata: dict | None = None,
) -> None:
    names = params.names()
    table = []
    payload = bytearray()
    for name in names:
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
    truncation, checksum mismatch, or a config this build cannot construct."""
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
    tensors = {}
    offset = 0
    for entry in header["tensors"]:
        n = entry["nbytes"]
        if offset + n > len(payload):
            raise CheckpointError("payload shorter than tensor table")
        arr = np.frombuffer(payload[offset : offset + n], dtype=np.dtype(entry["dtype"])).reshape(
            entry["shape"]
        )
        tensors[entry["name"]] = Tensor(arr.copy())
        offset += n
    if offset != len(payload):
        raise CheckpointError("trailing bytes after tensor table")
    try:
        config = ModelConfig.from_dict(header["config"])
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"bad model config in header: {e}") from None
    return ParamStore(tensors), config, header
