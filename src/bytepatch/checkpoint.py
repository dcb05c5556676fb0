"""Checkpoint container: a JSON header (format version, model config, kind,
metadata, and a tensor table with shapes/dtypes/byte counts), the concatenated
little-endian tensor payload, and a trailing SHA-256 over header plus payload.
Round trips are bit-exact. The table is a function of the kind and config: on
load, magic, checksum and version are validated, and the table must equal,
entry for entry, the one the header's kind builds from the header's config.

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
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .model import ModelConfig, ParamStore, init_byte_model, init_teacher
from .tensor import Tensor

MAGIC = b"BPCKPT\x00\x01"
FORMAT_VERSION = 5
ZEROS = SimpleNamespace(standard_normal=np.zeros)  # an init with this generator draws no random numbers


class CheckpointError(ValueError):
    pass


def _table(params: dict) -> list[dict]:
    """The header's tensor table for `params`: name order (the bytes written
    must not depend on insertion order), float64, 8 bytes per element."""
    return [{"name": n, "shape": list(params[n].shape), "dtype": "float64", "nbytes": 8 * params[n].size}
            for n in sorted(params)]


def save_checkpoint(
    path: str | Path,
    params: ParamStore,
    config: ModelConfig,
    kind: str = "byte_model",
    metadata: dict | None = None,
) -> None:
    table = _table(params)
    payload = b"".join(params[e["name"]].data.astype("<f8").tobytes() for e in table)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config.to_dict(),
        "metadata": metadata or {},
        "tensors": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(header_bytes + payload).digest()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(header_bytes).to_bytes(8, "little"))
        f.write(header_bytes)
        f.write(payload)
        f.write(digest)


def load_checkpoint(path: str | Path) -> tuple[ParamStore, ModelConfig, dict]:
    """Returns (params, config, header). Raises on bad magic, version,
    truncation, checksum mismatch, a header that is no JSON object, a config
    this build cannot construct, or a tensor table other than the one the
    kind and config build."""
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
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError both are
        raise CheckpointError(f"header is not UTF-8 JSON: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"header is a JSON {type(header).__name__}, not an object")
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version!r} (this build reads {FORMAT_VERSION})")
    kind = header.get("kind")
    if kind not in ("teacher", "byte_model"):
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    init = init_teacher if kind == "teacher" else init_byte_model
    try:
        config = ModelConfig.from_dict(header.get("config"))
        like = init(config, ZEROS)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"bad model config in header: {e}") from None
    table = _table(like)
    # compared as JSON text, so 8.0 is no size and true no 1
    want = [json.dumps(e, sort_keys=True) for e in table]
    got = header.get("tensors")
    got = [json.dumps(e, sort_keys=True) for e in got] if isinstance(got, list) else [json.dumps(got)]
    for i, (g, w) in enumerate(zip_longest(got, want, fillvalue="nothing")):
        if g != w:
            raise CheckpointError(f"tensor table entry {i} is {g}; the {kind} its config builds has {w}")
    if len(payload) != sum(e["nbytes"] for e in table):
        raise CheckpointError("payload length differs from the tensor table's")
    params, offset = ParamStore(), 0
    for e in table:
        arr = np.frombuffer(payload, dtype="<f8", count=e["nbytes"] // 8, offset=offset)
        params[e["name"]] = Tensor(arr.reshape(e["shape"]).copy())
        offset += e["nbytes"]
    return params, config, header
