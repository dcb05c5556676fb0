import hashlib
import json
import math

import numpy as np
import pytest

from bytepatch import cli
from bytepatch.checkpoint import CheckpointError, FORMAT_VERSION, load_checkpoint, save_checkpoint
from bytepatch.cli import EXIT_CHECKPOINT
from bytepatch.model import GlobalConfig, MlstmConfig, ModelConfig, init_byte_model


def cfg_small():
    return ModelConfig(
        d=8, vocab_size=260, encoder_layers=1, decoder_layers=1, ffn_hidden=12,
        n_probe=1, mlstm=MlstmConfig(heads=2, qk_dim=2, v_dim=4),
        global_model=GlobalConfig(layers=1, heads=2, head_dim=4),
    )


def test_roundtrip_bit_exact(tmp_path):
    cfg = cfg_small()
    params = init_byte_model(cfg, np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg, metadata={"stage": 1, "note": "unit"})
    loaded, cfg2, header = load_checkpoint(path)
    assert cfg2 == cfg
    assert header["metadata"]["stage"] == 1
    assert list(loaded) == sorted(params)  # the table is in name order
    for name, t in params.items():
        assert np.array_equal(loaded[name].data, t.data)
        assert loaded[name].dtype == t.dtype


def test_corrupted_payload_fails_checksum(tmp_path):
    cfg = cfg_small()
    params = init_byte_model(cfg, np.random.default_rng(1))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_truncated_file_fails(tmp_path):
    cfg = cfg_small()
    params = init_byte_model(cfg, np.random.default_rng(2))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def rewrite_header(path, edit) -> None:
    """Apply `edit` to the JSON header of the checkpoint at `path` and give
    the file a fresh checksum, so only the edit can make loading fail. An
    edit that drops the last table entry returns its `nbytes`, which are cut
    from the end of the payload to keep the file consistent."""
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + hlen])
    cut = edit(header)
    hb = json.dumps(header, sort_keys=True).encode()
    payload = blob[16 + hlen : len(blob) - 32 - (cut or 0)]
    path.write_bytes(blob[:8] + len(hb).to_bytes(8, "little") + hb + payload + hashlib.sha256(hb + payload).digest())


def test_wrong_version_rejected(tmp_path):
    cfg = cfg_small()
    params = init_byte_model(cfg, np.random.default_rng(3))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg)
    rewrite_header(path, lambda h: h.update(format_version=FORMAT_VERSION + 1))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: h.update(format_version=1),  # format 1 configs still carry the fixed constants
    lambda h: h["config"].update(nonsense=1),  # a key ModelConfig does not have
    lambda h: h["tensors"][0].update(dtype="nonsense"),
    lambda h: h["tensors"][0].update(dtype="int64"),  # same width, reinterpreted weights
    lambda h: h["tensors"][0].pop("nbytes") and None,
    lambda h: h["tensors"][0].update(offset=0),  # a key the table does not have
    lambda h: h["tensors"][0]["shape"].append(2),  # disagrees with nbytes
    lambda h: h["tensors"][0].update(shape="8"),
    lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"]),
    lambda h: h.pop("tensors") and None,
    lambda h: h["config"].update(boundary_threshold=1.5),  # scores never exceed 1
    lambda h: h["tensors"].pop()["nbytes"],  # a consistent file one tensor short
    lambda h: h["tensors"].append({"name": "extra.w", "shape": [0], "dtype": "float64", "nbytes": 0}),
    lambda h: h["tensors"][0].update(name="boundary.w_key"),
    lambda h: h["tensors"][-1].update(shape=[math.prod(h["tensors"][-1]["shape"])]),  # same bytes, flat
    lambda h: h.update(kind="nonsense"),
    lambda h: h.update(kind=["byte_model"]),
], ids=["version-1", "extra-config-key", "nonsense-dtype", "int64-dtype", "no-nbytes",
        "extra-entry-key", "shape-not-nbytes", "shape-not-a-list", "duplicate-name", "no-table",
        "threshold-above-one", "dropped-tensor", "extra-tensor", "renamed-tensor", "reshaped-tensor",
        "unknown-kind", "kind-not-a-string"])
def test_bad_header_exits_as_a_bad_checkpoint(tmp_path, capsys, edit):
    cfg = cfg_small()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_byte_model(cfg, np.random.default_rng(4)), cfg)
    rewrite_header(path, edit)
    assert cli.main(["spectrum", "--model", str(path)]) == EXIT_CHECKPOINT
    assert capsys.readouterr().err.startswith("error: bad checkpoint:")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all, nope" * 4)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)
