import hashlib
import json

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
    assert loaded.names() == params.names()
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
    the file a fresh checksum, so only the edit can make loading fail."""
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + hlen])
    edit(header)
    hb = json.dumps(header, sort_keys=True).encode()
    payload = blob[16 + hlen : -32]
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
], ids=["version-1", "extra-config-key"])
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
