import hashlib
import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from bytepatch import cli
from bytepatch.checkpoint import CheckpointError, FORMAT_VERSION, load_checkpoint, save_checkpoint
from bytepatch.cli import EXIT_CHECKPOINT
from bytepatch.model import ModelConfig, init_byte_model


def cfg_small():
    return ModelConfig(
        d=8, vocab_size=260, encoder_layers=1, decoder_layers=1, ffn_hidden=12,
        n_probe=1, mlstm_heads=2, mlstm_qk_dim=2, mlstm_v_dim=4,
        global_layers=1, global_heads=2, global_head_dim=4,
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
    from the end of the payload to keep the file consistent; an edit that
    returns bytes replaces the header text with them."""
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + hlen])
    cut = edit(header)
    hb = cut if isinstance(cut, bytes) else json.dumps(header, sort_keys=True).encode()
    payload = blob[16 + hlen : len(blob) - 32 - (cut if isinstance(cut, int) else 0)]
    path.write_bytes(blob[:8] + len(hb).to_bytes(8, "little") + hb + payload + hashlib.sha256(hb + payload).digest())


def _format_2(h: dict) -> None:
    """Turn `h` into the header that format 2 wrote for the same model, with
    the mLSTM and backbone sizes in nested groups."""
    c = h["config"]
    for group, prefix in (("mlstm", "mlstm_"), ("global_model", "global_")):
        c[group] = {k.removeprefix(prefix): c.pop(k) for k in sorted(c) if k.startswith(prefix)}
    h["format_version"] = 2


def test_wrong_version_rejected(tmp_path):
    cfg = cfg_small()
    params = init_byte_model(cfg, np.random.default_rng(3))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, cfg)
    for version in (3, FORMAT_VERSION + 1):  # format 3 configs carried boundary_threshold
        rewrite_header(path, lambda h: h.update(format_version=version))
        with pytest.raises(CheckpointError, match=f"unsupported format version {version} "):
            load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: h.update(format_version=1),  # format 1 configs still carry the fixed constants
    _format_2,
    lambda h: h.update(format_version=3) or h["config"].update(boundary_threshold=0.5),  # format 3 as written
    lambda h: h["config"].update(nonsense=1),  # a key ModelConfig does not have
    lambda h: h["tensors"][0].update(dtype="nonsense"),
    lambda h: h["tensors"][0].update(dtype="int64"),  # same width, reinterpreted weights
    lambda h: h["tensors"][0].pop("nbytes") and None,
    lambda h: h["tensors"][0].update(offset=0),  # a key the table does not have
    lambda h: h["tensors"][0]["shape"].append(2),  # disagrees with nbytes
    lambda h: h["tensors"][0].update(shape="8"),
    lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"]),
    lambda h: h.pop("tensors") and None,
    lambda h: h["config"].update(boundary_threshold=1.5),  # format 4 has no threshold key
    lambda h: h["tensors"].pop()["nbytes"],  # a consistent file one tensor short
    lambda h: h["tensors"].append({"name": "extra.w", "shape": [0], "dtype": "float64", "nbytes": 0}),
    lambda h: h["tensors"][0].update(name="boundary.w_key"),
    lambda h: h["tensors"][-1].update(shape=[math.prod(h["tensors"][-1]["shape"])]),  # same bytes, flat
    lambda h: h.update(kind="nonsense"),
    lambda h: h.update(kind=["byte_model"]),
    lambda h: b"\xff\xfe not UTF-8",
    lambda h: b"[1, 2]",
    lambda h: h["config"].update(d=8.0),
    lambda h: h["config"].update(mlstm_heads="2"),
    lambda h: h["config"].update(encoder_layers="1"),
    lambda h: h["config"].update(patch_cap="64"),
    lambda h: h["config"].update(n_probe=True),  # a bool is no int
    lambda h: h["config"].pop("boundary_mode") and None,  # saved as the default, still required
    lambda h: h["config"].update(n_probe=-1),
    lambda h: h["config"].update(patch_cap=0),
], ids=["version-1", "version-2", "version-3", "extra-config-key", "nonsense-dtype", "int64-dtype", "no-nbytes",
        "extra-entry-key", "shape-not-nbytes", "shape-not-a-list", "duplicate-name", "no-table",
        "threshold-above-one", "dropped-tensor", "extra-tensor", "renamed-tensor", "reshaped-tensor",
        "unknown-kind", "kind-not-a-string", "not-utf8", "json-list", "float-d", "string-heads",
        "string-encoder-layers", "string-patch-cap", "bool-n-probe", "dropped-config-key",
        "negative-n-probe", "zero-patch-cap"])
def test_bad_header_exits_as_a_bad_checkpoint(tmp_path, capsys, edit):
    cfg = cfg_small()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_byte_model(cfg, np.random.default_rng(4)), cfg)
    rewrite_header(path, edit)
    assert cli.main(["spectrum", "--model", str(path)]) == EXIT_CHECKPOINT
    assert capsys.readouterr().err.startswith("error: bad checkpoint:")


@pytest.mark.parametrize("size", ["ffn_hidden", "mlstm_heads"])
def test_zero_size_in_a_consistent_header_exits_as_a_bad_checkpoint(tmp_path, capsys, size):
    # the table is the one the zero size builds, so only the range check can reject the file
    values = {**cfg_small().to_dict(), size: 0}
    path = tmp_path / "m.ckpt"
    params = init_byte_model(SimpleNamespace(**values), np.random.default_rng(6))
    save_checkpoint(path, params, SimpleNamespace(to_dict=lambda: values))
    assert cli.main(["spectrum", "--model", str(path)]) == EXIT_CHECKPOINT
    assert f"{size} must be >= 1, got 0" in capsys.readouterr().err


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all, nope" * 4)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def _retype(value, rng: random.Random):
    """A JSON value of another type than `value`; an int may become the
    same number as a float, and a float an int."""
    others = [json.dumps(value), [value], None, True]
    others += [float(value)] if type(value) is int else [int(value)] if type(value) is float else []
    return rng.choice([o for o in others if type(o) is not type(value)])


def _random_edit(h: dict, rng: random.Random):
    """One edit that a loader must reject, in the form `rewrite_header`
    applies: a dropped, renamed or retyped key (top level except metadata,
    config or table entry), a perturbed shape size, nbytes, dtype, name or
    kind, two entries swapped, one duplicated, or the last dropped together
    with its payload bytes."""
    table = h["tensors"]
    i, j = rng.sample(range(len(table)), 2)
    entry = table[i]
    owner = rng.choice([h, h["config"], entry])
    key = rng.choice(sorted(k for k in owner if k != "metadata"))
    match rng.randrange(11):
        case 0:
            del owner[key]
        case 1:
            owner[key + "_"] = owner.pop(key)
        case 2:
            owner[key] = _retype(owner[key], rng)
        case 3:  # the same size as a float is no size either
            shape, k = entry["shape"], rng.randrange(len(entry["shape"]))
            shape[k] = rng.choice([shape[k] - 1, shape[k] + 1, float(shape[k])])
        case 4:
            entry["nbytes"] = rng.choice([entry["nbytes"] - 8, entry["nbytes"] + 8, float(entry["nbytes"])])
        case 5:
            entry["dtype"] = rng.choice(["float32", "int64", "<f8", "float"])
        case 6:
            entry["name"] = table[j]["name"] if rng.random() < 0.5 else entry["name"] + "_"
        case 7:
            h["kind"] = rng.choice(["teacher", "Byte_model", ""])
        case 8:
            table[i], table[j] = table[j], table[i]
        case 9:
            table.insert(j, dict(entry))
        case 10:
            return table.pop()["nbytes"]


def test_random_header_edits_exit_as_a_bad_checkpoint(tmp_path, capsys):
    cfg = cfg_small()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_byte_model(cfg, np.random.default_rng(5)), cfg, metadata={"stage": 1})
    saved = path.read_bytes()
    rng = random.Random(13)
    for trial in range(250):
        path.write_bytes(saved)
        rewrite_header(path, lambda h: _random_edit(h, rng))
        assert cli.main(["spectrum", "--model", str(path)]) == EXIT_CHECKPOINT, trial
        assert capsys.readouterr().err.startswith("error: bad checkpoint:"), trial
