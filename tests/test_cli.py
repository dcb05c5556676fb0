import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bytepatch import cli
from bytepatch.checkpoint import load_checkpoint, save_checkpoint
from bytepatch.cli import (
    EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_MISSING, EXIT_OK, EXIT_USAGE,
    build_model_config, build_train_config, parse_config_file,
)
from bytepatch.data import load_corpus
from bytepatch.model import init_byte_model

TOY_CFG = Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"

TINY_CFG = """
# tiny pipeline for CLI tests
model.d=16
model.ffn_hidden=24
model.n_probe=1
model.decoder_layers=1
model.mlstm.heads=2
model.mlstm.qk_dim=4
model.mlstm.v_dim=8
model.global.layers=1
model.global.heads=2
model.global.head_dim=8
tokenizer.vocab_size=300
train.steps=6
train.batch_size=2
train.max_bytes=48
train.peak_lr=0.001
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    assert cli.main(["make-corpus", "--kind", "words", "--docs", "10",
                     "--out", str(root / "corpus"), "--seed", "3"]) == EXIT_OK
    assert cli.main(["train-teacher", "--data", str(root / "corpus"),
                     "--out", str(root / "teacher.ckpt"), "--vocab-out", str(root / "vocab.txt"),
                     "--config", str(cfg), "--seed", "1"]) == EXIT_OK
    assert cli.main(["stage1", "--data", str(root / "corpus"),
                     "--teacher", str(root / "teacher.ckpt"), "--vocab", str(root / "vocab.txt"),
                     "--out", str(root / "s1.ckpt"), "--config", str(cfg), "--seed", "2",
                     "--log", str(root / "s1.jsonl")]) == EXIT_OK
    return root, cfg


def test_config_parsing(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("model.d=32  # width\n\nmodel.global.heads=4\nmodel.global.head_dim=8\n")
    cfg = parse_config_file(str(f))
    mc = build_model_config(cfg, vocab_size=300)
    assert mc.d == 32 and mc.global_model.heads == 4
    assert mc.boundary_dim == 32  # derived from the final d
    f.write_text("model.nonsense=1\n")
    with pytest.raises(cli.ConfigFileError):
        build_model_config(parse_config_file(str(f)), 300)
    f.write_text("this is not a key value line\n")
    with pytest.raises(cli.ConfigFileError):
        parse_config_file(str(f))
    # overlaid on a teacher's config: its own file applies cleanly, local keys
    # may change, anything that alters the transplanted backbone may not
    teacher = build_model_config(parse_config_file(str(TOY_CFG)), 300)
    assert build_model_config(parse_config_file(str(TOY_CFG)), 300, teacher) == teacher
    local = build_model_config({"model.decoder_layers": "3", "model.mlstm.heads": "2"}, 300, teacher)
    assert (local.decoder_layers, local.mlstm.heads, local.d) == (3, 2, teacher.d)
    for key, value in [("model.d", "64"), ("model.global.layers", "3"),
                       ("model.rope_base", "500"), ("model.nonsense", "1")]:
        with pytest.raises(cli.ConfigFileError):
            build_model_config({key: value}, 300, teacher)
    # the subcommand, not the file, picks the training stage, and --seed is
    # the only training seed
    with pytest.raises(cli.ConfigFileError):
        build_train_config({"train.stage": "2"}, 1, SimpleNamespace(seed=0))
    with pytest.raises(cli.ConfigFileError):
        build_train_config({"train.seed": "7"}, 2, SimpleNamespace(seed=0))


def test_unknown_flag_exits_usage():
    assert cli.main(["stage1", "--definitely-not-a-flag"]) == EXIT_USAGE
    assert cli.main(["no-such-command"]) == EXIT_USAGE


def test_missing_checkpoint_exit_code(workspace):
    root, cfg = workspace
    rc = cli.main(["eval-bpb", "--data", str(root / "corpus"), "--model", str(root / "nope.ckpt"),
                   "--vocab", str(root / "vocab.txt")])
    assert rc == EXIT_MISSING


def test_invalid_config_exit_code(workspace, tmp_path):
    root, cfg = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.d=banana\n")
    rc = cli.main(["train-teacher", "--data", str(root / "corpus"), "--out", str(tmp_path / "t.ckpt"),
                   "--vocab-out", str(tmp_path / "v.txt"), "--config", str(bad)])
    assert rc == EXIT_CONFIG
    # stage 1 must not widen the teacher's backbone it transplants
    bad.write_text(cfg.read_text().replace("model.d=16", "model.d=32"))
    rc = cli.main(["stage1", "--data", str(root / "corpus"), "--teacher", str(root / "teacher.ckpt"),
                   "--vocab", str(root / "vocab.txt"), "--out", str(tmp_path / "s1.ckpt"),
                   "--config", str(bad), "--steps", "0"])
    assert rc == EXIT_CONFIG


def test_corrupt_checkpoint_exit_code(workspace, tmp_path):
    root, _ = workspace
    blob = bytearray((root / "s1.ckpt").read_bytes())
    blob[-40] ^= 0x55
    bad = tmp_path / "corrupt.ckpt"
    bad.write_bytes(bytes(blob))
    rc = cli.main(["eval-bpb", "--data", str(root / "corpus"), "--model", str(bad),
                   "--vocab", str(root / "vocab.txt")])
    assert rc == EXIT_CHECKPOINT


def test_stage1_zero_steps_saves_init(workspace, tmp_path):
    root, cfg = workspace
    teacher, _, _ = load_checkpoint(root / "teacher.ckpt")
    for fresh_suffix in (False, True):
        out = tmp_path / f"init{int(fresh_suffix)}.ckpt"
        rc = cli.main(["stage1", "--data", str(root / "corpus"), "--teacher", str(root / "teacher.ckpt"),
                       "--vocab", str(root / "vocab.txt"), "--out", str(out),
                       "--config", str(cfg), "--seed", "2", "--steps", "0",
                       *(["--fresh-suffix"] if fresh_suffix else [])])
        assert rc == EXIT_OK
        saved, mc, _ = load_checkpoint(out)
        fresh = init_byte_model(mc, np.random.default_rng(2), teacher, fresh_suffix=fresh_suffix)
        for name, t in fresh.items():
            assert np.array_equal(saved[name].data, t.data), name
        copied = np.array_equal(saved["subword_embed.table"].data, teacher["subword_embed.table"].data)
        assert copied != fresh_suffix


def test_generate_deterministic_outputs(workspace, tmp_path):
    root, _ = workspace
    outs = []
    for i in range(2):
        o = tmp_path / f"g{i}.bin"
        rc = cli.main(["generate", "--model", str(root / "s1.ckpt"), "--vocab", str(root / "vocab.txt"),
                       "--prompt", "the cat", "--max-bytes", "16", "--temperature", "0",
                       "--out", str(o)])
        assert rc == EXIT_OK
        outs.append(o.read_bytes())
    assert outs[0] == outs[1]


def test_eval_bpb_reports_and_matches_loss_ce(workspace, capsys):
    root, cfg = workspace
    rc = cli.main(["eval-bpb", "--data", str(root / "corpus"), "--model", str(root / "s1.ckpt"),
                   "--vocab", str(root / "vocab.txt"), "--config", str(cfg)])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["bits_per_byte"] == pytest.approx(out["ce_nats"] / np.log(2), rel=1e-12)
    assert 0 < out["boundary_acc"] <= 1
    # with the teacher, subword evaluation adds the patch/token alignment
    rc = cli.main(["eval-bpb", "--data", str(root / "corpus"), "--model", str(root / "s1.ckpt"),
                   "--vocab", str(root / "vocab.txt"), "--config", str(cfg),
                   "--teacher", str(root / "teacher.ckpt")])
    assert rc == EXIT_OK
    with_teacher = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert with_teacher["bits_per_byte"] == out["bits_per_byte"]
    assert with_teacher["n_patches"] > 0
    assert 0 <= with_teacher["mean_abs_diff"] <= with_teacher["max_abs_diff"]


def test_spectrum_and_boundary_dump(workspace, capsys):
    root, _ = workspace
    assert cli.main(["spectrum", "--model", str(root / "teacher.ckpt"),
                     "--tensor", "subword_embed.table", "--max-rows", "2"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("rank")
    assert cli.main(["spectrum", "--model", str(root / "teacher.ckpt"),
                     "--tensor", "nope.w"]) == EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["boundary-dump", "--data", str(root / "corpus"),
                     "--vocab", str(root / "vocab.txt"), "--teacher", str(root / "teacher.ckpt"),
                     "--docs", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    # the tiny corpus holds out a single doc; each line is one RLE mask
    assert 1 <= len(lines) <= 2 and all(":" in l for l in lines)


@pytest.mark.parametrize("kind", ["subword", "bpe", "entropy", "xent"])
def test_stage2_one_step_per_merge_strategy(workspace, tmp_path, kind):
    root, cfg = workspace
    out = tmp_path / "s2.ckpt"
    rc = cli.main(["stage2", "--data", str(root / "corpus"), "--model", str(root / "s1.ckpt"),
                   "--teacher", str(root / "teacher.ckpt"), "--vocab", str(root / "vocab.txt"),
                   "--out", str(out), "--config", str(cfg), "--steps", "1",
                   "--merge-strategy", kind, "--target-compression", "6"])
    assert rc == EXIT_OK
    _, _, header = load_checkpoint(out)
    assert header["metadata"]["merge"] == kind


@pytest.mark.parametrize("kind", ["entropy", "xent"])
def test_scored_supervision_eval_and_dump(workspace, capsys, kind):
    root, cfg = workspace
    common = ["--data", str(root / "corpus"), "--vocab", str(root / "vocab.txt"), "--config", str(cfg),
              "--merge-strategy", kind, "--target-compression", "6"]
    model = ["--model", str(root / "s1.ckpt")]
    teacher = ["--teacher", str(root / "teacher.ckpt")]
    assert cli.main(["eval-bpb", *model, *common]) == EXIT_USAGE  # the teacher scores patches
    assert cli.main(["eval-bpb", *model, *teacher, *common]) == EXIT_OK
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert np.isfinite(out["bits_per_byte"]) and 0 < out["boundary_acc"] <= 1
    assert cli.main(["boundary-dump", "--docs", "2", *teacher, *common]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(":" in l for l in lines)


@pytest.mark.parametrize("kind", ["shifted-words", "compounds"])
def test_make_corpus_kinds(tmp_path, kind):
    out = tmp_path / "corpus"
    assert cli.main(["make-corpus", "--kind", kind, "--docs", "4", "--out", str(out), "--seed", "1"]) == EXIT_OK
    assert len(load_corpus(out).train) >= 3


def test_reset_check_reports_ratio(workspace, capsys):
    root, cfg = workspace
    teacher = str(root / "teacher.ckpt")
    rc = cli.main(["reset-check", "--data", str(root / "corpus"), "--base", teacher,
                   "--posttrained", teacher, "--vocab", str(root / "vocab.txt"), "--config", str(cfg)])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["ratio"] == 1.0  # resetting to identical embeddings changes nothing


def test_merge_roundtrip_via_cli(workspace, tmp_path):
    root, _ = workspace
    merged = tmp_path / "merged.ckpt"
    rc = cli.main(["merge", "--model", str(root / "s1.ckpt"), "--base", str(root / "teacher.ckpt"),
                   "--posttrained", str(root / "teacher.ckpt"), "--out", str(merged)])
    assert rc == EXIT_OK
    a, _, _ = load_checkpoint(root / "s1.ckpt")
    b, _, _ = load_checkpoint(merged)
    for name, t in a.items():
        assert np.array_equal(b[name].data, t.data)
