import dataclasses as dc
import json
import re
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
from bytepatch.model import ModelConfig, init_byte_model
from bytepatch.tokenizer import load_vocab
from bytepatch.training import TrainConfig

TOY_CFG = Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"

TINY_CFG = """
# tiny pipeline for CLI tests
model.d=16
model.ffn_hidden=24
model.n_probe=1
model.decoder_layers=1
model.mlstm_heads=2
model.mlstm_qk_dim=4
model.mlstm_v_dim=8
model.global_layers=1
model.global_heads=2
model.global_head_dim=8
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
    f.write_text("model.d=32  # width\n\nmodel.global_heads=4\nmodel.global_head_dim=8\n")
    cfg = parse_config_file(str(f))
    mc = build_model_config(cfg, vocab_size=300)
    assert mc.d == 32 and mc.global_heads == 4
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
    local = build_model_config({"model.decoder_layers": "3", "model.mlstm_heads": "2"}, 300, teacher)
    assert (local.decoder_layers, local.mlstm_heads, local.d) == (3, 2, teacher.d)
    for key, value in [("model.d", "64"), ("model.ffn_hidden", "64"), ("model.global_layers", "3"),
                       ("model.global_head_dim", "16"), ("model.nonsense", "1")]:
        with pytest.raises(cli.ConfigFileError):
            build_model_config({key: value}, 300, teacher)
    # the subcommand, not the file, picks the training stage, and --seed is
    # the only training seed
    with pytest.raises(cli.ConfigFileError):
        build_train_config({"train.stage": "2"}, 1, SimpleNamespace(seed=0))
    with pytest.raises(cli.ConfigFileError):
        build_train_config({"train.seed": "7"}, 2, SimpleNamespace(seed=0))


def test_every_toy_cfg_line_lands_on_a_field():
    lines = [l for l in TOY_CFG.read_text().splitlines() if l.split("#", 1)[0].strip()]
    cfg = parse_config_file(str(TOY_CFG))
    assert len(cfg) == len(lines)  # no key is set twice
    teacher = build_model_config(cfg, 300)
    built = {
        "model": [teacher.to_dict(), build_model_config(cfg, 300, teacher).to_dict()],
        "train": [dc.asdict(build_train_config(cfg, stage, SimpleNamespace(seed=0))) for stage in (1, 2)],
        "data": [cli._overlay(cfg, "data", cli.DATA_DEFAULTS)],
        "tokenizer": [cli._overlay(cfg, "tokenizer", cli.TOKENIZER_DEFAULTS)],
    }
    for key, text in cfg.items():
        section, name = key.split(".")
        for values in built[section]:
            assert float(values[name]) == float(text), key


@pytest.mark.parametrize("line", [
    "model.cos_eps=1e-8", "model.rms_eps=1e-12", "model.rope_base=10000", "model.boundary_dim=16",
    "model.eot_byte=0", "model.mlstm.gate_soft_cap=15", "model.mlstm.input_gate_bias_init=-10",
    "train.peak_lr_global=0.0005", "train.beta1=0.9", "train.beta2=0.95", "train.weight_decay=0.1",
    "train.grad_clip=0.5", "train.use_oracle_pooling=1",
    "model.mlstm.heads=2", "model.global.layers=1",  # format 2's nested groups are gone too
    "train.tau=5", "train.lambda_boundary=4", "train.lambda_encoder=1", "train.lambda_distill=1",
    "train.lambda_ce=1", "model.boundary_threshold=0.5",
])
def test_fixed_constants_are_unknown_keys(workspace, tmp_path, capsys, line):
    root, cfg = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.read_text() + line + "\n")
    out = tmp_path / "s1.ckpt"
    rc = cli.main(["stage1", "--data", str(root / "corpus"), "--teacher", str(root / "teacher.ckpt"),
                   "--vocab", str(root / "vocab.txt"), "--out", str(out), "--config", str(bad)])
    assert rc == EXIT_CONFIG
    key = line.partition("=")[0]
    assert f"invalid config: unknown config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "tokenizer.vocabsize=300", "data.holdout_fraction=0.5", "modle.d=64", "model.vocab_size=300",
    "train.stage=2", "train.seed=7", "model.mlstm=4", "model.global.width=3",
])
@pytest.mark.parametrize("command", ["make-corpus", "train-teacher", "stage1", "eval-bpb", "generate", "spectrum"])
def test_every_command_rejects_an_unknown_config_key(workspace, tmp_path, capsys, command, line):
    root, cfg = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.read_text() + line + "\n")
    data, teacher, vocab = str(root / "corpus"), str(root / "teacher.ckpt"), str(root / "vocab.txt")
    out = tmp_path / "out"
    flags = {
        "make-corpus": ["--out", str(out)],
        "train-teacher": ["--data", data, "--out", str(out), "--vocab-out", str(tmp_path / "v.txt")],
        "stage1": ["--data", data, "--teacher", teacher, "--vocab", vocab, "--out", str(out)],
        "eval-bpb": ["--data", data, "--model", str(root / "s1.ckpt"), "--vocab", vocab],
        "generate": ["--model", str(root / "s1.ckpt"), "--vocab", vocab, "--out", str(out)],
        "spectrum": ["--model", teacher],
    }[command]
    assert cli.main([command, *flags, "--config", str(bad)]) == EXIT_CONFIG
    key = line.partition("=")[0]
    assert f"invalid config: unknown config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


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
    # stage 1 must not widen the teacher's backbone it transplants: ffn_hidden
    # sizes the backbone's FFNs too, so a changed one would save a checkpoint
    # whose config disagrees with its tensors
    for old, new in [("model.d=16", "model.d=32"), ("model.ffn_hidden=24", "model.ffn_hidden=32")]:
        bad.write_text(cfg.read_text().replace(old, new))
        out = tmp_path / "s1.ckpt"
        rc = cli.main(["stage1", "--data", str(root / "corpus"), "--teacher", str(root / "teacher.ckpt"),
                       "--vocab", str(root / "vocab.txt"), "--out", str(out),
                       "--config", str(bad), "--steps", "0"])
        assert rc == EXIT_CONFIG and not out.exists()


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


def test_boundary_dump_predicted(workspace, capsys):
    root, _ = workspace
    corpus = load_corpus(root / "corpus")
    docs = [d[:300] for d in (corpus.heldout or corpus.train)[:2]]
    assert max(map(len, docs)) > 128  # the encoder runs over more than one mLSTM chunk
    assert cli.main(["boundary-dump", "--data", str(root / "corpus"), "--vocab", str(root / "vocab.txt"),
                     "--model", str(root / "s1.ckpt"), "--predicted",
                     "--docs", "2", "--max-doc-bytes", "300"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    # one RLE mask per document, covering each of its bytes
    assert [sum(int(r) for r in line.split(":")[1].split(",")) for line in lines] == list(map(len, docs))


def test_eval_bpb_and_predicted_dump_report_one_compression(workspace, capsys):
    root, cfg = workspace
    common = ["--data", str(root / "corpus"), "--vocab", str(root / "vocab.txt"),
              "--model", str(root / "s1.ckpt"), "--config", str(cfg), "--max-doc-bytes", "200"]
    assert cli.main(["eval-bpb", *common]) == EXIT_OK
    evaluated = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["attained_compression"]
    assert cli.main(["boundary-dump", "--predicted", "--docs", "100", *common]) == EXIT_OK
    dumped = re.fullmatch(r"# attained compression: (\S+)", capsys.readouterr().err.strip()).group(1)
    assert f"{evaluated:.4f}" == dumped


@pytest.mark.parametrize("command", ["stage2", "eval-bpb", "generate", "boundary-dump", "merge", "reset-check"])
def test_commands_on_a_checkpoint_reject_a_model_key_it_contradicts(workspace, tmp_path, capsys, command):
    """A saved model fixes every model.* field: a config that restates a value
    runs, one that contradicts it exits 3 and names the key."""
    root, cfg = workspace
    data, model, vocab, teacher = (str(root / n) for n in ("corpus", "s1.ckpt", "vocab.txt", "teacher.ckpt"))
    out = tmp_path / "out"
    flags = {
        "stage2": ["--data", data, "--model", model, "--vocab", vocab, "--out", str(out), "--steps", "1"],
        "eval-bpb": ["--data", data, "--model", model, "--vocab", vocab, "--max-doc-bytes", "64"],
        "generate": ["--model", model, "--vocab", vocab, "--max-bytes", "4", "--out", str(out)],
        "boundary-dump": ["--data", data, "--model", model, "--vocab", vocab, "--predicted", "--docs", "1"],
        "merge": ["--model", model, "--base", teacher, "--posttrained", teacher, "--out", str(out)],
        "reset-check": ["--data", data, "--base", teacher, "--posttrained", teacher, "--vocab", vocab],
    }[command]
    for line, rc in [("model.boundary_mode=noncausal", EXIT_OK), ("model.boundary_mode=causal", EXIT_CONFIG),
                     ("model.patch_cap=8", EXIT_CONFIG), ("model.decoder_layers=2", EXIT_CONFIG)]:
        conf = tmp_path / "model.cfg"
        conf.write_text(cfg.read_text() + line + "\n")
        out.unlink(missing_ok=True)
        assert cli.main([command, *flags, "--config", str(conf)]) == rc, line
        err = capsys.readouterr().err
        if rc == EXIT_CONFIG:
            assert f"invalid config: {line} differs from the checkpoint's" in err
            assert not out.exists()


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


def test_stage2_takes_the_merge_kind_from_the_config(workspace, tmp_path):
    root, cfg = workspace
    bpe = tmp_path / "bpe.cfg"
    bpe.write_text(cfg.read_text() + "train.merge_kind=bpe\ntrain.target_compression=8\n")
    common = ["stage2", "--data", str(root / "corpus"), "--model", str(root / "s1.ckpt"),
              "--vocab", str(root / "vocab.txt"), "--config", str(bpe), "--steps", "1"]
    for flags, kind in [([], "bpe"), (["--merge-strategy", "subword"], "subword")]:  # the flag wins
        out = tmp_path / f"{kind}.ckpt"
        assert cli.main([*common, "--out", str(out), *flags]) == EXIT_OK
        metadata = load_checkpoint(out)[2]["metadata"]
        assert (metadata["merge"], metadata["target_compression"]) == (kind, 8.0)


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


def test_corpus_of_short_documents_names_the_window_minimum(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(4):
        (corpus / f"d{i}.txt").write_text(f"cat dog {i}")  # 10 bytes with the terminator
    rc = cli.main(["train-teacher", "--data", str(corpus), "--out", str(tmp_path / "t.ckpt"),
                   "--vocab-out", str(tmp_path / "v.txt")])
    assert rc == EXIT_CONFIG
    assert "shorter than the 16-byte minimum" in capsys.readouterr().err


@pytest.mark.parametrize("record", ["[1, 2]", '{"text": 5}', "not json"])
def test_a_bad_jsonl_record_is_invalid_data_at_its_line(tmp_path, capsys, record):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    docs = corpus / "docs.jsonl"
    docs.write_text('{"text": "cat dog sun sky tree bird"}\n' + record + "\n")
    rc = cli.main(["train-teacher", "--data", str(corpus), "--out", str(tmp_path / "t.ckpt"),
                   "--vocab-out", str(tmp_path / "v.txt")])
    assert rc == EXIT_CONFIG
    assert f"error: {docs}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("eval-bpb", "--max-doc-bytes"), ("boundary-dump", "--max-doc-bytes"), ("boundary-dump", "--docs"),
])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_counts_below_one_are_usage_errors(workspace, command, flag, value):
    root, cfg = workspace
    rc = cli.main([command, "--data", str(root / "corpus"), "--model", str(root / "s1.ckpt"),
                   "--vocab", str(root / "vocab.txt"), "--config", str(cfg), flag, value])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("value", ["0", "-3"])
def test_spectrum_row_count_below_one_is_a_usage_error(workspace, capsys, value):
    root, _ = workspace
    model = ["spectrum", "--model", str(root / "teacher.ckpt")]
    assert cli.main([*model, "--max-rows", value]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert cli.main(model) == EXIT_OK  # omitted: every rank
    assert len(capsys.readouterr().out.splitlines()) == 1 + 16  # header + min(vocab, d) ranks


@pytest.mark.parametrize("value", ["0", "-3"])
def test_make_corpus_document_count_below_one_is_a_usage_error(tmp_path, value):
    out = tmp_path / "corpus"
    assert cli.main(["make-corpus", "--docs", value, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-4"])
def test_generate_byte_budget_below_one_is_a_usage_error(workspace, tmp_path, value):
    root, _ = workspace
    out = tmp_path / "g.bin"
    rc = cli.main(["generate", "--model", str(root / "s1.ckpt"), "--vocab", str(root / "vocab.txt"),
                   "--max-bytes", value, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


def test_train_teacher_reports_the_tokenizer_phase(tmp_path, capsys):
    corpus, cfg = tmp_path / "corpus", tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG.replace("train.steps=6", "train.steps=0").replace("vocab_size=300", "vocab_size=4000"))
    assert cli.main(["make-corpus", "--docs", "6", "--out", str(corpus), "--seed", "5"]) == EXIT_OK
    capsys.readouterr()
    rc = cli.main(["train-teacher", "--data", str(corpus), "--out", str(tmp_path / "t.ckpt"),
                   "--vocab-out", str(tmp_path / "v.txt"), "--config", str(cfg)])
    assert rc == EXIT_OK
    out, err = capsys.readouterr()
    n_merges = len(load_vocab(str(tmp_path / "v.txt")).merges)
    n_bytes = sum(len(d) for d in load_corpus(corpus).train)
    line = next(l for l in err.splitlines() if l.startswith("tokenizer:"))
    assert re.fullmatch(rf"tokenizer: {n_merges} merges from {n_bytes} corpus bytes in \d+\.\d\d s \(truncated\)", line)
    assert out.startswith("teacher saved to") and "tokenizer" not in out


def test_eval_bpb_without_a_scorable_document_names_the_minimum(workspace, capsys):
    root, cfg = workspace
    rc = cli.main(["eval-bpb", "--data", str(root / "corpus"), "--model", str(root / "s1.ckpt"),
                   "--vocab", str(root / "vocab.txt"), "--config", str(cfg), "--max-doc-bytes", "1"])
    assert rc == EXIT_CONFIG
    assert "2 bytes a prediction needs" in capsys.readouterr().err


@pytest.mark.parametrize("line, flags, name", [
    ("train.tau=0", [], "tau"),  # losses.TAU is no key: rejected as unknown
    ("train.batch_size=0", [], "batch_size"),
    ("", ["--steps", "-3"], "steps"),
    ("train.peak_lr=nan", [], "peak_lr"),  # the first update would make every master NaN
])
def test_stage1_rejects_invalid_train_values(workspace, tmp_path, capsys, line, flags, name):
    root, cfg = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.read_text() + line + "\n")
    out = tmp_path / "s1.ckpt"
    rc = cli.main(["stage1", "--data", str(root / "corpus"), "--teacher", str(root / "teacher.ckpt"),
                   "--vocab", str(root / "vocab.txt"), "--out", str(out), "--config", str(bad), *flags])
    assert rc == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, name", [
    ("data.holdout_frac=-0.5", "holdout_frac"),
    ("data.holdout_frac=1.0", "holdout_frac"),
    ("data.holdout_frac=1.5", "holdout_frac"),
])
def test_out_of_range_values_are_invalid_config(workspace, tmp_path, capsys, line, name):
    root, cfg = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.read_text() + line + "\n")
    out = tmp_path / "s1.ckpt"
    rc = cli.main(["stage1", "--data", str(root / "corpus"), "--teacher", str(root / "teacher.ckpt"),
                   "--vocab", str(root / "vocab.txt"), "--out", str(out), "--config", str(bad), "--steps", "0"])
    assert rc == EXIT_CONFIG
    assert f"{name} must be in [0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("model.n_probe=-1", "n_probe must be in [0, global layers], got -1"),
    ("model.patch_cap=0", "patch_cap must be >= 1, got 0"),
    ("model.ffn_hidden=0", "ffn_hidden must be >= 1, got 0"),
    ("model.mlstm_heads=0", "mlstm_heads must be >= 1, got 0"),
    ("model.encoder_layers=-1", "encoder_layers must be >= 1, got -1"),
    ("model.global_layers=0", "global_layers must be >= 1, got 0"),
    ("train.peak_lr=-1", "peak_lr must be >= 0, got -1.0"),
    ("train.peak_lr=inf", "peak_lr must be finite, got inf"),
    ("train.warmup_steps=-5", "warmup_steps must be >= 0, got -5"),
])
def test_model_counts_out_of_range_are_invalid_config(workspace, tmp_path, capsys, line, message):
    root, cfg = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.read_text() + line + "\n")
    out = tmp_path / "s1.ckpt"
    rc = cli.main(["stage1", "--data", str(root / "corpus"), "--teacher", str(root / "teacher.ckpt"),
                   "--vocab", str(root / "vocab.txt"), "--out", str(out), "--config", str(bad), "--steps", "0"])
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_config_is_validated_once_built():
    args = SimpleNamespace(seed=0, steps=0)  # zero steps and rates stay valid
    tc = build_train_config({"train.batch_size": "2", "train.peak_lr": "0.01"}, 2, args)
    assert (tc.batch_size, tc.peak_lr, tc.stage, tc.steps) == (2, 0.01, 2, 0)
    tc = build_train_config({"train.peak_lr": "0", "train.warmup_steps": "0"}, 1, args)
    assert (tc.peak_lr, tc.warmup_steps) == (0.0, 0)
    with pytest.raises(cli.ConfigFileError, match="peak_lr must be finite, got nan"):
        build_train_config({"train.peak_lr": "nan"}, 1, args)
    with pytest.raises(cli.ConfigFileError):
        build_train_config({"train.lambda_nonsense": "1"}, 1, args)


def test_settable_value_counts():
    """Each config key is a choice some caller makes; a value no caller
    varies is a constant in the module that uses it, not a key."""
    settable = {section: [k for k in fields if f"{section}.{k}" not in cli.DERIVED]
                for section, fields in (("model", ModelConfig().to_dict()), ("train", dc.asdict(TrainConfig())))}
    assert {section: len(keys) for section, keys in settable.items()} == {"model": 13, "train": 7}
