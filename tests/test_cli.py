import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from absalab.checkpoint import load_archive
from absalab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_args(fixtures_dir, tmp_path, **extra):
    args = {
        "--data-dir": str(fixtures_dir),
        "--checkpoint-dir": str(tmp_path / "ckpt"),
        "--embedding-dim": "8",
        "--alsa-hidden": "4",
        "--ae-hidden": "3",
        "--epochs": "1",
        "--seed": "3",
        "--dev-fraction": "0",
        "--lr": "0.01",
    }
    args.update(extra)
    out = []
    for key, value in args.items():
        out.extend([key, value])
    return out


def test_majority_command_reports_fixture_value(capsys, fixtures_dir, tmp_path):
    code, out, err = run_cli(capsys, "majority", *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    last = json.loads(out.strip().splitlines()[-1])
    assert last["macro_f1"] == 22.22
    assert "macro F1: 22.22" in out


def test_ingest_command_counts(capsys, fixtures_dir, tmp_path):
    code, out, err = run_cli(capsys, "ingest", "--xml", str(fixtures_dir / "laptop_train.xml"))
    assert code == 0, err
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary == {"sentences": 6, "samples": 5, "positive": 1, "negative": 3,
                       "neutral": 1, "sa": 3, "ma": 2}


def test_ingest_command_takes_the_vector_width_from_the_file(capsys, fixtures_dir):
    xml = str(fixtures_dir / "laptop_train.xml")
    code, plain, err = run_cli(capsys, "ingest", "--xml", xml)
    assert code == 0, err
    code, with_vectors, err = run_cli(capsys, "ingest", "--xml", xml,
                                      "--embeddings", str(fixtures_dir / "mini_vectors.txt"))  # 5-d
    assert code == 0, err
    assert with_vectors == plain


def test_ingest_command_names_the_line_of_a_short_vector(capsys, fixtures_dir, tmp_path):
    vectors = tmp_path / "short.txt"
    vectors.write_text("the 0.1 0.2 0.3\nscreen 0.4 0.5 0.6\nbattery 0.7 0.8\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "ingest", "--xml", str(fixtures_dir / "laptop_train.xml"),
                           "--embeddings", str(vectors))
    assert code == 1
    message = json.loads(err.strip().splitlines()[-1])["error"]
    assert "line 3: vector has 2 values, expected 3" in message


def test_ingest_command_error_names_file_and_sentence(capsys, tmp_path):
    xml = tmp_path / "bad.xml"
    xml.write_text("""<sentences><sentence id="s5"><text>hi there</text><aspectTerms>
      <aspectTerm term="hi" polarity="positive" from="x4" to="2"/></aspectTerms></sentence></sentences>""",
                   encoding="utf-8")
    code, _, err = run_cli(capsys, "ingest", "--xml", str(xml))
    assert code == 1
    message = json.loads(err.strip().splitlines()[-1])["error"]
    assert message.startswith("IngestError: ") and "bad.xml" in message
    assert "'s5'" in message and "'from'" in message


def test_train_alsa_then_eval(capsys, fixtures_dir, tmp_path):
    code, out, err = run_cli(capsys, "train-alsa", *base_args(fixtures_dir, tmp_path, **{"--dev-fraction": "0.2"}))
    assert code == 0, err
    assert "checkpoint:" in out
    ckpt = out.strip().splitlines()[-1].split(": ", 1)[1]
    code, out, err = run_cli(capsys, "eval", "--checkpoint", ckpt,
                             *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    record = json.loads(out.strip().splitlines()[-1])
    assert record["count"] == 4


def test_full_transfer_pipeline_via_cli(capsys, fixtures_dir, tmp_path):
    # 1) train the extractor
    code, out, err = run_cli(capsys, "train-ae", *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    ae_ckpt = str(tmp_path / "ckpt" / "ae_laptop.best.ckpt")

    # 2) export transfer rows for train split
    st_path = str(tmp_path / "laptop_train.st")
    code, out, err = run_cli(capsys, "export-st", "--checkpoint", ae_ckpt,
                             "--split", "train", "--out", st_path,
                             *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    cache = load_archive(st_path)
    assert all(m.shape[1] == 6 for m in cache.values())

    # 3) train the widened classifier against the cache
    code, out, err = run_cli(capsys, "train-alsa", "--input-mode", "transfer",
                             "--transfer-dim", "6", "--st-cache-path", st_path,
                             *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    assert "checkpoint:" in out


def test_export_st_takes_the_width_from_the_model(capsys, fixtures_dir, tmp_path):
    # an AE sidecar need not hold transfer_dim: the loader does not require it
    code, _, err = run_cli(capsys, "train-ae", *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    ae_ckpt = tmp_path / "ckpt" / "ae_laptop.best.ckpt"
    sidecar = Path(f"{ae_ckpt}.meta.json")
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    del meta["transfer_dim"]
    sidecar.write_text(json.dumps(meta), encoding="utf-8")
    st_path = tmp_path / "laptop_train.st"
    code, out, err = run_cli(capsys, "export-st", "--checkpoint", str(ae_ckpt), "--split", "train",
                             "--out", str(st_path), *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    assert f"transfer matrices (width 6) to {st_path}" in out


def test_dump_attention_command(capsys, fixtures_dir, tmp_path):
    code, out, err = run_cli(capsys, "train-alsa", *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    ckpt = out.strip().splitlines()[-1].split(": ", 1)[1]
    dump_path = tmp_path / "attn.jsonl"
    code, out, err = run_cli(capsys, "dump-attention", "--checkpoint", ckpt,
                             "--split", "test", "--out", str(dump_path),
                             *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    records = [json.loads(line) for line in dump_path.read_text().strip().splitlines()]
    assert len(records) == 4  # one atae head per test sample
    for record in records:
        assert abs(sum(record["alpha"]) - 1.0) < 1e-6
        assert len(record["alpha"]) == len(record["tokens"])


def test_train_alsa_noise_variant(capsys, fixtures_dir, tmp_path):
    code, out, err = run_cli(capsys, "train-alsa", "--input-mode", "noise",
                             "--transfer-dim", "6", *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    ckpt = out.strip().splitlines()[-1].split(": ", 1)[1]
    assert "atae-r_laptop" in ckpt
    code, out, err = run_cli(capsys, "eval", "--checkpoint", ckpt,
                             *base_args(fixtures_dir, tmp_path))
    assert code == 0, err


def eval_noise_checkpoint_with_edited_sidecar(capsys, fixtures_dir, tmp_path, edit):
    """Train a noise checkpoint, apply `edit` to its sidecar's fields, then
    evaluate it; returns (sidecar path, exit code, stderr)."""
    code, out, err = run_cli(capsys, "train-alsa", "--input-mode", "noise",
                             "--transfer-dim", "6", *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    ckpt = out.strip().splitlines()[-1].split(": ", 1)[1]
    sidecar = Path(f"{ckpt}.meta.json")
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    edit(meta)
    sidecar.write_text(json.dumps(meta), encoding="utf-8")
    code, _, err = run_cli(capsys, "eval", "--checkpoint", ckpt, *base_args(fixtures_dir, tmp_path))
    return sidecar, code, err


@pytest.mark.parametrize("edit, problem", [
    (lambda meta: meta.pop("transfer_dim"), "missing field 'transfer_dim'"),
    (lambda meta: meta.update(transfer_dim="8"), "transfer_dim must be a non-negative int, got '8'"),
    (lambda meta: meta.update(transfer_dim=-6), "transfer_dim must be a non-negative int, got -6"),
])
def test_eval_names_the_sidecar_of_a_bad_transfer_dim(capsys, fixtures_dir, tmp_path, edit, problem):
    sidecar, code, err = eval_noise_checkpoint_with_edited_sidecar(capsys, fixtures_dir, tmp_path, edit)
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == f"ValueError: {sidecar}: {problem}"


@pytest.mark.parametrize("noise_seed", ["7", True, -1])
def test_eval_names_the_sidecar_of_a_bad_noise_seed(capsys, fixtures_dir, tmp_path, noise_seed):
    sidecar, code, err = eval_noise_checkpoint_with_edited_sidecar(
        capsys, fixtures_dir, tmp_path, lambda meta: meta.update(noise_seed=noise_seed))
    assert code == 1
    problem = f"noise_seed must be a non-negative int, got {noise_seed!r}"
    assert json.loads(err.strip().splitlines()[-1])["error"] == f"ValueError: {sidecar}: {problem}"


def test_eval_reads_an_absent_noise_seed_as_zero(capsys, fixtures_dir, tmp_path):
    _, code, err = eval_noise_checkpoint_with_edited_sidecar(
        capsys, fixtures_dir, tmp_path, lambda meta: meta.pop("noise_seed"))
    assert code == 0, err


def test_train_multitask_via_task_flag(capsys, fixtures_dir, tmp_path):
    code, out, err = run_cli(capsys, "train-alsa", "--task", "multitask",
                             *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    ckpt = out.strip().splitlines()[-1].split(": ", 1)[1]
    assert "multitask_laptop" in ckpt
    code, out, err = run_cli(capsys, "eval", "--checkpoint", ckpt,
                             *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    record = json.loads(out.strip().splitlines()[-1])
    assert record["count"] == 4


def test_grid_search_command(capsys, fixtures_dir, tmp_path):
    code, out, err = run_cli(capsys, "grid-search", "--grid", "lr=0.01,0.02",
                             *base_args(fixtures_dir, tmp_path, **{"--dev-fraction": "0.2"}))
    assert code == 0, err
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 2
    assert rows[0]["rank"] == 1


@pytest.mark.parametrize("command", ["train-alsa", "train-ae"])
def test_training_on_a_non_finite_vector_names_its_file_line_and_token(capsys, fixtures_dir, tmp_path, command):
    vectors = tmp_path / "vectors.txt"
    lines = (fixtures_dir / "mini_vectors.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "the 0.1 0.2 0.3 0.4 0.5"
    vectors.write_text("\n".join(["the 0.1 nan 0.3 0.4 0.5"] + lines[1:]) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, command, *base_args(fixtures_dir, tmp_path), "--embedding-dim", "5",
                             "--embeddings-path", str(vectors))
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": f"IngestError: {vectors}: line 1: non-finite vector component for 'the'"}


def test_an_empty_vector_file_is_refused_by_name(capsys, fixtures_dir, tmp_path):
    vectors = tmp_path / "empty.txt"
    vectors.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, "train-alsa", *base_args(fixtures_dir, tmp_path), "--embeddings-path", str(vectors))
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": f"IngestError: {vectors}: no vectors to take the width from"}
    assert not (tmp_path / "ckpt").exists()  # nothing trained


def test_a_vector_file_sets_the_width_of_a_run(capsys, fixtures_dir, tmp_path):
    args = base_args(fixtures_dir, tmp_path)
    del args[args.index("--embedding-dim"):args.index("--embedding-dim") + 2]  # the default, 300, stays
    code, _, err = run_cli(capsys, "train-alsa", *args, "--embeddings-path", str(fixtures_dir / "mini_vectors.txt"))
    assert code == 0, err
    meta = json.loads((tmp_path / "ckpt" / "atae_laptop.best.ckpt.meta.json").read_text(encoding="utf-8"))
    assert meta["embedding_dim"] == 5


@pytest.mark.parametrize("flag", ["--lr", "--l2-lambda"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_training_refuses_a_non_finite_lr_or_l2_lambda(capsys, fixtures_dir, tmp_path, flag, value):
    code, out, err = run_cli(capsys, "train-alsa", *base_args(fixtures_dir, tmp_path), flag, value)
    assert (code, out) == (1, "")
    key = flag[2:].replace("-", "_")
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": f"ConfigError: {key} must be finite and non-negative, got {value}"}
    assert not (tmp_path / "ckpt").exists()  # nothing trained


def test_grid_search_command_rejects_a_key_without_values(capsys, fixtures_dir, tmp_path):
    code, out, err = run_cli(capsys, "grid-search", "--grid", "lr=", *base_args(fixtures_dir, tmp_path))
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {"error": "ConfigError: grid key 'lr' has no values"}


def test_grid_search_command_refuses_a_repeated_key(capsys, fixtures_dir, tmp_path):
    code, out, err = run_cli(capsys, "grid-search", "--grid", "lr=0.001", "--grid", " lr =0.002",
                             *base_args(fixtures_dir, tmp_path))
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {"error": "ConfigError: --grid key 'lr' given twice"}
    assert not (tmp_path / "ckpt").exists()  # nothing trained


@pytest.mark.parametrize("spec, error", [
    ("lrr=0.001,0.002", "unknown config key 'lrr'"),
    ("lr=0.001,fast", "config key 'lr': cannot parse 'fast' as float"),
    ("lr=0.001,1e-3", "grid key 'lr' gives the setting 0.001 more than once"),
])
def test_grid_search_command_checks_every_value_before_training(capsys, fixtures_dir, tmp_path, spec, error):
    code, out, err = run_cli(capsys, "grid-search", "--grid", "l2_lambda=0,0.001", "--grid", spec,
                             *base_args(fixtures_dir, tmp_path))
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {"error": f"ConfigError: {error}"}
    assert not (tmp_path / "ckpt").exists()  # nothing trained


def test_cross_domain_command(capsys, fixtures_dir, tmp_path):
    for domain in ("laptop", "restaurant"):
        code, _, err = run_cli(capsys, "train-ae", "--domain", domain,
                               *base_args(fixtures_dir, tmp_path))
        assert code == 0, err
    code, out, err = run_cli(capsys, "cross-domain", "--ae-domain", "laptop", "--domain", "restaurant",
                             *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    record = json.loads(out.strip().splitlines()[-1])
    assert record["ae_domain"] == "laptop"
    assert record["alsa_domain"] == "restaurant"


def test_failures_emit_machine_parseable_error_line(capsys, fixtures_dir, tmp_path):
    code, out, err = run_cli(capsys, "majority", "--data-dir", str(tmp_path / "nowhere"))
    assert code == 1
    error_line = json.loads(err.strip().splitlines()[-1])
    assert "error" in error_line

    code, out, err = run_cli(capsys, "train-alsa", "--lr", "-5",
                             *base_args(fixtures_dir, tmp_path)[2:])
    assert code == 1
    assert "error" in json.loads(err.strip().splitlines()[-1])


def test_config_file_with_flag_override(capsys, fixtures_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data_dir = {fixtures_dir}\ncheckpoint_dir = {tmp_path / 'ckpt'}\n"
        "embedding_dim = 8\nalsa_hidden = 4\nae_hidden = 3\nepochs = 5\nseed = 3\n"
        "dev_fraction = 0\nlr = 0.01\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "train-alsa", "--config", str(cfg), "--epochs", "1")
    assert code == 0, err
    log_lines = [line for line in out.strip().splitlines() if line.startswith("{")]
    assert len(log_lines) == 1  # override took effect


def test_config_file_errors_name_the_file_and_line_and_flags_do_not(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr = 0.01\nepochz = 3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "train-alsa", "--config", str(cfg))
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1]) == {"error": f"ConfigError: {cfg}: line 2: unknown config key 'epochz'"}
    cfg.write_text("lr = 0.01\nepochs = many\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "train-alsa", "--config", str(cfg))
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": f"ConfigError: {cfg}: line 2: config key 'epochs': cannot parse 'many' as int"}
    cfg.write_text("lr = 0.01\nepochs = 3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "train-alsa", "--config", str(cfg), "--epochs", "lots")
    assert json.loads(err.strip().splitlines()[-1]) == {"error": "ConfigError: config key 'epochs': cannot parse 'lots' as int"}


@pytest.mark.parametrize("text, problem", [
    ("epochs = 1\nlr = abc\n", "config key 'lr': cannot parse 'abc' as float"),
    ("lr = 0.01\nepochs = 1.5\n", "config key 'epochs': cannot parse '1.5' as int"),
])
def test_a_bad_config_line_is_refused_even_when_a_flag_sets_its_key(capsys, fixtures_dir, tmp_path, text, problem):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "train-alsa", "--config", str(cfg), *base_args(fixtures_dir, tmp_path))  # --lr, --epochs
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {"error": f"ConfigError: {cfg}: line 2: {problem}"}
    assert not (tmp_path / "ckpt").exists()  # nothing trained


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)  # the first block; the demos follow
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("absalab ")]
    assert len(commands) == 11
    for argv in commands:
        args = build_parser().parse_args(argv)  # argparse exits on an unknown flag or missing argument
        assert args.command == argv[0]
    subcommands, = (a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(subcommands)  # every subcommand has an example


def test_training_is_bit_identical_with_one_or_two_blas_threads(fixtures_dir, tmp_path):
    # Training calls only GEMVs, stacked GEMVs and small GEMMs, whose bits do not
    # depend on the BLAS thread count; a larger GEMM could, and would fail here.
    # TC-LSTM reads its LSTMs' last rows, multitask trains an LSTM's input.
    root = Path(__file__).resolve().parents[1]
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": str(root / "src")}
        for command in (["train-alsa", "--architecture", "atae"], ["train-alsa", "--architecture", "tclstm"],
                        ["train-alsa", "--task", "multitask"], ["train-ae"]):
            # no vector file: the fixture vocabulary gets seeded random 300-d rows
            proc = subprocess.run([sys.executable, "-m", "absalab", *command, "--data-dir", str(fixtures_dir),
                                   "--domain", "laptop", "--epochs", "2", "--checkpoint-dir", str(tmp_path / threads)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
    one, two = sorted((tmp_path / "1").iterdir()), sorted((tmp_path / "2").iterdir())
    assert [p.name for p in one] == [p.name for p in two]
    assert any(p.suffix == ".ckpt" for p in one) and any(p.name.endswith(".log.jsonl") for p in one)
    for a, b in zip(one, two):
        assert a.read_bytes() == b.read_bytes(), a.name
