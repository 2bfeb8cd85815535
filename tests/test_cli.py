import argparse
import ast
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from absalab import cli
from absalab.checkpoint import load_archive, save_archive
from absalab.cli import build_parser, main
from absalab.harness import ExperimentConfig


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
    code, out, err = run_cli(capsys, "ingest", "--train-xml", str(fixtures_dir / "laptop_train.xml"))
    assert code == 0, err
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary == {"split": "train", "sentences": 6, "samples": 5, "positive": 1, "negative": 3,
                       "neutral": 1, "sa": 3, "ma": 2}


def test_ingest_command_prints_one_line_per_split_of_a_domain(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "ingest", "--data-dir", str(fixtures_dir), "--domain", "laptop")
    assert code == 0, err
    assert [json.loads(line) for line in out.strip().splitlines()] == [
        {"split": "train", "sentences": 6, "samples": 5, "positive": 1, "negative": 3, "neutral": 1, "sa": 3, "ma": 2},
        {"split": "test", "sentences": 4, "samples": 4, "positive": 1, "negative": 2, "neutral": 1, "sa": 2, "ma": 2},
    ]


def test_ingest_command_refuses_a_domain_with_neither_split(capsys, tmp_path):
    code, out, err = run_cli(capsys, "ingest", "--data-dir", str(tmp_path), "--domain", "restaurant")
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "FileNotFoundError: no train or test file for domain 'restaurant'"}


def test_ingest_command_reads_no_vector_file(capsys, fixtures_dir, tmp_path, monkeypatch):
    from absalab import data, harness

    def refuse(*args, **kwargs):
        raise AssertionError("ingest opened a vector file")

    monkeypatch.setattr(data, "load_embeddings", refuse)
    monkeypatch.setattr(harness, "load_embeddings", refuse)
    short = tmp_path / "short.txt"
    short.write_text("the 0.1 0.2 0.3\nscreen 0.4 0.5\n", encoding="utf-8")
    outputs = []
    for vectors in ([], ["--embeddings-path", str(tmp_path / "missing.txt")], ["--embeddings-path", str(short)]):
        code, out, err = run_cli(capsys, "ingest", "--data-dir", str(fixtures_dir), "--domain", "laptop", *vectors)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0].count("\n") == 2 and outputs == [outputs[0]] * 3


def test_majority_command_names_the_line_of_a_short_vector(capsys, fixtures_dir, tmp_path):
    vectors = tmp_path / "short.txt"
    vectors.write_text("the 0.1 0.2 0.3\nscreen 0.4 0.5 0.6\nbattery 0.7 0.8\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "majority", "--data-dir", str(fixtures_dir), "--domain", "laptop",
                           "--embeddings-path", str(vectors))
    assert code == 1
    message = json.loads(err.strip().splitlines()[-1])["error"]
    assert "line 3: vector has 2 values, expected 3" in message


def test_ingest_command_error_names_file_and_sentence(capsys, tmp_path):
    xml = tmp_path / "bad.xml"
    xml.write_text("""<sentences><sentence id="s5"><text>hi there</text><aspectTerms>
      <aspectTerm term="hi" polarity="positive" from="x4" to="2"/></aspectTerms></sentence></sentences>""",
                   encoding="utf-8")
    code, _, err = run_cli(capsys, "ingest", "--train-xml", str(xml))
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

    # 2) export transfer rows for every split
    st_path = str(tmp_path / "laptop.st")
    code, out, err = run_cli(capsys, "export-st", "--checkpoint", ae_ckpt, "--out", st_path,
                             *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    cache = load_archive(st_path)
    assert sorted(cache) == ["lt1", "lt2", "lt3", "lt4", "lt5", "lt6", "lv1", "lv2", "lv3", "lv4"]
    assert all(m.shape[1] == 6 for m in cache.values())

    # 3) train the widened classifier against the cache
    code, out, err = run_cli(capsys, "train-alsa", "--input-mode", "transfer", "--st-cache-path", st_path,
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
    code, out, err = run_cli(capsys, "export-st", "--checkpoint", str(ae_ckpt),
                             "--out", str(st_path), *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    assert f"wrote 10 transfer matrices (width 6) to {st_path}" in out


def test_transfer_run_takes_its_width_from_the_one_archive_of_every_split(capsys, fixtures_dir, tmp_path):
    args = base_args(fixtures_dir, tmp_path, **{"--ae-hidden": "4"})  # no --transfer-dim: the rows set the width
    code, _, err = run_cli(capsys, "train-ae", *args)
    assert code == 0, err
    st_path = str(tmp_path / "laptop.st")
    code, _, err = run_cli(capsys, "export-st", "--checkpoint", str(tmp_path / "ckpt" / "ae_laptop.best.ckpt"),
                           "--out", st_path, *args)
    assert code == 0, err
    code, out, err = run_cli(capsys, "train-alsa", "--input-mode", "transfer", "--st-cache-path", st_path, *args)
    assert code == 0, err
    ckpt = out.strip().splitlines()[-1].split(": ", 1)[1]
    assert json.loads(Path(f"{ckpt}.meta.json").read_text(encoding="utf-8"))["transfer_dim"] == 8
    code, _, err = run_cli(capsys, "train-alsa", "--input-mode", "transfer", "--st-cache-path", st_path, *args,
                           "--transfer-dim", "8", "--checkpoint-dir", str(tmp_path / "given"))
    assert code == 0, err
    for written in (tmp_path / "given").iterdir():  # giving the rows' own width changes no byte
        assert written.read_bytes() == (tmp_path / "ckpt" / written.name).read_bytes(), written.name
    code, out, err = run_cli(capsys, "eval", "--checkpoint", ckpt, "--split", "test", "--st-cache-path", st_path, *args)
    assert code == 0, err
    assert json.loads(out.strip().splitlines()[-1])["count"] == 4
    dump_path = tmp_path / "attn.jsonl"
    code, _, err = run_cli(capsys, "dump-attention", "--checkpoint", ckpt, "--split", "test", "--out", str(dump_path),
                           "--st-cache-path", st_path, *args)
    assert code == 0, err
    assert len(dump_path.read_text(encoding="utf-8").splitlines()) == 4


@pytest.mark.parametrize("rows, problem", [
    ({}, "no rows"),
    ({"lt1": np.zeros((5, 6), np.float32), "lt2": np.zeros((4, 8), np.float32)}, "[(6,), (8,)]"),
])
def test_transfer_run_refuses_rows_without_one_width(capsys, fixtures_dir, tmp_path, rows, problem):
    st_path = tmp_path / "bad.st"
    save_archive(st_path, rows)
    code, out, err = run_cli(capsys, "train-alsa", "--input-mode", "transfer", "--st-cache-path", str(st_path),
                             *base_args(fixtures_dir, tmp_path))
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": f"ConfigError: {st_path}: transfer rows must be tokens x width with one width, got {problem}"}
    assert not (tmp_path / "ckpt").exists()  # nothing trained


@pytest.fixture(scope="module")
def six_wide(fixtures_dir, tmp_path_factory):
    """A laptop extractor with 6-wide transfer rows (ae_hidden 3) and its archive of both splits."""
    root = tmp_path_factory.mktemp("six_wide")
    ae_ckpt, st_path = root / "ckpt" / "ae_laptop.best.ckpt", root / "laptop.st"
    assert main(["train-ae", *base_args(fixtures_dir, root)]) == 0
    assert main(["export-st", "--checkpoint", str(ae_ckpt), "--out", str(st_path), *base_args(fixtures_dir, root)]) == 0
    return ae_ckpt, st_path


TRANSFER_T = ["train-alsa", "--input-mode", "transfer", "--st-cache-path", "ROWS"]
WIDTH_CASES = {  # case: (argv, where transfer_dim = 7 comes from, the sidecar's transfer_dim or None if refused)
    "flag": (TRANSFER_T, ["--transfer-dim", "7"], None),
    "config line": (TRANSFER_T, ["--config", "CFG"], None),
    "cross-domain": (["cross-domain", "--checkpoint", "AE", "--domain", "restaurant"], ["--transfer-dim", "7"], None),
    "grid-search": (["grid-search", "--grid", "input_mode=plain,transfer", "--st-cache-path", "ROWS"],
                    ["--transfer-dim", "7"], None),
    "the rows' width": (TRANSFER_T, ["--transfer-dim", "6"], 6),
    "noise unset": (["train-alsa", "--input-mode", "noise"], [], 64),
    "noise 7": (["train-alsa", "--input-mode", "noise"], ["--transfer-dim", "7"], 7),
}


@pytest.mark.parametrize("case", list(WIDTH_CASES))
def test_transfer_run_refuses_a_transfer_dim_and_a_noise_run_takes_it(capsys, fixtures_dir, tmp_path, six_wide, case):
    ae_ckpt, st_path = six_wide
    command, given, width = WIDTH_CASES[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("transfer_dim = 7\n", encoding="utf-8")
    ckpt = tmp_path / "ckpt"
    argv = [{"ROWS": str(st_path), "CFG": str(cfg), "AE": str(ae_ckpt)}.get(arg, arg) for arg in command + given]
    code, out, err = run_cli(capsys, *argv, *base_args(fixtures_dir, tmp_path))
    source = ae_ckpt if command[0] == "cross-domain" else st_path  # cross-domain makes its rows in memory
    refused = f"ConfigError: {source}: transfer rows are 6 wide, but transfer_dim is 7"
    if command[0] == "grid-search":  # the transfer point fails, the plain point trains
        assert code == 0, err
        rows = {row["params"]["input_mode"]: row for row in map(json.loads, out.splitlines())}
        assert {k: v for k, v in rows["transfer"].items() if k != "rank"} == {"params": {"input_mode": "transfer"},
                                                                             "error": refused}
        assert Path(rows["plain"]["best_checkpoint"]).exists()
        assert not list(ckpt.glob("*transfer*"))
    elif width is None:
        assert (code, out) == (1, "")
        assert json.loads(err.strip().splitlines()[-1]) == {"error": refused}
        assert not ckpt.exists()  # nothing trained
    else:
        assert code == 0, err
        written = out.strip().splitlines()[-1].split(": ", 1)[1]
        assert json.loads(Path(f"{written}.meta.json").read_text(encoding="utf-8"))["transfer_dim"] == width


def test_cli_raises_config_errors_only_for_grid_syntax():
    """Every config rule lives in the harness; the CLI checks only the syntax of --grid."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    grid_syntax = {id(node) for function in ast.walk(tree)
                   if isinstance(function, ast.FunctionDef) and function.name == "_cmd_grid_search"
                   for node in ast.walk(function)}
    raises = [node for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None and "ConfigError" in ast.unparse(node.exc)]
    assert raises and all(id(node) in grid_syntax for node in raises), [ast.unparse(node) for node in raises]


@pytest.mark.parametrize("task", ["alsa", "multitask"])
@pytest.mark.parametrize("command", ["export-st", "cross-domain"])
def test_transfer_rows_refuse_a_checkpoint_that_is_not_an_extractor(capsys, fixtures_dir, tmp_path, task, command):
    code, out, err = run_cli(capsys, "train-alsa", "--task", task, *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    trained = out.strip().splitlines()[-1].split(": ", 1)[1]
    ae_ckpt = tmp_path / "ckpt" / "ae_laptop.best.ckpt"
    ae_ckpt.write_bytes(Path(trained).read_bytes())
    Path(f"{ae_ckpt}.meta.json").write_bytes(Path(f"{trained}.meta.json").read_bytes())
    argv = {"export-st": ["--checkpoint", str(ae_ckpt), "--out", str(tmp_path / "rows.st")],
            "cross-domain": ["--checkpoint", str(ae_ckpt), "--domain", "restaurant"]}[command]
    code, out, err = run_cli(capsys, command, *argv, *base_args(fixtures_dir, tmp_path))
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": f"ValueError: {ae_ckpt}: transfer rows need an AE checkpoint, got task {task!r}"}
    assert not (tmp_path / "rows.st").exists()


def test_export_st_refuses_an_id_two_splits_give_different_tokens(capsys, fixtures_dir, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "laptop_train.xml").write_bytes((fixtures_dir / "laptop_train.xml").read_bytes())
    test_xml = (fixtures_dir / "laptop_test.xml").read_text(encoding="utf-8")
    (data / "laptop_test.xml").write_text(test_xml.replace('id="lv3"', 'id="lt3"'), encoding="utf-8")
    code, _, err = run_cli(capsys, "train-ae", *base_args(data, tmp_path))
    assert code == 0, err
    st_path = tmp_path / "laptop.st"
    code, out, err = run_cli(capsys, "export-st", "--checkpoint", str(tmp_path / "ckpt" / "ae_laptop.best.ckpt"),
                             "--out", str(st_path), *base_args(data, tmp_path))
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "ValueError: sentence id 'lt3' is given two different token sequences"}
    assert not st_path.exists()


def test_export_st_reads_whichever_split_is_there(capsys, fixtures_dir, tmp_path):
    code, _, err = run_cli(capsys, "train-ae", *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    ae_ckpt = str(tmp_path / "ckpt" / "ae_laptop.best.ckpt")
    st_path = tmp_path / "test_only.st"
    test_only = ["--train-xml", str(tmp_path / "absent.xml"), "--test-xml", str(fixtures_dir / "laptop_test.xml")]
    code, out, err = run_cli(capsys, "export-st", "--checkpoint", ae_ckpt, "--out", str(st_path),
                             *base_args(fixtures_dir, tmp_path), *test_only)
    assert code == 0, err
    assert sorted(load_archive(st_path)) == ["lv1", "lv2", "lv3", "lv4"]
    code, out, err = run_cli(capsys, "export-st", "--checkpoint", ae_ckpt, "--out", str(st_path),
                             *base_args(tmp_path / "nowhere", tmp_path))
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "FileNotFoundError: no train or test file for domain 'laptop'"}


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


@pytest.mark.parametrize("command", ["eval", "dump-attention", "export-st"])
def test_a_checkpoint_refuses_word_vectors_of_another_width(capsys, fixtures_dir, tmp_path, command):
    trainer = "train-ae" if command == "export-st" else "train-alsa"
    code, out, err = run_cli(capsys, trainer, *base_args(fixtures_dir, tmp_path))  # on 8-wide random rows
    assert code == 0, err
    ckpt = out.strip().splitlines()[-1].split(": ", 1)[1]
    written = tmp_path / "out"
    argv = [command, "--checkpoint", ckpt, *([] if command == "eval" else ["--out", str(written)])]
    vectors = {"--embeddings-path": str(fixtures_dir / "mini_vectors.txt")}  # 5 wide
    code, out, err = run_cli(capsys, *argv, *base_args(fixtures_dir, tmp_path, **vectors))
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": f"ValueError: {ckpt}.meta.json: embedding_dim is 8, but the word vectors are 5 wide"}
    assert not written.exists()


@pytest.mark.parametrize("command", ["eval", "dump-attention"])
def test_a_transfer_checkpoint_without_rows_names_itself_and_st_cache_path(capsys, fixtures_dir, tmp_path, six_wide,
                                                                          command):
    _, st_path = six_wide
    code, out, err = run_cli(capsys, "train-alsa", "--input-mode", "transfer", "--st-cache-path", str(st_path),
                             *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    ckpt = out.strip().splitlines()[-1].split(": ", 1)[1]
    argv = [command, "--checkpoint", ckpt, *([] if command == "eval" else ["--out", str(tmp_path / "attn.jsonl")]),
            *base_args(fixtures_dir, tmp_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": f"ConfigError: {ckpt}: a transfer checkpoint needs its transfer rows; set st_cache_path"}
    code, out, err = run_cli(capsys, *argv, "--st-cache-path", str(st_path))
    assert code == 0, err


def test_export_st_writes_one_archive_at_every_seed(capsys, fixtures_dir, tmp_path):
    # without a vector file each word's row comes from the word, so the extractor sees the rows it trained on
    code, _, err = run_cli(capsys, "train-ae", *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    archives = []
    for seed in ("0", "3"):
        st_path = tmp_path / f"seed{seed}.st"
        code, _, err = run_cli(capsys, "export-st", "--checkpoint", str(tmp_path / "ckpt" / "ae_laptop.best.ckpt"),
                               "--out", str(st_path), *base_args(fixtures_dir, tmp_path, **{"--seed": seed}))
        assert code == 0, err
        archives.append(st_path.read_bytes())
    assert archives[0] == archives[1]


def test_no_subcommand_takes_an_extractor_domain_flag():
    subcommands, = (a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert len(subcommands) == 9
    for name, parser in subcommands.items():  # cross-domain reads the domain from its --checkpoint's sidecar
        assert "--ae-domain" not in parser._option_string_actions, name
        with pytest.raises(SystemExit):
            parser.parse_args(["--ae-domain", "laptop"])


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
    code, _, err = run_cli(capsys, "train-ae", "--domain", "laptop", *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    code, out, err = run_cli(capsys, "cross-domain", "--checkpoint", str(tmp_path / "ckpt" / "ae_laptop.best.ckpt"),
                             "--domain", "restaurant", *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    assert "extractor laptop -> classifier restaurant" in out
    record = json.loads(out.strip().splitlines()[-1])
    assert record["ae_domain"] == "laptop"
    assert record["alsa_domain"] == "restaurant"
    assert (tmp_path / "ckpt" / "atae-t_restaurant_from_laptop.best.ckpt").exists()


@pytest.mark.parametrize("flag, value", [("--task", "ae"), ("--task", "multitask"), ("--input-mode", "noise"),
                                         ("--run-name", "mine"), ("--st-cache-path", "nowhere.st")])
def test_cross_domain_refuses_the_fields_it_sets_itself(capsys, fixtures_dir, tmp_path, six_wide, flag, value):
    ae_ckpt, _ = six_wide
    code, out, err = run_cli(capsys, "cross-domain", "--checkpoint", str(ae_ckpt), "--domain", "restaurant",
                             flag, value, *base_args(fixtures_dir, tmp_path))
    assert (code, out) == (1, "")
    key = flag[2:].replace("-", "_")
    assert json.loads(err.strip().splitlines()[-1])["error"].startswith(f"ConfigError: {key} = {value!r}: ")
    assert not (tmp_path / "ckpt").exists()  # nothing trained


@pytest.mark.parametrize("mode", ["plain", "transfer"])
def test_cross_domain_takes_an_input_mode_of_plain_or_transfer(capsys, fixtures_dir, tmp_path, six_wide, mode):
    ae_ckpt, _ = six_wide
    code, _, err = run_cli(capsys, "cross-domain", "--checkpoint", str(ae_ckpt), "--domain", "restaurant",
                           "--input-mode", mode, *base_args(fixtures_dir, tmp_path))
    assert code == 0, err
    assert (tmp_path / "ckpt" / "atae-t_restaurant_from_laptop.best.ckpt").exists()


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


def readme_commands() -> list[list[str]]:
    """The argv of each `absalab` line in README's command block, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)  # the first block; the demos follow
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("absalab ")]


def test_readme_command_lines_parse():
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        args = build_parser().parse_args(argv)  # argparse exits on an unknown flag or missing argument
        assert args.command == argv[0]
    subcommands, = (a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(subcommands)  # every subcommand has an example


def test_readme_examples_use_every_flag_of_their_subcommand():
    examples: dict[str, set[str]] = {}
    for argv in readme_commands():
        examples.setdefault(argv[0], set()).update(arg for arg in argv if arg.startswith("--"))
    mirrors = {"--config"} | {"--" + f.name.replace("_", "-") for f in dataclasses.fields(ExperimentConfig)}
    subcommands, = (a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in subcommands.items():
        own = {flag for action in parser._actions for flag in action.option_strings
               if flag.startswith("--") and flag not in mirrors | {"--help"}}
        assert own <= examples[name], (name, sorted(own - examples[name]))  # each flag shows in an example


def test_readme_commands_run_in_order_on_the_fixtures(capsys, fixtures_dir, tmp_path):
    places = {"data": str(fixtures_dir), "runs": str(tmp_path)}
    for argv in readme_commands():
        argv = [re.sub(r"^(data|runs)(?=/|$)", lambda m: places[m.group(1)], arg) for arg in argv]
        code, _, err = run_cli(capsys, *argv, *([] if argv[0] == "ingest" else ["--epochs", "1"]))
        assert code == 0, (argv, err)
    assert len(load_archive(tmp_path / "laptop.st")) == 10  # one archive of both splits
    assert (tmp_path / "atae_attention.jsonl").exists()


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
            # no vector file: the fixture vocabulary gets random 300-d rows drawn from each token
            proc = subprocess.run([sys.executable, "-m", "absalab", *command, "--data-dir", str(fixtures_dir),
                                   "--domain", "laptop", "--epochs", "2", "--checkpoint-dir", str(tmp_path / threads)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
    one, two = sorted((tmp_path / "1").iterdir()), sorted((tmp_path / "2").iterdir())
    assert [p.name for p in one] == [p.name for p in two]
    assert any(p.suffix == ".ckpt" for p in one) and any(p.name.endswith(".log.jsonl") for p in one)
    for a, b in zip(one, two):
        assert a.read_bytes() == b.read_bytes(), a.name
