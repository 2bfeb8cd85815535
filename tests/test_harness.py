import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from absalab.ae import AeModel
from absalab.alsa import InputMode
from absalab.checkpoint import load_archive, save_archive, save_checkpoint
from absalab.data import IngestError, Vocabulary, build_dataset, collect_tokens, parse_semeval, write_dataset_cache
from absalab.harness import (
    ConfigError,
    ExperimentConfig,
    corpus_span_f1,
    cross_domain_run,
    dataset_sentence_ids,
    dump_attention,
    evaluate,
    evaluate_samples,
    export_transfer_cache,
    fit,
    grid_search,
    load_domain,
    load_model,
    majority_report,
    parse_kv_file,
    stratified_dev_split,
    train,
    training_accuracy,
)
from absalab.metrics import macro_f1
from absalab.optim import AdamConfig, ParamStore
from absalab.synthetic import synthetic_alsa_samples
from absalab import alsa as alsa_mod
from absalab import harness


def tiny_config(fixtures_dir, tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        task="alsa", architecture="atae", domain="laptop",
        data_dir=str(fixtures_dir), checkpoint_dir=str(tmp_path / "ckpt"),
        embedding_dim=8, alsa_hidden=4, ae_hidden=3, epochs=2, seed=7,
        dev_fraction=0.0, lr=0.01,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -- config ---------------------------------------------------------------------------


def test_config_file_parsing_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "task = alsa\narchitecture = ian  # inline comment\nlr = 0.002\n"
        "# full-line comment\nepochs = 3\nrun_name = none\n",
        encoding="utf-8",
    )
    config = ExperimentConfig.from_mapping({**parse_kv_file(cfg_file), "lr": "0.005"})
    assert config.architecture == "ian"
    assert config.lr == 0.005
    assert config.epochs == 3
    assert config.run_name is None


def test_config_rejects_unknown_keys_and_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_mapping({"nope": "1"})
    with pytest.raises(ConfigError, match="cannot parse"):
        ExperimentConfig.from_mapping({"epochs": "many"})
    with pytest.raises(ConfigError, match="'epochs' must not be empty"):
        ExperimentConfig.from_mapping({"epochs": "none"})
    assert ExperimentConfig.from_mapping({"run_name": "restaurant"}).run_name == "restaurant"
    assert ExperimentConfig(transfer_dim=None).transfer_dim is None  # unset: the rows, or 64 for noise
    with pytest.raises(ConfigError):
        ExperimentConfig(task="paint")
    for key in ("lr", "l2_lambda"):
        for value in (-0.1, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match=f"^{key} must be finite and non-negative, got {value}$"):
                ExperimentConfig(**{key: value})
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="key = value"):
        parse_kv_file(bad)


def test_the_extractor_domain_is_not_a_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr = 0.01\nae_domain = laptop\n", encoding="utf-8")  # cross-domain reads it from the extractor
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}: line 2: unknown config key 'ae_domain'")):
        parse_kv_file(cfg)
    assert len(dataclasses.fields(ExperimentConfig)) == 20


def test_config_file_rejects_a_repeated_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr = 0.01\nepochs = 3\n\nlr = 0.02  # a second value\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}: line 4: key 'lr' repeats line 1")):
        parse_kv_file(cfg)


def test_config_file_errors_name_the_file_and_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr = 0.01\nepochz = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}: line 2: unknown config key 'epochz'")):
        ExperimentConfig.from_mapping(parse_kv_file(cfg))
    cfg.write_text("lr = 0.01\n# runs\n\nepochs = many\ndomain = restaurant\nrun_name =\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}: line 4: config key 'epochs': cannot parse 'many' as int")):
        ExperimentConfig.from_mapping(parse_kv_file(cfg))
    cfg.write_text("lr = 0.01\n# runs\n\nepochs = 4\ndomain = restaurant\nrun_name =\n", encoding="utf-8")
    # a value set outside the file (as a CLI flag does) is not the file's
    with pytest.raises(ConfigError, match=r"^config key 'epochs': cannot parse 'lots' as int$"):
        ExperimentConfig.from_mapping({**parse_kv_file(cfg), "epochs": "lots"})
    config = ExperimentConfig.from_mapping({**parse_kv_file(cfg), "epochs": "2"})
    assert (config.lr, config.epochs, config.domain, config.run_name) == (0.01, 2, "restaurant", None)
    assert type(config.domain) is str  # the value, not the line it came from
    for line, value in (("transfer_dim = 7", 7), ("transfer_dim = none", None)):  # an `int | None` field
        cfg.write_text(f"lr = 0.01\n{line}\n", encoding="utf-8")
        assert parse_kv_file(cfg) == {"lr": 0.01, "transfer_dim": value}
        assert type(parse_kv_file(cfg)["transfer_dim"]) is type(value)
    cfg.write_text("lr = 0.01\ntransfer_dim = 7.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}: line 2: config key 'transfer_dim': cannot parse '7.5' as int")):
        parse_kv_file(cfg)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_config_file_breaks_lines_only_at_newlines(tmp_path, newline):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(f"run_name = a\x85b{newline}epochz = 2{newline}".encode("utf-8"))
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}: line 2: unknown config key 'epochz'")):
        ExperimentConfig.from_mapping(parse_kv_file(cfg))
    for inner in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        cfg.write_bytes(f"run_name = a{inner}b{newline}".encode("utf-8"))
        assert ExperimentConfig.from_mapping(parse_kv_file(cfg)).run_name == f"a{inner}b"


def test_config_file_of_undecodable_bytes_names_the_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"lr = 0.01\nepochs = \xff3\n")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}: not UTF-8 text: invalid start byte at byte 19")):
        parse_kv_file(cfg)


@pytest.mark.parametrize("task", ["ae", "multitask"])
@pytest.mark.parametrize("input_mode", ["noise", "transfer"])
def test_config_rejects_input_modes_a_task_ignores(task, input_mode):
    with pytest.raises(ConfigError, match=f"task '{task}'.*input mode '{input_mode}'"):
        ExperimentConfig(task=task, input_mode=input_mode)


@pytest.mark.parametrize("key,value,low", [("epochs", -1, 0), ("ae_hidden", 0, 1), ("alsa_hidden", 0, 1),
                                           ("embedding_dim", 0, 1), ("transfer_dim", -3, 0), ("seed", -1, 0)])
def test_config_rejects_out_of_range_sizes(key, value, low):
    with pytest.raises(ConfigError, match=f"{key} must be at least {low}, got {value}"):
        ExperimentConfig(**{key: value})
    ExperimentConfig(**{key: low})  # the smallest accepted value


def test_config_names_encode_variant():
    assert ExperimentConfig(task="ae", domain="laptop").name == "ae_laptop"
    assert ExperimentConfig(architecture="ian", input_mode="noise", domain="restaurant").name == "ian-r_restaurant"
    assert ExperimentConfig(architecture="tclstm", input_mode="transfer").name == "tclstm-t_laptop"


def test_stratified_split_is_seeded_and_stratified():
    samples, _ = synthetic_alsa_samples(num_samples=30, seed=1)
    train_a, dev_a = stratified_dev_split(samples, 0.2, seed=5)
    train_b, dev_b = stratified_dev_split(samples, 0.2, seed=5)
    assert [s.sentence_id for s in dev_a] == [s.sentence_id for s in dev_b]
    assert len(dev_a) == 6  # 2 per class
    labels = [s.label for s in dev_a]
    assert sorted(set(labels)) == [0, 1, 2]
    assert len(train_a) + len(dev_a) == 30


# -- training ---------------------------------------------------------------------------


def test_train_writes_checkpoints_and_log(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path, dev_fraction=0.2, epochs=2)
    result = train(config)
    assert result.best_checkpoint.exists()
    assert result.final_checkpoint.exists()
    assert result.log_path.exists()
    lines = result.log_path.read_text().strip().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert set(record) >= {"epoch", "train_loss"}


@pytest.mark.parametrize("task", ["alsa", "ae", "multitask"])
def test_train_is_bit_identical_given_seed(fixtures_dir, tmp_path, task):
    config_a = tiny_config(fixtures_dir, tmp_path / "a", task=task, dev_fraction=0.2)
    config_b = tiny_config(fixtures_dir, tmp_path / "b", task=task, dev_fraction=0.2)
    result_a, result_b = train(config_a), train(config_b)
    assert result_a.best_checkpoint.read_bytes() == result_b.best_checkpoint.read_bytes()
    assert result_a.final_checkpoint.read_bytes() == result_b.final_checkpoint.read_bytes()
    assert result_a.log_path.read_text() == result_b.log_path.read_text()
    dev_key = "dev_span_f1" if task == "ae" else "dev_macro_f1"
    assert all(dev_key in record for record in result_a.log)


def test_train_lr_zero_keeps_parameters(fixtures_dir, tmp_path):
    for i, overrides in enumerate([dict(architecture="atae"),
                                   dict(architecture="tclstm", input_mode="noise", transfer_dim=3),
                                   dict(architecture="ian", l2_lambda=0.5, dev_fraction=0.4),
                                   dict(task="ae"), dict(task="multitask", dev_fraction=0.4)]):
        config = tiny_config(fixtures_dir, tmp_path / str(i), lr=0.0, epochs=3, **overrides)
        result = train(config)
        init_store = ParamStore()
        harness.build_model_from_meta(init_store, result.meta, load_domain(config)[1].matrix)
        for name, value in init_store.state_dict().items():  # tobytes: assert_array_equal takes -0.0 for 0.0
            assert result.store.value(name).tobytes() == value.tobytes(), (overrides, name)
            assert result.best_state[name].tobytes() == value.tobytes(), (overrides, name)


def quadratic_run(epochs, dev_scores):
    """`fit` on one 3-vector pulled toward zero; `dev_scores` gives each epoch's dev score, or is None."""
    store = ParamStore()
    w = store.param("w", np.arange(1, 4, dtype=np.float32))
    scores = iter(dev_scores or ())
    log, best_state, _ = fit(store, [0, 1], lambda _: (w * w).sum(), AdamConfig(lr=0.1), epochs, seed=0,
                             dev_key="dev", dev_score=(lambda: next(scores)) if dev_scores else None)
    return store, log, best_state


@pytest.mark.parametrize("epochs, dev_scores", [(1, [1.0]), (1, None), (2, None)])
def test_fit_returns_the_store_arrays_when_the_last_epoch_is_best(epochs, dev_scores):
    store, _, best_state = quadratic_run(epochs, dev_scores)
    assert np.shares_memory(best_state["w"], store.value("w"))


def test_fit_copies_the_best_state_only_while_a_later_epoch_can_change_it():
    store, log, best_state = quadratic_run(2, [2.0, 1.0])
    assert [record.get("best", False) for record in log] == [True, False]
    _, _, after_one = quadratic_run(1, None)
    assert not np.shares_memory(best_state["w"], store.value("w"))
    assert best_state["w"].tobytes() == after_one["w"].tobytes()
    assert best_state["w"].tobytes() != store.value("w").tobytes()
    store, log, best_state = quadratic_run(2, [1.0, 2.0])  # a copy at epoch 1, then the store's own arrays
    assert [record.get("best", False) for record in log] == [True, True]
    assert np.shares_memory(best_state["w"], store.value("w"))


def test_the_final_checkpoint_is_the_store_after_training(fixtures_dir, tmp_path):
    assert "final_state" not in {f.name for f in dataclasses.fields(harness.TrainResult)}
    result = train(tiny_config(fixtures_dir, tmp_path, dev_fraction=0.2, epochs=2))
    save_archive(tmp_path / "store.ckpt", {name: result.store.value(name) for name in result.store.names()})
    assert result.final_checkpoint.read_bytes() == (tmp_path / "store.ckpt").read_bytes()


def test_train_missing_inputs_fail_before_training(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path, domain="cruise")
    with pytest.raises(FileNotFoundError):
        train(config)
    config2 = tiny_config(fixtures_dir, tmp_path, input_mode="transfer")
    with pytest.raises(ConfigError, match="st_cache_path"):
        train(config2)


@pytest.mark.parametrize("task, problem", [
    ("alsa", "no classification samples in the training data"),
    ("multitask", "no sentences with both tagging gold and a classification sample in the training data"),
])
def test_train_refuses_training_data_without_samples(fixtures_dir, tmp_path, task, problem):
    # aspect-free sentences have tagging gold (all O) but no classification sample
    data = tmp_path / "data"
    data.mkdir()
    (data / "laptop_train.xml").write_text(
        '<sentences><sentence id="a1"><text>Great laptop overall.</text></sentence>'
        '<sentence id="a2"><text>The price was okay.</text></sentence></sentences>', encoding="utf-8")
    with pytest.raises(ConfigError, match=problem):
        train(tiny_config(data, tmp_path, task=task))
    assert not (tmp_path / "ckpt").exists()  # no untrained checkpoint


def test_load_domain_without_test_split(fixtures_dir, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "laptop_train.xml").write_bytes((fixtures_dir / "laptop_train.xml").read_bytes())
    config = tiny_config(data, tmp_path, epochs=1)
    assert train(config).final_checkpoint.exists()
    datasets, _ = load_domain(config, require=("train",))
    assert set(datasets) == {"train"}
    for require in (("test",), ("train", "test")):
        with pytest.raises(FileNotFoundError, match=re.escape(str(data / "laptop_test.xml"))):
            load_domain(config, require=require)
    (data / "laptop_train.xml").write_text("<sentences><sentence></sentences>", encoding="utf-8")
    with pytest.raises(IngestError, match=re.escape(f"{data / 'laptop_train.xml'}: malformed XML")):
        load_domain(config, require=("train",))


def test_load_domain_refuses_an_empty_vector_file(fixtures_dir, tmp_path):
    vectors = tmp_path / "empty.txt"
    vectors.write_text("", encoding="utf-8")
    config = tiny_config(fixtures_dir, tmp_path, embeddings_path=str(vectors))
    with pytest.raises(IngestError, match=f"^{re.escape(str(vectors))}: no vectors to take the width from$"):
        load_domain(config)


def test_load_domain_tokenizes_each_sentence_once(fixtures_dir, tmp_path, monkeypatch):
    from absalab import data

    calls = []
    tokenize = data.tokenize
    monkeypatch.setattr(data, "tokenize", lambda text: calls.append(text) or tokenize(text))
    datasets, _ = load_domain(tiny_config(fixtures_dir, tmp_path))
    sentences = [s.text for split in ("train", "test") for s in datasets[split].sentences]
    assert sentences and calls == sentences


def test_train_and_eval_splits_share_one_vocabulary(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path)
    train_sets, train_vocab = load_domain(config, require=("train",))
    eval_sets, eval_vocab = load_domain(config, require=("test",))
    assert set(train_sets) == set(eval_sets) == {"train", "test"}
    assert train_vocab.token_to_id == eval_vocab.token_to_id
    npt.assert_array_equal(train_vocab.matrix, eval_vocab.matrix)
    seen = {t.text for s in train_sets["train"].sentences for t in s.tokens}
    test_only = {t.text for s in train_sets["test"].sentences for t in s.tokens} - seen
    assert test_only and all(train_vocab.id_of(t) != train_vocab.unk_id for t in test_only)


def test_a_token_of_both_fixture_domains_has_one_row_in_both_vocabularies(fixtures_dir, tmp_path):
    # without a vector file each row is drawn from its token: not from the domain's token set, nor the seed
    (_, laptop), (_, restaurant) = (load_domain(tiny_config(fixtures_dir, tmp_path, domain=domain, seed=seed))
                                    for domain, seed in (("laptop", 0), ("restaurant", 3)))
    shared = sorted(set(laptop.token_to_id) & set(restaurant.token_to_id))
    assert len(shared) >= 5 and len(laptop) != len(restaurant)
    for token in shared:
        npt.assert_array_equal(laptop.matrix[laptop.id_of(token)], restaurant.matrix[restaurant.id_of(token)])
    npt.assert_array_equal(laptop.matrix[laptop.unk_id], restaurant.matrix[restaurant.unk_id])


def test_corpus_span_f1_examples():
    # zero weights give zero BiGRU states and emissions, so the CRF tables alone fix the path B I O O
    store = ParamStore()
    model = AeModel.create(store, np.zeros((1, 2)), hidden_dim=2, rng=np.random.default_rng(0), dtype=np.float64)
    model.crf.emission_weight.data[...] = 0.0
    for cell in (model.gru_fwd, model.gru_bwd):
        for t in (cell.w, cell.u, cell.b):
            t.data[...] = 0.0
    model.crf.start.data[...] = [5.0, 0.0, 0.0]
    model.crf.transitions.data[...] = [[0.0, 5.0, 0.0], [0.0, 0.0, 5.0], [0.0, 0.0, 5.0]]
    ids = [0, 0, 0, 0]
    assert corpus_span_f1(model, [(ids, ["B", "I", "O", "O"])]) == 100.0
    assert corpus_span_f1(model, [(ids, ["O", "O", "O", "O"])]) == 0.0
    assert corpus_span_f1(model, [(ids, ["B", "O", "O", "O"])]) == 0.0  # exact match only
    assert corpus_span_f1(model, [(ids, ["B", "I", "O", "B"])]) == pytest.approx(200 / 3)
    # aggregated over the corpus: 1 hit of 2 predicted and 1 gold span
    assert corpus_span_f1(model, [(ids, ["B", "I", "O", "O"]), (ids, ["O"] * 4)]) == pytest.approx(200 / 3)


def test_train_ae_task_and_multitask(fixtures_dir, tmp_path):
    ae_result = train(tiny_config(fixtures_dir, tmp_path, task="ae", epochs=1))
    assert ae_result.meta["task"] == "ae"
    assert ae_result.meta["transfer_dim"] == 6
    mt_result = train(tiny_config(fixtures_dir, tmp_path, task="multitask", epochs=1))
    assert mt_result.meta["task"] == "multitask"


@pytest.mark.parametrize("dev_fraction", [0.0, 0.2])
def test_tagging_split_order_reaches_fit(fixtures_dir, tmp_path, monkeypatch, dev_fraction):
    """ae permutes its items with seed + 1 even without a dev slice; multitask
    keeps its order then; at a dev fraction both train on the same cut."""

    class Stop(Exception):
        pass

    def record(store, items, *args):
        received.append(list(items))
        raise Stop

    received = []
    monkeypatch.setattr(harness, "fit", record)
    config = tiny_config(fixtures_dir, tmp_path, dev_fraction=dev_fraction)
    datasets, vocab = load_domain(config, require=("train",))
    train_set = datasets["train"]
    ae_items = [(vocab.ids(t.text for t in s.tokens), s.bio) for s in train_set.sentences if s.bio and s.tokens]
    mt_items = harness._multitask_items(train_set)
    for task, items in (("ae", ae_items), ("multitask", mt_items)):
        with pytest.raises(Stop):
            train(dataclasses.replace(config, task=task))
        order = np.random.default_rng(config.seed + 1).permutation(len(items))
        if dev_fraction:
            want = [items[i] for i in order[: max(1, int(len(items) * (1 - dev_fraction)))]]
        else:
            want = [items[i] for i in order] if task == "ae" else items
        assert len(items) > 2 and received.pop() == want


def test_overfit_small_synthetic_set_quickly():
    samples, vocab = synthetic_alsa_samples(num_samples=12, seed=3)
    store = ParamStore()
    from absalab.alsa import create_alsa_model

    model = create_alsa_model(store, "atae", d_in=vocab.dim, hidden=8, rng=np.random.default_rng(0))
    mode = InputMode.plain()
    fit(store, samples, lambda s: alsa_mod.alsa_loss(model, s, mode, vocab.matrix), AdamConfig(lr=0.01),
        epochs=30, seed=0)
    assert training_accuracy(model, samples, mode, vocab.matrix) == 1.0


# -- evaluation ---------------------------------------------------------------------------


def test_evaluate_is_pure_and_slices_partition(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path)
    result = train(config)
    datasets, vocab = load_domain(config)
    report_a = evaluate(result.best_checkpoint, datasets["test"].samples, vocab.matrix)
    report_b = evaluate(result.best_checkpoint, datasets["test"].samples, vocab.matrix)
    assert report_a.to_record() == report_b.to_record()
    assert report_a.count == 4
    assert report_a.sa_count + report_a.ma_count == report_a.count
    assert report_a.extras["architecture"] == "atae"


def test_evaluate_rejects_ae_checkpoints(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path, task="ae", epochs=1)
    result = train(config)
    datasets, vocab = load_domain(config)
    with pytest.raises(ValueError, match="span F1"):
        evaluate(result.best_checkpoint, datasets["test"].samples, vocab.matrix)


def test_load_model_rejects_checkpoint_missing_a_parameter(tmp_path):
    store = ParamStore()
    alsa_mod.create_alsa_model(store, "atae", d_in=4, hidden=3, rng=np.random.default_rng(0))
    meta = {"task": "alsa", "architecture": "atae", "d_in": 4, "hidden": 3, "seed": 0}
    partial = store.state_dict()
    del partial["alsa/attention/bias"]
    # a checkpoint from before the gate weights were stacked: per-gate entries
    per_gate = store.state_dict()
    del per_gate["alsa/lstm/w"], per_gate["alsa/lstm/u"], per_gate["alsa/lstm/b"]
    per_gate.update({"alsa/lstm/w_in": np.zeros((8, 3), dtype=np.float32),
                     "alsa/lstm/u_in": np.zeros((3, 3), dtype=np.float32)})
    for values, problem in [(partial, "missing parameter 'alsa/attention/bias'"),
                            (per_gate, "unknown parameter 'alsa/lstm/w_in'")]:
        path = tmp_path / "partial.ckpt"
        save_checkpoint(path, values, meta)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {problem}")):
            load_model(path, np.zeros((2, 4), dtype=np.float32))


SIDECAR_FAULTS = {
    "missing-field": (lambda meta: meta.pop("hidden"), "missing field 'hidden'"),
    "mistyped-field": (lambda meta: meta.update(hidden="3"), "'str' object cannot be interpreted as an integer"),
    "unknown-task": (lambda meta: meta.update(task="tagging"), "cannot rebuild model for task 'tagging'"),
    "unknown-input-mode": (lambda meta: meta.update(input_mode="nois"), "unknown input_mode 'nois'"),
}


@pytest.mark.parametrize("fault", sorted(SIDECAR_FAULTS))
def test_load_model_sidecar_errors_name_the_sidecar(tmp_path, fault):
    store = ParamStore()
    alsa_mod.create_alsa_model(store, "atae", d_in=4, hidden=3, rng=np.random.default_rng(0))
    meta = {"task": "alsa", "architecture": "atae", "d_in": 4, "hidden": 3, "seed": 0}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store.state_dict(), meta)  # no input_mode: plain
    load_model(path, np.zeros((2, 4), dtype=np.float32))
    edit, problem = SIDECAR_FAULTS[fault]
    edit(meta)
    save_checkpoint(path, store.state_dict(), meta)
    with pytest.raises(ValueError, match=re.escape(f"{path}.meta.json: {problem}")):
        load_model(path, np.zeros((2, 4), dtype=np.float32))


def test_alsa_checkpoint_takes_its_input_width_from_the_vocabulary(fixtures_dir, tmp_path):
    # trained on 8-wide word vectors, loaded against 16-wide ones
    result = train(tiny_config(fixtures_dir, tmp_path, architecture="ian", epochs=0))
    assert "d_in" not in result.meta
    path = result.best_checkpoint
    load_model(path, np.zeros((2, 8), dtype=np.float32))
    with pytest.raises(ValueError, match=re.escape(f"{path}.meta.json: embedding_dim is 8, but the word vectors "
                                                   "are 16 wide")):
        load_model(path, np.zeros((2, 16), dtype=np.float32))
    sidecar = Path(f"{path}.meta.json")  # without embedding_dim, the parameter shapes are checked
    sidecar.write_text(json.dumps({k: v for k, v in result.meta.items() if k != "embedding_dim"}), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: shape mismatch for 'alsa/lstm_aspect/w'")):
        load_model(path, np.zeros((2, 16), dtype=np.float32))


CELL = ("w", "u", "b")
CRF = ("emission_weight", "emission_bias", "transitions", "start", "end")
ATTENTION = ("proj", "bias", "score")
HEAD = ("weight", "bias")


def _scoped(scope: str, *layers: tuple[str, tuple[str, ...]]) -> list[str]:
    return [f"{scope}/{layer}/{field}" for layer, fields in layers for field in fields]


# The entry names and their order are part of the checkpoint format.
CHECKPOINT_NAMES = {
    "ae": _scoped("ae", ("gru_fwd", CELL), ("gru_bwd", CELL), ("crf", CRF)),
    "tclstm": _scoped("alsa", ("lstm_left", CELL), ("lstm_right", CELL), ("head", HEAD)),
    "atae": _scoped("alsa", ("lstm", CELL), ("attention", ATTENTION), ("head", HEAD)),
    "ian": _scoped("alsa", ("lstm_aspect", CELL), ("lstm_sentence", CELL), ("attn_aspect", ATTENTION),
                   ("attn_sentence", ATTENTION), ("head", HEAD)),
    "multitask": _scoped("multitask", ("gru_fwd", CELL), ("gru_bwd", CELL), ("crf", CRF), ("lstm", CELL),
                         ("attention", ATTENTION), ("head", HEAD)),
}


@pytest.mark.parametrize("model", sorted(CHECKPOINT_NAMES))
def test_checkpoint_parameter_names_are_pinned(model, fixtures_dir, tmp_path):
    task = model if model in ("ae", "multitask") else "alsa"
    result = train(tiny_config(fixtures_dir, tmp_path, task=task, architecture=model, epochs=0))
    assert list(load_archive(result.final_checkpoint)) == CHECKPOINT_NAMES[model]


def test_loaded_model_reproduces_training_predictions(fixtures_dir, tmp_path):
    # the vocabulary must be rebuilt over the same splits training saw, or the
    # ids of the random word rows (no-embedding-file mode) would not line up
    config = tiny_config(fixtures_dir, tmp_path)
    result = train(config)
    datasets, vocab = load_domain(config)
    samples = datasets["test"].samples
    model, _, _ = load_model(result.final_checkpoint, vocab.matrix)
    direct = [alsa_mod.predict_label(result.model, s, InputMode.plain(), vocab.matrix) for s in samples]
    loaded = [alsa_mod.predict_label(model, s, InputMode.plain(), vocab.matrix) for s in samples]
    assert direct == loaded


# -- grid search -------------------------------------------------------------------------------


def test_grid_single_point_equals_single_train(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path / "grid", dev_fraction=0.2)
    rows = grid_search(config, {"lr": [0.01]})
    assert len(rows) == 1
    single = train(dataclasses.replace(config, lr=0.01))
    assert rows[0]["dev_macro_f1"] == pytest.approx(single.best_dev)


def test_grid_points_keep_their_own_checkpoints(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path / "grid", dev_fraction=0.2, epochs=1)
    rows = grid_search(config, {"lr": [0.01, 0.02]})
    by_lr = {row["params"]["lr"]: row for row in rows}
    assert by_lr[0.01]["name"] == "atae_laptop_lr=0.01" and by_lr[0.02]["name"] == "atae_laptop_lr=0.02"
    assert len({row["best_checkpoint"] for row in rows}) == 2
    for lr, row in by_lr.items():
        single = train(dataclasses.replace(config, lr=lr, checkpoint_dir=str(tmp_path / f"single-{lr}")))
        grid_values, single_values = load_archive(row["best_checkpoint"]), load_archive(single.best_checkpoint)
        assert grid_values.keys() == single_values.keys()
        assert all(grid_values[k].tobytes() == single_values[k].tobytes() for k in grid_values)
        grid_log = Path(row["best_checkpoint"]).with_name(f"{row['name']}.log.jsonl")
        assert grid_log.read_bytes() == single.log_path.read_bytes()


def test_grid_cartesian_size_and_ranking(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path / "grid2", dev_fraction=0.2, epochs=1)
    rows = grid_search(config, {"lr": [0.01, 0.02], "l2_lambda": [0.0, 0.001]})
    assert len(rows) == 4
    devs = [r.get("dev_macro_f1") for r in rows if "error" not in r]
    assert devs == sorted(devs, reverse=True)
    # ties (likely on this tiny fixture) must break toward lower l2 then lower lr
    for first, second in zip(rows, rows[1:]):
        if "error" in first or "error" in second:
            continue
        if first["dev_macro_f1"] == second["dev_macro_f1"]:
            key_a = (first["params"]["l2_lambda"], first["params"]["lr"])
            key_b = (second["params"]["l2_lambda"], second["params"]["lr"])
            assert key_a <= key_b


def test_grid_records_failures_without_aborting(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path / "grid3", dev_fraction=0.2, epochs=1)
    rows = grid_search(config, {"lr": [0.01, -1.0, "nan"]})
    assert len(rows) == 3
    errors = [r["error"] for r in rows if "error" in r]
    assert sorted(errors) == [f"ConfigError: lr must be finite and non-negative, got {v}" for v in ("-1.0", "nan")]
    assert rows[0].get("dev_macro_f1") is not None  # healthy row ranks first


def test_grid_rows_name_the_runs_dev_metric(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path / "grid5", task="ae", dev_fraction=0.3, epochs=1)
    rows = grid_search(config, {"lr": [0.01, 0.05]})
    for row in rows:
        log_path = Path(row["best_checkpoint"]).with_name(f"{row['name']}.log.jsonl")
        log = [json.loads(line) for line in log_path.read_text(encoding="utf-8").splitlines()]
        assert "dev_macro_f1" not in row
        assert row["dev_span_f1"] == max(record["dev_span_f1"] for record in log)


def _counting_load_domain(monkeypatch) -> list:
    calls = []

    def counting(config, *args, real=harness.load_domain, **kwargs):
        calls.append(config)
        return real(config, *args, **kwargs)

    monkeypatch.setattr(harness, "load_domain", counting)
    return calls


@pytest.mark.parametrize("vectors, grid, loads", [
    (False, {"lr": [0.01, 0.02], "l2_lambda": [0.0, 0.001]}, 1),
    (False, {"seed": [3, 5], "lr": [0.01, 0.02]}, 1),  # random word rows are drawn from the token alone
    (True, {"seed": [3, 5], "lr": [0.01, 0.02]}, 1),
])
def test_grid_loads_once_per_setting_of_the_data_fields(fixtures_dir, tmp_path, monkeypatch, vectors, grid, loads):
    overrides = {"embeddings_path": str(fixtures_dir / "mini_vectors.txt")} if vectors else {}
    config = tiny_config(fixtures_dir, tmp_path / "grid", dev_fraction=0.2, epochs=1, **overrides)
    calls = _counting_load_domain(monkeypatch)
    rows = grid_search(config, grid)
    assert len(calls) == loads
    assert not any("error" in row for row in rows)


@pytest.mark.parametrize("grid", [
    {"lr": [0.001, 0.002], "l2_lambda": [1e-6, 0.001]},  # the README's grid
    {"seed": [3, 5]},
])
def test_grid_points_match_single_runs_byte_for_byte(fixtures_dir, tmp_path, grid):
    config = tiny_config(fixtures_dir, tmp_path / "grid", dev_fraction=0.2, epochs=2)
    rows = grid_search(config, grid)
    ranked = []
    for row in rows:
        single = train(dataclasses.replace(config, **row["params"], run_name=row["name"],
                                           checkpoint_dir=str(tmp_path / "single")))
        ranked.append((single.best_dev, row["params"].get("l2_lambda", config.l2_lambda),
                       row["params"].get("lr", config.lr)))
        assert row == {"params": row["params"], "dev_macro_f1": single.best_dev, "name": row["name"],
                       "best_checkpoint": str(tmp_path / "grid" / "ckpt" / f"{row['name']}.best.ckpt")}
        for kind in ("best.ckpt", "final.ckpt", "log.jsonl"):
            grid_file = tmp_path / "grid" / "ckpt" / f"{row['name']}.{kind}"
            assert grid_file.read_bytes() == (tmp_path / "single" / f"{row['name']}.{kind}").read_bytes()
    assert ranked == sorted(ranked, key=lambda item: (-item[0], item[1], item[2]))


def test_grid_gives_a_failed_load_to_every_point_of_its_setting(fixtures_dir, tmp_path, monkeypatch):
    config = tiny_config(tmp_path / "no-data", tmp_path / "grid", epochs=1)
    calls = _counting_load_domain(monkeypatch)
    rows = grid_search(config, {"lr": [0.01, -1.0, 0.02]})
    missing = f"FileNotFoundError: missing dataset file {tmp_path / 'no-data' / 'laptop_train.xml'}"
    assert sorted(row["error"] for row in rows) == [
        "ConfigError: lr must be finite and non-negative, got -1.0", missing, missing]  # its own error first
    assert len(calls) == 1


def test_grid_requires_nonempty_grid(fixtures_dir, tmp_path):
    with pytest.raises(ConfigError):
        grid_search(tiny_config(fixtures_dir, tmp_path), {})


def test_grid_rejects_a_key_without_values(fixtures_dir, tmp_path):
    with pytest.raises(ConfigError, match="grid key 'lr' has no values"):
        grid_search(tiny_config(fixtures_dir, tmp_path), {"l2_lambda": [0.0], "lr": []})
    assert not (tmp_path / "ckpt").exists()  # nothing trained


@pytest.mark.parametrize("grid, error", [
    ({"lr": ["0.001", "1e-3"]}, "grid key 'lr' gives the setting 0.001 more than once"),
    ({"epochs": [1, "01"]}, "grid key 'epochs' gives the setting 1 more than once"),
    ({"lr": [0.01], "l2_lambda": ["0", "-0.0"]}, "grid key 'l2_lambda' gives the setting -0.0 more than once"),
    ({"lr": [0.01], "lrr": [0.01]}, "unknown config key 'lrr'"),
    ({"transfer_dim": ["7", "07"]}, "grid key 'transfer_dim' gives the setting 7 more than once"),
    ({"transfer_dim": ["none", "null"]}, "grid key 'transfer_dim' gives the setting None more than once"),
    ({"transfer_dim": ["7.5"]}, "config key 'transfer_dim': cannot parse '7.5' as int"),
])
def test_grid_refuses_a_bad_grid_before_training(fixtures_dir, tmp_path, grid, error):
    with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
        grid_search(tiny_config(fixtures_dir, tmp_path), grid)
    assert not (tmp_path / "ckpt").exists()  # nothing trained


def test_paper_optimum_is_a_representable_grid_point(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path / "grid4", dev_fraction=0.2, epochs=1)
    rows = grid_search(config, {"lr": [0.001], "l2_lambda": [0.001]})
    assert rows[0]["params"] == {"lr": 0.001, "l2_lambda": 0.001}


# -- transfer and cross-domain ---------------------------------------------------------------


def test_transfer_pipeline_in_memory(fixtures_dir, tmp_path):
    ae_config = tiny_config(fixtures_dir, tmp_path, task="ae", epochs=1)
    ae_result = train(ae_config)
    datasets, vocab = load_domain(ae_config)
    cache = export_transfer_cache(ae_result.model, dataset_sentence_ids(datasets["train"], vocab))
    assert all(matrix.shape[1] == 6 for matrix in cache.values())
    t_config = tiny_config(fixtures_dir, tmp_path, input_mode="transfer", epochs=1)
    result = train(t_config, st_source=cache)
    assert result.meta["input_mode"] == "transfer"
    assert result.meta["transfer_dim"] == 6  # the rows' width; transfer_dim is unset
    assert result.model.lstm.input_dim == 2 * 14  # word and aspect rows, each 8 + 6 wide
    cache["lt1"] = np.zeros((len(cache["lt1"]), 5), np.float32)
    with pytest.raises(ConfigError, match=re.escape("st_source: transfer rows must be tokens x width with one "
                                                    "width, got [(5,), (6,)]")):
        train(t_config, st_source=cache)


def test_a_repeated_sentence_id_exports_once_and_only_with_the_same_tokens(rng, monkeypatch):
    model = AeModel.create(ParamStore(), rng.standard_normal((6, 4)).astype(np.float32), hidden_dim=2,
                           rng=np.random.default_rng(0))
    calls = []
    export = harness.ae_mod.export_transfer
    monkeypatch.setattr(harness.ae_mod, "export_transfer", lambda m, ids: calls.append(tuple(ids)) or export(m, ids))
    rows = export_transfer_cache(model, [("a", (1, 2)), ("b", [3]), ("a", [1, 2])])
    assert list(rows) == ["a", "b"] and calls == [(1, 2), (3,)]
    with pytest.raises(ValueError, match="^sentence id 'a' is given two different token sequences$"):
        export_transfer_cache(model, [("a", (1, 2)), ("a", (1, 3))])


def test_cross_domain_run_all_twelve_cells(fixtures_dir, tmp_path):
    # train one tiny extractor per domain, then run 4 pairings x 3 architectures
    for domain in ("laptop", "restaurant"):
        train(tiny_config(fixtures_dir, tmp_path, task="ae", domain=domain, epochs=1))
    reports = {}
    for architecture in ("tclstm", "atae", "ian"):
        for ae_domain in ("laptop", "restaurant"):
            for alsa_domain in ("laptop", "restaurant"):
                config = tiny_config(fixtures_dir, tmp_path, epochs=1, architecture=architecture, domain=alsa_domain)
                extractor = tmp_path / "ckpt" / f"ae_{ae_domain}.best.ckpt"
                report = reports[(architecture, ae_domain, alsa_domain)] = cross_domain_run(config, extractor)
                assert report.extras["ae_domain"] == ae_domain
                assert report.extras["alsa_domain"] == alsa_domain
                assert report.extras["architecture"] == architecture
    assert len(reports) == 12
    schemas = {tuple(sorted(r.to_record())) for r in reports.values()}
    assert len(schemas) == 1  # identical report schema across cells


def test_cross_domain_run_loads_its_domain_once(fixtures_dir, tmp_path, monkeypatch):
    from absalab import harness

    vectors = dict(embeddings_path=str(fixtures_dir / "mini_vectors.txt"), embedding_dim=5)
    train(tiny_config(fixtures_dir, tmp_path, task="ae", domain="laptop", epochs=1, **vectors))
    parsed, scans = [], []
    read_semeval, load_embeddings = harness.read_semeval, harness.load_embeddings
    monkeypatch.setattr(harness, "read_semeval", lambda path: parsed.append(path) or read_semeval(path))
    monkeypatch.setattr(harness, "load_embeddings", lambda *a, **k: scans.append(a[0]) or load_embeddings(*a, **k))
    cross_domain_run(tiny_config(fixtures_dir, tmp_path, epochs=1, domain="restaurant", **vectors),
                     tmp_path / "ckpt" / "ae_laptop.best.ckpt")
    assert sorted(p.name for p in parsed) == ["restaurant_test.xml", "restaurant_train.xml"]
    assert len(scans) == 1


def test_cross_domain_missing_checkpoint_errors(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path / "empty", domain="restaurant")
    missing = tmp_path / "ae_laptop.best.ckpt"
    with pytest.raises(FileNotFoundError, match=f"^missing AE checkpoint {re.escape(str(missing))}$"):
        cross_domain_run(config, missing)
    with pytest.raises(ConfigError, match="^cross-domain runs need checkpoint_dir$"):  # the classifier's go there
        cross_domain_run(dataclasses.replace(config, checkpoint_dir=None), missing)
    assert not (tmp_path / "empty").exists()


def test_cross_domain_run_takes_the_extractor_domain_from_its_sidecar(fixtures_dir, tmp_path):
    train(tiny_config(fixtures_dir, tmp_path / "ae", task="ae", domain="laptop", epochs=1))
    extractor = tmp_path / "extractor.ckpt"  # any name: the sidecar says which domain it learned
    extractor.write_bytes((tmp_path / "ae" / "ckpt" / "ae_laptop.best.ckpt").read_bytes())
    meta = json.loads((tmp_path / "ae" / "ckpt" / "ae_laptop.best.ckpt.meta.json").read_text(encoding="utf-8"))
    sidecar = Path(f"{extractor}.meta.json")
    sidecar.write_text(json.dumps(meta), encoding="utf-8")
    config = tiny_config(fixtures_dir, tmp_path, epochs=1, domain="restaurant")
    report = cross_domain_run(config, extractor)
    assert (report.extras["ae_domain"], report.extras["alsa_domain"]) == ("laptop", "restaurant")
    written = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
    assert written == [f"atae-t_restaurant_from_laptop.{kind}" for kind in
                       ("best.ckpt", "best.ckpt.meta.json", "final.ckpt", "final.ckpt.meta.json", "log.jsonl")]
    assert "ae_domain" not in json.loads((tmp_path / "ckpt" / written[1]).read_text(encoding="utf-8"))
    del meta["domain"]
    sidecar.write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(sidecar))}: missing field 'domain'$"):
        cross_domain_run(dataclasses.replace(config, checkpoint_dir=str(tmp_path / "refused")), extractor)
    assert not (tmp_path / "refused").exists()  # nothing trained


# -- attention dumps -----------------------------------------------------------------------------


def test_dump_attention_records(tmp_path):
    samples, vocab = synthetic_alsa_samples(num_samples=6, seed=2)
    store = ParamStore()
    from absalab.alsa import create_alsa_model

    model = create_alsa_model(store, "ian", d_in=vocab.dim, hidden=4, rng=np.random.default_rng(1))
    out = tmp_path / "attn.jsonl"
    records = dump_attention(model, samples, InputMode.plain(), vocab.matrix, path=out)
    assert len(records) == 12  # two heads per sample
    for record in records:
        assert abs(sum(record["alpha"]) - 1.0) < 1e-6
        assert all(a >= 0 for a in record["alpha"])
        assert len(record["alpha"]) == len(record["tokens"])
    assert len(out.read_text().strip().splitlines()) == 12


def test_dump_attention_one_record_per_aspect():
    samples, vocab = synthetic_alsa_samples(num_samples=4, seed=2)
    # fabricate two aspects in one sentence
    from absalab.ae import AspectSpan
    from absalab.alsa import AlsaSample

    base = samples[0]
    twin = AlsaSample(base.token_ids, AspectSpan(3, 3), 1, base.sentence_id, base.domain, base.tokens)
    store = ParamStore()
    from absalab.alsa import create_alsa_model

    model = create_alsa_model(store, "atae", d_in=vocab.dim, hidden=4, rng=np.random.default_rng(1))
    records = dump_attention(model, [base, twin], InputMode.plain(), vocab.matrix)
    assert len(records) == 2
    assert {tuple(r["span"]) for r in records} == {(1, 1), (3, 3)}


def test_dump_attention_rejects_tclstm():
    samples, vocab = synthetic_alsa_samples(num_samples=2, seed=2)
    store = ParamStore()
    from absalab.alsa import create_alsa_model

    model = create_alsa_model(store, "tclstm", d_in=vocab.dim, hidden=4, rng=np.random.default_rng(1))
    with pytest.raises(ValueError, match="no attention to dump"):
        dump_attention(model, samples, InputMode.plain(), vocab.matrix)


@pytest.mark.parametrize("target", ["dataset-cache", "attention-dump"])
def test_a_write_that_fails_keeps_the_previous_file(tmp_path, monkeypatch, laptop_train_xml, target):
    if target == "dataset-cache":
        parsed = parse_semeval(laptop_train_xml)
        dataset = build_dataset(parsed, "laptop", Vocabulary.random(collect_tokens(parsed), dim=4))

        def write(path):
            write_dataset_cache(path, dataset)
    else:
        samples, vocab = synthetic_alsa_samples(num_samples=3, seed=2)
        model = alsa_mod.create_alsa_model(ParamStore(), "atae", d_in=vocab.dim, hidden=4, rng=np.random.default_rng(1))

        def write(path):
            dump_attention(model, samples, InputMode.plain(), vocab.matrix, path=path)

    path = tmp_path / "out.jsonl"
    write(path)
    before = path.read_bytes()
    dumps, calls = json.dumps, []

    def second_record_fails(*args, **kwargs):  # both writers encode one record per line
        calls.append(None)
        if len(calls) == 2:
            raise OSError("no space left on device")
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", second_record_fails)
    with pytest.raises(OSError, match="no space left"):
        write(path)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]  # no *.tmp left behind


# -- majority -------------------------------------------------------------------------------------


def test_majority_report_on_fixtures(fixtures_dir, tmp_path):
    config = tiny_config(fixtures_dir, tmp_path)
    datasets, _ = load_domain(config)
    report = majority_report(datasets["train"].samples, datasets["test"].samples)
    # laptop fixtures: modal training label negative; test counts 1/2/1
    assert report.extras["majority_label"] == "negative"
    assert round(report.macro_f1, 2) == 22.22


def test_evaluate_samples_requires_samples():
    store = ParamStore()
    from absalab.alsa import create_alsa_model

    model = create_alsa_model(store, "atae", d_in=4, hidden=3, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        evaluate_samples(model, [], InputMode.plain(), np.zeros((2, 4)))
