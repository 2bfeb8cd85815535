"""Experiment orchestration: configs, training loops, grid search, slices.

Everything here is deterministic given the config seed: initialization,
data shuffling and noise rows all derive from it, so repeating a run
produces bit-identical checkpoints and logs. Grid-search points run one
after another: the autograd tape is pure Python and holds the GIL, so a
thread pool measured no faster than the serial loop.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import ae as ae_mod
from . import alsa as alsa_mod
from . import crf as crf_mod
from .alsa import INPUT_MODES, AlsaSample, InputMode
from .checkpoint import atomic_write, load_archive, load_checkpoint, save_checkpoint
from .data import Dataset, Vocabulary, build_dataset, collect_tokens, load_embeddings, read_semeval, split_sa_ma
from .metrics import MetricsReport, macro_f1
from .optim import AdamConfig, ParamStore, adam_step, forward_backward

TASKS = ("ae", "alsa", "multitask")
NOISE_DIM = 64  # width of a noise run's rows when transfer_dim is unset


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """One experiment: what to train, on which data, with which knobs."""

    task: str = "alsa"
    architecture: str = "atae"
    input_mode: str = "plain"
    domain: str = "laptop"
    lr: float = 0.001
    l2_lambda: float = 0.0
    transfer_dim: int | None = None  # width of the extra rows: noise 64 if unset; transfer must match its rows
    ae_hidden: int = 32
    alsa_hidden: int = 128
    embedding_dim: int = 300  # width of the random rows; a vector file sets its own
    epochs: int = 25
    seed: int = 0
    dev_fraction: float = 0.1
    run_name: str | None = None
    data_dir: str | None = None
    train_xml: str | None = None
    test_xml: str | None = None
    embeddings_path: str | None = None
    st_cache_path: str | None = None
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.input_mode not in INPUT_MODES:
            raise ConfigError(f"unknown input mode {self.input_mode!r}")
        if self.task == "alsa" and self.architecture not in alsa_mod.ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.task != "alsa" and self.input_mode != "plain":
            raise ConfigError(f"task {self.task!r} takes only plain input, got input mode {self.input_mode!r}")
        # lr = 0 is allowed as the degenerate "no update" run; negative, NaN and inf are not.
        for key in ("lr", "l2_lambda"):
            if not 0 <= getattr(self, key) < math.inf:  # False for NaN too
                raise ConfigError(f"{key} must be finite and non-negative, got {getattr(self, key)}")
        if not 0 <= self.dev_fraction < 1:
            raise ConfigError(f"dev_fraction must lie in [0, 1), got {self.dev_fraction}")
        for key, low in (("epochs", 0), ("ae_hidden", 1), ("alsa_hidden", 1), ("embedding_dim", 1), ("transfer_dim", 0),
                         ("seed", 0)):
            if getattr(self, key) is not None and getattr(self, key) < low:
                raise ConfigError(f"{key} must be at least {low}, got {getattr(self, key)}")

    @property
    def name(self) -> str:
        if self.run_name:
            return self.run_name
        if self.task == "ae":
            return f"ae_{self.domain}"
        if self.task == "multitask":
            return f"multitask_{self.domain}"
        suffix = {"plain": "", "transfer": "-t", "noise": "-r"}[self.input_mode]
        return f"{self.architecture}{suffix}_{self.domain}"

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        return replace(cls(), **_coerce_fields(mapping))


def parse_kv_file(path) -> dict:
    """Plain `key = value` config lines, one per key; '#' starts a comment.
    Each value is coerced as its line is read, so a bad key or value names
    its line even when a flag later sets the same key."""
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")  # read_text made \r and \r\n "\n"
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from None
    mapping, line_of = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if line_of.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{path}: line {lineno}: key {key!r} repeats line {line_of[key]}")
        try:
            mapping.update(_coerce_fields({key: value}))
        except ConfigError as err:
            raise ConfigError(f"{path}: line {lineno}: {err}") from None
    return mapping


def _coerce_fields(mapping: dict) -> dict:
    hints = typing.get_type_hints(ExperimentConfig)
    out = {}
    for key, value in mapping.items():
        if key not in hints:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = _coerce(value, hints[key], key)
    return out


def _coerce(value, hint, key: str):
    optional = type(None) in typing.get_args(hint)  # an `X | None` field reads as X, or empty as None
    hint = typing.get_args(hint)[0] if optional else hint
    if value is None or (isinstance(value, str) and value.lower() in ("none", "null", "")):
        if not optional:
            raise ConfigError(f"config key {key!r} must not be empty")
        return None
    try:
        if hint is int:
            return int(value)
        if hint is float:
            return float(value)
        return str(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {hint.__name__}") from None


# -- data resolution -------------------------------------------------------------------


def resolve_xml(config: ExperimentConfig, split: str) -> Path:
    explicit = config.train_xml if split == "train" else config.test_xml
    if explicit:
        return Path(explicit)
    if config.data_dir is None:
        raise ConfigError(f"no {split} data: set data_dir or {split}_xml")
    return Path(config.data_dir) / f"{config.domain}_{split}.xml"


def load_corpus(config: ExperimentConfig, require: Sequence[str] = ("train", "test")) -> dict[str, list]:
    """Parse every split whose file exists; a missing split named in
    `require` raises, and so does a domain with neither split."""
    parsed = {}
    for split in ("train", "test"):
        try:
            path = resolve_xml(config, split)
        except ConfigError:
            if split in require:
                raise
            continue
        if path.exists():
            parsed[split] = read_semeval(path)
        elif split in require:
            raise FileNotFoundError(f"missing dataset file {path}")
    if not parsed:
        raise FileNotFoundError(f"no train or test file for domain {config.domain!r}")
    return parsed


def load_domain(config: ExperimentConfig,
                require: Sequence[str] = ("train", "test")) -> tuple[dict[str, Dataset], Vocabulary]:
    """`load_corpus`, then one vocabulary over every split it parsed: the
    vector file's rows, or without one a random row drawn from each token."""
    parsed = load_corpus(config, require)
    tokens = [token for records in parsed.values() for token in collect_tokens(records)]
    if config.embeddings_path:
        vocab = load_embeddings(config.embeddings_path, tokens)
    else:
        vocab = Vocabulary.random(tokens, dim=config.embedding_dim)  # fixtures, demos, smoke runs
    datasets = {split: build_dataset(records, config.domain, vocab) for split, records in parsed.items()}
    return datasets, vocab


def stratified_dev_split(samples: Sequence[AlsaSample], fraction: float, seed: int) -> tuple[list, list]:
    """Seeded per-class split; dev gets floor(fraction * count) per class.

    When the flooring empties dev entirely (tiny corpora), one sample from
    the largest class moves over so a dev metric always exists.
    """
    if fraction <= 0 or len(samples) < 2:
        return list(samples), []
    rng = np.random.default_rng(seed)
    dev_idx: set[int] = set()
    by_label = {label: [i for i, s in enumerate(samples) if s.label == label]
                for label in range(alsa_mod.NUM_CLASSES)}
    for label in range(alsa_mod.NUM_CLASSES):
        idx = by_label[label]
        k = int(len(idx) * fraction)
        if k >= 1:
            chosen = rng.permutation(len(idx))[:k]
            dev_idx.update(idx[i] for i in chosen)
    if not dev_idx:
        largest = max(by_label.values(), key=len)
        dev_idx.add(largest[int(rng.integers(len(largest)))])
    train = [s for i, s in enumerate(samples) if i not in dev_idx]
    dev = [s for i, s in enumerate(samples) if i in dev_idx]
    return train, dev


# -- in-memory training loop ------------------------------------------------------------


@dataclass
class TrainResult:
    """Everything a finished run produced, in memory plus written paths."""

    store: ParamStore
    model: object
    log: list[dict]
    best_state: dict[str, np.ndarray]  # the store's own arrays unless an earlier epoch was best
    best_dev: float | None
    dev_key: str  # the name the log and grid-search rows give the dev score
    meta: dict
    best_checkpoint: Path | None = None
    final_checkpoint: Path | None = None
    log_path: Path | None = None


def fit(store: ParamStore, items: Sequence, loss_fn: Callable, adam: AdamConfig,
        epochs: int, seed: int, dev_key: str | None = None,
        dev_score: Callable[[], float] | None = None) -> tuple[list[dict], dict, float | None]:
    """Sample-at-a-time training; returns (log, best_state, best_dev).

    Every epoch visits `items` in a fresh seeded permutation, one
    `loss_fn(item)` step each. With `dev_score`, each epoch record gains
    `dev_key`, and a strict improvement before the last epoch copies the
    state. When the last epoch is the best, or there is no `dev_score`,
    best_state holds the store's own arrays, not a copy.
    """
    rng = np.random.default_rng(seed)
    log: list[dict] = []
    best_state: dict | None = None
    best_dev: float | None = None
    for epoch in range(1, epochs + 1):
        total = 0.0
        for i in rng.permutation(len(items)):
            item = items[i]
            total += forward_backward(store, lambda: loss_fn(item))
            adam_step(store, adam)
        record: dict = {"epoch": epoch, "train_loss": total / max(len(items), 1)}
        if dev_score is not None:
            dev = dev_score()
            record[dev_key] = dev
            if best_dev is None or dev > best_dev:
                best_dev = dev
                best_state = store.state_dict() if epoch < epochs else None  # None: the store's arrays
                record["best"] = True
        log.append(record)
    if best_state is None:
        best_state = {name: store.value(name) for name in store.names()}
    return log, best_state, best_dev


def corpus_span_f1(model: ae_mod.AeModel, items: Sequence[tuple[Sequence[int], Sequence[str]]]) -> float:
    """Exact-match span F1 aggregated over a tagging corpus (percent)."""
    hits = predicted = gold_total = 0
    for ids, gold in items:
        emissions, _ = ae_mod.ae_forward(model, ids)
        decoded = ae_mod.decode_spans(crf_mod.viterbi(emissions, model.crf))
        gold_spans = ae_mod.decode_spans(list(gold))
        hits += len(set(decoded) & set(gold_spans))
        predicted += len(decoded)
        gold_total += len(gold_spans)
    precision = hits / predicted if predicted else 0.0
    recall = hits / gold_total if gold_total else 0.0
    if precision + recall == 0:
        return 0.0
    return 100.0 * 2 * precision * recall / (precision + recall)


def _predict(model, sample: AlsaSample, mode: InputMode, embeddings: np.ndarray) -> int:
    """Predicted class of one sample; multitask models ignore `mode`."""
    if isinstance(model, alsa_mod.MultitaskModel):
        return int(np.argmax(alsa_mod.multitask_forward(model, sample.token_ids, sample.span)[1].data))
    return alsa_mod.predict_label(model, sample, mode, embeddings)


def _dev_macro_f1(model, samples: Sequence[AlsaSample], mode: InputMode, embeddings: np.ndarray) -> float:
    preds = [_predict(model, s, mode, embeddings) for s in samples]
    return macro_f1(preds, [s.label for s in samples]).macro_f1


def training_accuracy(model, samples: Sequence[AlsaSample], mode: InputMode, embeddings: np.ndarray) -> float:
    correct = sum(_predict(model, s, mode, embeddings) == s.label for s in samples)
    return correct / len(samples)


# -- transfer caches ---------------------------------------------------------------------


def export_transfer_cache(model: ae_mod.AeModel,
                          sentences: Sequence[tuple[str, Sequence[int]]]) -> dict[str, np.ndarray]:
    """Frozen transfer rows for every (sentence_id, token_ids) pair; an id
    may repeat only with the same token ids, and is exported once."""
    given: dict[str, tuple[int, ...]] = {}
    for sid, ids in sentences:
        if given.setdefault(sid, tuple(ids)) != tuple(ids):
            raise ValueError(f"sentence id {sid!r} is given two different token sequences")
    return {sid: ae_mod.export_transfer(model, ids) for sid, ids in given.items() if ids}


def dataset_sentence_ids(dataset: Dataset, vocab: Vocabulary) -> list[tuple[str, tuple[int, ...]]]:
    return [(s.sentence_id, vocab.ids(t.text for t in s.tokens)) for s in dataset.sentences]


def transfer_rows(checkpoint_path, datasets: dict[str, Dataset],
                  vocab: Vocabulary) -> tuple[dict[str, np.ndarray], dict]:
    """Transfer rows of the AE checkpoint at `checkpoint_path` for every
    sentence of every split in `datasets`, as `load_domain` returned them,
    and the checkpoint's sidecar fields."""
    if not Path(checkpoint_path).exists():
        raise FileNotFoundError(f"missing AE checkpoint {checkpoint_path}")
    model, _, meta = load_model(checkpoint_path, vocab.matrix)
    if meta.get("task") != "ae":
        raise ValueError(f"{checkpoint_path}: transfer rows need an AE checkpoint, got task {meta.get('task')!r}")
    pairs = [pair for split in datasets.values() for pair in dataset_sentence_ids(split, vocab)]
    return export_transfer_cache(model, pairs), meta


def transfer_width(rows: dict[str, np.ndarray], source) -> int:
    """The width every (tokens x width) matrix in `rows` shares; `source` names them."""
    widths = {np.shape(matrix)[1:] for matrix in rows.values()}  # (width,) for each matrix
    if len(widths) != 1 or len(min(widths)) != 1:
        raise ConfigError(f"{source}: transfer rows must be tokens x width with one width, got "
                          f"{sorted(widths) or 'no rows'}")
    return widths.pop()[0]


# -- file-based orchestration ----------------------------------------------------------


def train(config: ExperimentConfig, st_source: dict[str, np.ndarray] | None = None) -> TrainResult:
    """Train per config, write best/final checkpoints and a JSONL log.

    Missing inputs fail before any training step. `st_source` short-circuits
    the on-disk transfer cache for in-process pipelines.
    """
    datasets, vocab = load_domain(config, require=("train",))
    return _train_loaded(config, datasets, vocab, st_source)


def _train_loaded(config: ExperimentConfig, datasets: dict[str, Dataset], vocab: Vocabulary,
                  st_source: dict[str, np.ndarray] | None, source="st_source") -> TrainResult:
    """`train` on what `load_domain(config)` returned; `source` names `st_source` in refusals."""
    train_set = datasets["train"]
    width = config.transfer_dim  # of the rows appended to each word vector
    if config.input_mode == "transfer":
        if st_source is None:
            if not config.st_cache_path:
                raise ConfigError("transfer mode requires st_cache_path")
            st_source, source = load_archive(config.st_cache_path), config.st_cache_path
        width = transfer_width(st_source, source)
        if config.transfer_dim not in (None, width):
            raise ConfigError(f"{source}: transfer rows are {width} wide, but transfer_dim is {config.transfer_dim}")
    adam = AdamConfig(lr=config.lr, l2_lambda=config.l2_lambda)
    embeddings = vocab.matrix

    # Each branch sets its items, loss, dev scorer and meta; the model and
    # input mode are then built from meta, exactly as load_model rebuilds them.
    if config.task == "ae":
        items = [(vocab.ids(t.text for t in s.tokens), s.bio) for s in train_set.sentences if s.bio and s.tokens]
        if not items:
            raise ConfigError("no sentences with tagging gold in the training data")
        train_items, dev_items = _split_pairs(items, config.dev_fraction, config.seed + 1)
        if not dev_items:  # tagging permutes its training order even without a dev slice
            train_items = [items[i] for i in np.random.default_rng(config.seed + 1).permutation(len(items))]

        def loss_fn(item):
            return ae_mod.ae_loss(model, *item)

        dev_key, dev_score = "dev_span_f1", lambda: corpus_span_f1(model, dev_items)
        meta = {"task": "ae", "architecture": "bigru-crf", "domain": config.domain,
                "hidden": config.ae_hidden, "embedding_dim": vocab.dim,
                "transfer_dim": 2 * config.ae_hidden, "seed": config.seed}
    elif config.task == "multitask":
        pairs = _multitask_items(train_set)
        if not pairs:
            raise ConfigError("no sentences with both tagging gold and a classification sample in the training data")
        train_items, dev_items = _split_pairs(pairs, config.dev_fraction, config.seed + 1)
        dev_samples = [sample for sample, _ in dev_items]

        def loss_fn(item):
            sample, bio = item
            return alsa_mod.multitask_loss(model, sample.token_ids, bio, sample.span, sample.label)

        dev_key, dev_score = "dev_macro_f1", lambda: _dev_macro_f1(model, dev_samples, mode, embeddings)
        meta = {"task": "multitask", "architecture": "multitask", "domain": config.domain,
                "shared_hidden": config.ae_hidden, "alsa_hidden": config.alsa_hidden,
                "embedding_dim": vocab.dim, "seed": config.seed}
    else:
        if not train_set.samples:
            raise ConfigError("no classification samples in the training data")
        train_items, dev_items = stratified_dev_split(train_set.samples, config.dev_fraction,
                                                      config.seed + 1)

        def loss_fn(sample):
            return alsa_mod.alsa_loss(model, sample, mode, embeddings)

        dev_key, dev_score = "dev_macro_f1", lambda: _dev_macro_f1(model, dev_items, mode, embeddings)
        meta = {"task": "alsa", "architecture": config.architecture, "domain": config.domain,
                "input_mode": config.input_mode, "hidden": config.alsa_hidden, "embedding_dim": vocab.dim,
                "transfer_dim": 0 if config.input_mode == "plain" else NOISE_DIM if width is None else width,
                "seed": config.seed, "noise_seed": config.seed}

    store = ParamStore()
    model = build_model_from_meta(store, meta, embeddings)
    mode = input_mode_from_meta(meta, st_source)
    log, best_state, best_dev = fit(store, train_items, loss_fn, adam, config.epochs, config.seed,
                                    dev_key, dev_score if dev_items else None)
    result = TrainResult(store, model, log, best_state, best_dev, dev_key, meta)
    if config.checkpoint_dir:
        outdir = Path(config.checkpoint_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        result.best_checkpoint = outdir / f"{config.name}.best.ckpt"
        result.final_checkpoint = outdir / f"{config.name}.final.ckpt"
        save_checkpoint(result.best_checkpoint, result.best_state, meta)
        save_checkpoint(result.final_checkpoint, {name: store.value(name) for name in store.names()}, meta)
        result.log_path = outdir / f"{config.name}.log.jsonl"
        with atomic_write(result.log_path) as fh:
            for record in log:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return result


def _multitask_items(dataset: Dataset) -> list[tuple[AlsaSample, list[str]]]:
    bio_by_sentence = {s.sentence_id: s.bio for s in dataset.sentences if s.bio}
    return [(sample, bio_by_sentence[sample.sentence_id])
            for sample in dataset.samples if sample.sentence_id in bio_by_sentence]


def _split_pairs(pairs, fraction: float, seed: int):
    if fraction <= 0 or len(pairs) < 2:
        return list(pairs), []
    order = np.random.default_rng(seed).permutation(len(pairs))
    split_at = max(1, int(len(pairs) * (1 - fraction)))
    return [pairs[i] for i in order[:split_at]], [pairs[i] for i in order[split_at:]]


# -- evaluation --------------------------------------------------------------------------


def build_model_from_meta(store: ParamStore, meta: dict, embeddings: np.ndarray):
    rng = np.random.default_rng(meta.get("seed", 0))
    task = meta.get("task")
    if task == "ae":
        return ae_mod.AeModel.create(store, embeddings, hidden_dim=meta["hidden"], rng=rng)
    if task == "multitask":
        return alsa_mod.MultitaskModel.create(store, embeddings, shared_hidden=meta["shared_hidden"],
                                              alsa_hidden=meta["alsa_hidden"], rng=rng)
    if task == "alsa":  # input rows are word vectors widened by transfer_dim extra columns
        d_in = embeddings.shape[1] + meta.get("transfer_dim", 0)
        return alsa_mod.create_alsa_model(store, meta["architecture"], d_in=d_in, hidden=meta["hidden"], rng=rng)
    raise ValueError(f"cannot rebuild model for task {task!r}")


def load_model(checkpoint_path, embeddings: np.ndarray) -> tuple[object, ParamStore, dict]:
    values, meta = load_checkpoint(checkpoint_path)
    sidecar = f"{checkpoint_path}.meta.json"
    input_mode = meta.get("input_mode", "plain")
    if input_mode not in INPUT_MODES:
        raise ValueError(f"{sidecar}: unknown input_mode {input_mode!r}")
    if input_mode != "plain" and "transfer_dim" not in meta:  # the width of the extra rows
        raise ValueError(f"{sidecar}: missing field 'transfer_dim'")
    if meta.get("embedding_dim", embeddings.shape[1]) != embeddings.shape[1]:
        raise ValueError(f"{sidecar}: embedding_dim is {meta['embedding_dim']!r}, "
                         f"but the word vectors are {embeddings.shape[1]} wide")
    checked = {"transfer_dim": meta.get("transfer_dim", 0)}
    if input_mode == "noise":
        checked["noise_seed"] = meta.get("noise_seed", 0)
    for key, value in checked.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"{sidecar}: {key} must be a non-negative int, got {value!r}")
    store = ParamStore()
    try:
        model = build_model_from_meta(store, meta, embeddings)
    except KeyError as err:
        raise ValueError(f"{sidecar}: missing field {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:
        raise ValueError(f"{sidecar}: {err}") from None
    try:
        store.load_values(values)
    except (KeyError, ValueError) as err:
        raise ValueError(f"{checkpoint_path}: {err.args[0]}") from None
    return model, store, meta


def evaluate_samples(model, samples: Sequence[AlsaSample], mode: InputMode,
                     embeddings: np.ndarray) -> MetricsReport:
    """MetricsReport over samples, with class-wise and SA/MA slices."""
    if not samples:
        raise ValueError("evaluate_samples requires at least one sample")
    preds = [_predict(model, s, mode, embeddings) for s in samples]
    golds = [s.label for s in samples]
    report = macro_f1(preds, golds)
    sa, ma = split_sa_ma(list(samples))
    pred_by_id = {id(s): p for s, p in zip(samples, preds)}
    if sa:
        sa_report = macro_f1([pred_by_id[id(s)] for s in sa], [s.label for s in sa])
        report.sa_macro_f1, report.sa_count = sa_report.macro_f1, len(sa)
    if ma:
        ma_report = macro_f1([pred_by_id[id(s)] for s in ma], [s.label for s in ma])
        report.ma_macro_f1, report.ma_count = ma_report.macro_f1, len(ma)
    return report


def input_mode_from_meta(meta: dict, st_source: dict[str, np.ndarray] | None = None, checkpoint=None) -> InputMode:
    """Reconstruct the input mode the checkpoint at `checkpoint` was trained with."""
    variant = meta.get("input_mode", "plain")
    if variant == "transfer":
        if st_source is None:
            raise ConfigError(f"{checkpoint}: a transfer checkpoint needs its transfer rows; set st_cache_path")
        return InputMode.transfer(st_source, meta["transfer_dim"])
    if variant == "noise":
        return InputMode.noise(meta["transfer_dim"], seed=meta.get("noise_seed", 0))
    return InputMode.plain()


def evaluate(checkpoint_path, samples: Sequence[AlsaSample], embeddings: np.ndarray,
             st_source: dict[str, np.ndarray] | None = None) -> MetricsReport:
    """Pure function of (checkpoint, dataset): rebuild the model and score."""
    model, _, meta = load_model(checkpoint_path, embeddings)
    if meta.get("task") == "ae":
        raise ValueError("evaluate scores sentiment checkpoints; tagging models are scored by span F1")
    mode = input_mode_from_meta(meta, st_source, checkpoint_path)
    report = evaluate_samples(model, samples, mode, embeddings)
    report.extras["architecture"] = meta.get("architecture")
    return report


# -- grid search --------------------------------------------------------------------------


def grid_search(config: ExperimentConfig, grid: dict[str, list]) -> list[dict]:
    """Train one run per Cartesian grid point; rank by dev score.

    Every value is coerced before any point trains: an unknown key, a value
    that does not parse, or two values of one key that coerce to the same
    setting raise `ConfigError`. Each point runs under the base run name
    plus its settings, e.g. `atae_laptop_l2_lambda=0.001_lr=0.01`, so no
    point overwrites another's checkpoints or log. Ties break toward lower
    l2_lambda, then lower lr. A point that fails (a value out of range, a
    training error) is recorded with its error message instead of aborting
    the sweep. The corpus and vectors are loaded once per distinct setting
    of the fields `load_domain` reads; a failed load is every such point's
    error.
    """
    if not grid:
        raise ConfigError("grid must name at least one hyper-parameter")
    points: list[dict] = [{}]
    for key in sorted(grid):
        if not grid[key]:
            raise ConfigError(f"grid key {key!r} has no values")
        values = [_coerce_fields({key: v})[key] for v in grid[key]]
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"grid key {key!r} gives the setting {repeated[0]!r} more than once")
        points = [dict(p, **{key: v}) for p in points for v in values]

    scored = []  # (row, its dev score)
    loads: dict[tuple, tuple | Exception] = {}  # _load_key -> load_domain's result, or what it raised
    for point in points:
        row: dict = {"params": point}
        dev = None
        try:
            base = replace(config, **point)
            settings = [f"{key}={value}" for key, value in sorted(point.items())]
            run_config = replace(base, run_name="_".join([base.name, *settings]))
            key = _load_key(run_config)
            if key not in loads:
                try:
                    loads[key] = load_domain(run_config, require=("train",))
                except Exception as err:
                    loads[key] = err
            if isinstance(loads[key], Exception):
                raise loads[key]
            result = _train_loaded(run_config, *loads[key], None)
            dev = row[result.dev_key] = result.best_dev
            row["name"] = run_config.name
            row["best_checkpoint"] = str(result.best_checkpoint) if result.best_checkpoint else None
        except Exception as err:  # recorded, not fatal to the sweep
            row["error"] = f"{type(err).__name__}: {err}"
        scored.append((row, dev))

    def sort_key(item: tuple[dict, float | None]):
        row, dev = item
        failed = 1 if ("error" in row or dev is None) else 0
        params = row["params"]
        return (failed, -(dev or 0.0), params.get("l2_lambda", config.l2_lambda), params.get("lr", config.lr))

    return [row for row, _ in sorted(scored, key=sort_key)]


def _load_key(config: ExperimentConfig) -> tuple:
    """The fields `load_domain(config)` reads."""
    return (config.data_dir, config.domain, config.train_xml, config.test_xml, config.embeddings_path,
            config.embedding_dim)


# -- cross-domain transfer ------------------------------------------------------------------


def cross_domain_run(config: ExperimentConfig, checkpoint_path) -> MetricsReport:
    """Export transfer rows from the extractor at `checkpoint_path` over
    `config.domain` sentences, train the widened `config.architecture`
    classifier there, and score its test split. The run and the report
    name the extractor's domain as its sidecar gives it."""
    if not config.checkpoint_dir:  # where the classifier's checkpoints go
        raise ConfigError("cross-domain runs need checkpoint_dir")
    # plain is the default, so only another input mode shows that one was set
    for key, refused in (("task", config.task != "alsa"), ("input_mode", config.input_mode == "noise"),
                         ("run_name", bool(config.run_name)), ("st_cache_path", bool(config.st_cache_path))):
        if refused:
            raise ConfigError(f"{key} = {getattr(config, key)!r}: cross-domain runs set their task, input mode "
                              "and name, and make their rows from the checkpoint")
    datasets, vocab = load_domain(config)
    st_source, ae_meta = transfer_rows(checkpoint_path, datasets, vocab)
    if "domain" not in ae_meta:
        raise ValueError(f"{checkpoint_path}.meta.json: missing field 'domain'")
    ae_domain, alsa_domain = ae_meta["domain"], config.domain
    run_config = replace(config, task="alsa", input_mode="transfer",
                         run_name=f"{config.architecture}-t_{alsa_domain}_from_{ae_domain}")
    # the splits loaded above are what train would load: same files, same vocabulary
    result = _train_loaded(run_config, datasets, vocab, st_source, source=checkpoint_path)
    report = evaluate(result.best_checkpoint, datasets["test"].samples, vocab.matrix, st_source)
    report.extras.update({"ae_domain": ae_domain, "alsa_domain": alsa_domain})
    return report


# -- attention dumps ---------------------------------------------------------------------------


def dump_attention(model, samples: Sequence[AlsaSample], mode: InputMode,
                   embeddings: np.ndarray, path=None) -> list[dict]:
    """One JSONL record per (sample, attention head), alphas aligned to the
    attended tokens. Refuses models without attention."""
    if isinstance(model, alsa_mod.TcLstmModel):
        raise ValueError("no attention to dump: tclstm has no attention head")
    if not isinstance(model, (alsa_mod.AtaeModel, alsa_mod.IanModel)):
        raise ValueError(f"no attention to dump for {type(model).__name__}")
    records = []
    for sample in samples:
        word_matrix, _ = alsa_mod.build_input(sample, mode, embeddings)
        logits, alphas = alsa_mod.alsa_forward(model, word_matrix, sample.span)
        predicted = int(np.argmax(logits.data))
        tokens = list(sample.tokens) if sample.tokens else [str(i) for i in sample.token_ids]
        aspect_tokens = tokens[sample.span.start : sample.span.end + 1]
        for head, alpha in alphas.items():
            records.append({
                "sentence_id": sample.sentence_id,
                "span": [sample.span.start, sample.span.end],
                "head": head,
                "tokens": aspect_tokens if head == "aspect" else tokens,
                "alpha": [float(a) for a in alpha.data],
                "predicted": alsa_mod.LABEL_NAMES[predicted],
                "gold": alsa_mod.LABEL_NAMES[sample.label],
            })
    if path is not None:
        with atomic_write(path) as fh:
            for record in records:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    return records


# -- majority baseline ---------------------------------------------------------------------------


def majority_report(train_samples: Sequence[AlsaSample], test_samples: Sequence[AlsaSample]) -> MetricsReport:
    preds = alsa_mod.majority_predict([s.label for s in train_samples], len(test_samples))
    report = macro_f1(preds, [s.label for s in test_samples])
    modal = preds[0] if preds else None
    report.extras["majority_label"] = alsa_mod.LABEL_NAMES[modal] if modal is not None else None
    return report
