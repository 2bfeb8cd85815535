"""The three benchmark workloads.

Each workload is a closed loop run from one process: a *pass* is a fixed
pipeline of CLI-equivalent commands over the generated domain, and the
runner repeats passes until its time is up. Every command goes through
absalab's public functions only and is wrapped in a ``cmd.*`` span so set-up
time (command start to its first step) can be read per command.

Every pass also checks its own outputs: losses finite, a pass repeating
the first pass's outputs exactly (training is a pure function of config
and data), checkpoint and dataset-cache round trips, evaluation counts and
attention rows summing to one.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from absalab import checkpoint, data, harness
from absalab.ae import AeModel
from absalab.alsa import InputMode, MultitaskModel, create_alsa_model
from absalab.optim import ParamStore

ALSA_HIDDEN = 128
AE_HIDDEN = 32


@dataclass
class Context:
    """What one run's passes share: paths, prepared state and check tallies."""

    seed: int
    data_dir: Path
    out_dir: Path
    recorder: object
    domain: str
    state: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def config(self, **overrides) -> harness.ExperimentConfig:
        base = harness.ExperimentConfig(domain=self.domain, data_dir=str(self.data_dir),
                                        embeddings_path=str(self.data_dir / "vectors.txt"),
                                        epochs=1, seed=self.seed, alsa_hidden=ALSA_HIDDEN,
                                        ae_hidden=AE_HIDDEN, transfer_dim=2 * AE_HIDDEN)
        return replace(base, **overrides)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def same_as_first_pass(self, name: str, value) -> None:
        """Outputs of a command must repeat exactly from pass to pass."""
        if name not in self.fingerprints:
            self.fingerprints[name] = value
            return
        self.check(f"{name} repeats", self.fingerprints[name] == value, "output differs from the first pass")

    def command(self, name: str, fn: Callable[[], None]) -> None:
        """Run one command; an exception is a failed operation, not the end."""
        try:
            with self.recorder.span(f"cmd.{name}"):
                fn()
        except Exception:
            self.checks += 1
            self.failures.append(f"{name}: {traceback.format_exc(limit=4)}")


@dataclass(frozen=True)
class Workload:
    name: str
    domain: str
    train_sentences: int
    test_sentences: int
    vector_factor: float
    fillers: int
    prepare: Callable[[Context], None]
    run_pass: Callable[[Context], None]


def _sentence_ids(datasets, vocab):
    out = []
    for split in ("train", "test"):
        out.extend(harness.dataset_sentence_ids(datasets[split], vocab))
    return out


def _check_log(ctx: Context, name: str, result) -> None:
    losses = [record["train_loss"] for record in result.log]
    ctx.check(f"{name} loss finite", all(math.isfinite(x) for x in losses), str(losses))
    ctx.same_as_first_pass(name, (losses, result.best_dev))


def _train(ctx: Context, name: str, config: harness.ExperimentConfig) -> None:
    result = harness.train(config)
    _check_log(ctx, name, result)


# -- alsa-train ------------------------------------------------------------------

ALSA_RUNS = (("tclstm", "plain"), ("atae", "plain"), ("ian", "plain"), ("atae", "transfer"), ("atae", "noise"))


def _prepare_alsa(ctx: Context) -> None:
    """Transfer rows for the -T run, exported from a seeded BiGRU-CRF
    checkpoint before timing starts, so no CRF or BiGRU work is timed."""
    datasets, vocab = harness.load_domain(ctx.config())
    model = AeModel.create(ParamStore(), vocab.matrix, hidden_dim=AE_HIDDEN, rng=np.random.default_rng(ctx.seed))
    st_path = ctx.out_dir / "alsa.st"
    checkpoint.save_archive(st_path, harness.export_transfer_cache(model, _sentence_ids(datasets, vocab)))
    ctx.state["st_cache_path"] = str(st_path)


def _alsa_pass(ctx: Context) -> None:
    for arch, mode in ALSA_RUNS:
        config = ctx.config(architecture=arch, input_mode=mode, st_cache_path=ctx.state["st_cache_path"],
                            checkpoint_dir=str(ctx.out_dir / "ckpt"))
        ctx.command("train", lambda config=config: _train(ctx, config.name, config))


# -- tagging ------------------------------------------------------------------------


def _tagging_pass(ctx: Context) -> None:
    ckpt_dir = ctx.out_dir / "ckpt"
    ae_config = ctx.config(task="ae", checkpoint_dir=str(ckpt_dir))

    def export_st() -> None:
        datasets, vocab = harness.load_domain(ctx.config())
        model, _, _ = harness.load_model(ckpt_dir / f"{ae_config.name}.best.ckpt", vocab.matrix)
        sentences = _sentence_ids(datasets, vocab)
        rows = harness.export_transfer_cache(model, sentences)
        checkpoint.save_archive(ctx.out_dir / "tagging.st", rows)
        ctx.check("export-st rows", all(rows[sid].shape == (len(ids), 2 * AE_HIDDEN) and np.isfinite(rows[sid]).all()
                                        for sid, ids in sentences), "transfer rows of the wrong shape or non-finite")
        ctx.same_as_first_pass("export-st", float(sum(np.abs(r).sum(dtype=np.float64) for r in rows.values())))

    ctx.command("train", lambda: _train(ctx, "train-ae", ae_config))
    ctx.command("export", export_st)
    ctx.command("train", lambda: _train(ctx, "train-multitask", ctx.config(task="multitask")))


# -- eval-ingest -----------------------------------------------------------------------

EVAL_ARCHITECTURES = ("tclstm", "atae", "ian", "multitask")


def _prepare_eval(ctx: Context) -> None:
    """Seeded models for every sentiment architecture and the multitask
    model; each pass saves and reloads them as checkpoints."""
    _, vocab = harness.load_domain(ctx.config())
    rng = np.random.default_rng(ctx.seed)
    for arch in EVAL_ARCHITECTURES:
        store = ParamStore()
        if arch == "multitask":
            MultitaskModel.create(store, vocab.matrix, shared_hidden=AE_HIDDEN, alsa_hidden=ALSA_HIDDEN, rng=rng)
            meta = {"task": "multitask", "architecture": "multitask", "shared_hidden": AE_HIDDEN,
                    "alsa_hidden": ALSA_HIDDEN, "embedding_dim": vocab.dim, "seed": ctx.seed}
        else:
            create_alsa_model(store, arch, d_in=vocab.dim, hidden=ALSA_HIDDEN, rng=rng)
            meta = {"task": "alsa", "architecture": arch, "input_mode": "plain", "transfer_dim": 0,
                    "hidden": ALSA_HIDDEN, "embedding_dim": vocab.dim, "d_in": vocab.dim,
                    "seed": ctx.seed, "noise_seed": ctx.seed}
        ctx.state[arch] = (store.state_dict(), meta)


def _same_samples(a, b) -> bool:
    key = lambda s: (s.sentence_id, s.token_ids, s.span, s.label)  # noqa: E731
    return [key(s) for s in a] == [key(s) for s in b]


def _eval_pass(ctx: Context) -> None:
    config = ctx.config()

    def ingest() -> None:
        datasets, vocab = harness.load_domain(config)
        cache = ctx.out_dir / "train.jsonl"
        data.write_dataset_cache(cache, datasets["train"])
        back = data.read_dataset_cache(cache, vocab)
        ctx.check("dataset cache round trip", _same_samples(datasets["train"].samples, back.samples)
                  and len(back.sentences) == len(datasets["train"].sentences), "samples differ after the cache")

    def evaluate(arch: str) -> None:
        state, meta = ctx.state[arch]
        path = ctx.out_dir / f"{arch}.ckpt"
        checkpoint.save_checkpoint(path, state, meta)
        datasets, vocab = harness.load_domain(config)
        samples = datasets["test"].samples
        report = harness.evaluate(path, samples, vocab.matrix)
        ctx.check(f"eval {arch} counts", report.count == len(samples) and report.sa_count + report.ma_count == len(samples)
                  and 0.0 <= report.macro_f1 <= 100.0, str(report.to_record()))
        ctx.same_as_first_pass(f"eval {arch}", report.confusion.tolist())
        if arch in ("atae", "ian"):
            model, store, _ = harness.load_model(path, vocab.matrix)
            ctx.check(f"checkpoint {arch} round trip",
                      all(np.array_equal(store.value(k), v) for k, v in state.items()), "values differ after reload")
            records = harness.dump_attention(model, samples, InputMode.plain(), vocab.matrix,
                                             path=ctx.out_dir / f"{arch}.attention.jsonl")
            ctx.check(f"attention {arch}", all(abs(sum(r["alpha"]) - 1.0) < 1e-4 and len(r["alpha"]) == len(r["tokens"])
                                               for r in records), "attention rows do not sum to one")

    ctx.command("ingest", ingest)
    for arch in EVAL_ARCHITECTURES:
        ctx.command("eval", lambda arch=arch: evaluate(arch))


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("alsa-train", "laptop", 70, 10, 4.0, 3000, _prepare_alsa, _alsa_pass),
        Workload("tagging", "restaurant", 90, 22, 4.0, 3000, lambda ctx: None, _tagging_pass),
        Workload("eval-ingest", "laptop", 520, 150, 8.0, 6000, _prepare_eval, _eval_pass),
    )
}
