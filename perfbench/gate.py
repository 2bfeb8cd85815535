"""Correctness gate run by every benchmark run.

Three checks, none of which depends on the workload seed:

* float64 finite-difference gradient checks of TC-LSTM, ATAE, IAN, the
  BiGRU-CRF tagger and the multitask model;
* the CRF log-partition and Viterbi path against brute-force enumeration
  for every length 1..8;
* a reference probe: a fixed tiny corpus (generator seed 0) trained and
  evaluated through ``harness.train``/``harness.evaluate``. Its mean train
  loss per epoch of each run, a checksum of the exported transfer rows,
  and for TC-LSTM, ATAE, IAN and multitask the test-split logits of the
  reloaded checkpoint must match ``reference.json``; the confusion matrix
  ``harness.evaluate`` reports must equal the one those logits give. The
  tolerances admit float32 reassociation (relative 1e-3; one evaluation
  sample may move between confusion cells if its logits tie that
  closely), not a changed model, gradient or prediction path.

``python3 perfbench/gate.py --record`` rewrites ``reference.json`` from
the current code; do that only for a change that is meant to alter these
numbers, and say so.
"""

from __future__ import annotations

import env  # noqa: F401  (pins BLAS threads and finds src before numpy loads)

import json
import shutil
import tempfile
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from absalab import crf, harness
from absalab.ae import AeModel, AspectSpan, ae_loss
from absalab.alsa import (AlsaSample, InputMode, MultitaskModel, alsa_forward, alsa_loss, build_input,
                          create_alsa_model, multitask_forward, multitask_loss)
from absalab.optim import ParamStore, grad_check

import gen

REFERENCE = Path(__file__).with_name("reference.json")
GRAD_TOLERANCE = 1e-4
CRF_TOLERANCE = 1e-8
REL_TOLERANCE = 1e-3
PROBE_SEED = 0
PROBE_SENTENCES = 24  # train and test split each
PROBE_EPOCHS = 2
PROBE_RUNS = (
    ("alsa", "tclstm", "plain"),
    ("alsa", "atae", "plain"),
    ("alsa", "ian", "plain"),
    ("alsa", "atae", "noise"),
    ("ae", "atae", "plain"),
    ("multitask", "atae", "plain"),
)
PROBE_EVAL = ("alsa/tclstm/plain", "alsa/atae/plain", "alsa/ian/plain", "multitask/atae/plain")


def gradient_checks() -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(2024)
    emb = rng.normal(size=(14, 8))
    ids = [3, 7, 1, 12, 7, 5]
    gold = ["O", "B", "I", "O", "B", "O"]
    span = AspectSpan(1, 2)
    sample = AlsaSample(tuple(ids), span, 2, "g", "d")
    cases = []
    store = ParamStore()
    ae = AeModel.create(store, emb, hidden_dim=5, rng=np.random.default_rng(1), dtype=np.float64)
    cases.append(("ae", store, lambda: ae_loss(ae, ids, gold)))
    for arch in ("tclstm", "atae", "ian"):
        st = ParamStore()
        model = create_alsa_model(st, arch, d_in=8, hidden=5, rng=np.random.default_rng(2), dtype=np.float64)
        cases.append((arch, st, lambda model=model: alsa_loss(model, sample, InputMode.plain(), emb)))
    st = ParamStore()
    mt = MultitaskModel.create(st, emb, shared_hidden=4, alsa_hidden=5, rng=np.random.default_rng(3), dtype=np.float64)
    cases.append(("multitask", st, lambda: multitask_loss(mt, ids, gold, span, sample.label)))
    out = []
    for name, st, loss_fn in cases:
        err = grad_check(st, loss_fn, max_coords_per_param=2, seed=7)
        out.append((f"grad_check.{name}", err < GRAD_TOLERANCE, f"max relative error {err:.2e}"))
    return out


def crf_checks() -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(99)
    store = ParamStore()
    params = crf.CrfParams.create(store, "crf", 4, rng, dtype=np.float64)
    for name in ("crf/transitions", "crf/start", "crf/end"):
        store.value(name)[...] = rng.normal(size=store.value(name).shape)
    out = []
    for n in range(1, crf.MAX_ENUMERATION_LENGTH + 1):
        emissions = rng.normal(size=(n, crf.NUM_LABELS))
        log_z, best = crf.brute_force_oracle(emissions, params)
        got = crf.log_partition(emissions, params).item()
        path = crf.viterbi(emissions, params)
        out.append((f"crf.n{n}", abs(got - log_z) < CRF_TOLERANCE and path == best,
                    f"log Z {got:.12f} vs {log_z:.12f}, path {''.join(path)} vs {''.join(best)}"))
    return out


def probe_logits(checkpoint_path, samples, embeddings) -> list[list[float]]:
    """Test-split logits of a sentiment checkpoint, reloaded through
    ``harness.load_model`` and run forward directly, one row per sample."""
    model, _, _ = harness.load_model(checkpoint_path, embeddings)
    rows = []
    for s in samples:
        if isinstance(model, MultitaskModel):
            logits = multitask_forward(model, s.token_ids, s.span)[1]
        else:
            logits, _ = alsa_forward(model, build_input(s, InputMode.plain(), embeddings)[0], s.span)
        rows.append([float(x) for x in logits.data])
    return rows


def run_probe(workdir: Path) -> dict:
    """Train and evaluate the fixed probe corpus; return its reference outputs."""
    data = workdir / "probe"
    gen.generate(data, PROBE_SEED, "laptop", PROBE_SENTENCES, PROBE_SENTENCES, vector_factor=2.0, fillers=200)
    base = harness.ExperimentConfig(domain="laptop", data_dir=str(data), embeddings_path=str(data / "vectors.txt"),
                                    epochs=PROBE_EPOCHS, lr=0.01, alsa_hidden=16, ae_hidden=8, transfer_dim=8,
                                    seed=PROBE_SEED, checkpoint_dir=str(workdir / "probe_ckpt"))
    out: dict = {}
    results = {}
    for task, arch, mode in PROBE_RUNS:
        result = harness.train(replace(base, task=task, architecture=arch, input_mode=mode))
        key = f"{task}/{arch}/{mode}"
        results[key] = result
        out[key] = [r["train_loss"] for r in result.log]
    datasets, vocab = harness.load_domain(base)
    ae_model = results["ae/atae/plain"].model
    results["ae/atae/plain"].store.load_values(results["ae/atae/plain"].best_state)
    rows = {}
    for split in datasets.values():
        rows.update(harness.export_transfer_cache(ae_model, harness.dataset_sentence_ids(split, vocab)))
    stacked = np.concatenate([rows[k] for k in sorted(rows)]).astype(np.float64)
    out["transfer_rows"] = {"count": int(stacked.shape[0]), "sum": float(stacked.sum()),
                            "abs_sum": float(np.abs(stacked).sum())}
    t_result = harness.train(replace(base, architecture="atae", input_mode="transfer", transfer_dim=ae_model.transfer_dim),
                             st_source=rows)
    out["alsa/atae/transfer"] = [r["train_loss"] for r in t_result.log]
    test = datasets["test"].samples
    for key in PROBE_EVAL:
        path = results[key].best_checkpoint
        report = harness.evaluate(path, test, vocab.matrix)
        out[f"eval/{key}"] = {"macro_f1": report.macro_f1, "confusion": report.confusion.tolist(),
                              "logits": probe_logits(path, test, vocab.matrix),
                              "labels": [s.label for s in test]}
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOLERANCE * max(abs(a), abs(b)) + 1e-6


def _eval_check(key: str, have: dict, ref: dict) -> tuple[str, bool, str]:
    """Logits must match the reference within float32 reassociation, and the
    confusion matrix ``harness.evaluate`` reports must be the one the argmax
    of those logits gives, so the evaluation path is checked sample by sample."""
    logits, want = np.array(have["logits"]), np.array(ref["logits"])
    logits_ok = logits.shape == want.shape and np.allclose(logits, want, rtol=REL_TOLERANCE, atol=1e-5)
    own = np.zeros((3, 3), dtype=int)
    for label, row in zip(have["labels"], logits):
        own[label, int(np.argmax(row))] += 1
    consistent = own.tolist() == have["confusion"] and have["labels"] == ref["labels"]
    moved = int(np.abs(np.array(have["confusion"]) - np.array(ref["confusion"])).sum())
    f1_ok = moved <= 2 or abs(have["macro_f1"] - ref["macro_f1"]) < 1e-9
    worst = float(np.max(np.abs(logits - want))) if logits.shape == want.shape else float("nan")
    return (f"probe.{key}", logits_ok and consistent and f1_ok,
            f"logits max abs diff {worst:.2e}, evaluate agrees with argmax {consistent}, "
            f"macro F1 {have['macro_f1']:.2f} vs {ref['macro_f1']:.2f}, confusion cells moved {moved}")


def probe_checks(workdir: Path) -> list[tuple[str, bool, str]]:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["probe"]
    got = run_probe(workdir)
    out = []
    for key, ref in reference.items():
        have = got[key]
        if key.startswith("eval/"):
            out.append(_eval_check(key, have, ref))
        elif key == "transfer_rows":
            ok = have["count"] == ref["count"] and _close(have["sum"], ref["sum"]) and _close(have["abs_sum"], ref["abs_sum"])
            out.append(("probe.transfer_rows", ok, f"{have} vs {ref}"))
        else:
            ok = len(have) == len(ref) and all(_close(a, b) for a, b in zip(have, ref))
            out.append((f"probe.{key}", ok, f"mean train loss per epoch {have} vs {ref}"))
    return out


def run_gate(workdir: Path) -> list[tuple[str, bool, str]]:
    """Every check; an exception in a group is that group's failed check."""
    out = []
    for name, group in (("grad_check", gradient_checks), ("crf", crf_checks),
                        ("probe", lambda: probe_checks(workdir))):
        try:
            out.extend(group())
        except Exception:
            out.append((name, False, traceback.format_exc(limit=4)))
    return out


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Run the correctness gate, or record its reference.")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json from the current code")
    args = parser.parse_args()
    env.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=env.WORK))
    try:
        if args.record:
            REFERENCE.write_text(json.dumps({"probe": run_probe(tmp)}, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
            return 0
        checks = run_gate(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
