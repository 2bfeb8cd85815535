"""absalab benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload alsa-train --seed 1 --seconds 35 --trace 0

Generates the workload's inputs from ``--seed`` (perfbench/gen.py), runs
the correctness gate (perfbench/gate.py), then repeats passes of the
workload (perfbench/workloads.py) for about ``--seconds`` seconds. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes, reports the per-layer metrics
(perfbench/tracing.py) and writes the traced passes' spans to
``.perfbench/trace-<workload>-<seed>.jsonl``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import env  # noqa: E402  (pins BLAS threads before numpy loads)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import absalab  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from absalab.ae import AeModel, AspectSpan, ae_loss  # noqa: E402
from absalab.alsa import AlsaSample, InputMode, MultitaskModel, alsa_loss, create_alsa_model, multitask_loss  # noqa: E402
from absalab.optim import ParamStore  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EVAL_STEP = ("alsa.predict_label", "alsa.multitask_forward")
COMMANDS = ("harness.train", "cmd.eval", "cmd.export")
TRAIN_TAGS = {
    "alsa/tclstm/plain": "train_tclstm_sps", "alsa/atae/plain": "train_atae_sps",
    "alsa/ian/plain": "train_ian_sps", "ae/atae/plain": "train_ae_sps",
    "multitask/atae/plain": "train_multitask_sps", "alsa/atae/transfer": "train_atae_t_sps",
    "alsa/atae/noise": "train_atae_r_sps",
}


# -- reading one pass's spans ------------------------------------------------------


class PassStats:
    """End-to-end quantities of one pass, read from its meter spans."""

    def __init__(self, spans: list[tracing.Span], wall: float):
        self.wall = wall
        idx = tracing.SpanIndex(spans)
        self.train_steps: list[tuple[float, str | None, int]] = []  # (latency, train tag, fb index)
        self.eval_samples: list[float] = []  # forward-only samples outside training steps
        self.eval_under_evaluate: list[float] = []
        self.dev_tagging = [0, 0.0]  # sentences, seconds of tagging dev evaluation
        self.export = [0, 0.0]
        self.ingest = [0, 0.0]
        first_work: dict[int, float] = {}
        last_fb = -1
        for i, s in enumerate(spans):
            name = s.name
            work = False
            if name == "optim.forward_backward":
                last_fb = i
                work = True
            elif name == "optim.adam_step":
                j, last_fb = last_fb, -1
                if j >= 0 and idx.parent[j] == idx.parent[i]:
                    t = idx.nearest(i, "harness.train")
                    self.train_steps.append((s.end - spans[j].start, spans[t].tag if t >= 0 else None, j))
            elif name in EVAL_STEP and not idx.under(i, "optim.forward_backward"):
                self.eval_samples.append(s.duration)
                if idx.under(i, "harness.evaluate_samples"):
                    self.eval_under_evaluate.append(s.duration)
                    work = True
            elif name == "harness.corpus_span_f1" and s.tag:
                self.dev_tagging[0] += s.tag
                self.dev_tagging[1] += s.duration
            elif name == "ae.export_transfer":
                self.export[0] += 1
                self.export[1] += s.duration
                work = True
            elif name in ("data.parse_semeval", "data.collect_tokens", "data.build_dataset"):
                self.ingest[1] += s.duration
                if name == "data.build_dataset" and s.tag:
                    self.ingest[0] += s.tag
            if work:
                for a in idx.ancestors(i):
                    if spans[a].name in COMMANDS:
                        first_work.setdefault(a, s.start)
                        break
        self.setups = [first_work[c] - spans[c].start for c in sorted(first_work)]

    @property
    def steps(self) -> list[float]:
        """Latencies of the workload's unit operation: a training
        sample-step, or a forward-only evaluation where nothing trains."""
        if self.train_steps:
            return [lat for lat, _, _ in self.train_steps]
        return self.eval_under_evaluate


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(passes: list[PassStats], failures: int, attempted: int) -> tuple[dict, dict]:
    """(gated metrics, reported-only metrics), each name -> (value, unit).

    Rates are taken per pass and reported as the median over passes, so
    one pass slowed by a noisy neighbour does not set them. A value that
    was not measured (no pass ran, or every command failed) is None.
    """
    steps = [x for p in passes for x in p.steps]
    setups = [x for p in passes for x in p.setups]
    tail_value, tail_pct = tail(steps) if steps else (None, None)
    ms = lambda x: None if x is None else 1000.0 * x  # noqa: E731
    gated = {
        "setup_s": (None if not setups else IMPORT_S + statistics.median(setups), "s"),
        "wall_s": (_median(p.wall for p in passes), "s"),
        "step_sps": (_median(_rate(len(p.steps), sum(p.steps)) for p in passes if p.steps), "1/s"),
        "step_ms_p50": (ms(_median(steps)), "ms"),
        "step_ms_tail": (ms(tail_value), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    by_tag: dict[str, list[float]] = {}
    for p in passes:
        for lat, tag, _ in p.train_steps:
            by_tag.setdefault(tag, []).append(lat)
    extra = {name: (_rate(len(by_tag[tag]), sum(by_tag[tag])) if tag in by_tag else None, "1/s")
             for tag, name in TRAIN_TAGS.items()}
    evals = [x for p in passes for x in p.eval_samples]
    dev = [sum(p.dev_tagging[k] for p in passes) for k in (0, 1)]
    export = [sum(p.export[k] for p in passes) for k in (0, 1)]
    extra.update({
        "ingest_sps": (_median(_rate(*p.ingest) for p in passes), "1/s"),
        "eval_sps": (_rate(len(evals) + dev[0], sum(evals) + dev[1]) if len(evals) or dev[0] else None, "1/s"),
        "export_sps": (_rate(export[0], export[1]) if export[0] else None, "1/s"),
        "error_rate": (failures / attempted, "ratio"),
        "step_tail_percentile": (tail_pct, "%"),
        "step_count": (len(steps), "count"),
        "setup_count": (len(setups), "count"),
        "import_s": (IMPORT_S, "s"),
    })
    return gated, extra


# -- per-layer metrics from a traced run ------------------------------------------------

SELF_PER_STEP = {
    "autograd.Tensor.backward": "autograd.backward.self_ms",
    "layers.run_lstm": "layers.run_lstm.self_ms",
    "layers.run_bigru": "layers.run_bigru.self_ms",
    "layers.additive_attention": "layers.additive_attention.self_ms",
    "layers.embed": "layers.embed.self_ms",
    "layers.classify": "layers.classify.self_ms",
    "layers.max_pool_rows": "layers.max_pool_rows.self_ms",
    "layers.append_to_rows": "layers.append_to_rows.self_ms",
    "crf.log_partition": "crf.log_partition.self_ms",
    "crf.path_score": "crf.path_score.self_ms",
    "crf.viterbi": "crf.viterbi.self_ms",
    "ae.ae_forward": "ae.ae_forward.self_ms",
    "ae.export_transfer": "ae.export_transfer.self_ms",
    "alsa.alsa_forward": "alsa.alsa_forward.self_ms",
    "alsa.multitask_forward": "alsa.multitask_forward.self_ms",
    "optim.forward_backward": "optim.forward_backward.self_ms",
}
PER_CALL_MS = {
    "optim.adam_step": "optim.adam_step.ms",
    "data.parse_semeval": "data.parse_semeval.ms",
    "data.build_dataset": "data.build_dataset.ms",
    "data.load_embeddings": "data.load_embeddings.ms",
    "data.write_dataset_cache": "data.write_dataset_cache.ms",
    "data.read_dataset_cache": "data.read_dataset_cache.ms",
    "checkpoint.save_archive": "checkpoint.save_archive.ms",
    "checkpoint.load_archive": "checkpoint.load_archive.ms",
    "metrics.macro_f1": "metrics.macro_f1.ms",
    "harness.evaluate_samples": "harness.evaluate_samples.ms",
}
DEV_EVAL = ("alsa.predict_label", "harness.corpus_span_f1", "alsa.multitask_forward", "metrics.macro_f1")
STEP_LAYERS = ("autograd", "layers", "alsa", "optim")


def tape_nodes() -> dict[str, int]:
    """Tape nodes reachable from one loss on a fixed 20-token sentence with
    a two-token aspect, at the benchmark's model sizes (d = 300)."""
    rng = np.random.default_rng(0)
    emb = rng.uniform(-0.25, 0.25, size=(64, 300)).astype(np.float32)
    ids = list(range(20))
    span = AspectSpan(8, 9)
    gold = ["O"] * 8 + ["B", "I"] + ["O"] * 10
    sample = AlsaSample(tuple(ids), span, 0, "canonical", "d")
    out = {}
    for arch in ("tclstm", "atae", "ian"):
        model = create_alsa_model(ParamStore(), arch, d_in=300, hidden=workloads.ALSA_HIDDEN, rng=rng)
        out[arch] = tracing.count_tape_nodes(alsa_loss(model, sample, InputMode.plain(), emb))
    ae = AeModel.create(ParamStore(), emb, hidden_dim=workloads.AE_HIDDEN, rng=rng)
    out["ae"] = tracing.count_tape_nodes(ae_loss(ae, ids, gold))
    mt = MultitaskModel.create(ParamStore(), emb, shared_hidden=workloads.AE_HIDDEN,
                               alsa_hidden=workloads.ALSA_HIDDEN, rng=rng)
    out["multitask"] = tracing.count_tape_nodes(multitask_loss(mt, ids, gold, span, 0))
    return out


def per_layer(traced: list[tuple[list[tracing.Span], PassStats]], overhead: float, vector_lines: int) -> tuple[dict, str]:
    """Per-layer metrics over the traced passes and the step-sum check line."""
    self_total: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    tags: dict[str, list] = {}
    build_input: dict[str, float] = {"plain": 0.0, "transfer": 0.0, "noise": 0.0}
    in_step = {layer: 0.0 for layer in STEP_LAYERS}
    dev_per_train: list[float] = []
    param_floats = archive_bytes = 0
    n_steps = 0
    for k, (spans, stats) in enumerate(traced):
        idx = tracing.SpanIndex(spans)
        n_steps += len(stats.steps)
        step_roots = {j for _, _, j in stats.train_steps}
        dev: dict[int, float] = {}
        for i, s in enumerate(spans):
            self_total[s.name] = self_total.get(s.name, 0.0) + idx.self_time[i]
            calls.setdefault(s.name, []).append(s.duration)
            if s.tag is not None:
                tags.setdefault(s.name, []).append(s.tag)
            if s.name == "alsa.build_input":
                build_input[s.tag] = build_input.get(s.tag, 0.0) + idx.self_time[i]
            layer = s.name.split(".")[0]
            if layer in in_step and (i in step_roots or s.name == "optim.adam_step"
                                     or any(a in step_roots for a in idx.ancestors(i))):
                in_step[layer] += idx.self_time[i]
            if s.name in DEV_EVAL:
                for a in idx.ancestors(i):
                    name = spans[a].name
                    if name == "harness.train":
                        dev[a] = dev.get(a, 0.0) + s.duration
                    if name in DEV_EVAL or name in ("harness.train", "optim.forward_backward"):
                        break
        dev_per_train.extend(dev.values())
        if k == 0:  # exact per-pass counts
            seen_train: set[int] = set()
            for i, s in enumerate(spans):
                if s.name == "optim.adam_step" and s.tag:
                    t = idx.nearest(i, "harness.train")
                    if t not in seen_train:
                        seen_train.add(t)
                        param_floats += s.tag
                if s.name == "checkpoint.save_archive" and s.tag:
                    archive_bytes += s.tag
    steps = max(n_steps, 1)

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name, metric in SELF_PER_STEP.items():
        out[metric] = (1000.0 * self_total.get(name, 0.0) / steps, "ms")
    for variant, seconds in build_input.items():
        out[f"alsa.build_input.{variant}.self_ms"] = (1000.0 * seconds / steps, "ms")
    for name, metric in PER_CALL_MS.items():
        out[metric] = (1000.0 * mean(calls.get(name, [])), "ms")
    found = tags.get("data.load_embeddings", [])
    out["data.embedding_lines"] = (vector_lines if found else 0, "count")
    out["data.embedding_hit_ratio"] = (mean(found) / vector_lines if found else 0.0, "ratio")
    out["optim.param_floats"] = (param_floats, "count")
    out["checkpoint.bytes"] = (archive_bytes, "count")
    out["harness.train.s"] = (mean(calls.get("harness.train", [])), "s")
    out["harness.dev_eval.ms"] = (1000.0 * mean(dev_per_train), "ms")
    for arch, count in tape_nodes().items():
        out[f"autograd.tape_nodes.{arch}"] = (count, "count")
    out["trace.overhead_frac"] = (overhead, "ratio")

    train_lat = [lat for _, stats in traced for lat, _, _ in stats.train_steps]
    check = ""
    if train_lat:
        parts = {layer: 1000.0 * in_step[layer] / len(train_lat) for layer in STEP_LAYERS}
        check = ("in-step self time per step: " + ", ".join(f"{k} {v:.3f} ms" for k, v in parts.items())
                 + f"; sum {sum(parts.values()):.3f} ms vs traced mean step {1000.0 * mean(train_lat):.3f} ms"
                 + f" and traced median step {1000.0 * statistics.median(train_lat):.3f} ms")
    return out, check


# -- the run -------------------------------------------------------------------------------


def machine() -> dict:
    blas = getattr(np, "__config__", None)
    blas_info = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {}) if blas else {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas_info.get('name', '?')} {blas_info.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "absalab": absalab.__version__,
    }


def generate(workload: workloads.Workload, seed: int, out: Path, scale: float) -> dict:
    """Run the generator in a child process so its memory stays out of peak RSS."""
    train = max(8, round(workload.train_sentences * scale))
    test = max(4, round(workload.test_sentences * scale))
    cmd = [sys.executable, str(HERE / "gen.py"), "--out", str(out), "--seed", str(seed),
           "--domain", workload.domain, "--sentences", str(train), "--test", str(test),
           "--vector-factor", str(workload.vector_factor), "--fillers", str(workload.fillers)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_passes(ctx: workloads.Context, workload: workloads.Workload, recorder: tracing.Recorder,
               seconds: float, traced: bool):
    """Repeat rounds of passes until the next round would overrun `seconds`.

    Untraced, a round is one pass recording METER spans, and at least one
    round runs. Traced, a round is a METER pass and a fully traced pass of
    identical work, in alternating order (ABBA) so a steady drift in machine
    speed cancels out of the overhead; at least two rounds run.
    """
    metered: list[PassStats] = []
    full: list[tuple[list[tracing.Span], PassStats]] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        order = [tracing.METER, tracing.TRACED] if len(full) % 2 == 0 else [tracing.TRACED, tracing.METER]
        for targets in (order if traced else [tracing.METER]):
            recorder.install(targets)
            t0 = time.perf_counter()
            try:
                workload.run_pass(ctx)
            finally:
                wall = time.perf_counter() - t0
                recorder.uninstall()
            spans = recorder.drain()
            stats = PassStats(spans, wall)
            if targets is tracing.METER:
                metered.append(stats)
            else:
                full.append((spans, stats))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds and (not traced or len(full) >= 2):
            return metered, full


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="absalab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size factor (smoke tests use 0.1)")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    env.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=env.WORK))
    try:
        facts = generate(workload, args.seed, work / "data", args.scale)
        print(f"# workload {workload.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        print(f"# machine {json.dumps(machine(), sort_keys=True)}")
        print(f"# inputs {json.dumps(facts, sort_keys=True)}")
        checks = gate.run_gate(work / "gate")
        gate_failures = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
        print(f"# gate {len(checks) - len(gate_failures)}/{len(checks)} checks passed")

        (work / "out").mkdir()
        recorder = tracing.Recorder()
        ctx = workloads.Context(args.seed, work / "data", work / "out", recorder, workload.domain)
        metered, traced = [], []
        try:
            workload.prepare(ctx)
        except Exception:
            ctx.check("prepare", False, traceback.format_exc(limit=4))
        else:
            metered, traced = run_passes(ctx, workload, recorder, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = gate_failures + ctx.failures
    for failure in failures:
        print(f"# FAIL {failure}")
    ops = sum(len(p.train_steps) + len(p.eval_samples) + p.export[0] for p in metered)
    attempted = max(1, ops + ctx.checks + len(checks))
    gated, extra = end_to_end(metered, len(failures), attempted)
    print(f"# passes {len(metered)}: wall {[round(p.wall, 3) for p in metered]} s")
    for name, (value, unit) in {**gated, **extra}.items():
        print(f"# {name:24s} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    metrics = gated
    if args.trace:
        metrics = {}
        if traced and gated["step_sps"][0] is not None:
            overhead = sum(stats.wall for _, stats in traced) / sum(p.wall for p in metered) - 1.0
            metrics, check = per_layer(traced, overhead, facts["vector_lines"])
            for name, (value, unit) in metrics.items():
                print(f"# {name:40s} {value:.6g} {unit}")
            if check:
                print(f"# {check}; untraced mean step {1000.0 / gated['step_sps'][0]:.3f} ms,"
                      f" untraced step_ms_p50 {gated['step_ms_p50'][0]:.3f} ms")
            spans_path = env.WORK / f"trace-{workload.name}-{args.seed}.jsonl"
            tracing.write_spans(spans_path, [spans for spans, _ in traced], _T_START)
            print(f"# spans of {len(traced)} traced passes written to {spans_path.relative_to(env.ROOT)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], (None,))[0], "unit": m["unit"]}
                    for m in SPEC["per_layer" if args.trace else "end_to_end"]},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
