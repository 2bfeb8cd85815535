"""In-memory spans around absalab's public functions.

The benchmark wraps the functions named below from its own files: the
wrapper records (name, tag, start, end, parent) and calls the original.
A function is replaced under every name that refers to it in a loaded
absalab module, so ``absalab.alsa.run_lstm`` and ``absalab.layers.run_lstm``
both record. ``Tensor.backward`` is wrapped on the class. Spans stay in
memory until :meth:`Recorder.drain` collects them; a traced run writes
its traced passes' spans to one file at the end (:func:`write_spans`).

Two sets exist. ``METER`` is always wrapped: the end-to-end metrics
(steps, evaluation samples, ingestion, set-up) are read from its spans,
and it costs a few microseconds per sample-step. ``LAYERS`` is wrapped
only in the traced run and gives the per-layer numbers.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import absalab
from absalab.autograd import Tensor


def _train_tag(args, kwargs, result):
    config = args[0]
    return f"{config.task}/{config.architecture}/{config.input_mode}"


def _len_sentences(args, kwargs, result):
    return len(result.sentences)


def _items(args, kwargs, result):
    return len(args[1])


def _mode_variant(args, kwargs, result):
    return args[1].variant


def _found_rows(args, kwargs, result):
    return len(result) - 1  # every row but the shared UNK row came from the file


def _param_floats(args, kwargs, result):
    store = args[0]
    return sum(store.value(name).size for name in store.names())


def _archive_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# name -> tagger(args, kwargs, result) or None
METER: dict[str, Callable | None] = {
    "optim.forward_backward": None,
    "optim.adam_step": None,
    "harness.train": _train_tag,
    "harness.corpus_span_f1": _items,
    "harness.evaluate_samples": None,
    "alsa.predict_label": None,
    "alsa.multitask_forward": None,
    "ae.export_transfer": None,
    "data.parse_semeval": None,
    "data.collect_tokens": None,
    "data.build_dataset": _len_sentences,
}

LAYERS: dict[str, Callable | None] = {
    "autograd.Tensor.backward": None,
    "optim.adam_step": _param_floats,
    "layers.run_lstm": None,
    "layers.run_bigru": None,
    "layers.additive_attention": None,
    "layers.embed": None,
    "layers.classify": None,
    "layers.max_pool_rows": None,
    "layers.append_to_rows": None,
    "crf.log_partition": None,
    "crf.path_score": None,
    "crf.viterbi": None,
    "ae.ae_forward": None,
    "alsa.build_input": _mode_variant,
    "alsa.alsa_forward": None,
    "data.load_embeddings": _found_rows,
    "data.write_dataset_cache": None,
    "data.read_dataset_cache": None,
    "checkpoint.save_archive": _archive_bytes,
    "checkpoint.load_archive": None,
    "metrics.macro_f1": None,
}


@dataclass
class Span:
    name: str
    tag: object
    start: float
    end: float
    parent: int  # index into the same drained list, -1 at the root

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Installs wrappers, keeps spans in call order, restores on uninstall.

    The benchmark drives absalab from one thread, so one stack suffices.
    """

    def __init__(self):
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, tag=None) -> list:
        record = [name, tag, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self._spans))
        self._spans.append(record)
        return record

    def _wrap(self, name: str, fn, tagger):
        recorder = self

        def wrapper(*args, **kwargs):
            record = recorder._open(name)
            result = None
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[3] = time.perf_counter()
                recorder._stack.pop()
                if tagger is not None:
                    try:
                        record[1] = tagger(args, kwargs, result)
                    except Exception:  # a failed call leaves no tag
                        record[1] = None

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str, tag=None):
        """A span around a block of the benchmark's own code."""
        record = self._open(name, tag)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def drain(self) -> list[Span]:
        """All spans recorded since the last drain, in call order."""
        if self._stack:
            raise RuntimeError("drain inside an open span")
        out = [Span(*r) for r in self._spans]
        self._spans.clear()
        return out

    # -- patching ----------------------------------------------------------

    def install(self, targets: dict[str, Callable | None]) -> None:
        if self._restore:
            raise RuntimeError("recorder already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "absalab" or n.startswith("absalab.")]
        for name, tagger in targets.items():
            if name == "autograd.Tensor.backward":
                original = Tensor.backward
                self._restore.append((Tensor, "backward", original))
                Tensor.backward = self._wrap(name, original, tagger)
                continue
            module_name, attr = name.split(".")
            original = getattr(getattr(absalab, module_name), attr)
            wrapper = self._wrap(name, original, tagger)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


TRACED = {**METER, **LAYERS}  # a LAYERS tagger wins where both name a function


# -- analysis ------------------------------------------------------------------


class SpanIndex:
    """Self times and ancestor queries over one drained list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.parent = [s.parent for s in spans]
        child_time = [0.0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += spans[i].duration
        self.self_time = [s.duration - c for s, c in zip(spans, child_time)]

    def ancestors(self, i: int):
        p = self.parent[i]
        while p >= 0:
            yield p
            p = self.parent[p]

    def nearest(self, i: int, name: str) -> int:
        for a in self.ancestors(i):
            if self.spans[a].name == name:
                return a
        return -1

    def under(self, i: int, name: str) -> bool:
        return self.nearest(i, name) >= 0


def count_tape_nodes(loss: Tensor) -> int:
    """Distinct tensors reachable from `loss` through `_parents`."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def write_spans(path, passes: list[list[Span]], origin: float) -> None:
    """One JSON line per span: pass number, index and parent index within
    the pass, name, tag, and start and end in seconds from `origin`."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for i, s in enumerate(spans):
                fh.write(json.dumps({"pass": k, "id": i, "parent": s.parent, "name": s.name, "tag": s.tag,
                                     "start": s.start - origin, "end": s.end - origin}) + "\n")
