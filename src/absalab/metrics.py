"""Macro-F1 evaluation with class-wise and single/multi-aspect slices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .alsa import LABEL_NAMES, NUM_CLASSES


@dataclass
class MetricsReport:
    """Evaluation summary; all F1 values are percentages.

    `confusion[g][p]` counts samples of gold class g predicted as p.
    Macro F1 is the unweighted mean of the three per-class F1 scores.
    """

    macro_f1: float
    per_class_f1: tuple[float, float, float]
    confusion: np.ndarray
    count: int
    sa_macro_f1: float | None = None
    ma_macro_f1: float | None = None
    sa_count: int = 0
    ma_count: int = 0
    extras: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        record = {
            "macro_f1": round(self.macro_f1, 2),
            "per_class_f1": {name: round(v, 2) for name, v in zip(LABEL_NAMES, self.per_class_f1)},
            "confusion": self.confusion.tolist(),
            "count": self.count,
        }
        if self.sa_macro_f1 is not None:
            record["sa"] = {"macro_f1": round(self.sa_macro_f1, 2), "count": self.sa_count}
        if self.ma_macro_f1 is not None:
            record["ma"] = {"macro_f1": round(self.ma_macro_f1, 2), "count": self.ma_count}
        record.update(self.extras)
        return record


def macro_f1(predictions: Sequence[int], golds: Sequence[int]) -> MetricsReport:
    """Per-class and macro F1 with the 0-for-empty-denominator convention."""
    preds = np.asarray(predictions, dtype=np.intp)
    gold = np.asarray(golds, dtype=np.intp)
    if preds.size == 0:
        raise ValueError("macro_f1 requires at least one sample")
    if preds.shape != gold.shape:
        raise ValueError(f"{preds.size} predictions vs {gold.size} golds")
    for arr, what in ((preds, "prediction"), (gold, "gold")):
        if arr.min() < 0 or arr.max() >= NUM_CLASSES:
            raise ValueError(f"{what} labels must lie in [0, {NUM_CLASSES})")
    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(confusion, (gold, preds), 1)
    per_class = []
    for c in range(NUM_CLASSES):
        tp = confusion[c, c]
        predicted = confusion[:, c].sum()
        actual = confusion[c, :].sum()
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append(100.0 * f1)
    macro = float(np.mean(per_class))
    return MetricsReport(macro, tuple(per_class), confusion, int(preds.size))


def format_report(report: MetricsReport, title: str = "evaluation") -> str:
    """Human-readable table, percentages with two decimals."""
    lines = [f"== {title} ({report.count} samples) =="]
    lines.append(f"macro F1: {report.macro_f1:.2f}")
    for name, value in zip(LABEL_NAMES, report.per_class_f1):
        lines.append(f"  F1[{name}]: {value:.2f}")
    if report.sa_macro_f1 is not None:
        lines.append(f"  single-aspect macro F1: {report.sa_macro_f1:.2f} ({report.sa_count} samples)")
    if report.ma_macro_f1 is not None:
        lines.append(f"  multi-aspect macro F1: {report.ma_macro_f1:.2f} ({report.ma_count} samples)")
    lines.append("  confusion (rows gold, cols predicted):")
    header = "        " + " ".join(f"{name[:8]:>9s}" for name in LABEL_NAMES)
    lines.append(header)
    for g in range(NUM_CLASSES):
        row = " ".join(f"{int(report.confusion[g, p]):>9d}" for p in range(NUM_CLASSES))
        lines.append(f"  {LABEL_NAMES[g][:6]:>6s} {row}")
    return "\n".join(lines)
