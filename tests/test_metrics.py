import numpy as np
import pytest

from absalab.alsa import NUM_CLASSES
from absalab.metrics import MetricsReport, format_report, macro_f1


def majority_macro_f1(majority_test_count: int, test_size: int) -> float:
    """Closed-form macro F1 (percent) of a constant majority-class predictor.

    The predicted class scores F1 = 2c / (N + c) where c is its test count
    and N the test size; the other two classes contribute zero.
    """
    return 100.0 * (2.0 * majority_test_count / (test_size + majority_test_count)) / NUM_CLASSES


def labels_from_counts(pos, neg, neu):
    return [0] * pos + [1] * neg + [2] * neu


def test_all_positive_on_laptop_test_counts_is_23_22():
    golds = labels_from_counts(341, 128, 169)
    report = macro_f1([0] * len(golds), golds)
    assert round(report.macro_f1, 2) == 23.22


def test_all_positive_on_restaurant_test_counts_is_26_26():
    golds = labels_from_counts(728, 196, 196)
    report = macro_f1([0] * len(golds), golds)
    assert round(report.macro_f1, 2) == 26.26


def test_perfect_predictions_score_100():
    golds = labels_from_counts(5, 3, 2)
    report = macro_f1(list(golds), golds)
    assert report.macro_f1 == pytest.approx(100.0)
    assert report.per_class_f1 == (100.0, 100.0, 100.0)


def test_closed_form_matches_counting():
    golds = labels_from_counts(341, 128, 169)
    report = macro_f1([0] * len(golds), golds)
    assert report.macro_f1 == pytest.approx(majority_macro_f1(341, 638), abs=1e-9)


def test_confusion_totals_and_shape():
    report = macro_f1([0, 1, 2, 0], [0, 2, 2, 1])
    assert report.confusion.shape == (3, 3)
    assert report.confusion.sum() == report.count == 4
    assert report.confusion[1, 0] == 1  # gold negative predicted positive
    assert len(report.per_class_f1) == 3


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        macro_f1([], [])


def test_length_and_range_validation():
    with pytest.raises(ValueError):
        macro_f1([0, 1], [0])
    with pytest.raises(ValueError):
        macro_f1([0, 5], [0, 1])


def _recount_oracle(preds, golds):
    """Naive per-class recount, independent of the confusion-matrix path."""
    f1s = []
    for c in range(3):
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        fp = sum(1 for p, g in zip(preds, golds) if p == c and g != c)
        fn = sum(1 for p, g in zip(preds, golds) if p != c and g == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(100 * 2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(f1s) / 3


def test_macro_f1_matches_recount_oracle_on_random_pairs():
    gen = np.random.default_rng(0)
    for _ in range(1000):
        n = int(gen.integers(1, 40))
        preds = gen.integers(0, 3, size=n).tolist()
        golds = gen.integers(0, 3, size=n).tolist()
        report = macro_f1(preds, golds)
        assert report.macro_f1 == pytest.approx(_recount_oracle(preds, golds), abs=1e-12)


def test_format_report_two_decimals():
    report = macro_f1([0, 0, 1], [0, 1, 1])
    text = format_report(report, "demo")
    assert "demo" in text
    assert f"{report.macro_f1:.2f}" in text
    record = report.to_record()
    assert record["macro_f1"] == round(report.macro_f1, 2)
    assert set(record["per_class_f1"]) == {"positive", "negative", "neutral"}


def test_slices_render_when_present():
    report = macro_f1([0, 1], [0, 1])
    report.sa_macro_f1, report.sa_count = 50.0, 1
    report.ma_macro_f1, report.ma_count = 75.0, 1
    text = format_report(report)
    assert "single-aspect" in text and "multi-aspect" in text
    record = report.to_record()
    assert record["sa"]["macro_f1"] == 50.0
    assert record["ma"]["count"] == 1
