"""Grounding precision metrics and annotation-set statistics.

A prediction counts as correct at threshold theta only when its IoU with
the ground truth is strictly greater than theta, so a pair sitting exactly
on the threshold is wrong. ``mP`` is the plain arithmetic mean of the
per-threshold precisions. :func:`score_ious` is that rule, applied to one
IoU per sample; every precision in the package goes through it.

Dataset statistics: the object-to-scene ratio is computed per bounding box
as ``100 * box_area / image_area``; spreads are population (not sample)
standard deviations; word counts come from whitespace tokenization with
punctuation stripped. The CSV/JSON emitters repeat those definitions in
their headers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from mogref.data import AnnotationRecord, ValidationError, normalize_words
from mogref.matching import BBox, box_overlaps, box_rows

DEFAULT_THRESHOLDS = (0.5, 0.6, 0.7, 0.8)

STAT_DEFINITIONS = (
    "o2s: 100 * (box_w * box_h) / (image_w * image_h), one value per bounding box",
    "std: population standard deviation",
    "words: whitespace tokens of the expression, punctuation stripped",
    "targets_per_image: total boxes of an image_id averaged over distinct image_ids",
)


@dataclass(frozen=True)
class EvalResult:
    """Per-threshold precisions, their mean, and the evaluated sample count."""

    precisions: dict[float, float]
    mp: float
    count: int

    def to_json(self) -> dict:
        return {
            "precisions": {f"P@{t:g}": p for t, p in self.precisions.items()},
            "mP": self.mp,
            "count": self.count,
        }

    @staticmethod
    def from_json(obj: dict) -> "EvalResult":
        precisions = {float(k[2:]): float(v) for k, v in obj["precisions"].items()}
        return EvalResult(precisions, float(obj["mP"]), int(obj["count"]))

    def csv_header(self) -> list[str]:
        return [f"P@{t:g}" for t in self.precisions] + ["mP"]

    def csv_row(self) -> list[str]:
        return [repr(p) for p in self.precisions.values()] + [repr(self.mp)]


def score_ious(ious: np.ndarray, thetas: Sequence[float] = DEFAULT_THRESHOLDS) -> EvalResult:
    """Precision at each theta of one IoU per sample: the fraction strictly
    above theta, as a Python ``float``; ``mP`` is their plain mean."""
    ious = np.asarray(ious, dtype=np.float64)
    if ious.size == 0:
        raise ValueError("precision needs at least one pair")
    for theta in thetas:
        if not (0.0 < theta < 1.0):
            raise ValueError(f"theta must be in (0, 1), got {theta}")
    precisions = {t: int(np.count_nonzero(ious > t)) / ious.size for t in thetas}
    mp = sum(precisions.values()) / len(precisions)
    return EvalResult(precisions, mp, ious.size)


def mean_precision(pairs: Sequence[tuple[BBox, BBox]],
                   thetas: Sequence[float] = DEFAULT_THRESHOLDS) -> EvalResult:
    """:func:`score_ious` of (prediction, ground-truth) pairs, one IoU each."""
    ious, _ = box_overlaps(box_rows([p for p, _ in pairs]), box_rows([g for _, g in pairs]))
    return score_ious(ious, thetas)


def precision_at(pairs: Sequence[tuple[BBox, BBox]], theta: float) -> float:
    """Fraction of (prediction, ground-truth) pairs with IoU strictly > theta."""
    return mean_precision(pairs, (theta,)).precisions[theta]


# ---------------------------------------------------------------------------
# dataset statistics
# ---------------------------------------------------------------------------


@dataclass
class DatasetStats:
    o2s_mean: float
    o2s_std: float
    words_mean: float
    words_std: float
    targets_per_image_mean: float
    bbox_count: int
    image_count: int
    resolution_histogram: dict[str, int] = field(default_factory=dict)
    category_frequencies: dict[str, int] = field(default_factory=dict)
    sentence_length_histogram: dict[int, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "definitions": list(STAT_DEFINITIONS),
            "o2s_mean": self.o2s_mean,
            "o2s_std": self.o2s_std,
            "words_mean": self.words_mean,
            "words_std": self.words_std,
            "targets_per_image_mean": self.targets_per_image_mean,
            "bbox_count": self.bbox_count,
            "image_count": self.image_count,
            "resolution_histogram": dict(sorted(self.resolution_histogram.items())),
            "category_frequencies": dict(sorted(self.category_frequencies.items())),
            "sentence_length_histogram": {
                str(k): v for k, v in sorted(self.sentence_length_histogram.items())
            },
        }


def _population_std(values: Sequence[float], mean: float) -> float:
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def dataset_stats(records: Sequence[AnnotationRecord]) -> DatasetStats:
    """Aggregate statistics over validated annotation records."""
    if not records:
        raise ValidationError("dataset_stats needs at least one record")
    bad = []
    for i, rec in enumerate(records):
        try:
            rec.validate(f"records[{i}] (image_id={rec.image_id})")
        except ValidationError as exc:
            bad.append(str(exc))
    if bad:
        raise ValidationError("invalid records:\n" + "\n".join(bad))

    o2s: list[float] = []
    words: list[int] = []
    boxes_per_image: Counter[str] = Counter()
    resolutions: Counter[str] = Counter()
    categories: Counter[str] = Counter()
    lengths: Counter[int] = Counter()
    seen_images: set[str] = set()

    for rec in records:
        image_area = rec.image_w * rec.image_h
        for (_, _, w, h) in rec.target_boxes:
            o2s.append(100.0 * (w * h) / image_area)
        n_words = len(normalize_words(rec.expression))
        words.append(n_words)
        lengths[n_words] += 1
        boxes_per_image[rec.image_id] += len(rec.target_boxes)
        if rec.image_id not in seen_images:
            seen_images.add(rec.image_id)
            resolutions[f"{rec.image_w}x{rec.image_h}"] += 1
        if rec.category is not None:
            categories[rec.category] += 1

    o2s_mean = sum(o2s) / len(o2s)
    words_mean = sum(words) / len(words)
    per_image = list(boxes_per_image.values())
    return DatasetStats(
        o2s_mean=o2s_mean,
        o2s_std=_population_std(o2s, o2s_mean),
        words_mean=words_mean,
        words_std=_population_std(words, words_mean),
        targets_per_image_mean=sum(per_image) / len(per_image),
        bbox_count=len(o2s),
        image_count=len(per_image),
        resolution_histogram=dict(resolutions),
        category_frequencies=dict(categories),
        sentence_length_histogram=dict(lengths),
    )
