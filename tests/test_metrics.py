import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mogref.data import AnnotationRecord, ValidationError, load_annotations
from mogref.matching import BBox
from mogref.metrics import (
    DEFAULT_THRESHOLDS,
    EvalResult,
    dataset_stats,
    mean_precision,
    precision_at,
    score_ious,
)
from mogref.rng import RngState


def pair_with_iou(target_iou: float) -> tuple[BBox, BBox]:
    """Axis-aligned pair with an exactly controllable overlap fraction.

    Ground truth is a 0.5 x 0.5 box; the prediction shares three edges and
    slides the fourth so that inter/union == target_iou.
    """
    gt = BBox(0.25, 0.25, 0.5, 0.5)
    if target_iou >= 1.0:
        return gt, gt
    # pred spans x in [0, w] inside gt: inter = 0.5w, union = 0.25, iou = 2w
    w = target_iou / 2.0
    pred = BBox(w / 2.0, 0.25, w, 0.5)
    return pred, gt


class TestPrecisionAt:
    def test_direct_count(self):
        pairs = [pair_with_iou(0.6), pair_with_iou(0.4), pair_with_iou(0.9)]
        assert precision_at(pairs, 0.5) == pytest.approx(2.0 / 3.0)

    def test_boundary_is_strictly_greater(self):
        pairs = [pair_with_iou(0.5)]
        pred, gt = pairs[0]
        from mogref.matching import iou

        assert iou(pred, gt) == pytest.approx(0.5, abs=1e-12)
        assert precision_at(pairs, 0.5) == 0.0

    def test_all_perfect(self):
        pairs = [pair_with_iou(1.0)] * 5
        for theta in DEFAULT_THRESHOLDS:
            assert precision_at(pairs, theta) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            precision_at([], 0.5)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            precision_at([pair_with_iou(0.9)], 0.0)
        with pytest.raises(ValueError, match="at least one theta"):  # no mP to average
            score_ious([0.7], ())

    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12))
    def test_monotone_non_increasing_in_theta(self, ious):
        pairs = [pair_with_iou(v) for v in ious]
        values = [precision_at(pairs, t) for t in (0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestMeanPrecision:
    def test_all_perfect_mp(self):
        result = mean_precision([pair_with_iou(1.0)] * 3)
        assert result.mp == 1.0
        assert result.count == 3

    def test_threshold_crossing_single_pair(self):
        result = mean_precision([pair_with_iou(0.65)])
        assert [result.precisions[t] for t in DEFAULT_THRESHOLDS] == [1.0, 1.0, 0.0, 0.0]
        assert result.mp == 0.5

    def test_mp_is_exact_mean(self):
        rng = RngState(3)
        pairs = [pair_with_iou(rng.uniform_in(0.05, 0.95)) for _ in range(9)]
        result = mean_precision(pairs)
        assert result.mp == sum(result.precisions.values()) / len(result.precisions)

    def test_published_baseline_row_mean(self):
        # percentage row consistency check for the mP definition
        row = [26.53, 20.47, 13.15, 5.41]
        assert sum(row) / len(row) == pytest.approx(16.39, abs=0.005)

    @pytest.mark.parametrize("precisions, mp", [
        ([13.91, 10.17, 7.31, 3.23], 8.65),
        ([21.25, 16.87, 10.24, 4.56], 13.23),
        ([24.52, 19.54, 13.86, 4.93], 15.71),
        ([25.12, 18.63, 10.97, 4.62], 14.83),
        ([26.23, 19.62, 12.57, 5.01], 15.85),
        ([26.53, 20.47, 13.15, 5.41], 16.39),
        ([28.15, 23.37, 15.23, 6.41], 18.29),
    ])
    def test_reported_rows_consistent_with_mp_definition(self, precisions, mp):
        # columns printed at 2 decimals can each carry +/-0.005 of rounding,
        # so a mean-of-printed-columns may sit up to 0.01 from the printed mP
        assert sum(precisions) / len(precisions) == pytest.approx(mp, abs=0.01)

    def test_precisions_are_python_floats(self):
        # a numpy scalar would write eval.csv cells as np.float64(...)
        result = mean_precision([pair_with_iou(0.72), pair_with_iou(0.55)])
        assert {type(v) for v in result.precisions.values()} | {type(result.mp)} == {float}
        assert type(result.count) is int

    def test_one_overlap_call_for_all_thresholds(self, monkeypatch):
        from mogref import metrics, matching

        calls = []
        monkeypatch.setattr(metrics, "box_overlaps",
                            lambda a, b: calls.append(a.shape) or matching.box_overlaps(a, b))
        pairs = [pair_with_iou(v) for v in (0.3, 0.55, 0.65, 0.75, 0.85)]
        result = mean_precision(pairs, DEFAULT_THRESHOLDS)
        assert calls == [(5, 4)]
        assert [result.precisions[t] for t in DEFAULT_THRESHOLDS] == [0.8, 0.6, 0.4, 0.2]

    def test_round_trip_json(self):
        result = mean_precision([pair_with_iou(0.72), pair_with_iou(0.55)])
        back = EvalResult.from_json(json.loads(json.dumps(result.to_json())))
        assert back == result


def fixture_records():
    return [
        AnnotationRecord("scene-0001", 100, 100, "the red square",
                         [(45.0, 30.0, 10.0, 10.0)], "square"),
        AnnotationRecord("scene-0002", 200, 100, "the blue circle in the top left",
                         [(40.0, 10.0, 30.0, 20.0)], "circle"),
    ]


class TestDatasetStats:
    def test_single_record_hand_case(self):
        rec = AnnotationRecord("img", 100, 100, "the red square", [(5.0, 5.0, 10.0, 10.0)])
        stats = dataset_stats([rec])
        assert stats.o2s_mean == 1.0
        assert stats.o2s_std == 0.0
        assert stats.words_mean == 3.0
        assert stats.targets_per_image_mean == 1.0
        assert stats.bbox_count == 1
        assert stats.image_count == 1

    def test_two_record_fixture_hand_values(self):
        stats = dataset_stats(fixture_records())
        assert stats.o2s_mean == 2.0
        assert stats.o2s_std == 1.0
        assert stats.words_mean == 5.0
        assert stats.words_std == 2.0
        assert stats.targets_per_image_mean == 1.0
        assert stats.resolution_histogram == {"100x100": 1, "200x100": 1}
        assert stats.category_frequencies == {"square": 1, "circle": 1}
        assert stats.sentence_length_histogram == {3: 1, 7: 1}

    def test_matches_bundled_expected_file(self, fixtures_dir):
        records = load_annotations(fixtures_dir / "annotations_fixture.json")
        expected = json.loads((fixtures_dir / "expected_stats.json").read_text())
        assert dataset_stats(records).to_json() == expected

    def test_duplicate_record_keeps_means(self):
        records = fixture_records()
        base = dataset_stats(records)
        doubled = dataset_stats(records + records)
        assert doubled.o2s_mean == base.o2s_mean
        assert doubled.words_mean == base.words_mean
        assert doubled.bbox_count == 2 * base.bbox_count
        # same ids, so image_count is unchanged and boxes-per-image doubles
        assert doubled.image_count == base.image_count
        assert doubled.targets_per_image_mean == 2 * base.targets_per_image_mean

    def test_permutation_invariant(self):
        records = fixture_records()
        assert dataset_stats(records) == dataset_stats(list(reversed(records)))

    def test_out_of_bounds_box_names_record(self):
        bad = AnnotationRecord("bad-image", 50, 50, "the red square", [(40.0, 40.0, 20.0, 20.0)])
        with pytest.raises(ValidationError, match="bad-image"):
            dataset_stats([bad])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            dataset_stats([])
