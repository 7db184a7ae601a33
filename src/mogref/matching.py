"""Box geometry, Hungarian assignment, and the set-matching loss.

Boxes are normalized center form (cx, cy, w, h) in [0, 1]. IoU/GIoU are
computed in one place, the float64 array kernel :func:`_overlap`:
:func:`box_overlaps` returns its two ratios to the metrics, evaluation and
the assignment cost (:func:`iou`/:func:`giou` are one call of it each),
and the set loss differentiates through its corners and extents. It is
tested against a scalar reference and a rasterized counting oracle.

:func:`hungarian` is one rectangular potentials solve of the shorter side
against the longer, O(min(Q, T)^2 max(Q, T)) with no padding, for every
shape. It returns an optimal assignment, the same pairs for the same
input; with one prediction or one target (the referring default) that is
the first minimum.

One loss path serves every batch size; a single sample is B = 1. The loss
matches each sample with :func:`hungarian` on the detached
:func:`grounding_cost`, then scores the whole batch as one autodiff node:
one L1 and one GIoU term over every matched pair of the batch, and one
confidence term over every query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mogref.tensor import Tensor, _record


@dataclass(frozen=True)
class BBox:
    """Normalized box: center (cx, cy) and extent (w, h), all in [0, 1]."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for field in ("cx", "cy", "w", "h"):
            v = getattr(self, field)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"BBox.{field} = {v} outside [0, 1]")

    def corners(self) -> tuple[float, float, float, float]:
        return (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )

    def to_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)

    @staticmethod
    def from_pixel(x: float, y: float, w: float, h: float, image_w: float, image_h: float) -> "BBox":
        """Convert a top-left pixel box to normalized center form."""
        return BBox((x + w / 2.0) / image_w, (y + h / 2.0) / image_h, w / image_w, h / image_h)


def box_rows(boxes: Sequence[BBox]) -> np.ndarray:
    """The (n, 4) float64 center-form rows of ``boxes``."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _overlap(a, b) -> tuple[np.ndarray, ...]:
    """IoU and GIoU of center-form ``(..., 4)`` boxes that broadcast, in
    float64, after what the set loss differentiates them through.

    Returns the (x, y) corners ``a_lo, a_hi, b_lo, b_hi``, the intersection
    extents before their clamp at 0 (``gap``) and the enclosure extents
    (``span``), all ``(..., 2)``, then ``union``, ``enclose``, ``iou`` and
    ``giou``, all ``(...)``. Each entry is the textbook scalar formula, operation for operation:
    corners ``c -+ size / 2``, intersection and enclosure extents clamped
    and multiplied x by y, union ``area(a) + area(b) - inter``. A union of 0
    needs two zero-area boxes and gives IoU 0. The enclosure can be 0 with a
    positive union (a width far below the spacing of floats at its center
    collapses the corners); GIoU is then the IoU.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    a_lo, a_hi = a[..., :2] - a[..., 2:] / 2.0, a[..., :2] + a[..., 2:] / 2.0
    b_lo, b_hi = b[..., :2] - b[..., 2:] / 2.0, b[..., :2] + b[..., 2:] / 2.0
    gap = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
    overlap = np.maximum(gap, 0.0)
    span = np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)
    inter = overlap[..., 0] * overlap[..., 1]
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    enclose = span[..., 0] * span[..., 1]
    positive, bounded = union > 0.0, enclose > 0.0
    iou_ = np.where(positive, inter / np.where(positive, union, 1.0), 0.0)
    giou_ = np.where(bounded, iou_ - (enclose - union) / np.where(bounded, enclose, 1.0), iou_)
    return a_lo, a_hi, b_lo, b_hi, gap, span, union, enclose, iou_, giou_


def box_overlaps(a, b) -> tuple[np.ndarray, np.ndarray]:
    """IoU and GIoU of center-form ``(..., 4)`` boxes that broadcast, as :func:`_overlap` computes them."""
    return _overlap(a, b)[-2:]


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union in [0, 1]; two zero-area boxes give 0."""
    return float(box_overlaps(a.to_array(), b.to_array())[0])


def giou(a: BBox, b: BBox) -> float:
    """Generalized IoU in [-1, 1]: IoU minus the enclosing-box dead space."""
    return float(box_overlaps(a.to_array(), b.to_array())[1])


# ---------------------------------------------------------------------------
# Hungarian assignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """Injective prediction-to-target pairs of size min(Q, T)."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def _solve(rows: list[list[float]]) -> list[int]:
    """Least-cost matching of each row of an n x m cost, n <= m, to its own
    column (potentials + shortest augmenting path, O(n^2 m), no padding;
    Crouse, IEEE TAES 2016). Returns the column of each row.
    """
    n, m = len(rows), len(rows[0])
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # match[j] = row occupying column j, 1-based; 0 = free
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row, ui = rows[i0 - 1], u[i0]
            delta, j1 = inf, -1
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    out = [0] * n
    for j in range(1, m + 1):
        if match[j]:
            out[match[j] - 1] = j - 1
    return out


def hungarian(cost) -> Assignment:
    """Minimum-cost bipartite assignment of predictions (rows) to targets.

    Returns an optimal assignment, one :func:`_solve` of the shorter side
    against the longer one (the cost is transposed when Q > T); the same
    input gives the same pairs. Among several optima it returns whichever
    the solve reaches first, except with one prediction or one target,
    where the solve compares raw costs against zero potentials and returns
    the first minimum, so its ties are exact, ``-0.0`` against ``0.0``
    included.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {c.shape}")
    if c.size == 0:
        return Assignment((), 0.0)
    if not np.isfinite(c).all():
        raise ValueError("cost matrix entries must be finite")
    if c.shape[0] <= c.shape[1]:
        pairs = list(enumerate(_solve(c.tolist())))
    else:
        pairs = sorted((q, t) for t, q in enumerate(_solve(c.T.tolist())))
    total_cost = float(sum(c[r, j] for r, j in pairs))
    return Assignment(tuple(pairs), total_cost)


# ---------------------------------------------------------------------------
# differentiable loss
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossWeights:
    """DETR-convention weights for the matching cost and loss terms."""

    l1: float = 5.0
    giou: float = 2.0
    conf: float = 1.0


def grounding_cost(boxes: np.ndarray, confidence: np.ndarray, targets: Sequence[BBox],
                   weights: LossWeights = LossWeights()) -> np.ndarray:
    """(..., Q, T) matching cost of (..., Q, 4) boxes and (..., Q) confidences
    against T target boxes: weighted L1 + (1 - GIoU) - confidence bonus.

    L1 is taken on the raw box and GIoU, from :func:`box_overlaps`, on the
    box clipped to [0, 1], so each entry is ``giou`` of that clipped box.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    confidence = np.asarray(confidence, dtype=np.float64)
    targets = box_rows(targets)
    l1 = np.abs(boxes[..., :, None, :] - targets).sum(axis=-1)
    _, g = box_overlaps(np.clip(boxes, 0.0, 1.0)[..., :, None, :], targets)
    return weights.l1 * l1 + weights.giou * (1.0 - g) - weights.conf * confidence[..., :, None]


def _check_batch(boxes: Tensor, confidence: Tensor, samples: int) -> None:
    if boxes.ndim != 3 or boxes.shape[2] != 4 or confidence.shape != boxes.shape[:2]:
        raise ValueError(f"need (B, Q, 4) boxes and (B, Q) confidences, "
                         f"got {boxes.shape} and {confidence.shape}")
    if samples != boxes.shape[0]:
        raise ValueError(f"got {samples} target lists for batch of {boxes.shape[0]}")


def batch_assignment_loss(boxes: Tensor, confidence: Tensor,
                          targets_per_sample: Sequence[Sequence[BBox]],
                          assignments: Sequence[Assignment],
                          weights: LossWeights = LossWeights()) -> Tensor:
    """Mean over the batch of each sample's loss under a fixed assignment, as one node.

    ``boxes`` is (B, Q, 4) and ``confidence`` (B, Q); a single sample is
    B = 1. A sample's loss is L1 + (1 - GIoU) averaged over its M_b
    matched pairs, plus a binary confidence log-loss (matched queries should
    say 1, the rest 0) averaged over its Q queries. The whole batch is
    scored at once: every matched pair is weighted 1/(M_b B) and every query
    1/(Q B), and the confidence term is -log((1 - y) + (2y - 1) p), which is
    -log p for y = 1 and -log(1 - p) for y = 0 exactly.

    The node computes in float64 whatever its inputs' dtype, takes the GIoU
    from :func:`_overlap`, as :func:`box_overlaps` does, and writes both
    gradients by hand. Where a min or max of the GIoU ties, the gradient
    goes to the prediction's corner, and an intersection extent of exactly
    0 still passes it.
    """
    _check_batch(boxes, confidence, len(assignments))
    batch, num_q = confidence.shape
    rows, matched, pair_w = [], [], []
    for b, (targets, assignment) in enumerate(zip(targets_per_sample, assignments)):
        if not assignment.pairs:
            raise ValueError(f"sample {b} has no matched pair to score")
        rows.extend(b * num_q + q for q, _ in assignment.pairs)
        matched.extend(targets[t] for _, t in assignment.pairs)
        pair_w.extend([1.0 / (len(assignment.pairs) * batch)] * len(assignment.pairs))
    pair_w = np.array(pair_w)
    labels = np.zeros(batch * num_q)
    labels[rows] = 1.0
    labels = labels.reshape(confidence.shape)

    picked = boxes.data.reshape(batch * num_q, 4)[rows].astype(np.float64)  # (M, 4)
    target_rows = box_rows(matched)
    a_lo, a_hi, b_lo, b_hi, gap, span, union, enclose, iou_, giou_ = _overlap(picked, target_rows)
    l1_w, giou_w = (weights.l1 * pair_w)[:, None], weights.giou * pair_w
    conf_w = -weights.conf / (num_q * batch)
    diff = picked - target_rows
    sign = 2.0 * labels - 1.0
    likelihood = confidence.data.astype(np.float64) * sign + (1.0 - labels)
    loss = ((np.abs(diff) * l1_w).sum() + ((1.0 - giou_) * giou_w).sum()
            + (np.log(likelihood) * conf_w).sum())

    def d_boxes(g):
        # giou = inter / union - (enclose - union) / enclose, with the guards
        # of _overlap; union = area(a) + area(b) - inter
        positive, bounded = union > 0.0, enclose > 0.0
        safe_enclose = np.where(bounded, enclose, 1.0)
        d_giou = g * -giou_w
        by_union = np.where(positive, d_giou, 0.0) / np.where(positive, union, 1.0)
        by_enclose = np.where(bounded, d_giou, 0.0) / safe_enclose
        d_union = by_enclose - by_union * iou_
        d_inter = by_union - d_union
        d_enclose = -by_enclose * union / safe_enclose
        # inter and enclose are x times y extents; a corner takes what its
        # min or max passed on
        d_gap = d_inter[:, None] * np.maximum(gap, 0.0)[:, ::-1] * (gap >= 0.0)
        d_span = d_enclose[:, None] * span[:, ::-1]
        d_hi = d_gap * (a_hi <= b_hi) + d_span * (a_hi >= b_hi)
        d_lo = d_gap * (a_lo >= b_lo) + d_span * (a_lo <= b_lo)  # lo enters both negated
        d_pairs = np.concatenate([d_hi - d_lo, (d_hi + d_lo) / 2.0 + d_union[:, None] * picked[:, 3:1:-1]],
                                 axis=1)
        d_pairs += np.sign(diff) * (l1_w * g)
        grad = np.zeros((batch * num_q, 4))
        grad[rows] = d_pairs  # an assignment matches each query at most once
        return grad.reshape(boxes.shape)

    return _record(batch_assignment_loss, loss, (boxes, confidence),
                   (d_boxes, lambda g: g * conf_w / likelihood * sign))


def grounding_loss(boxes: Tensor, confidence: Tensor, targets_per_sample: Sequence[Sequence[BBox]],
                   weights: LossWeights = LossWeights()) -> tuple[Tensor, list[Assignment]]:
    """Hungarian-match each sample of (B, Q, 4) boxes and (B, Q) confidences, then score.

    One :func:`grounding_cost` call scores every query of the batch against
    every target; each sample is matched on its own columns, and the batch
    is scored under those fixed assignments by :func:`batch_assignment_loss`.
    """
    _check_batch(boxes, confidence, len(targets_per_sample))
    if any(len(targets) == 0 for targets in targets_per_sample):
        raise ValueError("grounding_loss needs at least one target box per sample")
    all_targets = [t for targets in targets_per_sample for t in targets]
    cost = grounding_cost(boxes.data, confidence.data, all_targets, weights)
    ends = np.cumsum([len(targets) for targets in targets_per_sample])
    assignments = [hungarian(cost[b, :, end - len(targets):end])
                   for b, (targets, end) in enumerate(zip(targets_per_sample, ends))]
    loss = batch_assignment_loss(boxes, confidence, targets_per_sample, assignments, weights)
    return loss, assignments
