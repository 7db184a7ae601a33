"""Box geometry, Hungarian assignment, and the set-matching loss.

Boxes are normalized center form (cx, cy, w, h) in [0, 1]. IoU/GIoU exist
in three forms on purpose: scalar versions on :class:`BBox` feed metrics,
an array version builds the assignment cost matrices (entry for entry the
same float operations as the scalar path, so equal to it bit for bit), and
a Tensor version (:func:`giou_pairs`) feeds the differentiable loss. They
are tested against each other and against a rasterized counting oracle.

:func:`hungarian` is one rectangular potentials solve of the shorter side
against the longer, O(min(Q, T)^2 max(Q, T)) with no padding, for every
shape. It returns an optimal assignment, the same pairs for the same
input; with one prediction or one target (the referring default) that is
the first minimum.

One loss path serves every batch size; a single sample is B = 1. The loss
matches each sample with :func:`hungarian` on the detached
:func:`grounding_cost`, then scores the whole batch in one small graph:
one gather of the matched boxes, one L1 and one GIoU term over every
matched pair of the batch, and one confidence term over every query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mogref.tensor import (
    Tensor,
    absolute,
    log,
    maximum,
    minimum,
    reshape,
    select,
    take_rows,
    tsum,
)


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

    def area(self) -> float:
        return self.w * self.h

    def to_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)

    @staticmethod
    def from_pixel(x: float, y: float, w: float, h: float, image_w: float, image_h: float) -> "BBox":
        """Convert a top-left pixel box to normalized center form."""
        return BBox((x + w / 2.0) / image_w, (y + h / 2.0) / image_h, w / image_w, h / image_h)


def _overlap(a: BBox, b: BBox) -> tuple[float, float, float]:
    """Intersection, union and enclosing-box areas of two boxes."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = a.area() + b.area() - inter
    enclose = (max(ax2, bx2) - min(ax1, bx1)) * (max(ay2, by2) - min(ay1, by1))
    return inter, union, enclose


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union in [0, 1]; two zero-area boxes give 0."""
    inter, union, _ = _overlap(a, b)
    return inter / union if union > 0.0 else 0.0


def giou(a: BBox, b: BBox) -> float:
    """Generalized IoU in [-1, 1]: IoU minus the enclosing-box dead space."""
    inter, union, enclose = _overlap(a, b)
    base = inter / union if union > 0.0 else 0.0
    if enclose <= 0.0:
        return base
    return base - (enclose - union) / enclose


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


def _corners(boxes: Tensor) -> tuple[Tensor, Tensor]:
    """The (M, 2) low and high (x, y) corners of (M, 4) center-form boxes."""
    halves = reshape(boxes, (boxes.shape[0], 2, 2))  # rows (cx, cy), (w, h)
    center = select(halves, 0, axis=1)
    half_size = select(halves, 1, axis=1) * 0.5
    return center - half_size, center + half_size


def _area(extent: Tensor) -> Tensor:
    """Width times height of (M, 2) extents."""
    return select(extent, 0, axis=1) * select(extent, 1, axis=1)


def giou_pairs(a: Tensor, b: Tensor) -> Tensor:
    """Rowwise GIoU of two (M, 4) center-form box tensors; differentiable.

    Corners are taken as (M, 2) halves, so each elementwise op covers x and
    y at once, with the operands and order of the per-column formula.
    """
    a_lo, a_hi = _corners(a)
    b_lo, b_hi = _corners(b)
    inter = _area(maximum(minimum(a_hi, b_hi) - maximum(a_lo, b_lo), 0.0))
    union = _area(a_hi - a_lo) + _area(b_hi - b_lo) - inter
    enclose = _area(maximum(a_hi, b_hi) - minimum(a_lo, b_lo))
    return inter / union - (enclose - union) / enclose


def _target_rows(targets: Sequence[BBox]) -> np.ndarray:
    return np.array([(t.cx, t.cy, t.w, t.h) for t in targets], dtype=np.float64).reshape(-1, 4)


def grounding_cost(boxes: np.ndarray, confidence: np.ndarray, targets: Sequence[BBox],
                   weights: LossWeights = LossWeights()) -> np.ndarray:
    """(..., Q, T) matching cost of (..., Q, 4) boxes and (..., Q) confidences
    against T target boxes: weighted L1 + (1 - GIoU) - confidence bonus.

    Each entry takes the same float operations in the same order as the
    scalar ``giou(BBox(*clip(box)), target)`` path, so it equals that path
    bit for bit: L1 on the raw box, GIoU on the box clipped to [0, 1], the
    zero-union and zero-enclosure branches of :func:`iou`/:func:`giou`.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    confidence = np.asarray(confidence, dtype=np.float64)
    targets = _target_rows(targets)
    l1 = np.abs(boxes[..., :, None, :] - targets).sum(axis=-1)
    pb = np.clip(boxes, 0.0, 1.0)[..., :, None, :]  # (..., Q, 1, 4)
    pcx, pcy, pw, ph = pb[..., 0], pb[..., 1], pb[..., 2], pb[..., 3]
    tcx, tcy, tw, th = targets[:, 0], targets[:, 1], targets[:, 2], targets[:, 3]
    ax1, ay1, ax2, ay2 = pcx - pw / 2.0, pcy - ph / 2.0, pcx + pw / 2.0, pcy + ph / 2.0
    bx1, by1, bx2, by2 = tcx - tw / 2.0, tcy - th / 2.0, tcx + tw / 2.0, tcy + th / 2.0
    iw = np.maximum(np.minimum(ax2, bx2) - np.maximum(ax1, bx1), 0.0)
    ih = np.maximum(np.minimum(ay2, by2) - np.maximum(ay1, by1), 0.0)
    inter = iw * ih
    union = pw * ph + tw * th - inter
    enclose = (np.maximum(ax2, bx2) - np.minimum(ax1, bx1)) * (
        np.maximum(ay2, by2) - np.minimum(ay1, by1))
    # a union of 0 needs two zero-area boxes, whose intersection is 0 too
    base = inter / np.where(union > 0.0, union, 1.0)
    # the enclosure can be 0 with a positive union: a width far below the
    # spacing of floats at its center collapses the corners
    g = np.where(enclose > 0.0, base - (enclose - union) / np.where(enclose > 0.0, enclose, 1.0),
                 base)
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
    """Mean over the batch of each sample's loss under a fixed assignment.

    ``boxes`` is (B, Q, 4) and ``confidence`` (B, Q); a single sample is
    B = 1. A sample's loss is L1 + (1 - GIoU) averaged over its M_b
    matched pairs, plus a binary confidence log-loss (matched queries should
    say 1, the rest 0) averaged over its Q queries. The whole batch is
    scored at once: every matched pair is weighted 1/(M_b B) and every query
    1/(Q B), and the confidence term is -log((1 - y) + (2y - 1) p), which is
    -log p for y = 1 and -log(1 - p) for y = 0 exactly.
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

    picked = take_rows(reshape(boxes, (batch * num_q, 4)), rows)  # (M, 4)
    target_tensor = Tensor(_target_rows(matched))
    l1_term = tsum(absolute(picked - target_tensor) * (weights.l1 * pair_w)[:, None])
    giou_term = tsum((1.0 - giou_pairs(picked, target_tensor)) * (weights.giou * pair_w))
    likelihood = confidence * (2.0 * labels - 1.0) + (1.0 - labels)
    conf_term = tsum(log(likelihood) * (-weights.conf / (num_q * batch)))
    return l1_term + giou_term + conf_term


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
