import itertools
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mogref import matching
from mogref.data import SyntheticSceneSpec, default_vocab
from mogref.gradcheck import finite_difference_grad, max_rel_err
from mogref.matching import (
    Assignment,
    BBox,
    LossWeights,
    batch_assignment_loss,
    box_overlaps,
    box_rows,
    giou,
    giou_pairs,
    grounding_cost,
    grounding_loss,
    hungarian,
    iou,
)
from mogref.model import ModelConfig, SCSModel
from mogref.rng import RngState
from mogref.tensor import (
    Parameter,
    Tensor,
    absolute,
    backward,
    log,
    maximum,
    minimum,
    select,
    sigmoid,
    take_rows,
    tsum,
    zero_grads,
)
from mogref.train import build_synthetic_dataset


def all_assignments(q: int, t: int):
    """Every injective (row, col) pair list of size min(q, t), rows ascending."""
    if q <= t:
        return [tuple(enumerate(perm)) for perm in itertools.permutations(range(t), q)]
    return [tuple(sorted((r, c) for c, r in enumerate(perm)))
            for perm in itertools.permutations(range(q), t)]


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Exhaustive minimum over all injective assignments of size min(Q, T).

    Sums each candidate in row order so that exact float equality with the
    solver's row-ordered total is meaningful.
    """
    return min(sum(cost[r, c] for r, c in pairs) for pairs in all_assignments(*cost.shape))


def scalar_iou_giou(a: BBox, b: BBox) -> tuple[float, float]:
    """IoU and GIoU of two boxes in plain Python floats, one pair at a time:
    the reference ``box_overlaps`` must equal bit for bit."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    enclose = (max(ax2, bx2) - min(ax1, bx1)) * (max(ay2, by2) - min(ay1, by1))
    base = inter / union if union > 0.0 else 0.0
    return base, (base if enclose <= 0.0 else base - (enclose - union) / enclose)


def scalar_cost(boxes: np.ndarray, confidence: np.ndarray, targets, weights=LossWeights()):
    """The matching cost entry by entry through :func:`scalar_iou_giou`: the
    reference the array-built cost must equal bit for bit."""
    cost = np.empty((boxes.shape[0], len(targets)), dtype=np.float64)
    for qi in range(boxes.shape[0]):
        pb = BBox(*np.clip(boxes[qi], 0.0, 1.0))
        for ti, tgt in enumerate(targets):
            l1 = float(np.abs(boxes[qi] - tgt.to_array()).sum())
            cost[qi, ti] = (
                weights.l1 * l1
                + weights.giou * (1.0 - scalar_iou_giou(pb, tgt)[1])
                - weights.conf * float(confidence[qi])
            )
    return cost


def per_sample_loss(boxes: Tensor, confidence: Tensor, targets, assignment,
                    weights=LossWeights()) -> Tensor:
    """One sample's loss term by term: mean L1 and 1 - GIoU over the matched
    pairs, and the confidence log-loss of matched and unmatched queries
    summed apart, over Q. The batched scorer must agree with it."""
    matched_q = [q for q, _ in assignment.pairs]
    unmatched_q = [q for q in range(boxes.shape[0]) if q not in matched_q]
    picked = take_rows(boxes, matched_q)
    tgt = Tensor(np.stack([targets[t].to_array() for _, t in assignment.pairs]))
    count = len(assignment.pairs)
    l1_term = tsum(absolute(picked - tgt)) / count
    giou_term = tsum(1.0 - giou_pairs(picked, tgt)) / count
    conf_term = (tsum(-log(take_rows(confidence, matched_q)))
                 + tsum(-log(1.0 - take_rows(confidence, unmatched_q)))) / boxes.shape[0]
    return weights.l1 * l1_term + weights.giou * giou_term + weights.conf * conf_term


def random_box(rng: RngState) -> BBox:
    w = rng.uniform_in(0.05, 0.5)
    h = rng.uniform_in(0.05, 0.5)
    cx = rng.uniform_in(w / 2, 1 - w / 2)
    cy = rng.uniform_in(h / 2, 1 - h / 2)
    return BBox(cx, cy, w, h)


def random_degenerate_box(rng: RngState) -> BBox:
    """A box whose width and height are each 0 a quarter of the time."""
    w = 0.0 if rng.randint(4) == 0 else rng.uniform_in(0.0, 0.6)
    h = 0.0 if rng.randint(4) == 0 else rng.uniform_in(0.0, 0.6)
    return BBox(rng.uniform_in(w / 2, 1 - w / 2), rng.uniform_in(h / 2, 1 - h / 2), w, h)


class TestBBox:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="cx"):
            BBox(1.2, 0.5, 0.1, 0.1)
        with pytest.raises(ValueError, match="w"):
            BBox(0.5, 0.5, -0.1, 0.1)

    def test_pixel_round_trip(self):
        b = BBox.from_pixel(10, 20, 30, 40, 100, 200)
        assert b.cx == pytest.approx(0.25)
        assert b.cy == pytest.approx(0.2)
        assert b.w == pytest.approx(0.3)
        assert b.h == pytest.approx(0.2)

    def test_degenerate_zero_width_allowed(self):
        box = BBox(0.5, 0.5, 0.0, 0.3)
        assert box.w == 0.0
        assert iou(box, box) == 0.0  # a zero union


class TestIoU:
    def test_self_iou_is_one(self):
        b = BBox(0.4, 0.4, 0.2, 0.3)
        assert iou(b, b) == 1.0

    def test_disjoint_is_zero(self):
        assert iou(BBox(0.1, 0.1, 0.1, 0.1), BBox(0.9, 0.9, 0.1, 0.1)) == 0.0

    def test_hand_third_overlap(self):
        a = BBox(0.25, 0.5, 0.5, 1.0)
        b = BBox(0.5, 0.5, 0.5, 1.0)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_two_zero_area_boxes(self):
        assert iou(BBox(0.5, 0.5, 0.0, 0.0), BBox(0.5, 0.5, 0.0, 0.0)) == 0.0

    @given(st.integers(0, 100_000))
    def test_symmetry_and_range(self, seed):
        rng = RngState(seed)
        a, b = random_box(rng), random_box(rng)
        v = iou(a, b)
        assert iou(b, a) == v
        assert 0.0 <= v <= 1.0


class TestGIoU:
    def test_identical_boxes(self):
        b = BBox(0.3, 0.6, 0.2, 0.2)
        assert giou(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_hand_far_corners(self):
        a = BBox(0.1, 0.1, 0.2, 0.2)
        b = BBox(0.9, 0.9, 0.2, 0.2)
        assert giou(a, b) == pytest.approx(-0.92, abs=1e-9)

    def test_nested_boxes_equal_iou(self):
        outer = BBox(0.5, 0.5, 0.6, 0.6)
        inner = BBox(0.5, 0.5, 0.2, 0.2)
        assert giou(outer, inner) == pytest.approx(iou(outer, inner), abs=1e-12)

    @given(st.integers(0, 100_000))
    def test_range_and_upper_bound_by_iou(self, seed):
        rng = RngState(seed)
        a, b = random_box(rng), random_box(rng)
        g = giou(a, b)
        assert -1.0 <= g <= 1.0
        assert g <= iou(a, b) + 1e-12

    @given(st.integers(0, 100_000))
    def test_tensor_version_agrees_with_scalar(self, seed):
        rng = RngState(seed)
        boxes_a = [random_box(rng) for _ in range(3)]
        boxes_b = [random_box(rng) for _ in range(3)]
        tens = giou_pairs(
            Tensor(np.stack([b.to_array() for b in boxes_a])),
            Tensor(np.stack([b.to_array() for b in boxes_b])),
        ).data
        scal = [giou(a, b) for a, b in zip(boxes_a, boxes_b)]
        assert np.abs(tens - scal).max() < 1e-12


class TestBoxOverlaps:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 100_000))
    def test_grid_equals_scalar_reference_bit_for_bit(self, num_a, num_b, seed):
        rng = RngState(seed)
        a = [random_degenerate_box(rng) for _ in range(num_a)]
        b = [random_degenerate_box(rng) for _ in range(num_b)]
        got_iou, got_giou = box_overlaps(box_rows(a)[:, None], box_rows(b))
        assert got_iou.shape == got_giou.shape == (num_a, num_b)
        ref = np.array([[scalar_iou_giou(x, y) for y in b] for x in a])
        assert np.array_equal(got_iou, ref[..., 0])
        assert np.array_equal(got_giou, ref[..., 1])
        assert [iou(x, y) for x in a for y in b] == got_iou.ravel().tolist()
        assert [giou(x, y) for x in a for y in b] == got_giou.ravel().tolist()

    def test_zero_union_and_zero_enclosure(self):
        point = BBox(0.5, 0.5, 0.0, 0.0)
        # a width far below the float spacing at 0.5 collapses the corners:
        # zero enclosure, positive union
        sliver = BBox(0.5, 0.5, 4e-17, 1.0)
        assert sliver.corners()[0] == sliver.corners()[2]
        for box, want in ((point, (0.0, 0.0)), (sliver, (0.0, 0.0))):
            assert scalar_iou_giou(box, box) == want
            assert tuple(box_overlaps(box.to_array(), box.to_array())) == want

    def test_scalar_forms_return_python_floats(self):
        a, b = BBox(0.4, 0.4, 0.2, 0.3), BBox(0.5, 0.5, 0.2, 0.2)
        assert type(iou(a, b)) is float and type(giou(a, b)) is float


def per_column_giou(a: Tensor, b: Tensor) -> Tensor:
    """GIoU pairs built one coordinate column at a time: the reference
    ``giou_pairs`` must equal bit for bit, forward and gradient."""
    def corners(boxes):
        cx, cy, w, h = (select(boxes, k, axis=1) for k in range(4))
        return cx - w * 0.5, cy - h * 0.5, cx + w * 0.5, cy + h * 0.5

    ax1, ay1, ax2, ay2 = corners(a)
    bx1, by1, bx2, by2 = corners(b)
    iw = maximum(minimum(ax2, bx2) - maximum(ax1, bx1), 0.0)
    ih = maximum(minimum(ay2, by2) - maximum(ay1, by1), 0.0)
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    enclose = (maximum(ax2, bx2) - minimum(ax1, bx1)) * (maximum(ay2, by2) - minimum(ay1, by1))
    return inter / union - (enclose - union) / enclose


class TestGIoUHalves:
    @staticmethod
    def assert_same(build, a0: np.ndarray, b0: np.ndarray, w: np.ndarray):
        """Forward and both gradients of ``build`` equal the per-column
        reference's bits; a NaN (a zero union) is only required to be NaN."""
        def run(fn):
            a, b = Parameter("a", a0.copy()), Parameter("b", b0.copy())
            out = fn(a, b)
            backward(tsum(out * w))
            return out.data, a.grad, b.grad

        for got, want in zip(run(build), run(per_column_giou)):
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def boxes(self, seed: int, m: int = 7):
        rng = RngState(seed)
        a = rng.uniform_array((m, 4), 0.05, 0.6)
        b = rng.uniform_array((m, 4), 0.05, 0.6)
        b[0] = a[0]  # identical boxes: every maximum/minimum ties
        b[1, :2] = a[1, :2]  # shared centers
        return a, b, rng.uniform_array((m,), -1.0, 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_boxes_bit_for_bit(self, seed):
        self.assert_same(giou_pairs, *self.boxes(seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_width_boxes_bit_for_bit(self, seed):
        a, b, w = self.boxes(seed)
        a[::2, 2] = 0.0  # zero-width predictions
        b[1::3, 3] = 0.0  # zero-height targets; row 4 has a zero union
        with np.errstate(divide="ignore", invalid="ignore"):
            self.assert_same(giou_pairs, a, b, w)


class TestHungarian:
    def test_diagonal_zeros(self):
        a = hungarian([[0.0, 9.0], [9.0, 0.0]])
        assert a.pairs == ((0, 0), (1, 1))
        assert a.total_cost == 0.0

    def test_hand_two_by_two(self):
        a = hungarian([[4.0, 1.0], [2.0, 3.0]])
        assert a.pairs == ((0, 1), (1, 0))
        assert a.total_cost == 3.0

    def test_empty_matrix(self):
        assert hungarian(np.zeros((0, 3))).pairs == ()
        assert hungarian(np.zeros((3, 0))).pairs == ()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hungarian([[np.inf, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("cost", [[[0.0], [np.nan], [1.0]], [[0.0, -np.inf, 1.0]]])
    def test_single_target_non_finite_rejected(self, cost):
        with pytest.raises(ValueError, match="finite"):
            hungarian(cost)

    def test_lexicographic_tie_break(self):
        assert hungarian([[1.0, 1.0], [1.0, 1.0]]).pairs == ((0, 0), (1, 1))
        # row 0 ties between columns 0 and 2; smallest column wins
        a = hungarian([[5.0, 9.0, 5.0], [9.0, 5.0, 9.0], [5.0, 9.0, 5.0]])
        assert a.pairs == ((0, 0), (1, 1), (2, 2))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    def test_optimal_vs_brute_force(self, q, t, seed):
        rng = RngState(seed)
        cost = rng.uniform_array((q, t), -5.0, 5.0)
        result = hungarian(cost)
        assert len(result.pairs) == min(q, t)
        rows = [r for r, _ in result.pairs]
        cols = [c for _, c in result.pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)
        assert result.total_cost == pytest.approx(brute_force_min_cost(cost), abs=0.0)
        assert result.total_cost == sum(cost[r, c] for r, c in result.pairs)

    @given(st.integers(2, 5), st.integers(0, 10_000), st.floats(-100.0, 100.0))
    def test_constant_shift_preserves_argmin(self, n, seed, shift):
        rng = RngState(seed)
        cost = rng.uniform_array((n, n), -5.0, 5.0)
        assert hungarian(cost).pairs == hungarian(cost + shift).pairs

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
    def test_integer_ties_lexicographically_minimal(self, q, t, seed):
        # small integer entries force many exactly-optimal assignments; the
        # solver must return one of them, also when the cost is solved
        # transposed (q > t), and the same one on every call
        rng = RngState(seed)
        cost = np.array([[rng.randint(3) for _ in range(t)] for _ in range(q)])
        result = hungarian(cost)
        totals = {pairs: sum(cost[r, c] for r, c in pairs) for pairs in all_assignments(q, t)}
        best = min(totals.values())
        assert result.total_cost == best
        assert result.pairs in totals
        assert hungarian(cost).pairs == hungarian(cost.astype(np.float64)).pairs == result.pairs

    @pytest.mark.parametrize("shape", [(4, 1), (4, 4), (1, 4), (6, 3)])
    def test_one_solve_per_call(self, shape, monkeypatch):
        # every shape takes the same solve, with the shorter side as its rows
        calls = []
        solve = matching._solve

        def counting_solve(rows):
            calls.append(len(rows))
            return solve(rows)

        monkeypatch.setattr(matching, "_solve", counting_solve)
        hungarian(RngState(5).uniform_array(shape, -1.0, 1.0))
        assert calls == [min(shape)]

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (4, 1), (9, 1), (1, 2), (1, 4), (1, 9)])
    @pytest.mark.parametrize("kind", ["random", "integer ties", "all equal", "signed zeros"])
    def test_single_target_is_the_first_argmin(self, shape, kind):
        # equal to brute force in the pairs and in the total cost
        for seed in range(20):
            rng = RngState(seed + 100 * sum(shape))
            if kind == "random":
                cost = rng.uniform_array(shape, -5.0, 5.0)
            elif kind == "integer ties":
                cost = np.array([[float(rng.randint(3)) for _ in range(shape[1])]
                                 for _ in range(shape[0])])
            elif kind == "all equal":
                cost = np.full(shape, 0.1 * (seed - 10))
            else:
                cost = np.array([[(0.0, -0.0, 1.0)[rng.randint(3)] for _ in range(shape[1])]
                                 for _ in range(shape[0])])
            result = hungarian(cost)
            totals = {pairs: sum(cost[r, c] for r, c in pairs)
                      for pairs in all_assignments(*shape)}
            best = min(totals.values())
            assert result.pairs == min(p for p, total in totals.items() if total == best)
            assert result.total_cost == best

    @pytest.mark.parametrize("num_pred", [64, 256])
    def test_two_targets_many_queries_lexicographically_minimal(self, num_pred):
        # every (i, j), i != j, matching query i to target 0 and query j to
        # target 1, scored at once; small integers force many exact ties
        for seed in range(3):
            rng = RngState(seed + num_pred)
            cost = np.array([[float(rng.randint(3)) for _ in range(2)] for _ in range(num_pred)])
            totals = cost[:, 0, None] + cost[None, :, 1]
            np.fill_diagonal(totals, np.inf)
            best = totals.min()
            tied = np.argwhere(totals == best)
            result = hungarian(cost)
            assert result.total_cost == best
            assert result.pairs == min(tuple(sorted([(i, 0), (j, 1)])) for i, j in tied.tolist())

    def test_many_queries_few_targets_is_fast(self):
        # one query per 128-px visual token against a few targets: the solve
        # is O(T^2 Q), so this takes about a millisecond, not seconds
        cost = RngState(7).uniform_array((256, 4), 0.0, 10.0)
        start = time.perf_counter()
        result = hungarian(cost)
        assert time.perf_counter() - start < 0.5
        assert len(result.pairs) == 4



class TestMatchAndLoss:
    """One sample's set loss: :func:`grounding_loss` with a batch axis of 1."""

    def test_perfect_prediction_zero_loss(self):
        targets = [BBox(0.3, 0.4, 0.2, 0.2), BBox(0.7, 0.6, 0.1, 0.3)]
        boxes = np.stack([t.to_array() for t in targets] + [[0.5, 0.5, 0.1, 0.1]])
        conf = np.array([1.0, 1.0, 0.0])
        loss, [assignment] = grounding_loss(Tensor(boxes[None]), Tensor(conf[None]), [targets])
        assert loss.item() == pytest.approx(0.0, abs=1e-9)
        assert set(assignment.pairs) == {(0, 0), (1, 1)}

    def test_single_target_yields_one_pair(self):
        rng = RngState(1)
        boxes = Tensor(rng.uniform_array((1, 4, 4), 0.3, 0.7))
        conf = Tensor(rng.uniform_array((1, 4), 0.2, 0.8))
        _, [assignment] = grounding_loss(boxes, conf, [[BBox(0.5, 0.5, 0.2, 0.2)]])
        assert len(assignment.pairs) == 1

    def test_no_targets_rejected(self):
        with pytest.raises(ValueError):
            grounding_loss(Tensor(np.full((1, 2, 4), 0.5)), Tensor(np.full((1, 2), 0.5)), [[]])

    @pytest.mark.parametrize("boxes_shape, conf_shape", [
        ((2, 4), (2,)), ((1, 2, 4), (2,)), ((1, 2, 4), (1, 3)), ((1, 2, 3), (1, 2)),
    ])
    def test_inputs_without_a_batch_axis_rejected(self, boxes_shape, conf_shape):
        boxes, conf = Tensor(np.full(boxes_shape, 0.5)), Tensor(np.full(conf_shape, 0.5))
        targets = [BBox(0.5, 0.5, 0.1, 0.1)]
        with pytest.raises(ValueError, match=r"\(B, Q, 4\)"):
            grounding_loss(boxes, conf, [targets])
        with pytest.raises(ValueError, match=r"\(B, Q, 4\)"):
            batch_assignment_loss(boxes, conf, [targets], [Assignment(((0, 0),), 0.0)])

    @given(st.integers(0, 2_000))
    def test_loss_non_negative(self, seed):
        rng = RngState(seed)
        boxes = Tensor(rng.uniform_array((1, 3, 4), 0.05, 0.95))
        conf = Tensor(rng.uniform_array((1, 3), 0.05, 0.95))
        targets = [random_box(rng) for _ in range(rng.randint(3) + 1)]
        loss, _ = grounding_loss(boxes, conf, [targets])
        assert loss.item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = RngState(6)
        boxes = Parameter("boxes", rng.uniform_array((1, 3, 4), 0.25, 0.75))
        conf = Parameter("conf", rng.uniform_array((1, 3), 0.2, 0.8))
        targets = [[random_box(rng) for _ in range(2)]]
        _, assignments = grounding_loss(boxes, conf, targets)

        def loss():
            return batch_assignment_loss(boxes, conf, targets, assignments)

        zero_grads([boxes, conf])
        backward(loss())
        for p in (boxes, conf):
            fd = finite_difference_grad(lambda _: loss(), p)
            assert max_rel_err(p.grad, fd) < 1e-4, p.name

    @pytest.mark.xfail(strict=True, reason="the loss takes log(1 - p) of a probability; "
                       "sigmoid(40) is 1.0 in float64")
    def test_saturated_confidence_gives_finite_loss(self):
        # two queries at logit 40 against one target: the unmatched one's
        # -log(1 - sigmoid(40)) is -log(0); the loss over logits makes it finite
        boxes = Parameter("boxes", np.array([[[0.4, 0.4, 0.2, 0.2], [0.6, 0.6, 0.2, 0.2]]]))
        logits = Parameter("logits", np.full((1, 2), 40.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            loss, _ = grounding_loss(boxes, sigmoid(logits), [[BBox(0.4, 0.4, 0.2, 0.2)]])
            zero_grads([boxes, logits])
            backward(loss)
        assert np.isfinite(loss.item())
        assert np.isfinite(boxes.grad).all() and np.isfinite(logits.grad).all()

    def test_batch_loss_averages_samples(self):
        # B=3 with 1, 2 and 3 targets; fewer queries than targets (Q=2, T=3)
        for num_q, counts in [(3, (1, 2, 3)), (2, (3,)), (2, (3, 1))]:
            self.check_batch_against_per_sample_mean(num_q, counts)

    @staticmethod
    def check_batch_against_per_sample_mean(num_q, counts):
        rng = RngState(8 + num_q + len(counts))
        boxes = Parameter("boxes", rng.uniform_array((len(counts), num_q, 4), 0.3, 0.7))
        conf = Parameter("conf", rng.uniform_array((len(counts), num_q), 0.2, 0.8))
        targets = [[random_box(rng) for _ in range(n)] for n in counts]
        total, assignments = grounding_loss(boxes, conf, targets)
        assert [len(a.pairs) for a in assignments] == [min(num_q, n) for n in counts]
        zero_grads([boxes, conf])
        backward(total)
        got = (boxes.grad.copy(), conf.grad.copy())

        ref = None
        for b, assignment in enumerate(assignments):
            assert assignment.pairs == hungarian(
                scalar_cost(boxes.data[b], conf.data[b], targets[b])).pairs
            term = per_sample_loss(select(boxes, b, 0), select(conf, b, 0), targets[b], assignment)
            ref = term if ref is None else ref + term
        ref = ref / len(counts)
        zero_grads([boxes, conf])
        backward(ref)
        assert abs(total.item() - ref.item()) < 1e-12
        assert np.abs(got[0] - boxes.grad).max() < 1e-12
        assert np.abs(got[1] - conf.grad).max() < 1e-12

    def test_batch_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            grounding_loss(Tensor(np.full((2, 1, 4), 0.5)), Tensor(np.full((2, 1), 0.5)),
                           [[BBox(0.5, 0.5, 0.1, 0.1)]])


class TestCostMatrix:
    @staticmethod
    def random_case(rng: RngState, num_q: int, num_t: int):
        """Predictions partly outside [0, 1], some with zero extent; targets
        with zero width, height or both among them."""
        boxes = rng.uniform_array((num_q, 4), -0.3, 1.3)
        for q in range(num_q):
            if rng.randint(3) == 0:
                boxes[q, 2 + rng.randint(2)] = 0.0
        targets = [random_degenerate_box(rng) for _ in range(num_t)]
        return boxes, rng.uniform_array((num_q,), 0.0, 1.0), targets

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 100_000))
    def test_equals_scalar_loop_bit_for_bit(self, num_q, num_t, seed):
        boxes, conf, targets = self.random_case(RngState(seed), num_q, num_t)
        [cost] = grounding_cost(boxes[None], conf[None], targets)
        ref = scalar_cost(boxes, conf, targets)
        assert np.array_equal(cost, ref)
        assert hungarian(cost).pairs == hungarian(ref).pairs

    def test_degenerate_boxes(self):
        # zero-area prediction on a zero-area target (zero union), a point
        # box (zero enclosure), an identical pair, a far-out prediction, and
        # a width too small to move the corners off the center (zero
        # enclosure, positive union)
        targets = [BBox(0.5, 0.5, 0.0, 0.0), BBox(0.5, 0.5, 0.0, 0.4), BBox(0.2, 0.3, 0.2, 0.2),
                   BBox(0.5, 0.5, 4e-17, 1.0)]
        boxes = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.4],
                          [0.2, 0.3, 0.2, 0.2], [-1.0, 2.0, 3.0, -0.5], [0.5, 0.5, 4e-17, 1.0]])
        conf = np.array([0.1, 0.9, 0.5, 0.0, 0.7])
        [cost] = grounding_cost(boxes[None], conf[None], targets)
        assert np.array_equal(cost, scalar_cost(boxes, conf, targets))
        assert np.isfinite(cost).all()

    def test_batch_cost_matches_per_sample_cost(self):
        rng = RngState(3)
        boxes = Tensor(rng.uniform_array((3, 4, 4), 0.1, 0.9))
        conf = Tensor(rng.uniform_array((3, 4), 0.1, 0.9))
        targets = [[random_box(rng) for _ in range(n)] for n in (2, 5, 1)]
        all_targets = [t for sample in targets for t in sample]
        cost = grounding_cost(boxes.data, conf.data, all_targets)
        _, assignments = grounding_loss(boxes, conf, targets)
        for b, assignment in enumerate(assignments):
            assert np.array_equal(cost[b], scalar_cost(boxes.data[b], conf.data[b], all_targets))
            ref = scalar_cost(boxes.data[b], conf.data[b], targets[b])
            assert assignment == hungarian(ref)


def recorded_nodes(loss: Tensor) -> int:
    """Op nodes reachable from ``loss``; leaves are not counted."""
    seen, stack, nodes = {id(loss)}, [loss], 0
    while stack:
        node = stack.pop()
        nodes += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


class TestGraphSize:
    def test_loss_nodes_do_not_grow_with_the_batch(self):
        def loss_nodes(batch):
            rng = RngState(batch)
            boxes = Parameter("boxes", rng.uniform_array((batch, 4, 4), 0.2, 0.8))
            conf = Parameter("conf", rng.uniform_array((batch, 4), 0.2, 0.8))
            targets = [[random_box(rng) for _ in range(1 + b % 3)] for b in range(batch)]
            return recorded_nodes(grounding_loss(boxes, conf, targets)[0])

        assert loss_nodes(2) == loss_nodes(8)

    def test_default_training_step_stays_small(self):
        vocab = default_vocab()
        dataset = build_synthetic_dataset(8, SyntheticSceneSpec(image_size=64), vocab, 0)
        model = SCSModel(ModelConfig(image_size=64, vocab_size=len(vocab)), vocab, RngState(0))
        pred = model.forward(dataset.images, dataset.token_ids)
        loss, _ = grounding_loss(pred.boxes, pred.confidence, dataset.targets)
        assert recorded_nodes(loss) <= 250
