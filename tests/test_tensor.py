import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mogref
from mogref.gradcheck import check_case
from mogref.rng import RngState
from mogref.tensor import (
    DegenerateMaskError,
    Module,
    Parameter,
    ShapeError,
    Tensor,
    add,
    affine,
    backward,
    cast,
    concat,
    div,
    gelu_affine,
    layernorm,
    log,
    masked_softmax,
    matmul,
    maximum,
    mean,
    minimum,
    mul,
    reshape,
    select,
    softmax,
    sub,
    take_rows,
    transpose,
    tsum,
    zero_grads,
)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert (matmul(eye, a).data == a.data).all()

    def test_zeros(self):
        eye = Tensor(np.eye(2))
        z = Tensor(np.zeros((2, 3)))
        assert (matmul(eye, z).data == 0.0).all()

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert out.data.tolist() == [[17.0], [39.0]]

    def test_identity_exact_for_integer_matrices(self):
        rng = RngState(5)
        a = np.rint(rng.uniform_array((6, 6), -9, 9))
        out = matmul(Tensor(a), Tensor(np.eye(6)))
        assert (out.data == a).all()

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_batched_broadcast(self):
        a = Tensor(np.ones((4, 2, 3, 5)))
        b = Tensor(np.ones((5, 7)))
        assert matmul(a, b).shape == (4, 2, 3, 7)


class TestMaskedSoftmax:
    def test_symmetric_case(self):
        out = masked_softmax(Tensor([0.0, 0.0, 0.0, 0.0]), np.array([1, 0, 1, 0]))
        assert out.data.tolist() == [0.5, 0.0, 0.5, 0.0]

    def test_scalar_evaluation(self):
        out = masked_softmax(Tensor([1.0, 2.0]), np.array([1, 1]))
        assert out.data == pytest.approx([0.26894, 0.73106], abs=1e-5)

    def test_all_ones_mask_equals_plain_softmax(self):
        rng = RngState(1)
        x = rng.uniform_array((3, 8), -5, 5)
        masked = masked_softmax(Tensor(x), np.ones(8))
        plain = softmax(Tensor(x))
        assert (masked.data == plain.data).all()

    def test_degenerate_row_raises(self):
        with pytest.raises(DegenerateMaskError):
            masked_softmax(Tensor(np.zeros((2, 3))), np.array([[1, 0, 1], [0, 0, 0]]))

    def test_mask_shape_mismatch(self):
        with pytest.raises(ShapeError):
            masked_softmax(Tensor(np.zeros((2, 3))), np.ones(4))

    def test_mask_must_be_an_array(self):
        from mogref.mog import build_mask

        # the mask object, not its bits, would otherwise keep every pair
        with pytest.raises(TypeError, match="GranularityMask"):
            masked_softmax(Tensor(np.zeros((4, 4))), build_mask(4, 2))

    @given(st.integers(2, 16), st.integers(1, 6), st.integers(0, 10_000))
    def test_masked_entries_exactly_zero_rows_sum_to_one(self, n, dilation, seed):
        from mogref.mog import build_mask

        rng = RngState(seed)
        logits = rng.uniform_array((n, n), -30.0, 30.0)
        bits = build_mask(n, dilation).bits
        out = masked_softmax(Tensor(logits), bits).data
        assert (out[bits == 0] == 0.0).all()
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12

    def test_gradient_at_masked_logits_is_exactly_zero(self):
        from mogref.mog import build_mask

        bits = build_mask(8, 3).bits
        rng = RngState(7)
        p = Parameter("logits", rng.uniform_array((8, 8), -4, 4))
        w = Tensor(rng.uniform_array((8, 8), -1, 1))
        backward(tsum(masked_softmax(p, bits) * w))
        assert (p.grad[bits == 0.0] == 0.0).all()
        assert (p.grad[bits == 1.0] != 0.0).any()

    def test_backward_row_entropy_matches_oracle(self):
        # entropy over the mask support, the delicate composition
        from mogref.mog import build_mask

        bits = build_mask(6, 2).bits
        support = np.flatnonzero(bits.reshape(-1))
        rng = RngState(3)
        p = Parameter("logits", rng.uniform_array((6, 6), -2, 2))

        def loss():
            y = masked_softmax(p, bits)
            picked = take_rows(reshape(y, (36,)), support)
            return tsum(-picked * log(picked))

        assert check_case("row_entropy", loss, [p]).worst_rel_err < 1e-4


class TestLayernorm:
    def test_constant_row_maps_to_zero(self):
        out = layernorm(Tensor([1.0, 1.0, 1.0, 1.0]))
        assert (out.data == 0.0).all()

    def test_symmetric_pair(self):
        out = layernorm(Tensor([-3.0, 3.0]), eps=1e-5)
        assert out.data == pytest.approx([-1.0, 1.0], abs=1e-6)

    def test_hand_case(self):
        out = layernorm(Tensor([1.0, 2.0, 3.0]), eps=1e-12)
        assert out.data == pytest.approx([-1.22474, 0.0, 1.22474], abs=1e-4)

    @given(st.integers(0, 10_000))
    def test_zero_mean_unit_variance(self, seed):
        rng = RngState(seed)
        x = rng.uniform_array((4, 9), -10, 10)
        out = layernorm(Tensor(x), eps=1e-12).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-10
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-8


class TestMeanPool:
    def test_single_token_identity(self):
        x = Tensor(np.arange(6.0).reshape(1, 1, 6))
        assert (mean(x, axis=1).data == x.data[:, 0]).all()

    def test_symmetry(self):
        out = mean(Tensor([[[1.0, 3.0], [3.0, 1.0]]]), axis=1)
        assert out.data.tolist() == [[2.0, 2.0]]

    def test_hand_average(self):
        out = mean(Tensor([[[0.0, 0.0], [6.0, 3.0]]]), axis=1)
        assert out.data.tolist() == [[3.0, 1.5]]


class TestBackward:
    def test_linear_map_gradient_is_broadcast_input(self):
        x = np.array([[1.0], [2.0], [3.0]])
        w = Parameter("w", np.zeros((2, 3)))
        backward(tsum(matmul(w, Tensor(x))))
        assert (w.grad == np.tile(x.T, (2, 1))).all()

    def test_unused_parameter_keeps_zero_grad(self):
        used = Parameter("used", np.ones((2, 2)))
        unused = Parameter("unused", np.ones((2, 2)))
        backward(tsum(used * 3.0))
        assert (unused.grad == 0.0).all()
        assert (used.grad == 3.0).all()

    def test_repeated_backward_accumulates(self):
        p = Parameter("p", np.ones(3))
        backward(tsum(p * 2.0))
        backward(tsum(p * 2.0))
        assert (p.grad == 4.0).all()
        zero_grads([p])
        assert (p.grad == 0.0).all()

    def test_second_backward_on_same_graph_raises(self):
        p = Parameter("p", np.array([1.5, -0.5]))
        loss = tsum(p * p)  # one recorded graph, walked once
        backward(loss)
        with pytest.raises(RuntimeError, match="graph already walked"):
            backward(loss)
        assert (p.grad == 2.0 * p.data).all()

    def test_backward_reaching_a_node_of_a_walked_graph_raises(self):
        p = Parameter("p", np.array([1.5, -0.5]))
        y = p * p  # an interior node both losses share
        backward(tsum(y * 2.0))
        with pytest.raises(RuntimeError, match="graph already walked"):
            backward(tsum(p * 5.0) + tsum(y * 3.0))
        assert (p.grad == 4.0 * p.data).all()  # the unshared branch added nothing either

    def test_non_scalar_loss_rejected(self):
        p = Parameter("p", np.ones(3))
        with pytest.raises(ShapeError):
            backward(p * 1.0)

    def test_shared_subexpression_fan_out(self):
        # two consumers of one node must both contribute
        p = Parameter("p", np.array([2.0]))
        y = p * 3.0
        backward(tsum(y * 1.0) + tsum(y * 1.0))
        assert p.grad.tolist() == [6.0]

    def test_deterministic_forward(self):
        rng = RngState(2)
        x = rng.uniform_array((3, 3))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x)).data
        assert (a == b).all()

    def test_raw_ndarray_mixing_routes_through_tensor_ops(self):
        # __array_ufunc__ = None makes numpy defer to __radd__, so a mixed
        # expression yields a proper Tensor instead of an object ndarray
        out = np.ones(3) + Tensor(2.0 * np.ones(3))
        assert isinstance(out, Tensor)
        assert out.data.tolist() == [3.0, 3.0, 3.0]


class TestReshapeErrors:
    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            reshape(Tensor(np.ones((2, 3))), (4, 2))

    def test_mean_keeps_values(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        assert mean(x).item() == pytest.approx(5.5)


class TestNegativeAxes:
    @staticmethod
    def forward_and_grad(op, shape):
        """``op``'s output and the gradient of ``sum(op(x) * proj)`` into ``x``."""
        rng = RngState(9)
        x = Parameter("x", rng.uniform_array(shape, -1.0, 1.0))
        out = op(x)
        backward(tsum(out * Tensor(RngState(10).uniform_array(out.shape, -1.0, 1.0))))
        return out.data, x.grad

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_select_equals_the_positive_axis(self, axis):
        shape = (2, 3, 4)
        got = self.forward_and_grad(lambda x: select(x, 1, axis=axis), shape)
        want = self.forward_and_grad(lambda x: select(x, 1, axis=axis + 3), shape)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_select_last_axis_picks_a_column(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert select(x, 1, axis=-1).data.tolist() == [1.0, 4.0]

    @pytest.mark.parametrize("axes", [(-1, 0, 1), (0, -1, 1), (1, -1, 0)])
    def test_transpose_equals_the_positive_axes(self, axes):
        shape = (2, 3, 4)
        got = self.forward_and_grad(lambda x: transpose(x, axes), shape)
        want = self.forward_and_grad(lambda x: transpose(x, [ax % 3 for ax in axes]), shape)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_out_of_range_axes_are_named(self):
        x = Tensor(np.ones((2, 3)))
        for call in (lambda: select(x, 0, axis=2), lambda: select(x, 0, axis=-3),
                     lambda: transpose(x, (0, 2)), lambda: transpose(x, (-3, 1))):
            with pytest.raises(ShapeError, match=r"axis -?\d+ is out of range for 2 dimensions"):
                call()


class TestAffine:
    @pytest.mark.parametrize("shape", [(5, 6), (2, 5, 6), (2, 3, 4, 6)])
    def test_equals_matmul_plus_bias_bit_for_bit(self, shape):
        rng = RngState(7)
        values = rng.uniform_array(shape, -2, 2)
        w_init, b_init = rng.uniform_array((6, 3), -1, 1), rng.uniform_array((3,), -1, 1)
        proj = rng.uniform_array((*shape[:-1], 3), -1, 1)
        results = []
        for build in (lambda x, w, b: affine(x, w, b), lambda x, w, b: matmul(x, w) + b):
            x, w, b = Parameter("x", values), Parameter("w", w_init), Parameter("b", b_init)
            out = build(x, w, b)
            backward(tsum(out * proj))
            results.append((out.data, x.grad, w.grad, b.grad))
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("residual_shape", ["same", "broadcast", "input"])
    def test_residual_fold_equals_affine_plus_residual_bit_for_bit(self, residual_shape, dtype):
        # "input" is the residual h + Linear(h): the residual is also the
        # product's input, an interior node whose gradient starts as None
        rng = RngState(8)
        values = rng.uniform_array((2, 5, 6), -2, 2).astype(dtype)
        w_init = rng.uniform_array((6, 6), -1, 1).astype(dtype)
        b_init = rng.uniform_array((6,), -1, 1).astype(dtype)
        r_init = rng.uniform_array((2, 5, 6) if residual_shape == "same" else (6,), -1, 1).astype(dtype)
        proj = rng.uniform_array((2, 5, 6), -1, 1).astype(dtype)
        results = []
        for build in (lambda x, w, b, r: affine(x, w, b, r), lambda x, w, b, r: affine(x, w, b) + r):
            x, w, b, r = (Parameter(name, init) for name, init in
                          (("x", values), ("w", w_init), ("b", b_init), ("r", r_init)))
            h = x * 2.0
            if residual_shape == "input":
                r = h
            out = build(h, w, b, r)
            backward(tsum(out * proj))
            leaf_grads = (x.grad, w.grad, b.grad) if r is h else (x.grad, w.grad, b.grad, r.grad)
            results.append((out.data, *leaf_grads))
        for got, want in zip(*results):
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape, dtype", [((2, 3, 4), np.float32), ((3, 5), np.float32), ((4,), np.float64)])
    def test_residual_that_does_not_fit_the_product_raises(self, shape, dtype):
        # a wider, a mismatched and a float64 residual against a (1, 3, 4) float32 product
        x = Tensor(np.ones((1, 3, 4), dtype=np.float32))
        w, b = Tensor(np.ones((4, 4), dtype=np.float32)), Tensor(np.zeros(4, dtype=np.float32))
        with pytest.raises(ShapeError, match="residual"):
            affine(x, w, b, Tensor(np.ones(shape, dtype=dtype)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            affine(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.zeros(5)))


# the plain expressions the in-place kernels must reproduce bit for bit
_C = math.sqrt(2.0 / math.pi)
_A = 0.044715


def reference_gelu(x, g):
    t = np.tanh(_C * (x + _A * (x * x * x)))
    d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _C * (1.0 + 3.0 * _A * x * x)
    return 0.5 * x * (1.0 + t), g * d


def reference_layernorm(x, g, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv
    gm = g.mean(axis=-1, keepdims=True)
    gym = (g * y).mean(axis=-1, keepdims=True)
    return y, inv * (g - gm - y * gym)


def _inputs(kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(0.0, 3.0, shape)
    if kind == "saturated":  # tanh is exactly +-1 out here
        return rng.uniform(20.0, 60.0, shape) * rng.choice([-1.0, 1.0], shape)
    x = rng.normal(0.0, 3.0, shape)  # "constant": every other row constant
    x[..., ::2, :] = rng.normal(0.0, 3.0, (*shape[:-2], (shape[-2] + 1) // 2, 1))
    return x


class TestInPlaceKernels:
    @pytest.mark.parametrize("kind", ["random", "saturated", "constant"])
    @pytest.mark.parametrize("op, reference", [(layernorm, reference_layernorm)])
    def test_bit_identical_to_the_plain_expressions(self, op, reference, kind):
        x = Parameter("x", _inputs(kind, (3, 5, 9), seed=11))
        g = np.random.default_rng(12).normal(0.0, 1.0, x.shape)
        out = op(x)
        backward(tsum(out * Tensor(g)))
        want_out, want_grad = reference(x.data, g)
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(x.grad, want_grad)

    @pytest.mark.parametrize("kind", ["random", "saturated", "constant"])
    @pytest.mark.parametrize("residual", [False, True])
    def test_gelu_affine_bit_identical_to_the_plain_expressions(self, kind, residual):
        # the node keeps h and rebuilds gelu(h) in backward: dW must have the
        # bits of the product over the forward's gelu(h), and dh those of
        # gelu's derivative times g @ w^T
        rng = np.random.default_rng(15)
        x = Parameter("x", _inputs(kind, (3, 5, 9), seed=11))
        w, b = Parameter("w", rng.normal(0.0, 0.5, (9, 6))), Parameter("b", rng.normal(0.0, 0.5, 6))
        r = Parameter("r", rng.normal(0.0, 1.0, (3, 5, 6))) if residual else None
        g = np.random.default_rng(12).normal(0.0, 1.0, (3, 5, 6))
        out = gelu_affine(x, w, b, r)
        backward(tsum(out * Tensor(g)))
        g_rows = g.reshape(-1, 6)
        act, dx = reference_gelu(x.data, (g_rows @ w.data.T).reshape(x.shape))
        want = (act.reshape(-1, 9) @ w.data).reshape(out.shape) + b.data
        assert np.array_equal(out.data, want + r.data if residual else want)
        assert np.array_equal(x.grad, dx)
        assert np.array_equal(w.grad, act.reshape(-1, 9).T @ g_rows)
        assert np.array_equal(b.grad, g_rows.sum(axis=0))
        assert not residual or np.array_equal(r.grad, g)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layernorm_row_means_equal_ndarray_mean_at_an_odd_width(self, dtype):
        # the reference takes its four row means with ndarray.mean; 63 is not
        # a multiple of any SIMD width, so the reduction has a ragged tail
        x = Parameter("x", _inputs("random", (4, 7, 63), seed=13).astype(dtype))
        g = np.random.default_rng(14).normal(0.0, 1.0, x.shape).astype(dtype)
        out = layernorm(x)
        backward(tsum(out * Tensor(g)))
        want_out, want_grad = reference_layernorm(x.data, g)
        assert out.data.dtype == want_out.dtype == dtype
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(x.grad, want_grad)


_BINARY = [add, sub, mul, div, maximum, minimum, matmul, lambda u, v: concat([u, v], axis=0)]
_BINARY_IDS = ["add", "sub", "mul", "div", "maximum", "minimum", "matmul", "concat"]


class TestGradientRouting:
    """Gradients that one backward hands to one node twice, or to two nodes.

    As both operands, one interior node collects both partials of one
    backward; beside a broadcast operand, the output gradient itself goes to
    one input and a summed copy to the other; as two operands that take more
    gradient later, only one of them may take the output gradient's buffer.
    """

    @staticmethod
    def _check(build, params):
        result = check_case("routing", build, params)
        assert result.worst_rel_err < 1e-4, result.worst_param

    @pytest.mark.parametrize("op", _BINARY, ids=_BINARY_IDS)
    def test_one_interior_node_as_both_operands(self, op):
        rng = RngState(21)
        x = Parameter("x", rng.uniform_array((4, 4), 0.5, 1.5))
        weights = rng.uniform_array((8, 4), -1.0, 1.0)

        def build():
            y = x * 1.0
            out = op(y, y)
            return tsum(out * weights[: out.shape[0]])

        self._check(build, [x])

    @pytest.mark.parametrize("order", ["y + b", "b + y"])
    def test_broadcast_operand_in_either_order(self, order):
        rng = RngState(22)
        x = Parameter("x", rng.uniform_array((3, 4), -1.0, 1.0))
        b = Parameter("b", rng.uniform_array((4,), -1.0, 1.0))
        weights = rng.uniform_array((3, 4), -1.0, 1.0)

        def build():
            y = x * 1.0
            out = y + b if order == "y + b" else b + y
            return tsum(out * weights) + tsum(y * y)

        self._check(build, [x, b])

    def test_two_operands_that_take_more_gradient_later(self):
        # if both took g's buffer, y's later gradient would also land in z's
        rng = RngState(23)
        x = Parameter("x", rng.uniform_array((3, 4), -1.0, 1.0))
        w, v, u = (rng.uniform_array((3, 4), -1.0, 1.0) for _ in range(3))

        def build():
            y, z = x * 1.0, x * 2.0
            return tsum((y + z) * w) + tsum(y * v) + tsum(z * u)

        self._check(build, [x])

    def test_only_record_builds_a_node(self):
        # the routing rule holds for every op only while _record builds every
        # node and only tensor accumulates gradients: only Tensor.__init__,
        # _record and backward's release assign a node's closure or parents,
        # and no other module names _accum
        assigners, accum_users = set(), set()

        def visit(node, module, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, module, f"{scope}.{child.name}")
                    continue
                targets = []
                if isinstance(child, ast.Assign):
                    targets = child.targets
                elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                    targets = [child.target]
                for target in targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Attribute) and t.attr in ("_backward", "_parents"):
                            assigners.add(scope)
                name = (getattr(child, "id", None) or getattr(child, "attr", None)
                        or getattr(child, "name", None))
                if name == "_accum" and module != "tensor":
                    accum_users.add(scope)
                visit(child, module, scope)

        for path in sorted(Path(mogref.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text()), path.stem, path.stem)
        assert assigners == {"tensor.Tensor.__init__", "tensor._record", "tensor.backward"}
        assert accum_users == set()
        assert not hasattr(mogref.tensor, "_node")


class TestModule:
    def test_parameters_in_assignment_order_skipping_non_parameters(self):
        class Inner(Module):
            def __init__(self):
                self.b = Parameter("inner.b", np.zeros(1))
                self.a = Parameter("inner.a", np.zeros(1))

        class Outer(Module):
            def __init__(self):
                self.first = Parameter("first", np.zeros(2))
                self.missing = None
                self.constant = Tensor(np.ones(3))
                self.blocks = [Inner(), [Parameter("nested", np.zeros(1))], "label"]
                self.last = Parameter("last", np.zeros(1))

        assert [p.name for p in Outer().parameters()] == [
            "first", "inner.b", "inner.a", "nested", "last"]


class TestDtypeRule:
    def test_float32_stays_and_other_inputs_become_float64(self):
        assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.ones(2)).data.dtype == np.float64
        assert Tensor([1, 2]).data.dtype == np.float64
        assert Tensor(np.ones(2, dtype=np.float16)).data.dtype == np.float64

    @pytest.mark.parametrize("op", [add, sub, mul, div, maximum, minimum])
    @pytest.mark.parametrize("scalar", [3, 0.1, np.float64(0.1)])
    def test_a_scalar_operand_takes_the_tensor_dtype(self, op, scalar):
        x = Tensor(np.array([0.5, 2.0], dtype=np.float32))
        assert op(x, scalar).data.dtype == np.float32
        assert op(scalar, x).data.dtype == np.float32

    def test_a_scalar_operand_rounds_to_the_tensor_dtype(self):
        x = Tensor(np.array([0.5, 2.0], dtype=np.float32))
        assert (mul(x, 0.1).data == x.data * np.float32(0.1)).all()

    def test_a_selected_scalar_keeps_float32(self):
        v = Parameter("v", np.array([1.0, 2.0], dtype=np.float32))
        picked = select(v, 1)
        assert picked.shape == () and picked.data.dtype == np.float32
        assert (picked * Tensor(np.ones(3, dtype=np.float32))).data.dtype == np.float32

    def test_each_gradient_takes_its_input_dtype(self):
        # plain leaves: a Parameter's preallocated grad would cast on += by itself
        a = Tensor(np.array([0.5, -1.0], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([2.0 + 2**-40, 3.0]), requires_grad=True)
        out = tsum(a * b)
        assert out.data.dtype == np.float64
        backward(out)
        assert a.grad.dtype == np.float32 and b.grad.dtype == np.float64
        assert (a.grad == b.data.astype(np.float32)).all()

    def test_cast(self):
        a = Tensor(np.array([0.1, 0.2], dtype=np.float32), requires_grad=True)
        assert cast(a, np.float32) is a
        up = cast(a, np.float64)
        assert up.data.dtype == np.float64 and (up.data == a.data).all()
        backward(tsum(up * Tensor(np.array([1.0 + 2**-40, 3.0]))))
        assert a.grad.dtype == np.float32
        assert a.grad.tolist() == [1.0, 3.0]

    def test_take_rows_gradient_in_the_table_dtype(self):
        table = Parameter("table", np.ones((3, 2), dtype=np.float32))
        rows = cast(take_rows(table, [0, 2, 2]), np.float64)
        backward(tsum(rows * Tensor(np.full((3, 2), 0.5))))
        assert table.grad.dtype == np.float32
        assert table.grad.tolist() == [[0.5, 0.5], [0.0, 0.0], [1.0, 1.0]]
