import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mogref.mog as mog_module
from mogref.data import SyntheticSceneSpec, default_vocab
from mogref.gradcheck import finite_difference_grad, max_rel_err
from mogref.mog import (
    GateParams,
    MoGAttention,
    MoGConfig,
    _attention_core,
    _scaled_logits,
    attention_logits,
    branch_attention,
    build_mask,
    build_rect_mask,
    gate_weights,
    mog_forward,
    split_heads,
)
from mogref.model import ModelConfig, SCSModel
from mogref.rng import RngState
from mogref.tensor import (
    Parameter,
    Tensor,
    backward,
    no_grad,
    reshape,
    select,
    tsum,
    zero_grads,
)
from mogref.train import build_synthetic_dataset


def brute_force_mask(n: int, dilation: int) -> np.ndarray:
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if abs(i - j) % dilation == 0:
                out[i][j] = 1.0
    return out


def reference_mha(x, w_q, w_k, w_v, num_heads):
    """Plain numpy multi-head attention, no masks, no gate."""
    b, n, d = x.shape
    dk = d // num_heads
    q = (x @ w_q).reshape(b, n, num_heads, dk).transpose(0, 2, 1, 3)
    k = (x @ w_k).reshape(b, n, num_heads, dk).transpose(0, 2, 1, 3)
    v = (x @ w_v).reshape(b, n, num_heads, dk).transpose(0, 2, 1, 3)
    logits = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    return (weights @ v).transpose(0, 2, 1, 3).reshape(b, n, d)


class TestConfig:
    def test_head_split_must_divide(self):
        with pytest.raises(ValueError):
            MoGConfig(10, 4, (1,))

    def test_dilations_must_increase(self):
        with pytest.raises(ValueError):
            MoGConfig(8, 2, (1, 3, 2))
        with pytest.raises(ValueError):
            MoGConfig(8, 2, (2, 2))
        with pytest.raises(ValueError):
            MoGConfig(8, 2, ())
        with pytest.raises(ValueError):
            MoGConfig(8, 2, (0, 1))

    def test_derived_quantities(self):
        cfg = MoGConfig(12, 3, (1, 2))
        assert cfg.head_dim == 4
        assert cfg.num_granularities == 2


class TestBuildMask:
    def test_dilation_one_is_all_ones(self):
        assert (build_mask(4, 1).bits == 1.0).all()

    def test_hand_case_n4_d2(self):
        expected = [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
        assert build_mask(4, 2).bits.tolist() == expected

    def test_hand_case_n5_d3(self):
        bits = build_mask(5, 3).bits
        assert set(np.flatnonzero(bits[0])) == {0, 3}
        assert set(np.flatnonzero(bits[2])) == {2}

    @given(st.integers(1, 64), st.integers(1, 6))
    def test_matches_brute_force_predicate(self, n, dilation):
        bits = build_mask(n, dilation).bits
        assert (bits == brute_force_mask(n, dilation)).all()

    @given(st.integers(1, 64), st.integers(1, 6))
    def test_structure(self, n, dilation):
        bits = build_mask(n, dilation).bits
        assert (bits == bits.T).all()
        assert (np.diag(bits) == 1.0).all()
        assert bits.any(axis=1).all()

    @given(st.integers(1, 64), st.integers(1, 6))
    def test_sparsity_accounting(self, n, dilation):
        bits = build_mask(n, dilation).bits
        per_row = [sum(1 for j in range(n) if abs(i - j) % dilation == 0) for i in range(n)]
        assert bits.sum() == sum(per_row)
        if dilation == 1:
            assert bits.sum() == n * n

    def test_cache_returns_readonly_shared_bits(self):
        a = build_mask(9, 2).bits
        b = build_mask(9, 2).bits
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 0.0

    def test_cache_population_is_thread_safe(self):
        from concurrent.futures import ThreadPoolExecutor

        import mogref.mog as mog_module

        mog_module._MASK_CACHE.clear()
        sizes = [(31 + i % 5, 1 + i % 6) for i in range(60)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda nd: build_mask(*nd).bits, sizes))
        for (n, d), bits in zip(sizes, results):
            assert bits is build_mask(n, d).bits
            assert (bits == brute_force_mask(n, d)).all()

    def test_rect_mask_predicate(self):
        bits = build_rect_mask(2, 6, 3)
        assert bits.tolist() == [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0]]

    def test_rect_mask_empty_row_rejected(self):
        with pytest.raises(ValueError):
            build_rect_mask(4, 2, 7)  # row 3 would keep nothing

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_mask(0, 1)
        with pytest.raises(ValueError):
            build_mask(3, 0)


def toy_attention(seed=0, model_dim=8, num_heads=2, dilations=(1, 2, 3), gate_random=True):
    rng = RngState(seed)
    attn = MoGAttention(MoGConfig(model_dim, num_heads, dilations), rng, "attn")
    if gate_random:
        attn.gate.w.data = rng.uniform_array(attn.gate.w.shape, -0.5, 0.5)
        attn.gate.b.data = rng.uniform_array(attn.gate.b.shape, -0.5, 0.5)
    x = Tensor(rng.uniform_array((2, 6, model_dim), -1, 1))
    return x, attn


class TestAttentionLogits:
    def test_zero_projections_give_zero_logits(self):
        x, attn = toy_attention()
        attn.w_q.data[:] = 0.0
        attn.w_k.data[:] = 0.0
        _, _, _, logits = attention_logits(x, attn)
        assert (logits.data == 0.0).all()

    def test_single_token_shape(self):
        rng = RngState(1)
        attn = MoGAttention(MoGConfig(8, 2, (1,)), rng, "attn")
        x = Tensor(rng.uniform_array((3, 1, 8)))
        _, _, _, logits = attention_logits(x, attn)
        assert logits.shape == (3, 2, 1, 1)

    def test_hand_outer_product_head_dim_one(self):
        rng = RngState(2)
        attn = MoGAttention(MoGConfig(1, 1, (1,)), rng, "attn")
        attn.w_q.data = np.array([[1.0]])
        attn.w_k.data = np.array([[1.0]])
        x = Tensor(np.array([[[1.0], [2.0]]]))  # q = k = [1, 2], sqrt(d_k) = 1
        _, _, _, logits = attention_logits(x, attn)
        assert logits.data.reshape(2, 2).tolist() == [[1.0, 2.0], [2.0, 4.0]]


class TestBranchAttention:
    def test_all_ones_mask_equals_standard_attention(self):
        x, attn = toy_attention()
        _, _, v, logits = attention_logits(x, attn)
        out = branch_attention(logits, np.ones((6, 6)), v)
        ref = reference_mha(x.data, attn.w_q.data, attn.w_k.data, attn.w_v.data, 2)
        assert np.abs(out.data - ref).max() < 1e-12

    def test_zero_logits_average_parity_classes(self):
        x, attn = toy_attention(model_dim=4, num_heads=1, dilations=(1, 2))
        attn.w_q.data[:] = 0.0
        attn.w_k.data[:] = 0.0
        x = Tensor(RngState(5).uniform_array((1, 4, 4), -1, 1))
        _, _, v, logits = attention_logits(x, attn)
        out = branch_attention(logits, build_mask(4, 2).bits, v)
        v_merged = v.data.transpose(0, 2, 1, 3).reshape(1, 4, 4)
        even = v_merged[0, 0::2].mean(axis=0)
        odd = v_merged[0, 1::2].mean(axis=0)
        assert np.abs(out.data[0, 0] - even).max() < 1e-14
        assert np.abs(out.data[0, 2] - even).max() < 1e-14
        assert np.abs(out.data[0, 1] - odd).max() < 1e-14

    def test_single_key_returns_value(self):
        rng = RngState(3)
        attn = MoGAttention(MoGConfig(8, 2, (1,)), rng, "attn")
        x = Tensor(rng.uniform_array((2, 1, 8), -1, 1))
        _, _, v, logits = attention_logits(x, attn)
        out = branch_attention(logits, np.ones((1, 1)), v)
        v_merged = v.data.transpose(0, 2, 1, 3).reshape(2, 1, 8)
        assert np.abs(out.data - v_merged).max() < 1e-15


class TestGateWeights:
    def test_zero_gate_is_uniform(self):
        x, attn = toy_attention(gate_random=False, dilations=(1, 2, 3, 4))
        out = gate_weights(x, attn.gate)
        assert (out.data == 0.25).all()

    def test_saturated_bias_picks_one_branch(self):
        x, attn = toy_attention(gate_random=False)
        attn.gate.b.data = np.array([0.0, 1e6, 0.0])
        out = gate_weights(x, attn.gate)
        assert np.abs(out.data[:, 1] - 1.0).max() < 1e-9

    def test_hand_softmax_two_branches(self):
        rng = RngState(4)
        attn = MoGAttention(MoGConfig(8, 2, (1, 2)), rng, "attn")
        attn.gate.b.data = np.array([np.log(3.0), 0.0])
        x = Tensor(rng.uniform_array((3, 5, 8)))
        out = gate_weights(x, attn.gate)  # W = 0, so logits = b
        assert out.data == pytest.approx(np.tile([0.75, 0.25], (3, 1)), abs=1e-6)

    @given(st.integers(0, 10_000), st.floats(1.0, 1e3))
    def test_probability_vector_for_arbitrary_inputs(self, seed, scale):
        rng = RngState(seed)
        attn = MoGAttention(MoGConfig(8, 2, (1, 2, 3)), rng, "attn")
        attn.gate.w.data = rng.uniform_array(attn.gate.w.shape, -scale, scale)
        attn.gate.b.data = rng.uniform_array(attn.gate.b.shape, -scale, scale)
        x = Tensor(rng.uniform_array((3, 4, 8), -scale, scale))
        out = gate_weights(x, attn.gate).data
        assert (out >= 0.0).all()
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12


class TestMoGForward:
    def test_single_dense_branch_reduces_to_vanilla_attention(self):
        rng = RngState(7)
        attn = MoGAttention(MoGConfig(16, 4, (1,)), rng, "attn")
        x = Tensor(rng.uniform_array((2, 8, 16), -1, 1))
        out = mog_forward(x, attn)
        ref = reference_mha(x.data, attn.w_q.data, attn.w_k.data, attn.w_v.data, 4)
        assert np.abs(out.data - ref).max() < 1e-10

    def test_one_hot_gate_degenerates_to_single_branch(self):
        x, attn = toy_attention(gate_random=False)
        attn.gate.b.data = np.array([0.0, 1e9, 0.0])
        out = mog_forward(x, attn)
        _, _, v, logits = attention_logits(x, attn)
        branch = branch_attention(logits, build_mask(6, 2).bits, v)
        assert np.abs(out.data - branch.data).max() < 1e-12

    def test_equals_explicit_convex_combination(self):
        x, attn = toy_attention(dilations=(1, 2, 3, 4), model_dim=8)
        out = mog_forward(x, attn)
        gammas = gate_weights(x, attn.gate).data
        _, _, v, logits = attention_logits(x, attn)
        explicit = np.zeros_like(out.data)
        for g, dilation in enumerate(attn.config.dilations):
            branch = branch_attention(logits, build_mask(6, dilation).bits, v)
            explicit += gammas[:, g][:, None, None] * branch.data
        assert np.abs(out.data - explicit).max() < 1e-12

    def test_output_inside_branch_convex_hull(self):
        x, attn = toy_attention(dilations=(1, 2, 3, 4), model_dim=8)
        out = mog_forward(x, attn).data
        _, _, v, logits = attention_logits(x, attn)
        branches = np.stack([
            branch_attention(logits, build_mask(6, d).bits, v).data
            for d in attn.config.dilations
        ])
        assert (out <= branches.max(axis=0) + 1e-12).all()
        assert (out >= branches.min(axis=0) - 1e-12).all()

    def test_permutation_consistency_across_batch(self):
        x, attn = toy_attention()
        out = mog_forward(x, attn).data
        perm = [1, 0]
        out_perm = mog_forward(Tensor(x.data[perm]), attn).data
        assert (out_perm == out[perm]).all()

    def test_cross_attention_shapes_and_gate_source(self):
        rng = RngState(9)
        attn = MoGAttention(MoGConfig(8, 2, (1, 2)), rng, "attn")
        queries = Tensor(rng.uniform_array((1, 3, 8), -1, 1))
        memory = Tensor(rng.uniform_array((4, 10, 8), -1, 1))
        out = mog_forward(queries, attn, memory=memory)
        assert out.shape == (4, 3, 8)

    def test_gradients_match_finite_differences(self):
        x, attn = toy_attention(dilations=(1, 2, 3), model_dim=8)
        xp = Parameter("x", x.data.copy())
        params = [xp, *attn.parameters()]
        w = Tensor(RngState(11).uniform_array((2, 6, 8), -1, 1))

        def loss():
            return tsum(mog_forward(xp, attn) * w)

        zero_grads(params)
        backward(loss())
        for p in params:
            fd = finite_difference_grad(lambda _: loss(), p)
            assert max_rel_err(p.grad, fd) < 1e-4, p.name


class TestMixtureWeights:
    """The core's gate-weighted branch mixture against per-branch masked softmax nodes."""

    def test_underflowing_branch_falls_back_to_masked_softmax(self):
        rng = RngState(5)
        b, h, n, dk = 2, 2, 7, 16
        logits = rng.uniform_array((b, h, n, n), -800.0, 800.0)
        assert np.ptp(logits) > 1500.0
        masks = [build_mask(n, d).bits for d in (2, 3)]
        # some support row lies wholly below exp's range under the shared row max
        shared = np.exp(logits - logits.max(axis=-1, keepdims=True))
        assert any(((shared * m).sum(axis=-1) == 0.0).any() for m in masks)
        # q k^T / sqrt(d_k) = logits exactly: k is each head's identity rows,
        # q each head's logits times sqrt(d_k) = 4, zero-padded to d_k
        q = np.zeros((b, h, n, dk))
        q[..., :n] = 4.0 * logits
        k = np.broadcast_to(np.eye(n, dk), (b, h, n, dk))
        params = [
            Parameter("q", q.transpose(0, 2, 1, 3).reshape(b, n, h * dk)),
            Parameter("k", k.transpose(0, 2, 1, 3).reshape(b, n, h * dk)),
            Parameter("v", rng.uniform_array((b, n, h * dk), -1.0, 1.0)),
            Parameter("gammas", np.array([[0.3, 0.7], [0.8, 0.2]])),
        ]
        assert (_scaled_logits(*(split_heads(t, h) for t in params[:2])).data == logits).all()
        refs = copies(params)
        out = _attention_core(*params, (2, 3), h)
        assert "_attention_core" not in out._backward.__qualname__  # the fallback ran
        reference = branch_reference(*refs, masks, h)
        assert np.abs(out.data - reference.data).max() < 1e-12

        proj = Tensor(rng.uniform_array(out.shape, -1.0, 1.0))
        backward(tsum(out * proj))
        backward(tsum(reference * proj))
        for p, r in zip(params, refs):
            assert np.isfinite(p.grad).all(), p.name
            assert np.abs(p.grad - r.grad).max() < 1e-12, p.name

    @pytest.mark.parametrize("n_q, n_k, dilations", [
        *((n, n, dil) for n in (1, 5, 7, 74)
          for dil in ((1,), (2, 3), (1, 2, 3, 4), (1, 5, 9))),
        *((n_q, n_k, dil) for n_q, n_k in ((3, 7), (4, 74), (7, 3))
          for dil in ((1, 2, 3), (2, 3))),
    ])
    def test_residue_classes_equal_the_masked_branch_sum(self, n_q, n_k, dilations):
        h = 2
        params, proj = core_inputs(n_q * 1000 + n_k + sum(dilations), 2, h, n_q, n_k, 8, dilations)
        refs = copies(params)
        out = _attention_core(*params, dilations, h)
        assert "_attention_core" in out._backward.__qualname__
        reference = branch_reference(*refs, [build_rect_mask(n_q, n_k, d) for d in dilations], h)
        assert np.abs(out.data - reference.data).max() < 1e-12

        backward(tsum(out * proj))
        backward(tsum(reference * proj))
        for p, r in zip(params, refs):
            assert np.abs(p.grad - r.grad).max() < 1e-12, p.name


def check_far_below_row_max(gap, dtype, bound):
    """The core against the per-branch reference when one support row sits ``gap`` below its row max.

    logits = q k^T / 2 with d_k = 4 and k the unit rows: row 1's only
    class-mate under d=2 sits ``gap`` below its row max. The call takes the
    per-branch fallback exactly when that class sum is below the floor of
    ``dtype``; either way output and gradients stay finite and within
    ``bound`` of the float64 reference.
    """
    logits = np.array([[0.0, 1.0, -2.0], [0.0, -gap, 0.5], [-1.0, 0.0, 2.0]])
    params = [Parameter(name, value.astype(dtype)) for name, value in (
        ("q", np.concatenate([2.0 * logits, np.zeros((3, 1))], axis=1)[None]),
        ("k", np.eye(3, 4)[None]),
        ("v", RngState(6).uniform_array((1, 3, 4), -1.0, 1.0)),
        ("gammas", np.array([[0.4, 0.6]])),
    )]
    refs = [Parameter(f"ref_{p.name}", p.data.astype(np.float64)) for p in params]
    out = _attention_core(*params, (1, 2), 1)
    assert out.data.dtype == dtype
    fallback = np.exp(-gap - 0.5) < mog_module._min_class_sum(dtype)
    assert ("_attention_core" not in out._backward.__qualname__) == fallback
    reference = branch_reference(*refs, [build_mask(3, d).bits for d in (1, 2)], 1)
    assert np.isfinite(out.data).all()
    assert np.abs(out.data - reference.data).max() < bound

    proj = RngState(7).uniform_array(out.shape, -1.0, 1.0)
    backward(tsum(out * Tensor(proj.astype(dtype))))
    backward(tsum(reference * Tensor(proj)))
    for p, r in zip(params, refs):
        assert p.grad.dtype == dtype, p.name
        assert np.isfinite(p.grad).all(), p.name
        assert np.abs(p.grad - r.grad).max() < bound, p.name


def core_inputs(seed, b, h, n_q, n_k, d, dilations, query_batch=None):
    """Projection-shaped q, k, v and per-sample gammas for the attention core."""
    rng = RngState(seed)
    q = Parameter("q", rng.uniform_array((query_batch or b, n_q, d), -1.5, 1.5))
    k = Parameter("k", rng.uniform_array((b, n_k, d), -1.5, 1.5))
    v = Parameter("v", rng.uniform_array((b, n_k, d), -1.0, 1.0))
    gammas = Parameter("gammas", rng.uniform_array((b, len(dilations)), 0.1, 1.0))
    return [q, k, v, gammas], Tensor(rng.uniform_array((b, n_q, d), -1.0, 1.0))


def copies(params):
    return [Parameter(f"ref_{p.name}", p.data.copy()) for p in params]


def branch_reference(q, k, v, gammas, masks, num_heads):
    """sum_g gamma_g (P_g V) from robust per-branch masked softmax nodes."""
    qh, kh, vh = (split_heads(t, num_heads) for t in (q, k, v))
    logits = _scaled_logits(qh, kh)
    out = None
    for g, m in enumerate(masks):
        gamma = reshape(select(gammas, g, axis=1), (gammas.shape[0], 1, 1))
        term = gamma * branch_attention(logits, m, vh)
        out = term if out is None else out + term
    return out


class TestAttentionCore:
    @pytest.mark.parametrize("dilations", [(1,), (2, 3), (1, 2, 3, 4)])
    @pytest.mark.parametrize("n_q, n_k, query_batch", [(9, 9, None), (4, 11, 1)])
    @pytest.mark.parametrize("chunk", ["batch", "sample", "head"])
    def test_equals_the_composition(self, dilations, n_q, n_k, query_batch, chunk, monkeypatch):
        # one chunk for the whole batch (the unchunked arithmetic), one per
        # sample, one per (sample, head): each _CHUNK_BYTES here is below
        # _PACK_BYTES, so it sets the budget. Every layout has the bits of the
        # one-chunk layout and is within 1e-12 of the per-branch composition.
        per_sample = 2 * n_q * n_k * 8

        def run(layout):
            chunk_bytes = {"batch": 2 * per_sample, "sample": per_sample, "head": 1}[layout]
            monkeypatch.setattr(mog_module, "_CHUNK_BYTES", chunk_bytes)
            assert len(mog_module._chunks(2, 2, n_q, n_k, 8)) == {"batch": 1, "sample": 2, "head": 4}[layout]
            params, proj = core_inputs(21, 2, 2, n_q, n_k, 8, dilations, query_batch)
            out = _attention_core(*params, dilations, 2)
            assert "_attention_core" in out._backward.__qualname__
            backward(tsum(out * proj))
            return out.data, params, proj

        out, params, proj = run(chunk)
        one_out, one_params, _ = run("batch")
        assert (out == one_out).all()
        for p, r in zip(params, one_params):
            assert (p.grad == r.grad).all(), p.name

        refs = copies(params)
        masks = [build_rect_mask(n_q, n_k, d) for d in dilations]
        reference = branch_reference(*refs, masks, 2)
        assert np.abs(out - reference.data).max() < 1e-12
        backward(tsum(reference * proj))
        for p, r in zip(params, refs):
            assert np.abs(p.grad - r.grad).max() < 1e-12, p.name

    def test_mog_forward_is_the_core_over_the_projections(self):
        x, attn = toy_attention(dilations=(1, 2, 3), model_dim=8)
        out = mog_forward(x, attn)
        q, k, v = (x @ w for w in (attn.w_q, attn.w_k, attn.w_v))
        core = _attention_core(q, k, v, gate_weights(x, attn.gate), (1, 2, 3), 2)
        assert (out.data == core.data).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("query_batch", [None, 1])
    @pytest.mark.parametrize("needs", ["q k v", "q gammas", "gammas", "k v gammas"],
                             ids=["constant-gammas", "constant-k-and-v", "only-gammas", "constant-q"])
    def test_inputs_needing_no_gradient(self, needs, query_batch, dtype):
        # the chunk pass forms the gradients of just the inputs that need one,
        # in whichever partial _record asks for first; each gets the bits of
        # the call where every input needs one, and a constant gets none
        names = ("q", "k", "v", "gammas")

        def run(needed):
            params, proj = core_inputs(24, 2, 2, 5, 7, 8, (1, 2, 3), query_batch)
            inputs = [Tensor(p.data.astype(dtype), requires_grad=p.name in needed) for p in params]
            out = _attention_core(*inputs, (1, 2, 3), 2)
            assert "_attention_core" in out._backward.__qualname__
            backward(tsum(out * Tensor(proj.data.astype(dtype))))
            return out.data, inputs

        every_out, every = run(names)
        out, inputs = run(needs.split())
        assert out.tobytes() == every_out.tobytes()
        for name, t, ref in zip(names, inputs, every):
            if t.requires_grad:
                assert t.grad.dtype == dtype and t.grad.tobytes() == ref.grad.tobytes(), name
            else:
                assert t.grad is None, name

    @pytest.mark.parametrize("gap", [300.0, 400.0, 740.0])
    def test_far_below_row_max_class_stays_finite(self, gap):
        # the floor sqrt(tiny) ~ 1.5e-154 sits at a gap of about 354: a
        # normal class sum above it at 300, a tiny one at 400 and a
        # subnormal one at 740
        check_far_below_row_max(gap, np.float64, bound=1e-12)

    @pytest.mark.parametrize("gap", [30.0, 60.0, 95.0])
    def test_far_below_row_max_class_stays_finite_in_float32(self, gap):
        # the floor sqrt(tiny) ~ 1.1e-19 sits at a gap of about 44: a normal
        # class sum above it at 30, a tiny one at 60 and a subnormal one at
        # 95, where gamma / S would overflow float32; the reference is the
        # float64 arithmetic of the same float32 inputs
        check_far_below_row_max(gap, np.float32, bound=1e-6)

    def test_float32_fallback_keeps_a_far_below_class_of_several_keys_precise(self):
        # row 1's d=2 class is keys 1, 3 and 5, all about 95 under the row
        # max: their shared exponentials are float32 subnormals, so the call
        # falls back, and each branch must normalize by its own support
        # maximum to keep float32 precision
        logits = RngState(12).uniform_array((6, 6), -2.0, 2.0)
        logits[1] = [0.0, -95.0, 0.0, -95.7, 0.0, -96.3]
        # q k^T / sqrt(16) = logits: k is 16 times the unit rows and q the
        # logits over 4, which keeps both gradients of order one
        params = [Parameter(name, value.astype(np.float32)) for name, value in (
            ("q", np.concatenate([logits / 4.0, np.zeros((6, 10))], axis=1)[None]),
            ("k", 16.0 * np.eye(6, 16)[None]),
            ("v", RngState(13).uniform_array((1, 6, 16), -1.0, 1.0)),
            ("gammas", np.array([[0.4, 0.6]])),
        )]
        refs = [Parameter(f"ref_{p.name}", p.data.astype(np.float64)) for p in params]
        out = _attention_core(*params, (1, 2), 1)
        assert "_attention_core" not in out._backward.__qualname__  # the fallback ran
        assert out.data.dtype == np.float32
        reference = branch_reference(*refs, [build_mask(6, d).bits for d in (1, 2)], 1)
        assert np.abs(out.data - reference.data).max() < 1e-6

        proj = RngState(14).uniform_array(out.shape, -1.0, 1.0)
        backward(tsum(out * Tensor(proj.astype(np.float32))))
        backward(tsum(reference * Tensor(proj)))
        for p, r in zip(params, refs):
            assert p.grad.dtype == np.float32, p.name
            assert np.isfinite(p.grad).all(), p.name
            assert np.abs(p.grad - r.grad).max() < 1e-6, p.name

    def test_fallback_after_earlier_chunks_ran(self, monkeypatch):
        # one chunk per sample, and only the last sample has the 740 gap, so
        # the first three chunks have written their output and saved arrays
        # before the core returns the fallback; the queries (batch 1)
        # broadcast against all four samples
        monkeypatch.setattr(mog_module, "_CHUNK_BYTES", 3 * 3 * 8)
        assert len(mog_module._chunks(4, 1, 3, 3, 8)) == 4
        logits = np.array([[0.0, 1.0, -2.0], [0.0, -740.0, 0.5], [-1.0, 0.0, 2.0]])
        q = Parameter("q", np.concatenate([2.0 * logits, np.zeros((3, 1))], axis=1)[None])
        small = RngState(8).uniform_array((3, 3, 4), -1e-3, 1e-3)  # no gap in samples 0-2
        k = Parameter("k", np.concatenate([small, np.eye(3, 4)[None]]))
        v = Parameter("v", RngState(9).uniform_array((4, 3, 4), -1.0, 1.0))
        gammas = Parameter("gammas", RngState(10).uniform_array((4, 2), 0.1, 1.0))
        params = [q, k, v, gammas]
        refs = copies(params)
        out = _attention_core(*params, (1, 2), 1)
        assert "_attention_core" not in out._backward.__qualname__
        reference = branch_reference(*refs, [build_mask(3, d).bits for d in (1, 2)], 1)
        assert np.abs(out.data - reference.data).max() < 1e-12

        proj = Tensor(RngState(11).uniform_array(out.shape, -1.0, 1.0))
        backward(tsum(out * proj))
        backward(tsum(reference * proj))
        for p, r in zip(params, refs):
            assert np.abs(p.grad - r.grad).max() < 1e-12, p.name

    @pytest.mark.parametrize("n_q, query_batch", [(53, None), (5, 1)])
    def test_backward_keeps_no_n_by_n_array(self, n_q, query_batch):
        b, h, n_k = 2, 2, 53
        params, _ = core_inputs(22, b, h, n_q, n_k, 8, (1, 2, 3, 4), query_batch)
        out = _attention_core(*params, (1, 2, 3, 4), h)
        limit = b * h * n_q * n_k
        seen, stack, arrays = set(), [out._backward], []
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                arrays.append(obj)
                if obj.base is not None:
                    stack.append(obj.base)
            elif isinstance(obj, Tensor):
                stack.append(obj.data)  # parents: their data, not their graph
            elif callable(obj) and getattr(obj, "__closure__", None):
                stack.extend(cell.cell_contents for cell in obj.__closure__)
            elif isinstance(obj, (tuple, list)):
                stack.extend(obj)
            elif hasattr(obj, "__dataclass_fields__"):
                stack.extend(getattr(obj, f) for f in obj.__dataclass_fields__)
        assert arrays, "the walk found no arrays"
        assert max(a.size for a in arrays) < limit

    def test_backward_allocates_no_n_by_n_buffer(self):
        b, h, n, d = 2, 4, 128, 32
        params, proj = core_inputs(23, b, h, n, n, d, (1, 2, 3, 4))
        out = _attention_core(*params, (1, 2, 3, 4), h)
        g = proj.data.copy()
        out._backward(g)  # fill the residue cache and size the chunk buffers first
        for p in params:
            p.grad = None
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # e, W (turned into W dW and then d logits in place) and dW (turned
        # into dW * e and then the correction) live in the three reused chunk
        # buffers; a call allocates the (B, H, N, C) class arrays
        # and the (B, N, D) gradients
        buffers = (peak - base) / (b * h * n * n * 8)
        assert buffers < 1.0, f"peak {buffers:.2f} (B, H, N, N) buffers"


@pytest.mark.parametrize("shape, samples, heads, count", [  # shape: (B, H, N_q, N_k, itemsize)
    ((8, 4, 74, 74, 8), 2, 4, 4),  # 171 KB float64 samples: two fit the pack budget
    ((16, 4, 74, 74, 8), 2, 4, 8),  # the same for a 16-scene evaluation
    ((2, 4, 266, 266, 8), 1, 4, 2),  # 2.2 MB samples: one each
    ((1, 4, 1034, 1034, 8), 1, 1, 4),  # 34 MB samples: one head each
    ((8, 4, 74, 74, 4), 5, 4, 2),  # 86 KB float32 samples: five fit
    ((16, 4, 74, 74, 4), 5, 4, 4),
    ((2, 4, 266, 266, 4), 1, 4, 2),  # 1.1 MB: one each
    ((1, 4, 1034, 1034, 4), 1, 1, 4),  # 4.3 MB heads: one head each
])
def test_chunks_pack_whole_samples_up_to_the_budget(shape, samples, heads, count):
    b, h = shape[:2]
    chunks = mog_module._chunks(*shape)
    assert len(chunks) == count
    assert all(c[0].stop - c[0].start == samples and c[1].stop - c[1].start == heads
               for c in chunks)
    covered = np.zeros((b, h), dtype=int)
    for sample, head in chunks:
        covered[sample, head] += 1
    assert (covered == 1).all()


def test_eval_forward_scratch_stays_within_the_pack_budget():
    # _Scratch is per thread, so a fresh thread starts with empty buffers
    vocab = default_vocab()
    dataset = build_synthetic_dataset(16, SyntheticSceneSpec(image_size=64), vocab, 0)
    model = SCSModel(ModelConfig(image_size=64, vocab_size=len(vocab)), vocab, RngState(0))
    sizes = []

    def forward():
        with no_grad():
            model.forward(dataset.images, dataset.token_ids)
        sizes.extend(buf.nbytes for buf in mog_module._SCRATCH.buffers)

    worker = threading.Thread(target=forward)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert len(sizes) == 3 and max(sizes) > 0
    assert max(sizes) <= mog_module._PACK_BYTES, sizes


def test_single_class_spread_equals_the_gemm():
    # dilations (1,): the one class column is all ones, so the spread is a
    # broadcast copy; it must equal the (..., 1) @ (1, N_k) product bit for bit
    keys = mog_module._residue_classes(5, 74, (1,), np.float64).keys
    a = RngState(14).uniform_array((8, 4, 5, 1), -3.0, 3.0)
    gemm = (a.reshape(-1, 1) @ keys.T).reshape(8, 4, 5, 74)
    assert (mog_module._spread(a, keys, out=np.empty((8, 4, 5, 74))) == gemm).all()


@pytest.mark.parametrize("shape, dilations", [
    ((8, 4, 74, 74), (1, 2, 3, 4)),
    ((2, 3, 7, 7), (2, 5)),
    ((8, 4, 4, 74), (1, 2, 3, 4)),
    ((2, 2, 3, 7), (2, 5)),
    ((2, 4, 5, 5), (1,)),
    ((1, 2, 1, 9), (1, 3)),
])
def test_selected_class_arithmetic_equals_the_masked_divide(shape, dilations):
    # reference: the divides over every class column with where= the
    # query-row selection mask, and the min through that boolean mask
    b, h, n_q, n_k = shape
    classes = mog_module._residue_classes(n_q, n_k, dilations, np.float64)
    branch = np.repeat(np.arange(len(dilations)), dilations)
    residue = np.concatenate([np.arange(d) for d in dilations])
    rows = np.arange(n_q)[:, None] % np.asarray(dilations)[branch] == residue
    rng = RngState(sum(shape) + len(dilations))
    e = rng.uniform_array(shape, 0.0, 1.0)
    gammas = rng.uniform_array((b, len(dilations)), 0.1, 1.0)
    dw = rng.uniform_array(shape, -1.0, 1.0)

    # the helpers keep each row's selected classes, (..., n_q, G); scattered
    # back to (..., n_q, C) they must equal the references on every column
    s, a = mog_module._class_coefficients(e, gammas, classes)
    assert s.shape == a.shape == (b, h, n_q, len(dilations))
    ref_s = e @ classes.keys
    assert np.array_equal(mog_module._scattered(s, classes), np.where(rows, ref_s, 0.0))
    assert s.min() >= mog_module._min_class_sum(np.float64)
    assert s.min() == ref_s[..., rows].min()
    gam = gammas[:, branch][:, None, None, :]
    full_a = mog_module._scattered(a, classes)
    assert np.array_equal(full_a, np.divide(gam, ref_s, out=np.zeros_like(ref_s), where=rows))

    w = mog_module._weights(e, a, classes, out=np.empty(shape))
    if 1 not in dilations:  # exact zeros off the union of the branch supports
        off = np.max([build_rect_mask(n_q, n_k, d) for d in dilations], axis=0) == 0.0
        assert off.any()
        assert (w[..., off] == 0.0).all()

    ref_w, ref_dw = w.copy(), dw.copy()
    dlogits, rho = mog_module._logit_grad(w, dw, e, s, a, classes)
    ref_rho = np.divide((ref_dw * e) @ classes.keys, ref_s, out=np.zeros_like(ref_s), where=rows)
    assert np.array_equal(rho, ref_rho)
    correction = mog_module._spread(ref_rho * full_a, classes.keys, out=np.empty(shape))
    assert np.array_equal(dlogits, ref_w * ref_dw - correction * e)
    assert dlogits is w  # in the buffer of W, which is dead after dV

    # a selected class sum below the floor sends the call to the fallback
    e[0, 0, 0] = 0.0
    assert mog_module._class_coefficients(e, gammas, classes) is None


class TestMaskPath:
    def test_cross_attention_with_an_empty_query_row_is_rejected(self):
        rng = RngState(12)
        attn = MoGAttention(MoGConfig(8, 2, (1, 7)), rng, "attn")
        queries = Tensor(rng.uniform_array((1, 4, 8), -1, 1))
        memory = Tensor(rng.uniform_array((1, 2, 8), -1, 1))
        with pytest.raises(ValueError, match="empty row"):
            mog_forward(queries, attn, memory=memory)

    @pytest.mark.parametrize("cross", [False, True])
    def test_forward_builds_no_dense_mask(self, cross):
        n = 53
        before = set(mog_module._MASK_CACHE)
        assert not any(key[:2] == (n, n) for key in before)
        rng = RngState(13)
        attn = MoGAttention(MoGConfig(8, 2, (1, 2, 3, 4)), rng, "attn")
        x = Tensor(rng.uniform_array((2, n, 8), -1, 1))
        out = mog_forward(x, attn, memory=x if cross else None)
        backward(tsum(out))
        assert set(mog_module._MASK_CACHE) == before


def peak_buffers_no_grad(run, buffer_bytes: int) -> float:
    """Peak numpy memory of one ``run()`` under no_grad, in buffers."""
    with no_grad():
        run()  # fill the mask and residue caches first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return (peak - base) / buffer_bytes


@pytest.mark.parametrize("cross", [False, True])
def test_mog_forward_streams_branches_through_one_buffer(cross):
    b, h, n, d = 4, 4, 128, 32
    rng = RngState(0)
    attn = MoGAttention(MoGConfig(d, h, (1, 2, 3, 4)), rng, "attn")
    x = Tensor(rng.uniform_array((b, n, d), -1.0, 1.0))
    memory = Tensor(rng.uniform_array((b, n, d), -1.0, 1.0)) if cross else None
    # the logits, the shared exponential, W and one branch: 4 (B, H, N, N)
    # buffers plus the small (B, N, D) ones; keeping every branch costs 6+
    peak = peak_buffers_no_grad(lambda: mog_forward(x, attn, memory=memory), b * h * n * n * 8)
    assert peak < 5.0, f"peak {peak:.2f} (B, H, N, N) buffers"


@pytest.mark.parametrize("cross", [False, True])
def test_mog_forward_builds_no_per_branch_buffer(cross):
    b, h, n, d = 4, 4, 128, 32
    rng = RngState(0)
    attn = MoGAttention(MoGConfig(d, h, (1, 2, 3, 4)), rng, "attn")
    x = Tensor(rng.uniform_array((b, n, d), -1.0, 1.0))
    memory = Tensor(rng.uniform_array((b, n, d), -1.0, 1.0)) if cross else None
    # the logits, turned into the shared exponential in place, and W live in
    # reused chunk buffers; a call allocates the (B, H, N, C) class arrays
    # and the (B, N, D) ones, but no (B, H, N, N) buffer
    peak = peak_buffers_no_grad(lambda: mog_forward(x, attn, memory=memory), b * h * n * n * 8)
    assert peak < 1.0, f"peak {peak:.2f} (B, H, N, N) buffers"
