import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mogref.data import (
    AnnotationRecord,
    ValidationError,
    Vocab,
    default_vocab,
    load_annotations,
    save_annotations,
)
from mogref.gradcheck import check_case, finite_difference_grad, max_rel_err
from mogref.matching import BBox, batch_assignment_loss, grounding_loss
from mogref.model import ModelConfig, SCSModel, parameter_shapes, sinusoidal_positions
from mogref.rng import RngState
from mogref.tensor import Tensor, backward, reshape, zero_grads

VOCAB = default_vocab()

TINY = ModelConfig(
    model_dim=8, num_heads=2, dilations=(1, 2), sce_blocks=2, scd_blocks=1,
    ssd_blocks=1, num_queries=3, ffn_dim=12, image_size=16, patch_size=8,
    vocab_size=len(VOCAB),
)
TINY64 = ModelConfig(**{**TINY.to_json(), "dtype": "float64"})


def tiny_model(seed=0, config=TINY):
    return SCSModel(config, VOCAB, RngState(seed))


def tiny_batch(seed=0, batch=2, config=TINY):
    rng = RngState(seed)
    images = rng.uniform_array((batch, config.image_size, config.image_size, 3))
    ids = np.array([[2, 3, 4], [2, 5, 0]])[:batch]
    return images, ids


def reference_mha(x, w_q, w_k, w_v, num_heads, memory=None):
    """Plain numpy multi-head attention; keys and values come from ``memory`` when given."""
    kv = x if memory is None else memory

    def heads(t):
        b, n, d = t.shape
        return t.reshape(b, n, num_heads, d // num_heads).transpose(0, 2, 1, 3)

    q, k, v = heads(x @ w_q), heads(kv @ w_k), heads(kv @ w_v)
    logits = q @ k.transpose(0, 1, 3, 2) / np.sqrt(q.shape[-1])
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    out = (e / e.sum(axis=-1, keepdims=True)) @ v
    b, h, n, dk = out.shape
    return out.transpose(0, 2, 1, 3).reshape(b, n, h * dk)


def zero_block_outputs(model: SCSModel) -> None:
    """Zero every sublayer output projection (and bias) in all stages."""
    for block in [*model.sce, *model.scd, *model.ssd]:
        for lin_name in ("attn_out", "self_out", "cross_out", "ffn_out"):
            lin = getattr(block, lin_name, None)
            if lin is not None:
                lin.w.data[:] = 0.0
                lin.b.data[:] = 0.0


class TestConfig:
    def test_block_counts_positive(self):
        with pytest.raises(ValueError):
            ModelConfig(sce_blocks=0)

    def test_patch_must_divide_image(self):
        with pytest.raises(ValueError):
            ModelConfig(image_size=60, patch_size=8)

    @pytest.mark.parametrize("field", ["patch_size", "image_size", "ffn_dim"])
    @pytest.mark.parametrize("value", [0, -8])
    def test_nonpositive_size_names_the_field(self, field, value):
        # patch 0 divided by zero, patch -8 divides 64 and failed in a reshape
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            ModelConfig(**{field: value})

    def test_json_round_trip(self):
        cfg = ModelConfig(dilations=(1, 3))
        assert ModelConfig(**json.loads(json.dumps(cfg.to_json()))) == cfg

    def test_dtype_defaults_to_float32_and_must_be_known(self):
        assert ModelConfig().dtype == "float32"
        with pytest.raises(ValueError, match="dtype"):
            ModelConfig(dtype="float16")

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_parameters_and_positions_take_the_config_dtype(self, dtype):
        model = tiny_model(config=ModelConfig(**{**TINY.to_json(), "dtype": dtype}))
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(dtype)}
        assert {p.grad.dtype for p in model.parameters()} == {np.dtype(dtype)}
        tokens = model.project_tokens(*tiny_batch())
        assert tokens.data.dtype == dtype
        assert sinusoidal_positions(7, 8, dtype).dtype == dtype

    def test_float32_parameters_are_the_rounded_float64_draws(self):
        for a, b in zip(tiny_model(seed=3).parameters(), tiny_model(seed=3, config=TINY64).parameters()):
            assert (a.data == b.data.astype(np.float32)).all(), a.name


class TestProjector:
    def test_visual_token_count(self):
        model = tiny_model()
        images, ids = tiny_batch()
        tokens = model.project_tokens(images, ids)
        assert tokens.shape == (2, 4 + 3, 8)  # 16x16 image, patch 8: 4 visual tokens

    def test_empty_expression_keeps_visual_only(self):
        # at L = 0 the text path gathers no rows: the visual tokens are the
        # ones a text batch gets, and a forward and backward run through it
        model = tiny_model()
        images, ids = tiny_batch()
        empty = np.zeros((2, 0), dtype=int)
        visual = model.project_tokens(images, ids).data[:, :4]
        alone = model.project_tokens(images, empty).data
        assert alone.shape == visual.shape == (2, 4, 8)
        assert np.array_equal(alone.view(np.uint32), visual.view(np.uint32))
        pred = model.forward(images, empty)
        targets = [[BBox(0.3, 0.3, 0.2, 0.2)], [BBox(0.6, 0.6, 0.3, 0.2)]]
        loss, _ = grounding_loss(pred.boxes, pred.confidence, targets)
        zero_grads(model.parameters())
        backward(loss)
        assert np.isfinite(loss.data) and np.isfinite(model.arena.grad).all()
        assert (model.projector.word_embed.grad == 0.0).all()
        assert (model.projector.patch.w.grad != 0.0).any()

    def test_same_image_different_expression(self):
        model = tiny_model()
        images, _ = tiny_batch(batch=1)
        images = np.repeat(images, 2, axis=0)
        tokens = model.project_tokens(images, np.array([[2, 3, 4], [5, 6, 7]]))
        vis = tokens.data[:, :4]
        text = tokens.data[:, 4:]
        assert (vis[0] == vis[1]).all()
        assert (text[0] != text[1]).any()

    def test_out_of_vocab_id_rejected(self):
        model = tiny_model()
        images, _ = tiny_batch()
        with pytest.raises(ValidationError):
            model.project_tokens(images, np.array([[1, 2], [3, len(VOCAB)]]))

    def test_wrong_image_shape_rejected(self):
        model = tiny_model()
        with pytest.raises(ValidationError):
            model.project_tokens(np.zeros((2, 8, 8, 3)), np.zeros((2, 0), dtype=int))

    def test_float32_scenes_into_a_float64_model_rejected(self):
        images, ids = tiny_batch()
        with pytest.raises(ValidationError, match="float32 images into a float64 model"):
            tiny_model(config=TINY64).project_tokens(images.astype(np.float32), ids)
        # narrowing to the model's dtype, and integer rasters, are accepted
        for model, batch in ((tiny_model(), images), (tiny_model(config=TINY64), images),
                             (tiny_model(config=TINY64), (images * 255).astype(np.uint8))):
            assert model.project_tokens(batch, ids).data.dtype == model.config.dtype

    def test_positions_deterministic(self):
        a = sinusoidal_positions(10, 8)
        b = sinusoidal_positions(10, 8)
        assert a is b  # cached, read-only
        assert a[0, 0] == 0.0 and a[0, 1] == 1.0

    @pytest.mark.parametrize("dim", [5, 8])
    def test_positions_interleave_sin_and_cos(self, dim):
        table = sinusoidal_positions(7, dim)
        pos = np.arange(7.0)[:, None]
        for j in range(dim):
            angle = pos[:, 0] / 10000.0 ** ((j - j % 2) / dim)
            expected = np.sin(angle) if j % 2 == 0 else np.cos(angle)
            np.testing.assert_allclose(table[:, j], expected, rtol=0, atol=1e-15)

    def test_odd_model_dim_forward_runs(self):
        cfg = ModelConfig(**{**TINY.to_json(), "model_dim": 5, "num_heads": 1})
        pred = tiny_model(config=cfg).forward(*tiny_batch(config=cfg))
        assert pred.boxes.shape == (2, 3, 4)
        assert np.isfinite(pred.boxes.data).all()


class TestStages:
    def test_sce_returns_every_block_output(self):
        model = tiny_model()
        images, ids = tiny_batch()
        memory, per_block = model.sce_forward(model.project_tokens(images, ids))
        assert len(per_block) == 2
        assert per_block[-1] is memory
        for t in per_block:
            assert t.shape == memory.shape

    def test_single_block_per_block_equals_memory(self):
        cfg = ModelConfig(**{**TINY.to_json(), "sce_blocks": 1, "dilations": (1, 2)})
        model = tiny_model(config=cfg)
        images, ids = tiny_batch(config=cfg)
        memory, per_block = model.sce_forward(model.project_tokens(images, ids))
        assert len(per_block) == 1 and per_block[0] is memory

    def test_residual_identity_when_outputs_zeroed(self):
        model = tiny_model()
        zero_block_outputs(model)
        images, ids = tiny_batch()
        tokens = model.project_tokens(images, ids)
        memory, per_block = model.sce_forward(tokens)
        assert np.abs(memory.data - tokens.data).max() == 0.0
        coarse = model.scd_forward(memory)
        assert np.abs(coarse.data - model.queries.data[None]).max() == 0.0
        refined = model.ssd_forward(coarse, model.fuse_hierarchy(per_block))
        assert np.abs(refined.data - coarse.data).max() == 0.0

    def test_single_query_self_attention_returns_its_value(self):
        # one query attends only to itself: softmax over one key is 1
        from mogref.mog import MoGAttention, MoGConfig, mog_forward

        rng = RngState(17)
        attn = MoGAttention(MoGConfig(8, 2, (1,)), rng, "mha")
        q = Tensor(rng.uniform_array((3, 1, 8), -1, 1))
        out = mog_forward(q, attn)
        assert np.abs(out.data - q.data @ attn.w_v.data).max() < 1e-15
        ref = reference_mha(q.data, attn.w_q.data, attn.w_k.data, attn.w_v.data, 2)
        assert np.abs(out.data - ref).max() < 1e-15

    def test_zero_memory_and_zero_value_projection_contribute_nothing(self):
        model = tiny_model()
        block = model.ssd[0]
        block.cross_attn.w_v.data[:] = 0.0
        rng = RngState(19)
        queries = Tensor(rng.uniform_array((2, 3, 8), -1, 1))
        zero_memory = Tensor(np.zeros((2, 7, 8)))
        from mogref.mog import mog_forward
        from mogref.tensor import layernorm

        with_cross = queries + block.cross_out(
            mog_forward(layernorm(queries), block.cross_attn, memory=zero_memory))
        # cross_out bias is zero-initialized, so the sublayer adds nothing
        assert np.abs(with_cross.data - queries.data).max() == 0.0

    def test_decoder_shapes(self):
        model = tiny_model()
        images, ids = tiny_batch()
        memory, per_block = model.sce_forward(model.project_tokens(images, ids))
        coarse = model.scd_forward(memory)
        refined = model.ssd_forward(coarse, model.fuse_hierarchy(per_block))
        assert coarse.shape == (2, 3, 8)
        assert refined.shape == (2, 3, 8)


class TestFuseHierarchy:
    def test_singleton_is_layernorm(self):
        from mogref.tensor import layernorm

        model = tiny_model()
        rng = RngState(3)
        x = Tensor(rng.uniform_array((2, 5, 8), -1, 1))
        cfg = ModelConfig(**{**TINY.to_json(), "sce_blocks": 1})
        single = tiny_model(config=cfg)
        out = single.fuse_hierarchy([x])
        assert np.abs(out.data - layernorm(x).data).max() == 0.0

    def test_one_hot_weights_pick_that_block(self):
        from mogref.tensor import layernorm

        model = tiny_model()
        model.fuse.logits.data[...] = [-1e9, 0.0]
        rng = RngState(4)
        a = Tensor(rng.uniform_array((1, 4, 8), -1, 1))
        b = Tensor(rng.uniform_array((1, 4, 8), -1, 1))
        out = model.fuse_hierarchy([a, b])
        assert np.abs(out.data - layernorm(b).data).max() < 1e-12

    def test_uniform_weights_over_identical_blocks(self):
        from mogref.tensor import layernorm

        model = tiny_model()  # zero logits: uniform weights
        x = Tensor(RngState(5).uniform_array((1, 4, 8), -1, 1))
        out = model.fuse_hierarchy([x, x])
        assert np.abs(out.data - layernorm(x).data).max() < 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            tiny_model().fuse_hierarchy([])


class TestRegressionHead:
    def test_zero_weights_give_half_everywhere(self):
        model = tiny_model()
        for lin in (model.head.box_hidden, model.head.box_out, model.head.conf_out):
            lin.w.data[:] = 0.0
            lin.b.data[:] = 0.0
        images, ids = tiny_batch()
        pred = model.forward(images, ids)
        assert (pred.boxes.data == 0.5).all()
        assert (pred.confidence.data == 0.5).all()

    def test_outputs_strictly_inside_unit_interval(self):
        model = tiny_model()
        images, ids = tiny_batch()
        pred = model.forward(images, ids)
        assert (pred.boxes.data > 0.0).all() and (pred.boxes.data < 1.0).all()
        assert (pred.confidence.data > 0.0).all() and (pred.confidence.data < 1.0).all()

    def test_saturated_confidence_gives_finite_loss_in_float32(self):
        # a float32 sigmoid of 20 is exactly 1.0, which would make -log(1 - p)
        # of an unmatched query infinite; the head computes it in float64
        from mogref.matching import grounding_loss

        model = tiny_model()
        model.head.conf_out.w.data[:] = 0.0
        model.head.conf_out.b.data[:] = 20.0
        pred = model.forward(*tiny_batch())
        assert pred.boxes.data.dtype == np.float64
        assert pred.confidence.data.dtype == np.float64
        assert (pred.confidence.data < 1.0).all()
        targets = [[BBox(0.3, 0.3, 0.2, 0.2)], [BBox(0.6, 0.6, 0.3, 0.2)]]
        loss, _ = grounding_loss(pred.boxes, pred.confidence, targets)
        assert np.isfinite(loss.item())
        zero_grads(model.parameters())
        backward(loss)
        assert all(np.isfinite(p.grad).all() for p in model.parameters())

    def test_saturated_bias_drives_coordinates_to_one(self):
        model = tiny_model()
        model.head.box_out.b.data[:] = 20.0
        images, ids = tiny_batch()
        pred = model.forward(images, ids)
        assert np.abs(pred.boxes.data - 1.0).max() < 1e-8


class TestEndToEnd:
    def test_prediction_shapes(self):
        model = tiny_model()
        images, ids = tiny_batch()
        pred = model.forward(images, ids)
        assert pred.boxes.shape == (2, 3, 4)
        assert pred.confidence.shape == (2, 3)

    def test_deterministic_given_seed(self):
        images, ids = tiny_batch()
        p1 = tiny_model(seed=11).forward(images, ids)
        p2 = tiny_model(seed=11).forward(images, ids)
        assert (p1.boxes.data == p2.boxes.data).all()
        assert (p1.confidence.data == p2.confidence.data).all()

    def test_parallel_forward_over_model_copies(self):
        # evaluation may run data-parallel over independent model instances
        from concurrent.futures import ThreadPoolExecutor

        images, ids = tiny_batch()
        sequential = tiny_model(seed=13).forward(images, ids).boxes.data
        models = [tiny_model(seed=13) for _ in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            outs = list(pool.map(lambda m: m.forward(images, ids).boxes.data, models))
        for out in outs:
            assert (out == sequential).all()

    @pytest.mark.parametrize("dilations", [(1, 2, 3, 4), (1,)])
    def test_every_parameter_participates(self, dilations):
        # default-depth architecture at a reduced image size for speed
        cfg = ModelConfig(image_size=32, vocab_size=len(VOCAB), dilations=dilations)
        model = SCSModel(cfg, VOCAB, RngState(0))
        rng = RngState(1)
        images = rng.uniform_array((2, 32, 32, 3))
        ids = np.array([[2, 3, 4, 5], [6, 7, 8, 0]])
        targets = [[BBox(0.3, 0.3, 0.2, 0.2)], [BBox(0.6, 0.6, 0.3, 0.2)]]
        pred = model.forward(images, ids)
        from mogref.matching import grounding_loss

        loss, _ = grounding_loss(pred.boxes, pred.confidence, targets)
        zero_grads(model.parameters())
        backward(loss)
        dead = [p.name for p in model.parameters() if (p.grad == 0.0).all()]
        assert dead == []

    def test_single_dilation_model_attention_equals_plain_mha(self):
        check_single_dilation_sites(TINY64, bound=1e-10)

    def test_single_dilation_model_attention_equals_plain_mha_float32(self):
        # float32 compute against the float64 reference of the same values
        check_single_dilation_sites(TINY, bound=1e-6)

    def test_gate_parameter_gradient_matches_finite_differences(self):
        model = tiny_model(config=TINY64)
        result = check_case("gate_parameters", *gate_gradient_setup(model))
        assert result.worst_rel_err < 1e-4, result.worst_param

    def test_gate_parameter_gradient_in_float32_matches_float64_differences(self):
        # the float32 model's gradients against finite differences of a
        # float64 copy of its parameters, at the oracle's tolerance
        model = tiny_model()
        loss, gate_params = gate_gradient_setup(model)
        zero_grads(model.parameters())
        backward(loss())
        reference = tiny_model(config=TINY64)
        for p, r in zip(model.parameters(), reference.parameters()):
            r.data[...] = p.data
        ref_loss, ref_gate_params = gate_gradient_setup(reference)
        for p, r in zip(gate_params, ref_gate_params):
            assert p.grad.dtype == np.float32, p.name
            fd = finite_difference_grad(lambda _: ref_loss(), r)
            assert max_rel_err(p.grad, fd) < 1e-4, p.name


def check_single_dilation_sites(config, bound):
    """Every one-branch attention site acts as vanilla attention, to ``bound``.

    The decoders' query self-attention and the SSD cross-attention of the
    mixed model, and with dilations=(1,) also the SCE and SCD
    cross-attention, which makes the model a plain DETR-style network. The
    reference is plain float64 numpy over the same values.
    """
    from mogref.mog import mog_forward

    def sites(model, images, ids):
        tokens = model.project_tokens(images, ids)
        memory, per_block = model.sce_forward(tokens)
        fused = model.fuse_hierarchy(per_block)
        queries = reshape(model.queries, (1, *model.queries.shape))
        coarse = model.scd_forward(memory)
        return {
            "sce.attn": (model.sce[0].attn, tokens, None),
            "scd.self_attn": (model.scd[0].self_attn, queries, None),
            "scd.cross_attn": (model.scd[0].cross_attn, queries, memory),
            "ssd.self_attn": (model.ssd[0].self_attn, coarse, None),
            "ssd.cross_attn": (model.ssd[0].cross_attn, coarse, fused),
        }

    def f64(a):
        return a.astype(np.float64)

    single = ModelConfig(**{**config.to_json(), "dilations": (1,)})
    for cfg, names in [
        (config, ["scd.self_attn", "ssd.self_attn", "ssd.cross_attn"]),
        (single, ["sce.attn", "scd.self_attn", "scd.cross_attn",
                  "ssd.self_attn", "ssd.cross_attn"]),
    ]:
        model = tiny_model(config=cfg)
        found = sites(model, *tiny_batch(config=cfg))
        for name in names:
            attn, stream, mem = found[name]
            assert attn.config.dilations == (1,) and attn.gate is None, name
            ours = mog_forward(stream, attn, memory=mem)
            assert ours.data.dtype == cfg.dtype, name
            ref = reference_mha(f64(stream.data), f64(attn.w_q.data), f64(attn.w_k.data),
                                f64(attn.w_v.data), cfg.num_heads,
                                memory=None if mem is None else f64(mem.data))
            assert ours.shape == ref.shape, name
            assert np.abs(ours.data - ref).max() < bound, name


def gate_gradient_setup(model):
    """A frozen-assignment loss over ``tiny_batch`` and three of the model's gate parameters."""
    images, ids = tiny_batch()
    targets = [[BBox(0.3, 0.3, 0.2, 0.2)], [BBox(0.6, 0.6, 0.3, 0.2)]]
    base = model.forward(images, ids)
    _, frozen = grounding_loss(base.boxes, base.confidence, targets)

    def loss():
        pred = model.forward(images, ids)
        return batch_assignment_loss(pred.boxes, pred.confidence, targets, frozen)

    gate_params = [model.sce[0].attn.gate.w, model.sce[0].attn.gate.b,
                   model.scd[0].cross_attn.gate.b]
    return loss, gate_params


def _linear(name):
    return [f"{name}.w", f"{name}.b"]


def _attention(name, gated):
    return [f"{name}.w_q", f"{name}.w_k", f"{name}.w_v",
            *([f"{name}.gate_w", f"{name}.gate_b"] if gated else [])]


def _decoder(name, gated_cross):
    return [*_attention(f"{name}.self_attn", False), *_linear(f"{name}.self_out"),
            *_attention(f"{name}.cross_attn", gated_cross), *_linear(f"{name}.cross_out"),
            *_linear(f"{name}.ffn_in"), *_linear(f"{name}.ffn_out")]


def _expected_names(sce, scd, ssd, gated):
    return [
        *_linear("projector.patch"), "projector.word_embed", "projector.type_embed",
        *[name for i in range(sce) for name in (
            *_attention(f"sce.{i}.attn", gated), *_linear(f"sce.{i}.attn_out"),
            *_linear(f"sce.{i}.ffn_in"), *_linear(f"sce.{i}.ffn_out"))],
        "fuse.block_logits",
        "queries",
        *[name for i in range(scd) for name in _decoder(f"scd.{i}", gated)],
        *[name for i in range(ssd) for name in _decoder(f"ssd.{i}", False)],
        *_linear("head.box_hidden"), *_linear("head.box_out"), *_linear("head.conf_out"),
    ]


class TestArena:
    @pytest.mark.parametrize("config", [TINY, TINY64], ids=["float32", "float64"])
    def test_parameters_are_views_in_parameter_order(self, config):
        model = tiny_model(seed=4, config=config)
        arena, params = model.arena, model.parameters()
        assert arena.data.dtype == arena.grad.dtype == np.dtype(config.dtype)
        assert arena.data.shape == arena.grad.shape == (sum(p.size for p in params),)
        offset = 0
        for p in params:
            assert p.data.base is arena.data and p.grad.base is arena.grad, p.name
            assert np.shares_memory(arena.data[offset:offset + p.size], p.data), p.name
            assert np.array_equal(arena.data[offset:offset + p.size], p.data.reshape(-1)), p.name
            offset += p.size
        arena.data[:] = 0.5  # the buffers are the parameters' storage
        arena.grad[:] = 2.0
        assert all((p.data == 0.5).all() and (p.grad == 2.0).all() for p in params)

    def test_projector_group_is_the_leading_slice(self):
        model = tiny_model()
        projector = model.projector.parameters()
        size = sum(p.size for p in projector)
        assert [p.name for p in model.parameters()[:len(projector)]] == [p.name for p in projector]
        model.arena.data[:size] = 7.0
        assert all((p.data == 7.0).all() for p in projector)
        assert not any((p.data == 7.0).any() for p in model.parameters()[len(projector):])

    def test_load_keeps_the_views(self, tmp_path):
        model = tiny_model(seed=5)
        path = tmp_path / "ckpt.json"
        model.save(path)
        loaded = SCSModel.load(path)
        params = loaded.parameters()
        assert sum(p.size for p in params) == loaded.arena.data.size
        assert all(p.data.base is loaded.arena.data and p.grad.base is loaded.arena.grad
                   for p in params)
        assert np.array_equal(loaded.arena.data, model.arena.data)


def significant_digits(number: str) -> int:
    return len(number.lstrip("-").split("e")[0].replace(".", "").strip("0"))


def assert_checkpoint_bits_round_trip(model, path):
    """Save then load ``model``: same bits, and no stored value longer than float32 needs."""
    model.save(path)
    raw = json.loads(path.read_text(), parse_float=lambda text: text)
    digits = max(significant_digits(v) for entry in raw["params"].values() for v in entry["data"])
    assert digits <= 9, digits
    loaded = SCSModel.load(path)
    assert loaded.arena.data.dtype == np.float32
    assert np.array_equal(loaded.arena.data.view(np.uint32), model.arena.data.view(np.uint32))


class TestCheckpoint:
    @pytest.mark.parametrize("changes, blocks", [
        ({}, (2, 1, 1)),
        ({"dilations": (1,), "scd_blocks": 2, "ssd_blocks": 2}, (2, 2, 2)),
    ])
    def test_parameter_order_is_construction_order(self, changes, blocks):
        # this order is the checkpoint's entry order and Adam's update order
        cfg = ModelConfig(**{**TINY.to_json(), **changes})
        names = [p.name for p in tiny_model(config=cfg).parameters()]
        assert names == _expected_names(*blocks, gated=len(cfg.dilations) > 1)

    def test_save_load_round_trip(self, tmp_path):
        model = tiny_model(seed=21, config=TINY64)
        path = tmp_path / "ckpt.json"
        model.save(path)
        loaded = SCSModel.load(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.name == b.name
            assert (a.data == b.data).all()
        images, ids = tiny_batch()
        p1 = model.forward(images, ids)
        p2 = loaded.forward(images, ids)
        assert (p1.boxes.data == p2.boxes.data).all()

    def test_float32_checkpoint_round_trips_bit_for_bit(self, tmp_path):
        model = tiny_model(seed=21)
        path = tmp_path / "ckpt.json"
        model.save(path)
        assert json.loads(path.read_text())["config"]["dtype"] == "float32"
        loaded = SCSModel.load(path)
        assert loaded.config == model.config
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert b.data.dtype == np.float32, b.name
            assert (a.data == b.data).all(), a.name
        images, ids = tiny_batch()
        assert (model.forward(images, ids).boxes.data == loaded.forward(images, ids).boxes.data).all()

    def test_float32_edge_values_round_trip_bit_for_bit(self, tmp_path):
        f32 = np.finfo(np.float32)
        subnormal = np.float32(f32.smallest_subnormal)
        edges = np.array([f32.max, -f32.max, f32.tiny, -f32.tiny, subnormal, -subnormal,
                          f32.tiny - subnormal, np.float32(3) * subnormal,
                          np.nextafter(np.float32(1), np.float32(2)),
                          np.nextafter(np.float32(1), np.float32(0)),
                          np.nextafter(np.float32(-1), np.float32(-2)), 1.0, -0.0, 0.0, 0.1],
                         dtype=np.float32)
        model = tiny_model(seed=6)
        model.arena.data[:edges.size] = edges
        assert_checkpoint_bits_round_trip(model, tmp_path / "ckpt.json")

    def test_trained_default_float32_model_round_trips_bit_for_bit(self, tmp_path):
        from mogref.data import SyntheticSceneSpec
        from mogref.train import TrainConfig, build_synthetic_dataset, train_toy

        dataset = build_synthetic_dataset(2, SyntheticSceneSpec(), VOCAB, 0)
        model = SCSModel(ModelConfig(vocab_size=len(VOCAB)), VOCAB, RngState(0))
        train_toy(model, dataset, TrainConfig(steps=2, batch_size=2, eval_every=0,
                                              target_train_p50=None))
        assert_checkpoint_bits_round_trip(model, tmp_path / "ckpt.json")

    def test_v1_fixture_loads_bit_for_bit_and_saves_its_bytes(self, fixtures_dir, tmp_path):
        # written by save from this model; a later checkpoint version must
        # still load it, or refuse it with a ValidationError
        fixture = fixtures_dir / "checkpoint_tiny_v1.json"
        loaded = SCSModel.load(fixture)
        fresh = tiny_model(seed=0)
        assert loaded.config == TINY and loaded.vocab.content_words() == VOCAB.content_words()
        assert [p.name for p in loaded.parameters()] == [p.name for p in fresh.parameters()]
        for a, b in zip(fresh.parameters(), loaded.parameters()):
            assert b.data.dtype == np.float32, b.name
            assert np.array_equal(a.data.view(np.uint32), b.data.view(np.uint32)), a.name
        loaded.save(tmp_path / "ckpt.json")
        assert (tmp_path / "ckpt.json").read_bytes() == fixture.read_bytes()

    def test_checkpoint_without_dtype_is_refused_naming_it(self, tmp_path):
        # a checkpoint written before the dtype field held float64 parameters;
        # load reads only what save writes, so it is refused, not guessed at
        path = tmp_path / "ckpt.json"
        tiny_model(seed=22, config=TINY64).save(path)
        doc = json.loads(path.read_text())
        del doc["config"]["dtype"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"config lacks \['dtype'\]"):
            SCSModel.load(path)

    def test_checkpoint_with_a_zero_patch_size_is_a_validation_error(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "ckpt.json"
        model.save(path)
        doc = json.loads(path.read_text())
        doc["config"]["patch_size"] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="patch_size must be >= 1"):
            SCSModel.load(path)

    @pytest.mark.parametrize("changes", [
        {}, {"dtype": "float64"}, {"dilations": (1,)}, {"dilations": (1, 3, 5)},
        {"sce_blocks": 3, "scd_blocks": 2, "ssd_blocks": 2}, {"patch_size": 4, "ffn_dim": 5},
    ])
    def test_parameter_shapes_are_the_built_model_s(self, changes):
        config = ModelConfig(**{**TINY.to_json(), **changes})
        assert list(parameter_shapes(config)) == [
            (p.name, p.shape) for p in tiny_model(config=config).parameters()]

    def test_single_dilation_checkpoint_with_old_gate_entries_is_refused_naming_them(self, tmp_path):
        # checkpoints written before one-branch attentions lost their gate
        # carry gate_w (D, 1) and gate_b (1,) for the SCE and SCD cross-attention
        cfg = ModelConfig(**{**TINY64.to_json(), "dilations": (1,)})
        path = tmp_path / "ckpt.json"
        tiny_model(seed=23, config=cfg).save(path)
        doc = json.loads(path.read_text())
        rng = RngState(24)
        for attn in ("sce.0.attn", "sce.1.attn", "scd.0.cross_attn"):
            doc["params"][f"{attn}.gate_w"] = {"shape": [8, 1], "data": rng.uniform_array(8).tolist()}
            doc["params"][f"{attn}.gate_b"] = {"shape": [1], "data": [rng.uniform()]}
        path.write_text(json.dumps(doc))
        gates = sorted(name for name in doc["params"] if ".gate_" in name)
        assert len(gates) == 6
        with pytest.raises(ValidationError, match=re.escape(f"missing [], extra {gates}")):
            SCSModel.load(path)

    @pytest.mark.parametrize("dilations", [(1,), (1, 2)])
    def test_unknown_parameter_entry_rejected(self, tmp_path, dilations):
        cfg = ModelConfig(**{**TINY.to_json(), "dilations": dilations})
        path = tmp_path / "ckpt.json"
        tiny_model(config=cfg).save(path)
        doc = json.loads(path.read_text())
        doc["params"]["sce.0.attn.extra"] = {"shape": [1], "data": [0.0]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="extra"):
            SCSModel.load(path)

    def test_failed_save_leaves_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        tiny_model(seed=1).save(path)
        before = path.read_bytes()

        def dump_then_fail(doc, fh, **kwargs):
            fh.write('{"format": "mogref.checkpoint", ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="disk full"):
            tiny_model(seed=2).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    @pytest.mark.parametrize("version", [True, 1.0, 2])
    def test_checkpoint_version_must_be_the_integer_version(self, tmp_path, version):
        path = tmp_path / "ckpt.json"
        tiny_model().save(path)
        doc = json.loads(path.read_text())
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=rf"expected mogref.checkpoint v1, got .* v{version}"):
            SCSModel.load(path)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValidationError):
            SCSModel.load(path)

    @pytest.mark.parametrize("value, problem", [
        (None, "not a number"), ({}, "not a number"), ("x", "not a number"),
        ("0.5", "not a number"), (True, "not a number"), ([0.5], "not a number"),
        (float("nan"), "non-finite"), (float("-inf"), "non-finite"), (10**400, "too large"),
        (3.5e38, "non-finite"),
    ], ids=["null", "object", "string", "numeric-string", "bool", "list", "nan", "inf", "huge-int",
            "past-float32"])
    def test_non_number_in_parameter_data_rejected(self, tmp_path, value, problem):
        path = tmp_path / "ckpt.json"
        tiny_model().save(path)
        doc = json.loads(path.read_text())
        doc["params"]["queries"]["data"][5] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"parameter queries.*{problem}"):
            SCSModel.load(path)

    def test_integer_parameter_values_load(self, tmp_path):
        path = tmp_path / "ckpt.json"
        tiny_model().save(path)
        doc = json.loads(path.read_text())
        doc["params"]["queries"]["data"][:2] = [0, -3]
        path.write_text(json.dumps(doc))
        assert SCSModel.load(path).queries.data.reshape(-1)[:2].tolist() == [0.0, -3.0]

    def test_vocab_size_must_match(self):
        with pytest.raises(ValueError):
            SCSModel(ModelConfig(vocab_size=7), VOCAB, RngState(0))


def _json_values():
    """Any value a JSON file can hold (NaN and infinities too, which ``json`` reads)."""
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=5)


def _paths(doc, at=()):
    """The path of ``doc`` and of every value inside it (of a list, its first two entries)."""
    yield at
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc[:2]) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*at, key))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory) -> tuple[Path, dict]:
    """A directory, and an annotation file and the checkpoint of a tiny model as loaded JSON."""
    tmp = tmp_path_factory.mktemp("files")
    record = AnnotationRecord("s-0", 16, 16, "the red square", [(1.0, 2.0, 3.0, 4.0)], "square")
    save_annotations(tmp / "annotations.json", [record])
    vocab = Vocab(["red", "square"])
    config = ModelConfig(model_dim=4, num_heads=2, dilations=(1, 2), sce_blocks=1, scd_blocks=1,
                         ssd_blocks=1, num_queries=1, ffn_dim=4, image_size=8, patch_size=8,
                         vocab_size=len(vocab))
    SCSModel(config, vocab, RngState(0)).save(tmp / "checkpoint.json")
    return tmp, {kind: json.loads((tmp / f"{kind}.json").read_text())
                 for kind in ("annotations", "checkpoint")}


@settings(max_examples=150)
@given(data=st.data())
def test_malformed_files_raise_only_validation_errors(tiny_files, data):
    # one field of a valid annotation file or checkpoint set to any JSON
    # value; the loaders may only accept it or raise ValidationError. Any
    # integer, in the config too: a checkpoint compares the parameters its
    # config implies with the stored ones before it builds a model.
    tmp, docs = tiny_files
    kind = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(_paths(docs[kind]))))
    bad = tmp / f"malformed-{kind}.json"
    bad.write_text(json.dumps(_replaced(docs[kind], path, data.draw(_json_values()))))
    load = load_annotations if kind == "annotations" else SCSModel.load
    try:
        load(bad)
    except ValidationError:
        pass
