"""Named finite-difference cases covering every differentiable operation.

Each case builds a deterministic scalar loss over a few small Parameters
(entries in [-1, 1] unless the op needs a restricted domain) so that
``backward`` can be compared against the central-difference oracle. The
registry is shared by the gradcheck CLI command, the unit tests, and the
acceptance suite.

A new op gets its case as one ``_case`` row in ``_CASES`` when its loss is
``tsum(op(*params) * w)``. A check of several terms is one row per term,
so a failure names the term that broke. A case function is written only
when its parameters come from a module, a call grid, a matcher, a model
or a float32 leaf.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from mogref import matching, mog, tensor
from mogref.rng import RngState
from mogref.tensor import Parameter, Tensor

Case = tuple[Callable[[], Tensor], list[Parameter]]


def _param(rng: RngState, name: str, shape, lo: float = -1.0, hi: float = 1.0) -> Parameter:
    return Parameter(name, rng.uniform_array(shape, lo, hi))


def _proj(rng: RngState, shape) -> Tensor:
    """Fixed random projection used to reduce an op output to a scalar."""
    return Tensor(rng.uniform_array(shape, -1.0, 1.0))


def _case(op: Callable[..., Tensor], *inputs, proj) -> Callable[[RngState], Case]:
    """A case whose loss is ``tsum(op(*params) * w)``.

    Each input is a ``(name, shape[, lo, hi])`` Parameter, drawn in order
    before the projection ``w`` of shape ``proj``.
    """
    def build(rng: RngState) -> Case:
        params = [_param(rng, *spec) for spec in inputs]
        w = _proj(rng, proj)
        return (lambda: tensor.tsum(op(*params) * w)), params

    return build


def _targets(rng: RngState, count: int) -> list[matching.BBox]:
    """``count`` target boxes, centres in [0.3, 0.7) and sides in [0.2, 0.4)."""
    return [matching.BBox(rng.uniform_in(0.3, 0.7), rng.uniform_in(0.3, 0.7),
                          rng.uniform_in(0.2, 0.4), rng.uniform_in(0.2, 0.4))
            for _ in range(count)]


def _toy_attention(rng: RngState) -> tuple[Parameter, mog.MoGAttention]:
    cfg = mog.MoGConfig(model_dim=4, num_heads=2, dilations=(1, 2, 3))
    attn = mog.MoGAttention(cfg, rng, "attn")
    # non-trivial gate so its gradient path is exercised
    attn.gate.w.data = rng.uniform_array(attn.gate.w.shape, -0.5, 0.5)
    attn.gate.b.data = rng.uniform_array(attn.gate.b.shape, -0.5, 0.5)
    x = _param(rng, "x", (2, 6, 4))
    return x, attn


def case_branch_attention(rng: RngState) -> Case:
    x, attn = _toy_attention(rng)
    bits = mog.build_mask(6, 2).bits
    w = _proj(rng, (2, 6, 4))

    def loss():
        _, _, v, logits = mog.attention_logits(x, attn)
        return tensor.tsum(mog.branch_attention(logits, bits, v) * w)

    return loss, [x, attn.w_q, attn.w_k, attn.w_v]


def case_mog_forward(rng: RngState) -> Case:
    x, attn = _toy_attention(rng)
    w = _proj(rng, (2, 6, 4))
    return (lambda: tensor.tsum(mog.mog_forward(x, attn) * w)), [x, *attn.parameters()]


def case_attention(rng: RngState) -> Case:
    """The attention node alone, from its (B, N, D) inputs and the three
    projection weights to merged heads.

    Self-attention with dilations (1,), with the gate-less constant of
    ones, and (1, 2, 3), with non-uniform per-sample gammas, each at 1 and
    2 heads, and a batch-1 input. Cross-attention on a 3x7 grid, with a
    dilation above N (5x5 with (1, 2, 7)), more queries than keys (4x3 with
    (1, 3)), single-sample queries that broadcast against two memory
    samples and a single-sample memory against two query samples, and the
    plain constant of ones.
    """
    gammas = {(2, 3): _param(rng, "gammas", (2, 3), 0.1, 0.9),  # non-uniform, per sample
              (2, 2): _param(rng, "gammas_pair", (2, 2), 0.1, 0.9),
              (1, 3): _param(rng, "gammas_one", (1, 3), 0.1, 0.9),
              (2, 1): Tensor(np.ones((2, 1)))}
    grids = [  # name, query samples, memory samples (0: self-attention), n_q, n_k, heads, dilations
        ("plain", 2, 0, 5, 5, 1, (1,)),
        ("plain_heads", 2, 0, 5, 5, 2, (1,)),
        ("mixed", 2, 0, 6, 6, 1, (1, 2, 3)),
        ("mixed_heads", 2, 0, 6, 6, 2, (1, 2, 3)),
        ("one_sample", 1, 0, 5, 5, 2, (1, 2, 3)),
        ("cross", 2, 2, 3, 7, 1, (1, 2, 3)),
        ("wide", 2, 2, 5, 5, 2, (1, 2, 7)),
        ("tall", 2, 2, 4, 3, 1, (1, 3)),
        ("broadcast", 1, 2, 3, 7, 2, (1, 2)),
        ("memory_broadcast", 2, 1, 3, 7, 1, (1, 2)),
        ("cross_plain", 2, 2, 5, 5, 2, (1,)),
    ]
    calls = []
    for name, b_q, b_m, n_q, n_k, heads, dilations in grids:
        x = _param(rng, f"{name}_x", (b_q, n_q, 4))
        memory = _param(rng, f"{name}_memory", (b_m, n_k, 4)) if b_m else None
        weights = [_param(rng, f"{name}_{w}", (4, 4)) for w in ("w_q", "w_k", "w_v")]
        b = max(b_q, b_m)
        calls.append(((x, memory, *weights), gammas[b, len(dilations)], dilations, heads, _proj(rng, (b, n_q, 4))))

    def loss():
        return sum(tensor.tsum(mog._attention(*inputs, gamma, dilations, heads) * w)
                   for inputs, gamma, dilations, heads, w in calls)

    return loss, [*(g for g in gammas.values() if isinstance(g, Parameter)),
                  *(p for inputs, *_ in calls for p in inputs if p is not None)]


def case_match_and_loss(rng: RngState) -> Case:
    """One sample's set loss: ``grounding_loss`` at B = 1, matched at every evaluation."""
    boxes = _param(rng, "boxes", (3, 4), 0.25, 0.75)
    conf = _param(rng, "conf", (3,), 0.2, 0.8)
    targets = _targets(rng, 2)
    return (lambda: matching.grounding_loss(tensor.reshape(boxes, (1, 3, 4)),
                                            tensor.reshape(conf, (1, 3)), [targets])[0]), [boxes, conf]


def case_grounding_loss_batch(rng: RngState) -> Case:
    """The batched set loss: B=3 with 1, 2 and 3 targets, assignments frozen at the base point."""
    boxes = _param(rng, "boxes", (3, 3, 4), 0.25, 0.75)
    conf = _param(rng, "conf", (3, 3), 0.2, 0.8)
    targets = [_targets(rng, count) for count in (1, 2, 3)]
    _, frozen = matching.grounding_loss(boxes, conf, targets)
    return (lambda: matching.batch_assignment_loss(boxes, conf, targets, frozen)), [boxes, conf]


def case_scs_end_to_end(rng: RngState) -> Case:
    """Whole pipeline: forward + set loss, assignments frozen at the base point.

    The batch is tokenized, padded and given normalized targets by
    ``train._assemble``, as every dataset is.
    """
    from mogref import data, model, train

    cfg = model.ModelConfig(
        model_dim=8, num_heads=2, dilations=(1, 2), sce_blocks=1, scd_blocks=1,
        ssd_blocks=1, num_queries=2, ffn_dim=12, image_size=16, patch_size=4,
        vocab_size=len(data.default_vocab()), dtype="float64",
    )
    vocab = data.default_vocab()
    net = model.SCSModel(cfg, vocab, rng.derive(1))

    spec = data.SyntheticSceneSpec(image_size=16, num_distractors=1)
    scenes = [data.generate_scene(spec, rng.derive(10 + i), f"gc-{i}") for i in range(2)]
    batch = train._assemble(np.stack([s.image for s in scenes]), [s.record for s in scenes], vocab)
    images, token_ids, targets = batch.images, batch.token_ids, batch.targets

    base = net.forward(images, token_ids)
    _, frozen = matching.grounding_loss(base.boxes, base.confidence, targets)

    def loss():
        pred = net.forward(images, token_ids)
        return matching.batch_assignment_loss(pred.boxes, pred.confidence, targets, frozen)

    return loss, net.parameters()


def case_cast(rng: RngState) -> Case:
    """float32 -> float64, and float64 -> float32 -> float64.

    Entries lie within 1e-3 of zero, where float32 spacing (below 1.2e-10)
    is far below the finite-difference step, so the oracle stays accurate
    through the float32 rounding of a perturbed entry.
    """
    a = Parameter("a32", rng.uniform_array((3, 5), -1e-3, 1e-3).astype(np.float32))
    b = _param(rng, "b", (3, 5), -1e-3, 1e-3)
    w = _proj(rng, (3, 5))
    w2 = _proj(rng, (3, 5))

    def loss():
        there_and_back = tensor.cast(tensor.cast(b, np.float32), np.float64)
        return tensor.tsum(tensor.cast(a, np.float64) * w) + tensor.tsum(there_and_back * w2)

    return loss, [a, b]


_CASES = [
    ("matmul", _case(tensor.matmul, ("a", (2, 3, 4)), ("b", (4, 5)), proj=(2, 3, 5))),
    ("add_mul_broadcast", _case(lambda a, b: (a + b) * (a * b),
                                ("a", (3, 4)), ("bias", (4,)), proj=(3, 4))),
    ("sub_neg_div", _case(lambda a, b: -a - b / a.shape[0] + a / b,
                          ("a", (2, 5)), ("b", (2, 5), 1.0, 2.0), proj=(2, 5))),  # b away from zero
    ("reshape_transpose_concat", _case(
        lambda a, b: tensor.concat([tensor.reshape(a, (1, 3, 4)),
                                    tensor.transpose(tensor.reshape(b, (3, 1, 4)), (1, 0, 2))], axis=0),
        ("a", (2, 6)), ("b", (3, 4)), proj=(2, 3, 4))),
    ("take_rows", _case(lambda table: tensor.take_rows(table, np.array([0, 2, 2, 4])),
                        ("table", (5, 3)), proj=(4, 3))),
    ("select", _case(lambda table: tensor.select(table, 1, axis=1), ("table", (5, 3)), proj=(5,))),
    ("mean", _case(lambda a: tensor.mean(a, axis=1), ("a", (3, 4, 2)), proj=(3, 2))),
    ("tsum", _case(lambda a: tensor.tsum(a) / 7.0, ("a", (3, 4, 2)), proj=())),
    ("sigmoid", _case(tensor.sigmoid, ("a", (3, 5)), proj=(3, 5))),
    ("softmax", _case(tensor.softmax, ("a", (3, 6)), proj=(3, 6))),
    ("masked_softmax", _case(lambda a: tensor.masked_softmax(a, mog.build_mask(6, 2).bits[:3]),
                             ("a", (2, 3, 6)), proj=(2, 3, 6))),
    ("layernorm", _case(tensor.layernorm, ("a", (3, 7)), proj=(3, 7))),
    ("gate_weights", _case(lambda x, w, b: mog.gate_weights(x, mog.GateParams(w, b)),
                           ("x", (2, 6, 4)), ("gate_w", (4, 3), -0.5, 0.5),
                           ("gate_b", (3,), -0.5, 0.5), proj=(2, 3))),
    ("branch_attention", case_branch_attention),
    ("mog_forward", case_mog_forward),
    ("match_and_loss", case_match_and_loss),
    ("scs_end_to_end", case_scs_end_to_end),
    ("attention", case_attention),
    ("grounding_loss_batch", case_grounding_loss_batch),
    ("cast", case_cast),
    ("affine", _case(tensor.affine, ("x", (2, 3, 4)), ("w", (4, 5)), ("b", (5,)), proj=(2, 3, 5))),
    ("affine_2d", _case(tensor.affine, ("x", (3, 4)), ("w", (4, 5)), ("b", (5,)), proj=(3, 5))),
    ("affine_residual", _case(tensor.affine, ("x", (2, 3, 4)), ("w", (4, 5)), ("b", (5,)),
                              ("residual", (2, 3, 5)), proj=(2, 3, 5))),
    ("affine_broadcast_residual", _case(tensor.affine, ("x", (2, 3, 4)), ("w", (4, 5)), ("b", (5,)),
                                        ("residual", (5,)), proj=(2, 3, 5))),
    ("gelu_affine", _case(tensor.gelu_affine, ("h", (2, 3, 4)), ("w", (4, 5)), ("b", (5,)),
                          proj=(2, 3, 5))),
    ("gelu_affine_residual", _case(tensor.gelu_affine, ("h", (2, 3, 4)), ("w", (4, 5)), ("b", (5,)),
                                   ("residual", (2, 3, 5)), proj=(2, 3, 5))),
]


def all_cases(seed: int = 0):
    """Yield (name, builder) pairs; each builder draws from its own stream.

    The stream comes from the seed and the SHA-256 of the case's name, so
    adding, removing or reordering cases reseeds no other case.
    """
    root = RngState(seed)
    for name, fn in _CASES:
        stream = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
        yield name, (lambda fn=fn, stream=stream: fn(root.derive(stream)))
