"""Toy referring-grounding network.

Pipeline: token projector -> scale-comprehensive encoder (SCE, transformer
blocks whose attention is the mixture-of-granularity module) -> two-stage
query decoding: a coarse decoder (SCD) whose cross-attention into the
encoder memory is granularity-masked, then a refining decoder (SSD), the
same block with plain cross-attention, that reads a learned softmax-weighted
fusion of every encoder block's output -> a small regression head mapping
each query to a sigmoid box and confidence. Plain attention is the
one-branch, gate-less form of the mixture module (dilations ``(1,)``).

``ModelConfig.dtype`` (float32 by default, or float64) is the dtype of the
parameters, hence of the whole forward and backward up to the head: the
projector casts the images and positions to it once. Datasets store their
scenes in it already (:func:`mogref.train.build_synthetic_dataset`), so
that cast is free; float images narrower than it raise
``ValidationError``. The head casts its logits to float64 before its two
sigmoids, so the boxes, confidences and the loss are float64 whatever the
compute dtype (a float32 sigmoid is exactly 1.0 from a logit of about
16.6, a float64 one from about 36.7).

The projector is deliberately tiny: a linear patch embedding over synthetic
rasters plus an embedding table over a closed vocabulary, with sinusoidal
positions and per-modality type vectors. All blocks are pre-norm residual,
so zeroing the output projections turns every stage into the identity.
Each residual add, and the projector's visual type vector, is folded into
the affine node of the :class:`Linear` before it (``Linear(h, residual=x)``),
so the graph records and keeps no separate product and sum.

Every module lists its parameters in construction order (see
:class:`mogref.tensor.Module`); :meth:`SCSModel.parameters` is also the
order of the optimizer's updates and of the checkpoint's entries.
:class:`SCSModel` packs them once, in that order and in the config's
dtype, into its :class:`~mogref.tensor.Arena` (``model.arena``): every
parameter's values and gradient are views into two flat buffers, the
projector's first. Code that sets values or gradients writes into those
views in place, as :meth:`SCSModel.load` does.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from mogref.data import ValidationError, Vocab, atomic_open, read_json_object, require_count
# blocks call attention as this module's ``mog_forward``, the name
# perfbench/tracer.py wraps to time every attention sublayer
from mogref.mog import MoGAttention, MoGConfig, mog_forward
from mogref.rng import RngState
from mogref.tensor import (
    Arena,
    Module,
    Parameter,
    Tensor,
    affine,
    cast,
    concat,
    gelu,
    layernorm,
    reshape,
    select,
    sigmoid,
    softmax,
    take_rows,
)

CHECKPOINT_FORMAT = "mogref.checkpoint"
CHECKPOINT_VERSION = 1
MODEL_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class ModelConfig:
    model_dim: int = 64
    num_heads: int = 4
    dilations: tuple[int, ...] = (1, 2, 3, 4)
    sce_blocks: int = 2
    scd_blocks: int = 1
    ssd_blocks: int = 1
    num_queries: int = 4
    ffn_dim: int = 128
    image_size: int = 64
    patch_size: int = 8
    vocab_size: int = 24
    dtype: str = "float32"  # of the parameters and the compute up to the head

    def __post_init__(self):
        object.__setattr__(self, "dilations", tuple(self.dilations))
        for f in fields(self):
            if f.name not in ("dilations", "dtype"):  # a vocab holds at least pad and unk
                require_count(f.name, getattr(self, f.name), 2 if f.name == "vocab_size" else 1)
        if self.dtype not in MODEL_DTYPES:
            raise ValueError(f"dtype must be one of {MODEL_DTYPES}, got {self.dtype!r}")
        if self.image_size % self.patch_size != 0:
            raise ValueError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        MoGConfig(self.model_dim, self.num_heads, self.dilations)  # validates the rest

    @property
    def mog(self) -> MoGConfig:
        return MoGConfig(self.model_dim, self.num_heads, self.dilations)

    @property
    def num_visual_tokens(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    def to_json(self) -> dict:
        out = asdict(self)
        out["dilations"] = list(self.dilations)
        return out


@dataclass
class Prediction:
    boxes: Tensor  # (B, Q, 4) center-form, float64 sigmoid outputs
    confidence: Tensor  # (B, Q), float64 sigmoid outputs


_POSITION_CACHE: dict[tuple[int, int, np.dtype], np.ndarray] = {}


def sinusoidal_positions(n: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Standard interleaved sin/cos position table, deterministic in (n, dim).

    Computed in float64 and rounded once to ``dtype``.
    """
    key = (n, dim, np.dtype(dtype))
    table = _POSITION_CACHE.get(key)
    if table is None:
        pos = np.arange(n, dtype=np.float64)[:, None]
        idx = np.arange(0, dim, 2, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, idx / dim)
        table = np.zeros((n, dim), dtype=np.float64)
        table[:, 0::2] = np.sin(angle)
        table[:, 1::2] = np.cos(angle[:, : dim // 2])  # an odd dim has one sin column more
        table = table.astype(dtype, copy=False)
        table.setflags(write=False)
        _POSITION_CACHE[key] = table
    return table


class Linear(Module):
    def __init__(self, name: str, n_in: int, n_out: int, rng: RngState):
        scale = 1.0 / np.sqrt(n_in)
        self.w = Parameter(f"{name}.w", rng.uniform_array((n_in, n_out), -scale, scale))
        self.b = Parameter(f"{name}.b", np.zeros(n_out))

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        """``x @ w + b``, or ``residual + (x @ w + b)``: one :func:`~mogref.tensor.affine` node either way."""
        return affine(x, self.w, self.b, residual)


class TokenProjector(Module):
    """Patch-embed rasters, look up word embeddings, add positions and types."""

    def __init__(self, config: ModelConfig, rng: RngState, name: str = "projector"):
        d = config.model_dim
        patch_dim = config.patch_size * config.patch_size * 3
        self.config = config
        self.patch = Linear(f"{name}.patch", patch_dim, d, rng)
        scale = 1.0 / np.sqrt(d)
        self.word_embed = Parameter(
            f"{name}.word_embed", rng.uniform_array((config.vocab_size, d), -scale, scale)
        )
        self.type_embed = Parameter(f"{name}.type_embed", rng.uniform_array((2, d), -0.02, 0.02))

    def _patchify(self, images: np.ndarray) -> np.ndarray:
        b, h, w, c = images.shape
        p = self.config.patch_size
        if h != self.config.image_size or w != self.config.image_size or c != 3:
            raise ValidationError(
                f"expected images of shape (B, {self.config.image_size}, "
                f"{self.config.image_size}, 3), got {images.shape}"
            )
        gh, gw = h // p, w // p
        tiles = images.reshape(b, gh, p, gw, p, c).transpose(0, 1, 3, 2, 4, 5)
        return tiles.reshape(b, gh * gw, p * p * c)

    def __call__(self, images: np.ndarray, token_ids: np.ndarray) -> Tensor:
        images = np.asarray(images)
        dtype = np.dtype(self.config.dtype)
        if images.dtype.kind == "f" and images.dtype.itemsize < dtype.itemsize:
            # widening cannot restore the bits the narrower scenes rounded away
            raise ValidationError(
                f"{images.dtype} images into a {self.config.dtype} model; "
                f"build the scenes in {self.config.dtype}"
            )
        images = images.astype(dtype, copy=False)
        token_ids = np.asarray(token_ids, dtype=np.intp)
        if token_ids.ndim != 2 or token_ids.shape[0] != images.shape[0]:
            raise ValidationError(
                f"token_ids must be (B, L) matching images batch, got {token_ids.shape}"
            )
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.config.vocab_size):
            raise ValidationError(
                f"token id out of vocabulary (size {self.config.vocab_size})"
            )
        visual = self.patch(Tensor(self._patchify(images)), residual=select(self.type_embed, 0, axis=0))
        text = take_rows(self.word_embed, token_ids) + select(self.type_embed, 1, axis=0)
        tokens = concat([visual, text], axis=1)
        positions = sinusoidal_positions(tokens.shape[1], self.config.model_dim, self.config.dtype)
        return tokens + Tensor(positions)


class EncoderBlock(Module):
    def __init__(self, config: ModelConfig, rng: RngState, name: str):
        d = config.model_dim
        self.attn = MoGAttention(config.mog, rng, f"{name}.attn")
        self.attn_out = Linear(f"{name}.attn_out", d, d, rng)
        self.ffn_in = Linear(f"{name}.ffn_in", d, config.ffn_dim, rng)
        self.ffn_out = Linear(f"{name}.ffn_out", config.ffn_dim, d, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = self.attn_out(mog_forward(layernorm(x), self.attn), residual=x)
        return self.ffn_out(gelu(self.ffn_in(layernorm(x))), residual=x)


class DecoderBlock(Module):
    """Plain query self-attention, cross-attention over ``cross_dilations``, FFN.

    The SCD passes the model's dilations, the SSD ``(1,)``.
    """

    def __init__(self, config: ModelConfig, rng: RngState, name: str,
                 cross_dilations: tuple[int, ...]):
        d = config.model_dim
        self.self_attn = MoGAttention(MoGConfig(d, config.num_heads, (1,)), rng, f"{name}.self_attn")
        self.self_out = Linear(f"{name}.self_out", d, d, rng)
        self.cross_attn = MoGAttention(
            MoGConfig(d, config.num_heads, cross_dilations), rng, f"{name}.cross_attn")
        self.cross_out = Linear(f"{name}.cross_out", d, d, rng)
        self.ffn_in = Linear(f"{name}.ffn_in", d, config.ffn_dim, rng)
        self.ffn_out = Linear(f"{name}.ffn_out", config.ffn_dim, d, rng)

    def __call__(self, queries: Tensor, memory: Tensor) -> Tensor:
        queries = self.self_out(mog_forward(layernorm(queries), self.self_attn), residual=queries)
        queries = self.cross_out(mog_forward(layernorm(queries), self.cross_attn, memory=memory),
                                 residual=queries)
        return self.ffn_out(gelu(self.ffn_in(layernorm(queries))), residual=queries)


class FuseHierarchy(Module):
    """Learned softmax weights over encoder block outputs, then layernorm."""

    def __init__(self, num_blocks: int, name: str = "fuse"):
        self.logits = Parameter(f"{name}.block_logits", np.zeros(num_blocks))

    def __call__(self, per_block: Sequence[Tensor]) -> Tensor:
        if not per_block:
            raise ValueError("fuse_hierarchy needs at least one block output")
        if len(per_block) != self.logits.size:
            raise ValueError(
                f"got {len(per_block)} block outputs for {self.logits.size} fusion weights"
            )
        weights = softmax(self.logits)
        out: Tensor | None = None
        for k, block_out in enumerate(per_block):
            term = select(weights, k, axis=0) * block_out
            out = term if out is None else out + term
        assert out is not None
        return layernorm(out)


class RegressionHead(Module):
    """Per-query MLP to 4 sigmoid box coordinates plus a sigmoid confidence.

    The logits are cast to float64 before the sigmoids: in float32 a
    sigmoid saturates to exactly 1.0 at a logit of about 16.6, and the
    confidence log-loss of such a query is infinite.
    """

    def __init__(self, model_dim: int, rng: RngState, name: str = "head"):
        self.box_hidden = Linear(f"{name}.box_hidden", model_dim, model_dim, rng)
        self.box_out = Linear(f"{name}.box_out", model_dim, 4, rng)
        self.conf_out = Linear(f"{name}.conf_out", model_dim, 1, rng)

    def __call__(self, states: Tensor) -> Prediction:
        boxes = sigmoid(cast(self.box_out(gelu(self.box_hidden(states))), np.float64))
        conf = sigmoid(cast(self.conf_out(states), np.float64))
        b, q, _ = conf.shape
        return Prediction(boxes, reshape(conf, (b, q)))


def _stored_values(data: np.ndarray) -> list[float]:
    """A parameter's values as the flat list of floats its checkpoint entry holds.

    A float32 value becomes the double nearest its shortest float32
    decimal (at most 9 digits), so ``json`` writes that decimal and a load
    rounds it back to the same float32; a float64 value stays as it is.
    """
    flat = data.reshape(-1)
    if flat.dtype == np.float32:
        flat = flat.astype(str).astype(np.float64)
    return flat.tolist()


def parameter_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Name and shape of each parameter of an :class:`SCSModel` of ``config``,
    in construction order, from the config alone and one block at a time,
    so a checkpoint is checked against them before any array is allocated."""
    d, ffn, g = config.model_dim, config.ffn_dim, len(config.dilations)

    def linear(name, n_in, n_out):
        return [(f"{name}.w", (n_in, n_out)), (f"{name}.b", (n_out,))]

    def attention(name, branches):
        gate = [(f"{name}.gate_w", (d, branches)), (f"{name}.gate_b", (branches,))] if branches > 1 else []
        return [(f"{name}.{w}", (d, d)) for w in ("w_q", "w_k", "w_v")] + gate

    yield from linear("projector.patch", config.patch_size ** 2 * 3, d)
    yield from [("projector.word_embed", (config.vocab_size, d)), ("projector.type_embed", (2, d))]
    for b in (f"sce.{i}" for i in range(config.sce_blocks)):
        yield from attention(f"{b}.attn", g) + linear(f"{b}.attn_out", d, d)
        yield from linear(f"{b}.ffn_in", d, ffn) + linear(f"{b}.ffn_out", ffn, d)
    yield from [("fuse.block_logits", (config.sce_blocks,)), ("queries", (config.num_queries, d))]
    for stage, count, branches in (("scd", config.scd_blocks, g), ("ssd", config.ssd_blocks, 1)):
        for b in (f"{stage}.{i}" for i in range(count)):
            yield from attention(f"{b}.self_attn", 1) + linear(f"{b}.self_out", d, d)
            yield from attention(f"{b}.cross_attn", branches) + linear(f"{b}.cross_out", d, d)
            yield from linear(f"{b}.ffn_in", d, ffn) + linear(f"{b}.ffn_out", ffn, d)
    yield from linear("head.box_hidden", d, d) + linear("head.box_out", d, 4) + linear("head.conf_out", d, 1)


class SCSModel(Module):
    """End-to-end grounding model over raster + token-id batches."""

    def __init__(self, config: ModelConfig, vocab: Vocab, rng: RngState):
        if len(vocab) != config.vocab_size:
            raise ValueError(
                f"config.vocab_size {config.vocab_size} != len(vocab) {len(vocab)}"
            )
        self.config = config
        self.vocab = vocab
        self.projector = TokenProjector(config, rng)
        self.sce = [EncoderBlock(config, rng, f"sce.{i}") for i in range(config.sce_blocks)]
        self.fuse = FuseHierarchy(config.sce_blocks)
        scale = 1.0 / np.sqrt(config.model_dim)
        self.queries = Parameter(
            "queries", rng.uniform_array((config.num_queries, config.model_dim), -scale, scale)
        )
        self.scd = [DecoderBlock(config, rng, f"scd.{i}", config.dilations)
                    for i in range(config.scd_blocks)]
        self.ssd = [DecoderBlock(config, rng, f"ssd.{i}", (1,)) for i in range(config.ssd_blocks)]
        self.head = RegressionHead(config.model_dim, rng)
        # drawn in float64, so both dtypes start from the same draws
        self.arena = Arena(self.parameters(), config.dtype)

    # -- stages ------------------------------------------------------------

    def project_tokens(self, images: np.ndarray, token_ids: np.ndarray) -> Tensor:
        """The (B, N, D) token tensor, visual tokens first, then the (padded) words."""
        return self.projector(images, token_ids)

    def sce_forward(self, x: Tensor) -> tuple[Tensor, list[Tensor]]:
        per_block = []
        for block in self.sce:
            x = block(x)
            per_block.append(x)
        return x, per_block

    def fuse_hierarchy(self, per_block: Sequence[Tensor]) -> Tensor:
        return self.fuse(per_block)

    def scd_forward(self, memory: Tensor) -> Tensor:
        q = reshape(self.queries, (1, self.config.num_queries, self.config.model_dim))
        for block in self.scd:
            q = block(q, memory)
        return q

    def ssd_forward(self, coarse_queries: Tensor, fused_memory: Tensor) -> Tensor:
        q = coarse_queries
        for block in self.ssd:
            q = block(q, fused_memory)
        return q

    def forward(self, images: np.ndarray, token_ids: np.ndarray) -> Prediction:
        tokens = self.project_tokens(images, token_ids)
        memory, per_block = self.sce_forward(tokens)
        fused = self.fuse_hierarchy(per_block)
        coarse = self.scd_forward(memory)
        refined = self.ssd_forward(coarse, fused)
        return self.head(refined)

    __call__ = forward

    # -- parameters and checkpoints -----------------------------------------

    def parameters(self) -> list[Parameter]:
        params = super().parameters()
        names = [p.name for p in params]
        assert len(set(names)) == len(names), "parameter names must be unique"
        return params

    def save(self, path) -> None:
        doc = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_json(),
            "vocab": self.vocab.content_words(),
            "params": {
                p.name: {"shape": list(p.shape), "data": _stored_values(p.data)}
                for p in self.parameters()
            },
        }
        with atomic_open(path) as fh:
            json.dump(doc, fh)
            fh.write("\n")

    @staticmethod
    def load(path) -> "SCSModel":
        """The model :meth:`save` wrote to ``path``; anything else is a ``ValidationError``."""
        doc = read_json_object(path, "checkpoint")
        if doc.get("format") != CHECKPOINT_FORMAT or doc.get("version") != CHECKPOINT_VERSION:
            raise ValidationError(
                f"{path}: expected {CHECKPOINT_FORMAT} v{CHECKPOINT_VERSION}, "
                f"got {doc.get('format')!r} v{doc.get('version')!r}"
            )
        for key, kind, json_name in (("config", dict, "object"), ("vocab", list, "list"),
                                     ("params", dict, "object")):
            if not isinstance(doc.get(key), kind):
                raise ValidationError(f"{path}: checkpoint {key!r} must be a JSON {json_name}")
        missing_fields = sorted({f.name for f in fields(ModelConfig)} - set(doc["config"]))
        if missing_fields:
            raise ValidationError(f"{path}: checkpoint config lacks {missing_fields}")
        try:
            config = ModelConfig(**doc["config"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: bad checkpoint config: {exc}") from exc
        words = doc["vocab"]
        for i, word in enumerate(words):
            if not isinstance(word, str):
                raise ValidationError(f"{path}: checkpoint vocab[{i}] must be a string, got {word!r}")
        try:
            vocab = Vocab(words)
        except ValueError as exc:
            raise ValidationError(f"{path}: bad checkpoint vocab: {exc}") from exc
        if len(vocab) != config.vocab_size:
            raise ValidationError(
                f"{path}: checkpoint vocab holds {len(vocab)} words with pad and unk, "
                f"config vocab_size is {config.vocab_size}"
            )
        stored = doc["params"]
        # all checked before the model is built; one entry past the file's shows a mismatch
        shapes = dict(itertools.islice(parameter_shapes(config), len(stored) + 1))
        if set(stored) != set(shapes):
            missing, extra = sorted(set(shapes) - set(stored)), sorted(set(stored) - set(shapes))
            raise ValidationError(f"{path}: parameter set mismatch (missing {missing}, extra {extra})")
        values = {}
        for name, shape in shapes.items():
            entry = stored[name] if isinstance(stored[name], dict) else {}
            if entry.get("shape") != list(shape) or not isinstance(entry.get("data"), list):
                raise ValidationError(f"{path}: parameter {name} needs shape {list(shape)} and a data "
                                      f"list, got shape {entry.get('shape')!r}")
            # numpy would read null as NaN and true or "0.5" as numbers
            if not set(map(type, entry["data"])) <= {float, int}:
                raise ValidationError(f"{path}: parameter {name} holds a value that is not a number")
            try:
                values[name] = np.array(entry["data"], dtype=np.float64).reshape(shape)
            except (OverflowError, ValueError) as exc:
                raise ValidationError(f"{path}: parameter {name}: {exc}") from exc
            with np.errstate(over="ignore"):  # a float64 past float32's range rounds to inf
                values[name] = values[name].astype(config.dtype)
            if not np.isfinite(values[name]).all():
                raise ValidationError(f"{path}: parameter {name} holds a non-finite value "
                                      f"in {config.dtype}")
        model = SCSModel(config, vocab, RngState(0))
        for p in model.parameters():
            p.data[...] = values[p.name]
        return model
