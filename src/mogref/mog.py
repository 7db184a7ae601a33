"""Mixture-of-granularity attention.

One set of scaled dot-product logits is shared by several sparse attention
branches. Branch ``g`` sees the logits through a binary dilation mask that
keeps a token pair ``(i, j)`` only when ``|i - j| mod d_g == 0``: dilation 1
is dense attention, larger dilations keep progressively sparser strided
patterns while every token always keeps itself (``|i - i| == 0``). Masked
pairs receive exactly zero attention weight, because the masked logits are
driven to -inf before the softmax.

A gating network pools the token sequence, normalizes it, and produces a
softmax over branches. The gate mixes the branch weight matrices,
``W = sum_g gamma_g P_g``, before a single product ``W V`` with the values;
by linearity that equals the convex combination of the branch outputs
``sum_g gamma_g (P_g V)`` with per-sample weights. With a single dilation-1
branch the whole thing collapses to vanilla multi-head attention.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from mogref.rng import RngState
from mogref.tensor import (
    Parameter,
    Tensor,
    _accum,
    _masked_softmax_data,
    _node,
    layernorm,
    masked_softmax,
    matmul,
    mean,
    reshape,
    softmax,
    transpose,
)


@dataclass(frozen=True)
class MoGConfig:
    """Shape and branch layout of one mixture-of-granularity attention."""

    model_dim: int
    num_heads: int
    dilations: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dilations", tuple(int(d) for d in self.dilations))
        if self.model_dim <= 0 or self.num_heads <= 0:
            raise ValueError(f"model_dim and num_heads must be positive, got {self.model_dim}, {self.num_heads}")
        if self.model_dim % self.num_heads != 0:
            raise ValueError(f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}")
        if not self.dilations:
            raise ValueError("dilations must be non-empty")
        if any(d < 1 for d in self.dilations):
            raise ValueError(f"dilations must be >= 1, got {self.dilations}")
        if any(b <= a for a, b in zip(self.dilations, self.dilations[1:])):
            raise ValueError(f"dilations must be strictly increasing, got {self.dilations}")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads

    @property
    def num_granularities(self) -> int:
        return len(self.dilations)


@dataclass(frozen=True)
class GranularityMask:
    """Binary n-by-n mask keeping pairs with |i - j| divisible by the dilation."""

    n: int
    dilation: int
    bits: np.ndarray  # float64 0/1, read-only


_MASK_CACHE: dict[tuple[int, int, int], np.ndarray] = {}
_MASK_LOCK = threading.Lock()


def _cached_bits(rows: int, cols: int, dilation: int) -> np.ndarray:
    key = (rows, cols, dilation)
    bits = _MASK_CACHE.get(key)
    if bits is None:
        with _MASK_LOCK:
            bits = _MASK_CACHE.get(key)
            if bits is None:
                i = np.arange(rows)[:, None]
                j = np.arange(cols)[None, :]
                bits = (np.abs(i - j) % dilation == 0).astype(np.float64)
                bits.setflags(write=False)
                _MASK_CACHE[key] = bits
    return bits


def build_mask(n: int, dilation: int) -> GranularityMask:
    """Square dilation mask; symmetric, all-ones diagonal, never a zero row."""
    if n < 1 or dilation < 1:
        raise ValueError(f"build_mask needs n >= 1 and dilation >= 1, got n={n}, dilation={dilation}")
    return GranularityMask(n, dilation, _cached_bits(n, n, dilation))


def build_rect_mask(num_rows: int, num_cols: int, dilation: int) -> np.ndarray:
    """Same pair predicate on a rectangular grid (decoder cross-attention).

    Row ``i`` keeps memory positions ``j`` with ``|i - j| mod dilation == 0``;
    rows are guaranteed non-empty as long as the key side is at least as
    long as the query side or the dilation.
    """
    bits = _cached_bits(num_rows, num_cols, dilation)
    if not bits.any(axis=1).all():
        raise ValueError(
            f"rect mask {num_rows}x{num_cols} with dilation {dilation} has an empty row"
        )
    return bits


def split_heads(t: Tensor, num_heads: int) -> Tensor:
    """(B, N, D) -> (B, H, N, D/H)."""
    b, n, d = t.shape
    return transpose(reshape(t, (b, n, num_heads, d // num_heads)), (0, 2, 1, 3))


def merge_heads(t: Tensor) -> Tensor:
    """(B, H, N, D/H) -> (B, N, D)."""
    b, h, n, dk = t.shape
    return reshape(transpose(t, (0, 2, 1, 3)), (b, n, h * dk))


@dataclass
class GateParams:
    """Learnable router: weight (D, G) and bias (G,)."""

    w: Parameter
    b: Parameter


class MoGAttention:
    """Parameter bundle for one mixture-of-granularity attention.

    Query/key/value projections are bias-free (D, D) matrices shared by all
    branches; the gate starts at zero so the initial mixture is uniform.
    There is no output projection here; blocks that embed this module add
    their own.
    """

    def __init__(self, config: MoGConfig, rng: RngState, name: str):
        d = config.model_dim
        scale = 1.0 / np.sqrt(d)
        self.config = config
        self.name = name
        self.w_q = Parameter(f"{name}.w_q", rng.uniform_array((d, d), -scale, scale))
        self.w_k = Parameter(f"{name}.w_k", rng.uniform_array((d, d), -scale, scale))
        self.w_v = Parameter(f"{name}.w_v", rng.uniform_array((d, d), -scale, scale))
        self.gate = GateParams(
            Parameter(f"{name}.gate_w", np.zeros((d, config.num_granularities))),
            Parameter(f"{name}.gate_b", np.zeros(config.num_granularities)),
        )

    def parameters(self) -> list[Parameter]:
        return [self.w_q, self.w_k, self.w_v, self.gate.w, self.gate.b]

    def __call__(self, x: Tensor, memory: Tensor | None = None) -> Tensor:
        return mog_forward(x, self, memory=memory)


def attention_logits(x: Tensor, attn: MoGAttention, memory: Tensor | None = None):
    """Project to Q, K, V and form scaled dot-product logits.

    Self-attention when ``memory`` is None, otherwise queries come from
    ``x`` and keys/values from ``memory``. Returns head-split
    ``(q, k, v, logits)`` with logits of shape (B, H, N_q, N_k).
    """
    cfg = attn.config
    kv_src = x if memory is None else memory
    q = split_heads(matmul(x, attn.w_q), cfg.num_heads)
    k = split_heads(matmul(kv_src, attn.w_k), cfg.num_heads)
    v = split_heads(matmul(kv_src, attn.w_v), cfg.num_heads)
    # fold the 1/sqrt(d_k) scale into q: cheaper than scaling the NxN logits
    logits = matmul(q * (1.0 / np.sqrt(cfg.head_dim)), transpose(k, (0, 1, 3, 2)))
    return q, k, v, logits


def branch_attention(logits: Tensor, mask, values: Tensor) -> Tensor:
    """One sparse branch: masked softmax over keys, applied to the values.

    ``logits`` and ``values`` are head-split as produced by
    :func:`attention_logits`; the result has heads merged back to (B, N, D).
    Masked pairs carry exactly zero weight.
    """
    weights = masked_softmax(logits, mask)
    return merge_heads(matmul(weights, values))


def gate_weights(x: Tensor, gate: GateParams) -> Tensor:
    """Per-sample convex branch weights: softmax(W ln(mean(x)) + b).

    The token axis is mean-pooled, layer-normalized (no affine), and routed
    through a linear map to one logit per granularity. Rows are
    non-negative and sum to one.
    """
    pooled = layernorm(mean(x, axis=1))
    return softmax(matmul(pooled, gate.w) + gate.b)


def _shared_exp(x: np.ndarray) -> np.ndarray:
    """exp(x - rowmax): the one exponential every branch renormalizes."""
    # in place where the values allow: each (B, H, N, N) temporary saved is
    # a buffer that would otherwise be faulted in afresh on every call
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return e


def _branch_softmax(e: np.ndarray, x: np.ndarray, bits: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """One branch's masked softmax, renormalized from the shared exponential.

    ``e`` is ``_shared_exp(x)``; the result is written into ``out`` when
    given. Off-support entries are exact zeros. If a support row underflows
    entirely (its logits sit far below the row maximum taken over all
    keys), the whole branch comes from the robust :func:`masked_softmax`
    arithmetic instead. Deterministic: the mixture's backward calls it
    again to recompute the weights its forward used.
    """
    p = np.multiply(e, bits, out=out)  # 0/1 float mask: exact zeros off support
    denom = p.sum(axis=-1, keepdims=True)
    if not denom.all():
        p[...] = _masked_softmax_data(x, bits)
        return p
    p /= denom
    return p


def _shared_branch_softmax(logits: Tensor, masks: list[np.ndarray]) -> list[Tensor]:
    """Per-branch masked softmax sharing a single exponential.

    Equivalent to :func:`masked_softmax` per branch up to the usual shift
    invariance, with exact zeros off support. This is the arithmetic
    :func:`_mixture_weights` mixes; one node per branch makes it checkable
    branch by branch.
    """
    e = _shared_exp(logits.data)
    outs: list[Tensor] = []
    for bits in masks:
        p = _branch_softmax(e, logits.data, bits)

        def bwd(g, data=p):
            grad = g - (g * data).sum(axis=-1, keepdims=True)
            grad *= data
            _accum(logits, grad, own=True)

        outs.append(_node(p, (logits,), bwd))
    return outs


def _mixture_weights(logits: Tensor, gammas: Tensor, masks: list[np.ndarray]) -> Tensor:
    """W = sum_g gamma_g P_g, the gate-weighted sum of the branch softmaxes.

    ``logits`` is (B, H, N_q, N_k), ``gammas`` is (B, G) and there is one
    mask per branch; ``P_g`` is :func:`_branch_softmax` of branch g. Each
    branch is added into ``W`` as soon as it is normalized, and every branch
    after the first goes through one scratch buffer, so ``e``, ``W`` and one
    branch array are the only (B, H, N_q, N_k) buffers alive at once
    (the underflow fallback allocates its own temporaries).

    Backward, with r_g = rowsum(dW * P_g):
    d gamma_g = sum over heads and rows of r_g, and
    d logits = sum_g gamma_g P_g (dW - r_g) = W dW - sum_g gamma_g r_g P_g.
    It keeps only ``e`` (``W`` is the output) and recomputes each P_g.
    """
    x = logits.data
    gam = gammas.data[:, :, None, None, None]  # (B, G, 1, 1, 1)
    e = _shared_exp(x)
    w = np.empty_like(x)
    buf = np.empty_like(x) if len(masks) > 1 else None
    for g, bits in enumerate(masks):
        p = _branch_softmax(e, x, bits, out=buf if g else w)
        p *= gam[:, g]
        if g:
            w += p

    def bwd(dw):
        dlogits = w * dw if logits.requires_grad else None
        dgam = np.empty(gam.shape[:2])
        p = t = None
        for g, bits in enumerate(masks):
            p = _branch_softmax(e, x, bits, out=p)
            t = np.multiply(dw, p, out=t)
            r = t.sum(axis=-1, keepdims=True)  # (B, H, N_q, 1)
            dgam[:, g] = r.sum(axis=(1, 2, 3))
            if dlogits is not None:
                r *= gam[:, g]
                dlogits -= np.multiply(p, r, out=t)
        if dlogits is not None:
            _accum(logits, dlogits, own=True)
        if gammas.requires_grad:
            _accum(gammas, dgam, own=True)

    return _node(w, (logits, gammas), bwd)


def mog_forward(x: Tensor, attn: MoGAttention, memory: Tensor | None = None) -> Tensor:
    """Full mixture: shared logits, gate-mixed branch weights, one value product.

    The gate pools the sequence the masks sparsify: ``x`` itself for
    self-attention, the memory for cross-attention (granularity selection
    is about the attended-over tokens). By linearity,
    ``(sum_g gamma_g P_g) V`` equals the convex sum of the branch outputs
    ``sum_g gamma_g (P_g V)``.
    """
    cfg = attn.config
    _, _, v, logits = attention_logits(x, attn, memory=memory)
    gate_src = x if memory is None else memory
    gammas = gate_weights(gate_src, attn.gate)  # (B, G)
    num_q = x.shape[1]
    num_k = gate_src.shape[1]
    if memory is None:
        all_bits = [build_mask(num_q, d).bits for d in cfg.dilations]
    else:
        all_bits = [build_rect_mask(num_q, num_k, d) for d in cfg.dilations]
    return merge_heads(matmul(_mixture_weights(logits, gammas, all_bits), v))
