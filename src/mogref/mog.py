"""Mixture-of-granularity attention.

One set of scaled dot-product logits is shared by several sparse attention
branches. Branch ``g`` sees the logits through a binary dilation mask that
keeps a token pair ``(i, j)`` only when ``|i - j| mod d_g == 0``: dilation 1
is dense attention, larger dilations keep progressively sparser strided
patterns while every token always keeps itself (``|i - i| == 0``). Masked
pairs receive exactly zero attention weight.

A gating network pools the token sequence, normalizes it, and produces a
softmax over branches. The gate mixes the branch weight matrices,
``W = sum_g gamma_g P_g``, before a single product ``W V`` with the values;
by linearity that equals the convex combination of the branch outputs
``sum_g gamma_g (P_g V)`` with per-sample weights. With a single dilation-1
branch there is no gate (γ ≡ 1) and the whole thing is vanilla multi-head
attention, which is how the model builds its plain attention sublayers.

The mask is the definition; the compute runs by residue class. The pair
predicate holds exactly when ``i = j (mod d_g)``, so branch g is one dense
softmax inside each residue class mod ``d_g``. :func:`_mixture_weights`
sums every class of the shared exponential with one thin matmul against a
one-hot (N_k, sum_g d_g) class matrix and spreads the gated normalizers back
with another, so it builds no N-by-N mask and no per-branch buffer. The
dense masks (:func:`build_mask`, :func:`build_rect_mask`) stay as the
reference the tests compare against, and as the arithmetic of the rare call
in which a support row sits so far below the shared row maximum that its
class sum is too small to divide by.
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
    select,
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
_RESIDUE_CACHE: dict[tuple[int, int, tuple[int, ...]], _ResidueClasses] = {}
_CACHE_LOCK = threading.Lock()


def _cached(cache: dict, key, build):
    """``cache[key]``, built once under the lock by the first caller."""
    value = cache.get(key)
    if value is None:
        with _CACHE_LOCK:
            value = cache.get(key)
            if value is None:
                value = cache[key] = build()
    return value


def _cached_bits(rows: int, cols: int, dilation: int) -> np.ndarray:
    def build():
        i = np.arange(rows)[:, None]
        j = np.arange(cols)[None, :]
        bits = (np.abs(i - j) % dilation == 0).astype(np.float64)
        bits.setflags(write=False)
        return bits

    return _cached(_MASK_CACHE, (rows, cols, dilation), build)


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


@dataclass(frozen=True)
class _ResidueClasses:
    """One-hot residue classes of a dilation set on an n_q-by-n_k grid.

    Column ``c = (g, r)``, for branch g and residue ``r < d_g``, is one
    class: ``keys[j, c]`` is 1.0 where ``j mod d_g == r`` and ``rows[i, c]``
    is True where ``i mod d_g == r``. Each row selects one column per
    branch, and branch g's mask is ``rows @ keys.T`` over g's columns.
    """

    keys: np.ndarray  # (n_k, C) float64 0/1, read-only
    rows: np.ndarray  # (n_q, C) bool, read-only
    branch: np.ndarray  # (C,) branch index of each column
    starts: np.ndarray  # (G,) first column of each branch


def _residue_classes(n_q: int, n_k: int, dilations: tuple[int, ...]) -> _ResidueClasses:
    def build():
        branch = np.repeat(np.arange(len(dilations)), dilations)
        modulus = np.asarray(dilations)[branch]
        residue = np.concatenate([np.arange(d) for d in dilations])
        keys = (np.arange(n_k)[:, None] % modulus == residue).astype(np.float64)
        rows = np.arange(n_q)[:, None] % modulus == residue
        empty = rows & ~keys.any(axis=0)
        if empty.any():
            dilation = modulus[np.flatnonzero(empty.any(axis=0))[0]]
            raise ValueError(f"rect mask {n_q}x{n_k} with dilation {dilation} has an empty row")
        for arr in (keys, rows):
            arr.setflags(write=False)
        starts = np.concatenate(([0], np.cumsum(dilations)[:-1]))
        return _ResidueClasses(keys, rows, branch, starts)

    return _cached(_RESIDUE_CACHE, (n_q, n_k, dilations), build)


def _spread(a: np.ndarray, keys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(..., C) -> (..., N_k): each key gets the sum of its classes' entries.

    One gemm over all leading axes; ``out``, when given, is C-contiguous.
    """
    if out is None:
        out = np.empty((*a.shape[:-1], keys.shape[0]))
    np.matmul(a.reshape(-1, a.shape[-1]), keys.T, out=out.reshape(-1, keys.shape[0]))
    return out


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
    With a single branch there is nothing to route: no gate is built
    (``gate`` is None, and :meth:`parameters` has only the projections),
    the mixture weight is the constant γ ≡ 1 and the module is plain
    multi-head attention. There is no output projection here; blocks that
    embed this module add their own.
    """

    def __init__(self, config: MoGConfig, rng: RngState, name: str):
        d = config.model_dim
        scale = 1.0 / np.sqrt(d)
        self.config = config
        self.name = name
        self.w_q = Parameter(f"{name}.w_q", rng.uniform_array((d, d), -scale, scale))
        self.w_k = Parameter(f"{name}.w_k", rng.uniform_array((d, d), -scale, scale))
        self.w_v = Parameter(f"{name}.w_v", rng.uniform_array((d, d), -scale, scale))
        self.gate = None
        if config.num_granularities > 1:
            self.gate = GateParams(
                Parameter(f"{name}.gate_w", np.zeros((d, config.num_granularities))),
                Parameter(f"{name}.gate_b", np.zeros(config.num_granularities)),
            )

    def parameters(self) -> list[Parameter]:
        gate = [] if self.gate is None else [self.gate.w, self.gate.b]
        return [self.w_q, self.w_k, self.w_v, *gate]

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
    invariance, with exact zeros off support. :func:`_mixture_weights`
    returns the gated sum of these branches (and mixes these very nodes when
    a selected class sum is too small to divide by); one node per branch
    makes it checkable branch by branch.
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


# Smallest class sum the residue path divides by: A = gamma / S stays below
# 1 / sqrt(tiny) ~ 6.7e153, so the spread A R^T (G terms) and rho * A in the
# backward (|rho| <= max |dW|) stay finite for any |dW| below ~1e154.
_MIN_CLASS_SUM = float(np.sqrt(np.finfo(np.float64).tiny))


def _mixture_weights(logits: Tensor, gammas: Tensor, dilations: tuple[int, ...]) -> Tensor:
    """W = sum_g gamma_g P_g, the gate-weighted sum of the branch softmaxes.

    ``logits`` is (B, H, N_q, N_k), ``gammas`` is (B, G) and branch g keeps
    the pairs with ``|i - j| mod d_g == 0``, i.e. ``i = j (mod d_g)``; ``P_g``
    is its masked softmax renormalized from the shared exponential
    ``e = _shared_exp(x)``. So each branch is one softmax per residue class,
    and with the one-hot class matrix ``R`` of :class:`_ResidueClasses`
    (column ``c = (g, r)`` of key j is ``[j mod d_g == r]``) the whole
    mixture is two thin matmuls:

    - class sums ``S = e R``, every branch's row normalizers at once;
    - coefficients ``A[i, c] = gamma_g [i mod d_g == r] / S[i, c]``;
    - ``W = e * (A R^T)``, exact zeros off the union of the supports.

    Backward, with ``U = (dW * e) R`` and ``rho = U [i mod d_g == r] / S``
    (``rho`` holds r_g = rowsum(dW * P_g) in branch g's column of row i):
    d gamma_g = sum of rho over heads, rows and branch g's columns, and
    d logits = W dW - e * ((rho * A) R^T). It keeps ``e`` and the small
    (B, H, N_q, C) arrays; no N-by-N mask or per-branch buffer is built.

    A rectangular grid where some query row has no key in its class raises
    the ``ValueError`` of :func:`build_rect_mask`. If a selected class sum
    falls below ``_MIN_CLASS_SUM`` (a support row sits far below the row
    maximum taken over all keys, down to underflowing entirely), ``A`` could
    overflow and ``inf * 0`` in the spread would turn a whole row to NaN; the
    call then mixes :func:`_shared_branch_softmax`, whose per-branch
    normalization takes an underflowed row from the robust
    :func:`masked_softmax` arithmetic, with ordinary graph ops.
    """
    x = logits.data
    n_q, n_k = x.shape[-2:]
    classes = _residue_classes(n_q, n_k, tuple(dilations))
    keys, rows = classes.keys, classes.rows
    e = _shared_exp(x)
    # stacked, one gemm per sample and head: as one (B*H*N_q, N_k) gemm,
    # threaded BLAS packs all of e and the RSS grows by another such buffer
    s = e @ keys
    if s[..., rows].min() < _MIN_CLASS_SUM:
        b = x.shape[0]
        branches = _shared_branch_softmax(logits, [_cached_bits(n_q, n_k, d) for d in dilations])
        w = None
        for g, p in enumerate(branches):
            term = reshape(select(gammas, g, axis=1), (b, 1, 1, 1)) * p
            w = term if w is None else w + term
        return w
    gam = gammas.data[:, classes.branch][:, None, None, :]  # (B, 1, 1, C)
    a = np.divide(gam, s, out=np.zeros_like(s), where=rows)
    w = _spread(a, keys)
    w *= e

    def bwd(dw):
        t = np.multiply(dw, e, out=np.empty(e.shape))  # C order: _spread writes into it
        rho = np.divide(t @ keys, s, out=np.zeros_like(s), where=rows)
        if logits.requires_grad:
            correction = _spread(rho * a, keys, out=t)
            correction *= e
            dlogits = w * dw
            dlogits -= correction
            _accum(logits, dlogits, own=True)
        if gammas.requires_grad:
            _accum(gammas, np.add.reduceat(rho.sum(axis=(1, 2)), classes.starts, axis=1),
                   own=True)

    return _node(w, (logits, gammas), bwd)


def mog_forward(x: Tensor, attn: MoGAttention, memory: Tensor | None = None) -> Tensor:
    """Full mixture: shared logits, gate-mixed branch weights, one value product.

    The gate pools the sequence the masks sparsify: ``x`` itself for
    self-attention, the memory for cross-attention (granularity selection
    is about the attended-over tokens); a one-branch module has no gate
    and mixes with γ ≡ 1. By linearity, ``(sum_g gamma_g P_g) V`` equals
    the convex sum of the branch outputs ``sum_g gamma_g (P_g V)``.
    """
    _, _, v, logits = attention_logits(x, attn, memory=memory)
    if attn.gate is None:
        gammas = Tensor(np.ones((logits.shape[0], 1)))
    else:
        gammas = gate_weights(x if memory is None else memory, attn.gate)  # (B, G)
    return merge_heads(matmul(_mixture_weights(logits, gammas, attn.config.dilations), v))
