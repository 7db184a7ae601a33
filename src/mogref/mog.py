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
softmax inside each residue class mod ``d_g``. The mixture sums every
class of the shared exponential with one thin matmul against a one-hot
(N_k, sum_g d_g) class matrix and spreads the gated normalizers back with
another, so it builds no N-by-N mask and no per-branch buffer.

:func:`mog_forward` is the three projections and one autodiff node,
:func:`_attention_core`, from the projections to the merged heads; the core
is the only residue-class implementation. Between forward and backward the
node keeps no N-by-N array and no copy of its inputs: besides the q, k and
v views, only per-row state, the row maximum and each row's selected class
sum and coefficient per branch, (B, H, N_q, G) arrays. Its backward, one
pass over chunks of the batch that reuse three per-thread buffers, scales q
again, recomputes the shared exponential ``e`` and the mixture ``W`` and
forms the four input gradients, which :func:`~mogref.tensor._record`
routes. It computes in the dtype of its inputs. Its output and gradients are
bit-identical however the batch is chunked, and in float64 within 1e-12 of
the per-branch masked softmax. The rare call in which a support row sits
so far below the shared row maximum that its class sum is too small to
divide by falls back to the per-branch graph, :func:`_composed_attention`:
one :func:`~mogref.tensor.masked_softmax` node per branch, over that
branch's dense mask (:func:`build_mask`, :func:`build_rect_mask`), gated
and summed with ordinary ops. Those masks are also the reference the tests
compare the core against.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from mogref.rng import RngState
from mogref.tensor import (
    Module,
    Parameter,
    Tensor,
    _record,
    _unbroadcast,
    affine,
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

    bits: np.ndarray  # float64 0/1, read-only


_MASK_CACHE: dict[tuple[int, int, int], np.ndarray] = {}
_RESIDUE_CACHE: dict[tuple[int, int, tuple[int, ...], np.dtype], _ResidueClasses] = {}
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
    return GranularityMask(_cached_bits(n, n, dilation))


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

    ``keys`` is in the dtype of the arrays it multiplies, so ``e @ keys``
    keeps the attention core's dtype.

    Column ``c = (g, r)``, for branch g and residue ``r < d_g``, is one
    class: ``keys[j, c]`` is 1.0 where ``j mod d_g == r``. Query row i
    selects column ``starts[g] + i mod d_g`` of each branch g, and
    ``index[i, g] = i * C + starts[g] + i mod d_g`` is that column's
    position in a flattened (n_q, C) array, so the selected entries of a
    (..., n_q, C) array are one gather (:func:`_selected`).
    """

    keys: np.ndarray  # (n_k, C) 0/1, read-only
    index: np.ndarray  # (n_q, G) flat (n_q * C) positions of the selected classes, read-only
    starts: np.ndarray  # (G,) first column of each branch


def _residue_classes(n_q: int, n_k: int, dilations: tuple[int, ...], dtype) -> _ResidueClasses:
    dtype = np.dtype(dtype)

    def build():
        modulus = np.repeat(dilations, dilations)
        residue = np.concatenate([np.arange(d) for d in dilations])
        keys = (np.arange(n_k)[:, None] % modulus == residue).astype(dtype)
        starts = np.concatenate(([0], np.cumsum(dilations)[:-1]))
        columns = starts + np.arange(n_q)[:, None] % np.asarray(dilations)  # (n_q, G)
        empty = ~keys.any(axis=0)[columns]
        if empty.any():
            dilation = dilations[np.flatnonzero(empty.any(axis=0))[0]]
            raise ValueError(f"rect mask {n_q}x{n_k} with dilation {dilation} has an empty row")
        index = np.arange(n_q)[:, None] * keys.shape[1] + columns
        for arr in (keys, index):
            arr.setflags(write=False)
        return _ResidueClasses(keys, index, starts)

    return _cached(_RESIDUE_CACHE, (n_q, n_k, dilations, dtype), build)


def _selected(x: np.ndarray, classes: _ResidueClasses) -> np.ndarray:
    """(..., n_q, C) -> (..., n_q, G): each row's selected class of each branch, a new array."""
    return np.take(x.reshape(*x.shape[:-2], -1), classes.index, axis=-1)


def _scattered(sel: np.ndarray, classes: _ResidueClasses) -> np.ndarray:
    """(..., n_q, G) -> (..., n_q, C): zeros holding ``sel`` at the selected classes."""
    out = np.zeros((*sel.shape[:-1], classes.keys.shape[1]), dtype=sel.dtype)
    out.reshape(*sel.shape[:-2], -1)[..., classes.index] = sel
    return out


def _spread(a: np.ndarray, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(..., C) -> (..., N_k) into ``out``: each key gets the sum of its classes' entries.

    One gemm over all leading axes into the C-contiguous ``out``. A single
    class column (dilations ``(1,)``) is all ones, so the product is ``a``
    broadcast over the keys, copied without the gemm.
    """
    if keys.shape[1] == 1:
        np.copyto(out, a)
    else:
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


def _split_heads_data(a: np.ndarray, num_heads: int) -> np.ndarray:
    """:func:`split_heads` on a bare array: the same (strided) view."""
    b, n, d = a.shape
    return a.reshape(b, n, num_heads, d // num_heads).transpose(0, 2, 1, 3)


@dataclass
class GateParams(Module):
    """Learnable router: weight (D, G) and bias (G,)."""

    w: Parameter
    b: Parameter


class MoGAttention(Module):
    """Parameter bundle for one mixture-of-granularity attention.

    Query/key/value projections are bias-free (D, D) matrices shared by all
    branches; the gate starts at zero so the initial mixture is uniform.
    With a single branch there is nothing to route: no gate is built
    (``gate`` is None, and :meth:`parameters` has only the projections),
    the mixture weight is the constant γ ≡ 1 and the module is plain
    multi-head attention. There is no output projection here; blocks that
    embed this module add their own. It holds parameters only: attention
    runs as :func:`mog_forward` ``(x, attn, memory)``.
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


def attention_logits(x: Tensor, attn: MoGAttention, memory: Tensor | None = None):
    """Project to Q, K, V and form scaled dot-product logits.

    Self-attention when ``memory`` is None, otherwise queries come from
    ``x`` and keys/values from ``memory``. Returns head-split
    ``(q, k, v, logits)`` with logits of shape (B, H, N_q, N_k).
    """
    q, k, v = (split_heads(t, attn.config.num_heads) for t in _projections(x, attn, memory))
    return q, k, v, _scaled_logits(q, k)


def _projections(x: Tensor, attn: MoGAttention, memory: Tensor | None) -> tuple[Tensor, Tensor, Tensor]:
    """The (B, N, D) query, key and value projections; keys/values from ``memory`` if given."""
    kv_src = x if memory is None else memory
    return matmul(x, attn.w_q), matmul(kv_src, attn.w_k), matmul(kv_src, attn.w_v)


def _scaled_logits(q: Tensor, k: Tensor) -> Tensor:
    """Head-split q k^T / sqrt(d_k), with the scale folded into q (cheaper than the N-by-N logits)."""
    return matmul(q * (1.0 / math.sqrt(q.shape[-1])), transpose(k, (0, 1, 3, 2)))


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
    return softmax(affine(pooled, gate.w, gate.b))


def _shared_branch_softmax(logits: Tensor, masks: list[np.ndarray]) -> list[Tensor]:
    """One :func:`masked_softmax` node per branch mask, in the order given.

    :func:`_composed_attention`, the underflow fallback of the attention
    core, mixes these nodes with the gate; the acceptance suite (C2) checks
    the same call branch by branch.
    """
    return [masked_softmax(logits, bits) for bits in masks]


def _min_class_sum(dtype) -> float:
    """Smallest class sum the residue path divides by, ``sqrt(tiny)`` of ``dtype``.

    ``A = gamma / S`` stays below ``1 / sqrt(tiny)`` (6.7e153 in float64,
    9.2e18 in float32), so the spread ``A R^T`` (G terms) and ``rho * A`` in
    the backward (``|rho| <= max |dW|``) stay finite for any ``|dW|`` below
    about ``max * sqrt(tiny)`` (2.7e154 and 3.7e19). A support row falls
    below it at a gap of about 354 logits under its row maximum in float64,
    44 in float32.
    """
    return float(np.sqrt(np.finfo(dtype).tiny))


def _class_coefficients(e: np.ndarray, gammas: np.ndarray,
                        classes: _ResidueClasses) -> tuple[np.ndarray, np.ndarray] | None:
    """Selected class sums ``S = e R`` and coefficients ``A = gamma / S``, each (..., n_q, G).

    Only each row's selected class of each branch is kept: the other
    columns of ``e R`` are never read. None when a selected class sum is
    below :func:`_min_class_sum`: ``A`` could overflow there, and the caller
    takes the per-branch arithmetic instead.
    """
    # stacked, one gemm per sample and head: as one (B*H*N_q, N_k) gemm,
    # threaded BLAS packs all of e and the RSS grows by another such buffer
    s = _selected(e @ classes.keys, classes)
    if s.min() < _min_class_sum(e.dtype):
        return None
    return s, gammas[:, None, None, :] / s  # gammas (B, G)


def _weights(e: np.ndarray, a: np.ndarray, classes: _ResidueClasses, out: np.ndarray) -> np.ndarray:
    """W = e * (A R^T) into ``out`` from the selected ``A``, exact zeros off the union of the supports."""
    w = _spread(_scattered(a, classes), classes.keys, out=out)
    w *= e
    return w


def _logit_grad(w: np.ndarray, dw: np.ndarray, e: np.ndarray, s: np.ndarray, a: np.ndarray,
                classes: _ResidueClasses) -> tuple[np.ndarray, np.ndarray]:
    """d logits = W dW - e * ((rho * A) R^T), with ``rho = ((dW * e) R) / S``.

    ``s`` and ``a`` are the selected ``S`` and ``A`` of
    :func:`_class_coefficients`, and ``rho`` is taken on the selected
    classes. Runs in the two chunk buffers it is given: ``W dW`` overwrites
    ``w`` (W is dead once dV is formed), ``dW * e`` overwrites ``dw`` (dW is
    dead once ``W dW`` is), and the spread correction reuses ``dw`` in turn.
    Returns d logits (in ``w``) and ``rho`` scattered to (..., n_q, C).
    """
    dlogits = np.multiply(w, dw, out=w)
    t = np.multiply(dw, e, out=dw)
    u = _selected(t @ classes.keys, classes)
    u /= s
    correction = _spread(_scattered(u * a, classes), classes.keys, out=t)
    correction *= e
    dlogits -= correction
    return dlogits, _scattered(u, classes)


def _gamma_grad(rho: np.ndarray, classes: _ResidueClasses) -> np.ndarray:
    """d gamma_g: rho summed over heads, rows and branch g's columns."""
    return np.add.reduceat(rho.sum(axis=(1, 2)), classes.starts, axis=1)


def _composed_attention(q: Tensor, k: Tensor, v: Tensor, gammas: Tensor,
                        dilations: tuple[int, ...], num_heads: int) -> Tensor:
    """The underflow fallback of :func:`_attention_core`, as a graph of ordinary ops.

    Each branch is a :func:`masked_softmax` node over its dilation mask
    (:func:`_shared_branch_softmax`), which shifts every row by its maximum
    on the branch's support, so a support row far below the row maximum
    taken over all keys keeps its precision; the branches are weighted by
    their gamma, summed into ``W`` and applied to the values with the heads
    merged.
    """
    qh, kh, vh = (split_heads(t, num_heads) for t in (q, k, v))
    logits = _scaled_logits(qh, kh)
    b, _, n_q, n_k = logits.shape
    masks = [_cached_bits(n_q, n_k, d) for d in dilations]
    w = None
    for g, p in enumerate(_shared_branch_softmax(logits, masks)):
        term = reshape(select(gammas, g, axis=1), (b, 1, 1, 1)) * p
        w = term if w is None else w + term
    return merge_heads(matmul(w, vh))


# N-by-N bytes of a chunk of the attention core, which bound the three reused
# buffers of _Scratch (see _chunks). A chunk packs whole samples into
# _PACK_BYTES, a quarter of a 2 MB per-core L2, so the three buffers fit in it
# together; a bigger sample is a chunk of its own, and only a sample above
# _CHUNK_BYTES is split by heads. Measured on a 2-core host with 2 MB of L2
# per core: of 0.25 to 8 MB, 4 MB ran a (2, 4, 266, 266) forward + backward
# fastest; packing N=74 into 256 KB, 512 KB and 1 MB gave the train-n74
# benchmark a peak RSS of 87.6, 88.1 and 90.0 MB (95.2 MB as one chunk), and
# 512 KB the fastest step.
_CHUNK_BYTES = 1 << 22
_PACK_BYTES = 1 << 19


class _Scratch(threading.local):
    """The three per-thread N-by-N buffers the attention core reuses from call to call.

    Forward uses the first two (``e`` and ``W``); backward all three (``e``,
    ``W`` turned into d logits, and dW turned into ``dW * e`` and then the
    spread correction). Fresh buffers of a few MB each call are returned to
    the OS and faulted in again; these stay mapped. Each is raw bytes,
    viewed in the chunk's dtype, and holds the largest chunk seen so far in
    bytes, which :func:`_chunks` keeps to ``max(_PACK_BYTES, one sample)`` up to
    ``_CHUNK_BYTES``, however large the batch.
    """

    def __init__(self):
        self.buffers = [np.empty(0, dtype=np.uint8) for _ in range(3)]  # raw bytes

    def get(self, i: int, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        nbytes = math.prod(shape) * dtype.itemsize
        if self.buffers[i].size < nbytes:
            self.buffers[i] = np.empty(nbytes, dtype=np.uint8)
        return self.buffers[i][:nbytes].view(dtype).reshape(shape)


_SCRATCH = _Scratch()


def _chunks(b: int, num_heads: int, n_q: int, n_k: int,
            itemsize: int) -> list[tuple[slice, slice]]:
    """(sample, head) slices covering (B, H), for N-by-N entries of ``itemsize`` bytes.

    A chunk spans at most ``min(_CHUNK_BYTES, max(_PACK_BYTES, H N_q N_k itemsize))``
    bytes of N-by-N data: as many whole samples as fit in ``_PACK_BYTES``, one
    sample when a sample is bigger, and as many heads of one sample as fit in
    ``_CHUNK_BYTES`` when a sample is bigger than that.
    """
    per_head = n_q * n_k * itemsize
    per_sample = per_head * num_heads
    budget = min(_CHUNK_BYTES, max(_PACK_BYTES, per_sample))
    heads = max(1, min(num_heads, budget // per_head))
    samples = max(1, budget // per_sample) if heads == num_heads else 1
    return [(slice(lo, lo + samples), slice(h, h + heads))
            for lo in range(0, b, samples) for h in range(0, num_heads, heads)]


def _attention_core(q: Tensor, k: Tensor, v: Tensor, gammas: Tensor,
                    dilations: tuple[int, ...], num_heads: int) -> Tensor:
    """Merged heads of ``W V`` from the (B, N, D) projections, as one node.

    Logits ``q k^T / sqrt(d_k)`` per head, the residue-class mixture ``W``
    and ``W V`` with the heads merged. ``q`` may have batch 1 against the
    keys' batch B (broadcast), and ``gammas`` is (B, G).

    ``W = sum_g gamma_g P_g`` by residue class, with the one-hot class
    matrix ``R`` of :class:`_ResidueClasses`: class sums ``S = e R``,
    ``A[i, c] = gamma_g [i mod d_g == r] / S[i, c]`` and ``W = e * (A R^T)``.
    Backward, with ``rho = ((dW * e) R) [i mod d_g == r] / S`` (rowsum(dW *
    P_g) in branch g's column of row i): d gamma_g is rho summed over heads,
    rows and branch g's columns, and d logits = W dW - e * ((rho * A) R^T).

    Samples and heads are independent, so the node runs them in the chunks
    of :func:`_chunks`: whole samples packed into ``_PACK_BYTES`` of N-by-N
    data (a quarter of a core's L2), a bigger sample alone, heads split only
    past ``_CHUNK_BYTES``. The chunks run in the reused buffers of
    :class:`_Scratch`. Forward scales a chunk's q, writes its logits into
    one buffer, turns it into the shared exponential ``e`` in place and
    spreads ``A`` into a second for ``W``. Between forward and backward the
    node keeps the q, k and v views and, per chunk, only the row maximum
    and ``S`` and ``A`` on each row's selected class of each branch, as
    (B, H, N_q, G) arrays: no N-by-N array, no (B, H, N_q, C) array and no
    scaled copy of q. Backward scales a chunk's q again, scatters its ``A``
    to the class columns and recomputes ``e`` and ``W`` (the same bits),
    then forms dV, dW, rho, d gamma and d logits, and from those dq and dk, in
    three chunk-sized buffers: ``e``; ``W``, overwritten by ``W dW`` once dV
    is formed and then by d logits; and dW, overwritten by ``dW * e`` and
    then by the spread correction (:func:`_logit_grad`). The chunks only
    split independent samples and heads, so output and gradients have the
    same bits for any layout.

    Recorded by :func:`~mogref.tensor._record` with one partial per input
    (q, k, gammas, v): the first partial asked for runs the chunk pass for
    every input that needs a gradient (dq summed over a broadcast batch and
    scaled), and each partial hands over the array the pass formed.

    A rectangular grid where some query row has no key in its class raises
    the ``ValueError`` of :func:`build_rect_mask`. When a selected class sum
    is below :func:`_min_class_sum` (a support row sits far below the row
    maximum taken over all keys, down to underflowing entirely), ``A`` could
    overflow and ``inf * 0`` in the spread would turn a whole row to NaN, so
    the call returns the per-branch graph of :func:`_composed_attention`
    instead. The node computes in the dtype of its inputs; the chunk budget
    counts bytes, so a float32 chunk packs twice the samples of a float64
    one.
    """
    qh, kh, vh = (_split_heads_data(t.data, num_heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(qh.shape[-1])  # a Python float keeps qh's dtype
    dtype = qh.dtype  # of every array the node allocates
    kt = kh.transpose(0, 1, 3, 2)
    b = max(qh.shape[0], kh.shape[0])
    n_q, n_k = qh.shape[2], kh.shape[2]
    classes = _residue_classes(n_q, n_k, tuple(dilations), dtype)
    keys = classes.keys
    chunks = _chunks(b, num_heads, n_q, n_k, dtype.itemsize)

    def part(arr, chunk, heads=True):
        sample, head = chunk
        arr = arr if arr.shape[0] == 1 else arr[sample]  # batch 1 broadcasts
        return arr[:, head] if heads else arr

    def shared_exp(chunk, row_max=None):
        """``e`` of a chunk, its row maximum and its scaled q, scaled anew on every call."""
        qs, ktc = part(qh, chunk) * scale, part(kt, chunk)
        shape = (max(qs.shape[0], ktc.shape[0]), qs.shape[1], n_q, n_k)
        logits = np.matmul(qs, ktc, out=_SCRATCH.get(0, shape, dtype))
        if row_max is None:
            row_max = logits.max(axis=-1, keepdims=True)
        np.subtract(logits, row_max, out=logits)
        np.exp(logits, out=logits)  # e = exp(logits - row max), in place
        return logits, row_max, qs

    def merged(t):
        """A batch-B (B, N, D) array shaped like ``t`` and the head-split view chunks write into."""
        arr = np.empty((b, *t.shape[1:]), dtype=dtype)
        return arr, _split_heads_data(arr, num_heads)

    out, out_heads = merged(q)
    saved = []  # (row max, selected S, selected A) of each chunk
    for c in chunks:
        e, row_max, _ = shared_exp(c)
        coefficients = _class_coefficients(e, part(gammas.data, c, heads=False), classes)
        if coefficients is None:
            return _composed_attention(q, k, v, gammas, dilations, num_heads)
        w = _weights(e, coefficients[1], classes, out=_SCRATCH.get(1, e.shape, dtype))
        np.matmul(w, part(vh, c), out=out_heads[c])
        saved.append((row_max, *coefficients))

    def chunk_pass(g):
        gh = _split_heads_data(g, num_heads)
        dq, dq_heads = merged(q) if q.requires_grad else (None, None)
        dk, dk_heads = merged(k) if k.requires_grad else (None, None)
        dv, dv_heads = merged(v) if v.requires_grad else (None, None)
        rho = np.empty((b, num_heads, n_q, keys.shape[1]), dtype=dtype) if gammas.requires_grad else None
        for c, (row_max, s, a) in zip(chunks, saved):
            e, _, qs = shared_exp(c, row_max)
            w = _weights(e, a, classes, out=_SCRATCH.get(1, e.shape, dtype))
            if dv is not None:
                np.matmul(w.swapaxes(-1, -2), gh[c], out=dv_heads[c])
            dw = np.matmul(gh[c], part(vh, c).swapaxes(-1, -2), out=_SCRATCH.get(2, e.shape, dtype))
            dlogits, rho_c = _logit_grad(w, dw, e, s, a, classes)
            if rho is not None:
                rho[c] = rho_c
            if dq is not None:
                np.matmul(dlogits, part(kh, c), out=dq_heads[c])
            if dk is not None:
                np.matmul(qs.swapaxes(-1, -2), dlogits, out=dk_heads[c].swapaxes(-1, -2))
        if dq is not None:
            dq = _unbroadcast(dq, q.shape)
            dq *= scale
        grads = (dq, dk, None if rho is None else _gamma_grad(rho, classes), dv)
        formed.update((i, grad) for i, grad in enumerate(grads) if grad is not None)

    formed = {}  # input position -> gradient the chunk pass formed and no partial took yet

    def partial(i, g):
        if not formed:  # the first partial asked for runs the chunk pass
            chunk_pass(g)
        return formed.pop(i)

    # the input order sets the walk order of backward, hence the order in
    # which the q, k, gate and v contributions add into a shared input and
    # the last bits of the loss log
    return _record(_attention_core, out, (q, k, gammas, v),
                   [lambda g, i=i: partial(i, g) for i in range(4)])


def mog_forward(x: Tensor, attn: MoGAttention, memory: Tensor | None = None) -> Tensor:
    """Full mixture: shared logits, gate-mixed branch weights, one value product.

    The gate pools the sequence the masks sparsify: ``x`` itself for
    self-attention, the memory for cross-attention (granularity selection
    is about the attended-over tokens); a one-branch module has no gate
    and mixes with γ ≡ 1. By linearity, ``(sum_g gamma_g P_g) V`` equals
    the convex sum of the branch outputs ``sum_g gamma_g (P_g V)``. The
    three projections feed one :func:`_attention_core` node.
    """
    cfg = attn.config
    q, k, v = _projections(x, attn, memory)
    if attn.gate is None:
        gammas = Tensor(np.ones((max(q.shape[0], k.shape[0]), 1), dtype=q.data.dtype))
    else:
        gammas = gate_weights(x if memory is None else memory, attn.gate)  # (B, G)
    return _attention_core(q, k, v, gammas, cfg.dilations, cfg.num_heads)
