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

The residue classes are the one encoding of the masks. The pair predicate
holds exactly when ``i = j (mod d_g)``, so branch g is one dense softmax
inside each residue class mod ``d_g``. :func:`_residue_classes` builds the
classes of a dilation set once per grid, and every dense mask
(:func:`build_mask`, :func:`build_rect_mask`, the fallback's) is read off
them (:meth:`_Classes.mask`). The mixture sums every class of the shared
exponential with one thin matmul against the one-hot (N_k, sum_g d_g)
class matrix and spreads the gated normalizers back with another, so it
builds no N-by-N mask and no per-branch buffer; a row's class state is
kept only on the G classes it selects, one per branch.

:func:`mog_forward` records every attention, self- and cross-, as one
autodiff node, :func:`_attention`, from its (B, N, D) inputs (``x``, and
the memory for cross-attention) and the three projection weights to the
merged heads. The node runs the one chunk loop of each direction,
:func:`_chunk_forward` and :func:`_chunk_pass`, over head-split arrays;
they are the only residue-class implementation. Between forward and
backward the node keeps no N-by-N array, no q, k or v and no scaled copy
of q: besides its inputs, only per-row state, the row maximum and each
row's selected class sum and coefficient per branch, (B, H, N_q, G)
arrays. It drops q, k and v after its forward and rebuilds them, with the
same row gemms and so the same bits, before its chunk pass, then turns
dq, dk and dv into the gradients of its inputs and weights. The chunk
pass, over chunks of the batch that reuse three per-thread buffers,
scales q again, recomputes the shared exponential ``e`` and the mixture
``W`` and forms dq, dk, dv and the gate's gradient (a sum of per-row
state). It computes in the dtype of its inputs. A chunk is whole samples
with all their heads, or, for a sample too big for the chunk budget, a
panel of its query rows. Packing samples keeps the bits; row panels add
dk and dv up panel by panel, so those two drift within rounding. In
float64 the node is within 1e-12 of the per-branch masked softmax. The
rare call in which a support row sits so far below the shared row
maximum that its class sum is too small to divide by falls back to the
per-branch graph, :func:`_composed_attention`: three projection nodes and
one :func:`~mogref.tensor.masked_softmax` node per branch, over that
branch's dense mask read off the same classes, gated and summed with
ordinary ops. The tests compare the node against per-branch nodes over
the same masks and projections, and the masks against the brute-force
pair predicate.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from mogref.data import require_count
from mogref.rng import RngState
from mogref.tensor import (
    Module,
    Parameter,
    Tensor,
    _record,
    _rows,
    _shared_pass,
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
        object.__setattr__(self, "dilations", tuple(self.dilations))
        require_count("model_dim", self.model_dim, 1)
        require_count("num_heads", self.num_heads, 1)
        for d in self.dilations:
            require_count("each of dilations", d, 1)
        if self.model_dim % self.num_heads != 0:
            raise ValueError(f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}")
        if not self.dilations:
            raise ValueError("dilations must be non-empty")
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


_RESIDUE_CACHE: dict[tuple[int, int, tuple[int, ...], np.dtype], _Classes] = {}
_CACHE_LOCK = threading.Lock()


def build_mask(n: int, dilation: int) -> GranularityMask:
    """Square dilation mask; symmetric, all-ones diagonal, never a zero row."""
    return GranularityMask(build_rect_mask(n, n, dilation))


def build_rect_mask(num_rows: int, num_cols: int, dilation: int) -> np.ndarray:
    """Same pair predicate on a rectangular grid (decoder cross-attention), read-only.

    Row ``i`` keeps memory positions ``j`` with ``|i - j| mod dilation == 0``:
    the one branch of the dilation's class structure (:meth:`_Classes.mask`).
    Rows are guaranteed non-empty as long as the key side is at least as
    long as the query side or the dilation; otherwise the class builder
    raises ``ValueError``.
    """
    for name, value in (("num_rows", num_rows), ("num_cols", num_cols), ("dilation", dilation)):
        require_count(name, value, 1)
    bits = _residue_classes(num_rows, num_cols, (dilation,), np.float64).mask(0)
    bits.setflags(write=False)
    return bits


@dataclass(frozen=True)
class _Classes:
    """The support of every branch on an n_q-by-n_k grid, as key classes.

    The contract the attention node relies on: ``keys`` is the class matrix
    R, the (n_k, C) 0/1 membership of the keys in C classes, and ``index``
    holds each query row's G selected classes, one per branch:
    ``index[i, g] = i * C + c`` for the column c that row i selects for
    branch g, its position in a flattened (n_q, C) array. A row's G selected
    columns must be distinct; nothing else is asked. The classes need not be
    residues or disjoint, and one column may serve different branches on
    different rows. Branch g keeps the pair (i, j) exactly when key j is in
    row i's selected class (:meth:`mask`). A lone class (C = 1) holds every
    key, which :func:`_spread` relies on.

    ``keys`` is in the dtype of the arrays it multiplies, so ``e @ keys``
    keeps the attention node's dtype. ``spread_keys`` is R^T, derived once
    as a C-ordered copy, which the classes of a row panel (:meth:`rows`)
    share: :func:`_spread` multiplies by it.

    The copy stays for its bits more than its speed. Multiplying by the
    F-ordered ``keys.T`` view instead changes float64 results: a 40-step
    float64 128-px ``mogref train`` log moves from step 1 on. In float32 on a
    2-core x86-64 host at the default two OpenBLAS threads (median of 7
    interleaved best-of-3 x 200 calls, dilations (1, 2, 3, 4), C = 10), the
    two read alike within the spread between runs: copy against view,
    (B, H, n_q) = (8, 4, 74) into 74 keys 58.6 against 58.2 us, (16, 4, 74)
    111.8 against 110.6 us, and a (2, 4) 89-row panel into 266 keys 61.0
    against 62.5 us. The query-row panel budget was tuned with the copy.
    """

    keys: np.ndarray  # (n_k, C) 0/1, read-only
    index: np.ndarray  # (n_q, G) flat (n_q * C) positions of the selected classes, read-only
    spread_keys: np.ndarray | None = field(default=None, repr=False, compare=False)  # (C, n_k) R^T, read-only

    def __post_init__(self):
        if self.spread_keys is None:
            spread_keys = np.ascontiguousarray(self.keys.T)
            spread_keys.setflags(write=False)
            object.__setattr__(self, "spread_keys", spread_keys)

    def mask(self, g: int) -> np.ndarray:
        """Branch g's dense (n_q, n_k) 0/1 support, in the dtype of ``keys``, as a new array."""
        return self.spread_keys[self.index[:, g] % self.keys.shape[1]]

    def rows(self, rows: slice) -> _Classes:
        """The classes of the query rows ``rows`` alone, ``index`` rebased to the first of them.

        Itself when ``rows`` starts at 0 and reaches the last row.
        """
        if rows.start == 0 and rows.stop >= len(self.index):
            return self
        index = self.index[rows] - rows.start * self.keys.shape[1]
        index.setflags(write=False)
        return _Classes(self.keys, index, self.spread_keys)


def _residue_classes(n_q: int, n_k: int, dilations: tuple[int, ...], dtype) -> _Classes:
    """The residue classes of a dilation set, built once per grid and dtype.

    Column ``c = (g, r)``, for branch g and residue ``r < d_g``, holds the
    keys j with ``j mod d_g == r``, and query row i selects residue
    ``i mod d_g`` of each branch g: branch g keeps (i, j) exactly when
    ``i = j (mod d_g)``. A query row whose selected class holds no key
    raises ``ValueError``.
    """
    cache_key = (n_q, n_k, dilations, np.dtype(dtype))
    classes = _RESIDUE_CACHE.get(cache_key)
    if classes is not None:
        return classes
    with _CACHE_LOCK:
        if cache_key not in _RESIDUE_CACHE:
            modulus = np.repeat(dilations, dilations)
            residue = np.concatenate([np.arange(d) for d in dilations])
            keys = (np.arange(n_k)[:, None] % modulus == residue).astype(dtype)
            starts = np.concatenate(([0], np.cumsum(dilations)[:-1]))  # first column of each branch
            columns = starts + np.arange(n_q)[:, None] % np.asarray(dilations)  # (n_q, G)
            empty = ~keys.any(axis=0)[columns]
            if empty.any():
                dilation = dilations[np.flatnonzero(empty.any(axis=0))[0]]
                raise ValueError(f"rect mask {n_q}x{n_k} with dilation {dilation} has an empty row")
            index = np.arange(n_q)[:, None] * keys.shape[1] + columns
            for arr in (keys, index):
                arr.setflags(write=False)
            _RESIDUE_CACHE[cache_key] = _Classes(keys, index)
        return _RESIDUE_CACHE[cache_key]


def _class_sums(x: np.ndarray, classes: _Classes) -> np.ndarray:
    """(..., n_q, n_k) -> (..., n_q, G): each row's selected columns of ``x R``, a new array."""
    # stacked, one gemm per sample and head: as one (B*H*N_q, N_k) gemm,
    # threaded BLAS packs all of x and the RSS grows by another such buffer
    xr = x @ classes.keys
    return np.take(xr.reshape(*xr.shape[:-2], -1), classes.index, axis=-1)


def _spread(sel: np.ndarray, classes: _Classes, out: np.ndarray) -> np.ndarray:
    """(..., n_q, G) -> (..., n_q, n_k) into ``out``: ``sel`` at the selected classes, times R^T.

    The adjoint of :func:`_class_sums`: ``sel`` scattered into zeros at the
    class columns, then one gemm over all leading axes by the C-ordered R^T
    (``classes.spread_keys``) into the C-contiguous ``out``. A single class column (dilations ``(1,)``) is all ones, so the
    product is ``sel`` broadcast over the keys, copied without the gemm: the
    same bits, and cheaper. In float32 on a 2-core x86 host, (8, 4, 4, 1)
    into 74 keys copies in 3.5 us against 27 us for the K = 1 gemm, and a
    16-scene eval's (16, 4, 4, 1) in 4.7 against 34 us.
    """
    spread_keys = classes.spread_keys
    if spread_keys.shape[0] == 1:
        np.copyto(out, sel)
    else:
        full = np.zeros((*sel.shape[:-1], spread_keys.shape[0]), dtype=sel.dtype)
        full.reshape(*sel.shape[:-2], -1)[..., classes.index] = sel
        np.matmul(full.reshape(-1, spread_keys.shape[0]), spread_keys, out=out.reshape(-1, spread_keys.shape[1]))
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
    kv_src = x if memory is None else memory
    q, k, v = (split_heads(matmul(t, w), attn.config.num_heads)
               for t, w in ((x, attn.w_q), (kv_src, attn.w_k), (kv_src, attn.w_v)))
    return q, k, v, _scaled_logits(q, k)


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
    node, mixes these nodes with the gate; the acceptance suite (C2) checks
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
                        classes: _Classes) -> tuple[np.ndarray, np.ndarray] | None:
    """Selected class sums ``S = e R`` and coefficients ``A = gamma / S``, each (..., n_q, G).

    Only each row's selected class of each branch is kept: the other
    columns of ``e R`` are never read. None when a selected class sum is
    below :func:`_min_class_sum`: ``A`` could overflow there, and the caller
    takes the per-branch arithmetic instead.
    """
    s = _class_sums(e, classes)
    if s.min() < _min_class_sum(e.dtype):
        return None
    return s, gammas[:, None, None, :] / s  # gammas (B, G)


def _weights(e: np.ndarray, a: np.ndarray, classes: _Classes, out: np.ndarray) -> np.ndarray:
    """W = e * (A R^T) into ``out`` from the selected ``A``, exact zeros off the union of the supports."""
    w = _spread(a, classes, out=out)
    w *= e
    return w


def _logit_grad(w: np.ndarray, dw: np.ndarray, e: np.ndarray, s: np.ndarray, a: np.ndarray,
                classes: _Classes) -> tuple[np.ndarray, np.ndarray]:
    """d logits = W dW - e * ((rho * A) R^T), with ``rho = ((dW * e) R) / S``.

    ``s`` and ``a`` are the selected ``S`` and ``A`` of
    :func:`_class_coefficients`, and ``rho`` is taken on the selected
    classes. Runs in the two chunk buffers it is given: ``W dW`` overwrites
    ``w`` (W is dead once dV is formed), ``dW * e`` overwrites ``dw`` (dW is
    dead once ``W dW`` is), and the spread correction reuses ``dw`` in turn.
    Returns d logits (in ``w``) and the selected ``rho``, (..., n_q, G).
    """
    dlogits = np.multiply(w, dw, out=w)
    t = np.multiply(dw, e, out=dw)
    rho = _class_sums(t, classes)
    rho /= s
    correction = _spread(rho * a, classes, out=t)
    correction *= e
    dlogits -= correction
    return dlogits, rho


def _composed_attention(q: Tensor, k: Tensor, v: Tensor, gammas: Tensor,
                        dilations: tuple[int, ...], num_heads: int) -> Tensor:
    """The underflow fallback of the attention node, as a graph of ordinary ops.

    Each branch is a :func:`masked_softmax` node (:func:`_shared_branch_softmax`)
    over its support read off the classes the node uses
    (:func:`_residue_classes`, :meth:`_Classes.mask`), so the fallback
    keeps the keys the node keeps. A branch node shifts every row by its
    maximum on the branch's support, so a support row far below the row
    maximum taken over all keys keeps its precision; the branches are
    weighted by their gamma, summed into ``W`` and applied to the values
    with the heads merged.
    """
    qh, kh, vh = (split_heads(t, num_heads) for t in (q, k, v))
    logits = _scaled_logits(qh, kh)
    b, _, n_q, n_k = logits.shape
    classes = _residue_classes(n_q, n_k, tuple(dilations), logits.data.dtype)
    masks = [classes.mask(g) for g in range(classes.index.shape[1])]
    w = None
    for g, p in enumerate(_shared_branch_softmax(logits, masks)):
        term = reshape(select(gammas, g, axis=1), (b, 1, 1, 1)) * p
        w = term if w is None else w + term
    return merge_heads(matmul(w, vh))


# N-by-N bytes of a chunk of the attention node, which bound the three reused
# buffers of _Scratch (see _chunks). A chunk packs whole samples into
# _PACK_BYTES, a quarter of a 2 MB per-core L2, so the three buffers fit in it
# together. A bigger sample is split into at most _MAX_PANELS panels of query
# rows, so its buffers hold max(_PACK_BYTES, a quarter of the sample). On a
# 2-core x86 host with 2 MB of L2 per core, in float32 at two BLAS threads:
# - N = 266 (128 px): each 1.1 MB sample runs in 3 panels of 89 rows. A
#   per-head product of a panel (89 x 16 x 266) stays on OpenBLAS's
#   one-thread path, where a whole sample (266 x 16 x 266) took two threads.
#   A (2, 4, 266, 266) forward + backward took 6.2 ms against 8.2 ms for one
#   chunk per sample, and 6.2 against 16.1 ms beside a busy process. In
#   scripts/op_profile.py --image-size 128 --batch 2 the scratch fell from
#   3.2 to 1.1 MB and the peak RSS from 45.1 to 42.8 MB.
# - N = 1034 (256 px): 4 panels of 259 rows hold 4.3 MB each, as one head
#   did, and op_profile.py --image-size 256 --batch 1 read the same 126
#   ms/step. Without the cap, 33 panels of 32 rows took 165-169 against
#   122-124 ms/step: thin panels cost more in per-call overhead than the
#   cache saves.
_PACK_BYTES = 1 << 19
_MAX_PANELS = 4


class _Scratch(threading.local):
    """The three per-thread N-by-N buffers the attention node reuses from call to call.

    Forward uses the first two (``e`` and ``W``); backward all three (``e``,
    ``W`` turned into d logits, and dW turned into ``dW * e`` and then the
    spread correction). Fresh buffers of a few MB each call are returned to
    the OS and faulted in again; these stay mapped. Each is raw bytes,
    viewed in the chunk's dtype, and holds the largest chunk seen so far in
    bytes, which :func:`_chunks` keeps to ``max(_PACK_BYTES, a quarter of
    one sample)``, however large the batch.
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
    """(sample, query row) slices covering (B, N_q), for N-by-N entries of ``itemsize`` bytes.

    A chunk holds every head of its samples. Samples whose ``H N_q N_k
    itemsize`` bytes fit in ``_PACK_BYTES`` are packed, as many as fit, with
    all their rows. A bigger sample is a chunk row panel by row panel: it
    is split into ``min(_MAX_PANELS, ceil(bytes / _PACK_BYTES))`` panels of
    ``ceil(N_q / panels)`` query rows (the last may be shorter), in order.
    """
    per_sample = num_heads * n_q * n_k * itemsize
    samples = max(1, _PACK_BYTES // per_sample)
    panels = min(_MAX_PANELS, -(-per_sample // _PACK_BYTES))
    rows = -(-n_q // panels)
    return [(slice(lo, lo + samples), slice(r, r + rows))
            for lo in range(0, b, samples) for r in range(0, n_q, rows)]


def _matmul_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, first: bool) -> None:
    """``a @ b`` written into ``out`` when ``first``, else added to it."""
    if first:
        np.matmul(a, b, out=out)
    else:
        out += a @ b


def _batch(arr: np.ndarray, sample: slice) -> np.ndarray:
    """The samples ``sample`` of ``arr``; all of it at batch 1, which broadcasts."""
    return arr if arr.shape[0] == 1 else arr[sample]


def _merged(b: int, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A new batch-``b`` (b, N, D) array for head-split ``heads`` (., H, N, D/H),
    and the head-split view chunks write into."""
    _, h, n, dk = heads.shape
    arr = np.empty((b, n, h * dk), dtype=heads.dtype)
    return arr, _split_heads_data(arr, h)


def _row_max(x: np.ndarray) -> np.ndarray:
    """Each last-axis row's maximum, as a size-1 axis: the entry ``argmax`` points at.

    ``x.max``'s bits, faster (70 against 119 us on a (5, 4, 74, 74) float32
    chunk, one x86-64 core): ``argmax`` returns the first maximum and picks
    a NaN as ``max`` does. A maximum tied between 0.0 and -0.0 may differ
    in that zero's sign, which leaves ``exp(x - max)`` unchanged.
    """
    return np.take_along_axis(x, x.argmax(axis=-1)[..., None], axis=-1)


def _shared_exp(qh: np.ndarray, kt: np.ndarray, sample: slice, rows: slice, scale: float,
                row_max: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``e`` of a chunk in the first reused buffer, its row maximum and its
    scaled q, scaled anew on every call."""
    qs, ktc = _batch(qh, sample)[:, :, rows] * scale, _batch(kt, sample)
    shape = (max(qs.shape[0], ktc.shape[0]), *qs.shape[1:3], ktc.shape[-1])
    logits = np.matmul(qs, ktc, out=_SCRATCH.get(0, shape, qs.dtype))
    if row_max is None:
        row_max = _row_max(logits)
    np.subtract(logits, row_max, out=logits)
    np.exp(logits, out=logits)  # e = exp(logits - row max), in place
    return logits, row_max, qs


@dataclass
class _ChunkState:
    """What the chunk pass reads of a chunk forward: no N-by-N array, no copy of q, k or v."""

    chunks: list[tuple[slice, slice]]  # (sample, query row) slices, from _chunks
    panels: dict[int, _Classes]  # the classes of each panel, by its first row
    saved: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # (row max, selected S, selected A) per chunk


def _chunk_forward(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, gammas: np.ndarray,
                   dilations: tuple[int, ...]) -> tuple[np.ndarray, _ChunkState] | None:
    """The merged (B, N_q, D) heads of ``W V`` from head-split (., H, N, D/H)
    q, k and v and (B, G) gammas, and the state :func:`_chunk_pass` reads.

    None when a selected class sum is below :func:`_min_class_sum`; the
    caller then builds :func:`_composed_attention`. Scales a chunk's q,
    writes its logits into the first reused buffer, turns them into the
    shared exponential ``e`` in place and spreads ``A`` into the second for
    ``W``; keeps per chunk only the row maximum and the selected ``S`` and
    ``A``, (B, H, N_q, G) arrays.
    """
    num_heads, dtype = qh.shape[1], qh.dtype
    scale = 1.0 / math.sqrt(qh.shape[-1])  # a Python float keeps qh's dtype
    kt = kh.transpose(0, 1, 3, 2)
    b, n_q, n_k = max(qh.shape[0], kh.shape[0]), qh.shape[2], kh.shape[2]
    classes = _residue_classes(n_q, n_k, tuple(dilations), dtype)
    chunks = _chunks(b, num_heads, n_q, n_k, dtype.itemsize)
    state = _ChunkState(chunks, {rows.start: classes.rows(rows) for _, rows in chunks}, [])
    out, out_heads = _merged(b, qh)
    for sample, rows in chunks:
        panel = state.panels[rows.start]
        e, row_max, _ = _shared_exp(qh, kt, sample, rows, scale)
        coefficients = _class_coefficients(e, _batch(gammas, sample), panel)
        if coefficients is None:
            return None
        w = _weights(e, coefficients[1], panel, out=_SCRATCH.get(1, e.shape, dtype))
        np.matmul(w, _batch(vh, sample), out=out_heads[sample, :, rows])
        state.saved.append((row_max, *coefficients))
    return out, state


def _chunk_pass(g: np.ndarray, qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, state: _ChunkState,
                need_gammas: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """dq, dk, dv and d gammas of :func:`_chunk_forward`'s output, given its output gradient ``g``.

    ``qh``, ``kh`` and ``vh`` hold the forward's bits. dq, dk and dv are
    (., N, D), each summed over a broadcast batch; d gammas is None unless
    ``need_gammas`` (the constant γ ≡ 1 of plain attention needs none).
    Scales a chunk's q again, recomputes ``e`` and ``W`` (the same bits),
    then forms dV, dW, rho and d logits, and from those dq and dk, in the
    three reused buffers (:func:`_logit_grad`). A panel writes its own rows
    of dq and rho; dk and dv add up over the panels of a sample
    (:func:`_matmul_into`).
    """
    num_heads, dtype = qh.shape[1], qh.dtype
    scale = 1.0 / math.sqrt(qh.shape[-1])
    kt = kh.transpose(0, 1, 3, 2)
    b, n_q = max(qh.shape[0], kh.shape[0]), qh.shape[2]
    gh = _split_heads_data(g, num_heads)
    (dq, dq_heads), (dk, dk_heads), (dv, dv_heads) = (_merged(b, t) for t in (qh, kh, vh))
    branches = state.saved[0][1].shape[-1]
    rho = np.empty((b, num_heads, n_q, branches), dtype=dtype) if need_gammas else None
    for (sample, rows), (row_max, s, a) in zip(state.chunks, state.saved):
        panel = state.panels[rows.start]
        e, _, qs = _shared_exp(qh, kt, sample, rows, scale, row_max)
        w = _weights(e, a, panel, out=_SCRATCH.get(1, e.shape, dtype))
        g_rows = gh[sample, :, rows]
        first = rows.start == 0  # the first panel of its samples
        _matmul_into(w.swapaxes(-1, -2), g_rows, dv_heads[sample], first)
        dw = np.matmul(g_rows, _batch(vh, sample).swapaxes(-1, -2), out=_SCRATCH.get(2, e.shape, dtype))
        dlogits, rho_c = _logit_grad(w, dw, e, s, a, panel)
        if rho is not None:
            rho[sample, :, rows] = rho_c
        np.matmul(dlogits, _batch(kh, sample), out=dq_heads[sample, :, rows])
        _matmul_into(qs.swapaxes(-1, -2), dlogits, dk_heads[sample].swapaxes(-1, -2), first)
    dq, dk, dv = (_unbroadcast(d, (t.shape[0], *d.shape[1:])) for d, t in ((dq, qh), (dk, kh), (dv, vh)))
    dq *= scale
    return dq, dk, dv, None if rho is None else rho.sum(axis=(1, 2))


def _attention(x: Tensor, memory: Tensor | None, w_q: Tensor, w_k: Tensor, w_v: Tensor,
               gammas: Tensor, dilations: tuple[int, ...], num_heads: int) -> Tensor:
    """Merged heads of attention from its (B, N, D) inputs, as one node.

    Self-attention when ``memory`` is None: q, k and v are ``x w_q``,
    ``x w_k`` and ``x w_v``. Otherwise q is ``x w_q``, and k and v are
    ``memory w_k`` and ``memory w_v``; ``x`` may have batch 1 against the
    memory's batch B (broadcast). ``gammas`` is (B, G).

    Logits ``q k^T / sqrt(d_k)`` per head, the residue-class mixture ``W``
    and ``W V`` with the heads merged. ``W = sum_g gamma_g P_g`` by class,
    with the class matrix ``R`` of :class:`_Classes`. ``S``, ``A`` and
    ``rho`` live on each row's selected class of each branch,
    (..., N_q, G): ``S = e R`` (:func:`_class_sums`), ``A = gamma / S`` and
    ``W = e * (A R^T)`` (:func:`_spread`). Backward, with
    ``rho = ((dW * e) R) / S`` (rowsum(dW * P_g) for branch g of row i):
    d gamma_g is rho summed over heads and rows, and d logits =
    W dW - e * ((rho * A) R^T).

    Forward projects q, k and v with :func:`~mogref.tensor.matmul`'s row
    gemm, runs :func:`_chunk_forward` and drops them. Between forward and
    backward the node keeps its inputs (its parents' outputs) and, per
    chunk, only the row maximum and ``S`` and ``A`` on each row's selected
    class of each branch, as (B, H, N_q, G) arrays: no q, k or v, no N-by-N
    array, no (B, H, N_q, C) array and no scaled copy of q. Backward
    rebuilds q, k and v with the same gemms (the forward's bits), runs
    :func:`_chunk_pass` and turns dq, dk and dv into the gradients of the
    inputs with the partials of the row gemm: ``w^T``-products into ``x``
    (``dq w_q^T + dk w_k^T + dv w_v^T`` for self-attention, added in that
    order, and ``dq w_q^T`` alone for cross-attention) and into the memory
    (``dk w_k^T + dv w_v^T``), and ``src^T d`` for each weight.

    Samples are independent, and so are the query rows of a sample, so the
    node runs the batch in the chunks of :func:`_chunks`, each with all its
    heads: whole samples packed into ``_PACK_BYTES`` of N-by-N data (a
    quarter of a core's L2), and a bigger sample in up to ``_MAX_PANELS``
    panels of query rows, each with its rows of the classes
    (:meth:`_Classes.rows`). The chunks run in the reused buffers of
    :class:`_Scratch`: forward in :func:`_chunk_forward`, backward in
    :func:`_chunk_pass`, the one chunk loop of each. Backward recomputes
    ``e`` and ``W`` from the saved state (the same bits), in three
    chunk-sized buffers: ``e``; ``W``, overwritten by ``W dW`` once dV is
    formed and then by d logits; and dW, overwritten by ``dW * e`` and then
    by the spread correction (:func:`_logit_grad`). The output, dq and rho
    of a panel are its own rows; dk and dv add up over the panels of a
    sample (:func:`_matmul_into`). So packing samples keeps the bits of the
    one-chunk arithmetic, and splitting rows reassociates only dk and dv
    (within rounding, 1e-12 in float64).

    Recorded by :func:`~mogref.tensor._record` with one partial per input,
    ``x``, the memory if any, the three weights and ``gammas``: the first
    partial asked for runs the chunk pass and forms every input gradient
    (:func:`~mogref.tensor._shared_pass`), and each partial hands over the
    array formed for its input. The input order sets the walk order of
    backward, hence the order in which contributions add into a shared
    input and the last bits of the loss log.

    A rectangular grid where some query row has no key in its class raises
    the ``ValueError`` of the class builder, :func:`_residue_classes`. When
    a selected class sum is below :func:`_min_class_sum` (a support row sits
    far below the row maximum taken over all keys, down to underflowing
    entirely), ``A`` could overflow and ``inf * 0`` in the spread would turn
    a whole row to NaN, so the call returns :func:`_composed_attention`
    over three :func:`~mogref.tensor.matmul` projection nodes instead. The
    node computes in the dtype of its inputs; the chunk budget counts bytes,
    so a float32 chunk packs twice the samples of a float64 one.
    """
    sources = (x,) if memory is None else (x, memory)
    weights = (w_q, w_k, w_v)
    projections = tuple(zip((x, sources[-1], sources[-1]), weights))  # (src, w) of q, k and v
    of_source = ((0, 1, 2),) if memory is None else ((0,), (1, 2))  # which projections read each source

    def projected():
        """Head-split q, k and v, each with the bits of ``matmul(src, w)``."""
        return [_split_heads_data((_rows(t.data) @ w.data).reshape(*t.shape[:-1], w.shape[1]), num_heads)
                for t, w in projections]

    forward = _chunk_forward(*projected(), gammas.data, dilations)
    if forward is None:
        return _composed_attention(*(matmul(t, w) for t, w in projections), gammas, dilations, num_heads)
    out, state = forward

    def grads(g):
        dq, dk, dv, dgammas = _chunk_pass(g, *projected(), state, gammas.requires_grad)
        d_rows = [_rows(d) for d in (dq, dk, dv)]
        d_sources = []
        for t, (first, *rest) in zip(sources, of_source):
            d_src = None
            if t.requires_grad:
                d_src = d_rows[first] @ weights[first].data.T
                for i in rest:
                    d_src += d_rows[i] @ weights[i].data.T
                d_src = d_src.reshape(t.shape)
            d_sources.append(d_src)
        dws = [_rows(t.data).T @ d if w.requires_grad else None for (t, w), d in zip(projections, d_rows)]
        return *d_sources, *dws, dgammas

    return _record(_attention, out, (*sources, *weights, gammas), _shared_pass(grads, len(sources) + 4))


def mog_forward(x: Tensor, attn: MoGAttention, memory: Tensor | None = None) -> Tensor:
    """Full mixture: shared logits, gate-mixed branch weights, one value product.

    The gate pools the sequence the masks sparsify: ``x`` itself for
    self-attention, the memory for cross-attention (granularity selection
    is about the attended-over tokens); a one-branch module has no gate
    and mixes with γ ≡ 1. By linearity, ``(sum_g gamma_g P_g) V`` equals
    the convex sum of the branch outputs ``sum_g gamma_g (P_g V)``.
    Every attention is one :func:`_attention` node.
    """
    cfg = attn.config
    kv_src = x if memory is None else memory
    if attn.gate is None:
        gammas = Tensor(np.ones((max(x.shape[0], kv_src.shape[0]), 1), dtype=x.data.dtype))
    else:
        gammas = gate_weights(kv_src, attn.gate)  # (B, G)
    return _attention(x, memory, attn.w_q, attn.w_k, attn.w_v, gammas, cfg.dilations, cfg.num_heads)
