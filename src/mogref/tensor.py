"""Dense float32/float64 tensors with reverse-mode automatic differentiation.

A small dynamic-graph engine: every operation stores a backward closure on
its output, and :func:`backward` walks the graph in reverse topological
order, accumulating d(loss)/d(leaf) into each leaf's ``.grad``. Everything
is deterministic; there is no device story. Shapes broadcast only in the
numpy sense needed here (leading batch axes and trailing bias adds).

The dtype rule: a tensor keeps its input's float dtype (float32 or
float64; anything else becomes float64), and every op keeps its operands'
dtype. A Python scalar operand takes the tensor operand's dtype, as NEP 50
weak scalars do, so ``x * 0.5`` stays float32. Only :func:`cast` changes
a dtype on purpose.

The recorded graph is a DAG that points from outputs to inputs only, so
reference counting frees a step's graph as soon as the last reference to
its loss goes, without waiting for the cyclic garbage collector. To keep
it that way, a backward closure receives the output gradient as its
argument and never captures its output tensor (capturing the output's
``data`` array is fine).

A graph is walked once. :func:`backward` pops each node off the walk
order and releases it as it goes: the node drops its gradient and its
parents, and its closure becomes a sentinel that raises ``RuntimeError``.
So the interior outputs, captured inputs and closure state of a graph are
freed during its walk, not when the caller drops the loss, and after the
walk the loss holds its own value and nothing else. A second
:func:`backward` on the same loss, or on a loss that shares a node with a
walked graph, raises before it moves any gradient instead of silently
adding nothing; record the forward again to get a new graph.

The routing rule: an op gives :func:`_record` its output and one
vector-Jacobian product (partial) per input. Only that helper skips inputs
that need no gradient, sums partials over broadcast axes and casts each
one to its input's dtype, so every gradient has the dtype of the tensor it
belongs to and a float64 gradient never leaks into float32. The output
gradient ``g`` itself goes to the first input whose partial returns
it and a copy to any later one; any other partial (a fresh array, or a view
of ``g`` no other input shares) is handed over as it is, such as a gather's
(:func:`select`, :func:`take_rows`) output gradient scattered into zeros.
Every partial is formed before the first one is accumulated, so an input
that takes ``g`` and appears again (``affine(x, w, b, residual=x)``) never
changes the ``g`` a later partial reads. Partials are asked for in input
order, so an op whose partials share work (``mog._attention_core``, whose
one chunk pass forms all four input gradients) runs it in the first
partial asked for, and each partial hands over the array it formed.

Inside ``with no_grad():`` operations record nothing: outputs are bare
tensors with no parents and no closure, and :func:`backward` on them is a
no-op. Forward values are the same bits either way. The flag is
thread-local, nests, and is restored when the block exits, also by an
exception. Inside ``with op_profile() as prof:`` (thread-local in the same
way), :func:`backward` adds each closure's wall time and call count to
``prof`` under its op name.

An :class:`Arena` packs a list of parameters into one contiguous ``data``
and one ``grad`` buffer and makes each ``Parameter.data`` and ``.grad`` a
view of its slice, so an optimizer can update all of them in one pass and
zero their gradients in one fill. Gradients reach those views in place:
:func:`_accum` adds into a leaf's existing ``.grad``.

Masked softmax is the one numerically delicate op: masked logits are
replaced by -inf before the stable exponential, which makes masked output
entries exactly 0.0 (``exp(-inf) == 0``) rather than merely small.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateMaskError(ValueError):
    """A softmax mask row admits no positions at all."""


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _as_array(x) -> np.ndarray:
    """``x`` as an array of its own dtype if that is float32 or float64, else float64."""
    arr = np.asarray(x)
    return arr if arr.dtype in _FLOAT_DTYPES else arr.astype(np.float64)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # make numpy refuse silent mixed arithmetic (ndarray + Tensor)
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; scalars and arrays are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Parameter(Tensor):
    """Named trainable leaf; ``grad`` starts as zeros of the same shape."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


class Arena:
    """Two contiguous buffers, ``data`` and ``grad``, that hold the values
    and gradients of a list of parameters.

    Packing copies the parameters' values, in the order given and cast to
    ``dtype``, into the flat ``data`` buffer, zeroes the flat ``grad``
    buffer, and rebinds every ``p.data`` and ``p.grad`` to a view of the
    parameter's slice of each, so ``p.data.base`` is ``data`` and
    ``p.grad.base`` is ``grad``. From then on values and gradients are
    assigned in place (``p.data[...] = x``, ``p.grad[...] = g``); a rebound
    array is no longer the arena's.
    """

    def __init__(self, params: Sequence[Parameter], dtype):
        sizes = [p.size for p in params]
        self.data = np.empty(sum(sizes), dtype=dtype)
        self.grad = np.zeros(sum(sizes), dtype=dtype)
        cuts = np.cumsum(sizes)[:-1]
        for p, data, grad in zip(params, np.split(self.data, cuts), np.split(self.grad, cuts)):
            data[...] = p.data.reshape(-1)
            p.data, p.grad = data.reshape(p.shape), grad.reshape(p.shape)


class Module:
    """Base for anything that owns parameters.

    :meth:`parameters` returns every :class:`Parameter` reachable through
    the instance's attributes, following lists and nested modules, in the
    order the attributes were assigned: construction order. Anything else
    (configs, plain tensors, None) is skipped.
    """

    def parameters(self) -> list[Parameter]:
        # a loop, not a recursive inner function: that would be a reference
        # cycle, left for the cyclic collector on every call
        found: list[Parameter] = []
        pending = list(reversed(vars(self).values()))  # a stack, next value on top
        while pending:
            value = pending.pop()
            if isinstance(value, Parameter):
                found.append(value)
            elif isinstance(value, Module):
                found.extend(value.parameters())
            elif isinstance(value, list):
                pending.extend(reversed(value))
        return found


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a Python int or float takes the other operand's dtype.

    ``np.float64`` scalars subclass ``float``, so they count as Python floats.
    """
    if isinstance(a, Tensor):
        if isinstance(b, Tensor):
            return a, b
        if isinstance(b, (int, float)):
            return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    elif isinstance(b, Tensor) and isinstance(a, (int, float)):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return _wrap(a), _wrap(b)


def _accum(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    """Add ``g`` into ``t.grad``.

    ``own=True`` promises ``g`` is not aliased by any other accumulation
    target, so the first contribution can take the buffer instead of
    copying. Views of an upstream gradient qualify: a node's gradient is
    final when :func:`backward` takes it from the node and hands it to the
    node's closure, so from then on only the views handed to parents use
    the buffer.
    :func:`_record` chooses it for every op by the routing rule above.
    """
    if t.grad is None:
        t.grad = g if own else g.copy()
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g


class _Recording(threading.local):
    enabled = True  # class default: every new thread starts out recording
    profile: OpProfile | None = None  # set inside op_profile()


_RECORDING = _Recording()


def is_grad_enabled() -> bool:
    """Whether operations on this thread currently record a graph."""
    return _RECORDING.enabled


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph on this thread for the duration of the block."""
    previous = _RECORDING.enabled
    _RECORDING.enabled = False
    try:
        yield
    finally:
        _RECORDING.enabled = previous


@dataclass
class OpProfile:
    """Backward wall time (ms) and call count per op name.

    The op name is the name :func:`_record` gives the backward closure, its
    op's: ``matmul`` for the closure :func:`matmul` records.
    """

    ms: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    def add(self, bwd: Callable, seconds: float) -> None:
        name = bwd.__qualname__
        self.ms[name] = self.ms.get(name, 0.0) + seconds * 1e3
        self.calls[name] = self.calls.get(name, 0) + 1


@contextmanager
def op_profile() -> Iterator[OpProfile]:
    """Time every backward closure :func:`backward` runs on this thread in the block."""
    previous = _RECORDING.profile
    prof = _RECORDING.profile = OpProfile()
    try:
        yield prof
    finally:
        _RECORDING.profile = previous


def _record(op: Callable, data: np.ndarray, inputs: Sequence[Tensor],
            partials: Sequence[Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """``op``'s output node: its gradient into ``inputs[i]`` is ``partials[i](g)``.

    The only function that builds a node, and the one place the routing
    rule (module docstring) is applied: the inputs that need a gradient
    become the node's parents, in the order given. The closure takes
    ``op``'s name, under which :class:`OpProfile` files it. A partial must
    not capture the returned tensor, or the graph becomes a reference cycle.
    """
    out = Tensor(data)
    if not _RECORDING.enabled:
        return out
    routes = [(t, vjp) for t, vjp in zip(inputs, partials) if t.requires_grad]
    if not routes:
        return out

    def bwd(g):
        grads = [_unbroadcast(vjp(g), t.data.shape) for t, vjp in routes]
        taken = False  # whether an earlier input took g itself
        for (t, _), gt in zip(routes, grads):
            if gt.dtype != t.data.dtype:
                gt = gt.astype(t.data.dtype)
            _accum(t, gt, own=gt is not g or not taken)
            taken = taken or gt is g

    bwd.__qualname__ = op.__qualname__
    out.requires_grad = True
    out._parents = tuple(t for t, _ in routes)
    out._backward = bwd
    return out


def zero_grads(params) -> None:
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        else:
            p.grad.fill(0.0)


def _walked(g: np.ndarray) -> None:
    """The closure of a node :func:`backward` has walked: its graph is gone."""
    raise RuntimeError("graph already walked; record the forward again")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    Repeated calls on separate graphs add up; call :func:`zero_grads`
    between steps. Leaf gradients persist across walks. A graph is walked
    once: each node is popped off the walk order and released as it is
    reached (its gradient, its parents and its closure, which becomes
    :func:`_walked`), so the graph's interior outputs, captured inputs and
    closure state are freed during the walk. A second walk of the same
    loss, or a walk that reaches a node of an already walked graph, raises
    ``RuntimeError`` before it moves any gradient. A walk cut short by a
    raising closure has released the loss and that closure's node too, so
    its loss cannot be walked again either.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _walked:
            _walked(None)  # before any gradient moves
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    _accum(loss, np.ones_like(loss.data), own=True)
    prof = _RECORDING.profile
    while topo:
        node = topo.pop()
        bwd, g = node._backward, node.grad
        if bwd is None:
            continue
        # released before the call, so that a raising closure leaves its node
        # walked too; every consumer of the node has run already, so the walk
        # holds nothing of it once ``bwd`` and ``node`` are rebound
        node._backward, node._parents, node.grad = _walked, (), None
        if prof is None:
            bwd(g)
        else:
            start = time.perf_counter()
            bwd(g)
            prof.add(bwd, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _record(add, a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _record(sub, a.data - b.data, (a, b), (lambda g: g, np.negative))


def neg(a) -> Tensor:
    a = _wrap(a)
    return _record(neg, -a.data, (a,), (np.negative,))


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _record(mul, a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data))


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data / b.data
    return _record(div, data, (a, b), (lambda g: g / b.data, lambda g: -g * data / b.data))


def absolute(a) -> Tensor:
    a = _wrap(a)
    sign = np.sign(a.data)
    return _record(absolute, np.abs(a.data), (a,), (lambda g: g * sign,))


def log(a) -> Tensor:
    a = _wrap(a)
    return _record(log, np.log(a.data), (a,), (lambda g: g / a.data,))


def maximum(a, b) -> Tensor:
    """Elementwise max; ties send the gradient to the first argument."""
    a, b = _pair(a, b)
    take_a = a.data >= b.data
    return _record(maximum, np.maximum(a.data, b.data), (a, b),
                   (lambda g: g * take_a, lambda g: g * ~take_a))


def minimum(a, b) -> Tensor:
    a, b = _pair(a, b)
    take_a = a.data <= b.data
    return _record(minimum, np.minimum(a.data, b.data), (a, b),
                   (lambda g: g * take_a, lambda g: g * ~take_a))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    x = a.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)
    return _record(sigmoid, data, (a,), (lambda g: g * data * (1.0 - data),))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """``t = tanh(C * (x + A * (x * x * x)))`` in one new buffer."""
    t = np.multiply(x, x)  # x**3 goes through pow(): 100x slower
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def gelu(a) -> Tensor:
    """tanh-form GELU; smooth everywhere, so finite differences behave.

    Forward computes ``t = tanh(C * (x + A * (x * x * x)))`` and turns it
    into the output in place. The node keeps no array besides its output:
    backward reads only the input ``x``, which its parent holds anyway,
    recomputes ``t`` from it with the same operations and works in place
    with one scratch buffer besides ``t`` and the result. Every product and
    sum keeps the association of ``0.5 * x * (1 + t)`` and its derivative;
    only the operand order of commutative steps differs, so the bits are
    those of the plain expressions.
    """
    a = _wrap(a)
    x = a.data
    data = _gelu_tanh(x)  # t, turned into the output in place
    data += 1.0
    data *= np.multiply(x, 0.5)

    def vjp(g):
        # 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * C * (1 + 3 * A * x * x)
        t = _gelu_tanh(x)
        scratch = np.multiply(t, t)
        np.subtract(1.0, scratch, out=scratch)
        d = np.multiply(x, 0.5)
        d *= scratch
        d *= _GELU_C
        np.multiply(x, 3.0 * _GELU_A, out=scratch)
        scratch *= x
        scratch += 1.0
        d *= scratch
        np.add(t, 1.0, out=scratch)
        scratch *= 0.5
        d += scratch
        d *= g
        return d

    return _record(gelu, data, (a,), (vjp,))


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def cast(a, dtype) -> Tensor:
    """``a`` converted to ``dtype``; ``a`` itself if it has that dtype already.

    The partial is the identity: the routing rule casts the gradient back
    to ``a``'s dtype.
    """
    a = _wrap(a)
    if a.data.dtype == dtype:
        return a
    return _record(cast, a.data.astype(dtype), (a,), (lambda g: g,))


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    orig = a.data.shape
    return _record(reshape, a.data.reshape(shape), (a,), (lambda g: g.reshape(orig),))


def _axis(axis: int, ndim: int) -> int:
    """``axis`` of an ``ndim``-axis array as an index in ``[0, ndim)``; negative counts from the end."""
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} is out of range for {ndim} dimensions")
    return axis % ndim


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    axes = tuple(_axis(int(ax), a.ndim) for ax in axes)
    inverse = tuple(np.argsort(axes))
    return _record(transpose, a.data.transpose(axes), (a,), (lambda g: g.transpose(inverse),))


def concat(tensors, axis: int) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in ts], axis=axis)
    ends = np.cumsum([t.data.shape[axis] for t in ts]).tolist()
    lead = (slice(None),) * (axis % data.ndim)  # each input's partial: its disjoint view of g
    parts = [lead + (slice(lo, hi),) for lo, hi in zip([0] + ends[:-1], ends)]
    return _record(concat, data, ts, [lambda g, sl=sl: g[sl] for sl in parts])


def select(a, index: int, axis: int = 0) -> Tensor:
    """Pick one slice along ``axis``; the axis disappears from the result."""
    a = _wrap(a)
    sl = (slice(None),) * _axis(axis, a.ndim) + (int(index),)

    def vjp(g):
        buf = np.zeros_like(a.data)
        buf[sl] = g
        return buf

    return _record(select, a.data[sl], (a,), (vjp,))


def take_rows(a, indices) -> Tensor:
    """Gather along the first axis (embedding-table style lookup)."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return buf

    return _record(take_rows, a.data[idx], (a,), (vjp,))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(a) -> Tensor:
    """The sum of every entry, a 0-d tensor."""
    a = _wrap(a)
    return _record(tsum, a.data.sum(), (a,), (lambda g: np.broadcast_to(g, a.data.shape).copy(),))


def mean(a, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    count = a.size if axis is None else a.data.shape[axis]
    lost = () if axis is None else axis  # the axis g lacks
    return _record(mean, a.data.mean(axis=axis), (a,),
                   (lambda g: np.broadcast_to(np.expand_dims(g, lost), a.data.shape) / count,))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def _rows(x: np.ndarray) -> np.ndarray:
    """(..., K) -> (prod(...), K)."""
    return x.reshape(-1, x.shape[-1])


def _row_gemm_partials(x: Tensor, w: Tensor) -> tuple[Callable, Callable]:
    """d(x) and d(w) of ``_rows(x) @ w``: one 2-D gemm each over the rows of ``x``."""
    return (lambda g: (_rows(g) @ w.data.T).reshape(x.data.shape),
            lambda g: _rows(x.data).T @ _rows(g))


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if a.ndim > 2 and b.ndim == 2:
        # batched rows times one weight: the forward, dx and dW are each one
        # 2-D gemm over the flattened leading axes, where np.matmul would run
        # a gemm per leading index and dW would sum those partial products
        data = (_rows(a.data) @ b.data).reshape(*a.shape[:-1], b.shape[-1])
        return _record(matmul, data, (a, b), _row_gemm_partials(a, b))
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:  # mismatched broadcast on batch axes
        raise ShapeError(f"matmul batch shapes disagree: {a.shape} @ {b.shape}") from exc
    return _record(matmul, data, (a, b), (lambda g: np.matmul(g, b.data.swapaxes(-1, -2)),
                                          lambda g: np.matmul(a.data.swapaxes(-1, -2), g)))


def affine(x, w, b, residual=None) -> Tensor:
    """``x @ w + b``, or ``residual + (x @ w + b)``, as one node.

    A 2-D gemm over the rows of ``x``, then the bias and the residual added
    in place into the product's buffer: the same arithmetic as
    ``matmul(x, w) + b`` (and ``residual + that``) without keeping the
    product, the biased sum and the residual sum as separate arrays and
    nodes. The residual's partial is the output gradient itself. The
    residual must have the product's dtype and broadcast to its shape;
    anything else raises :class:`ShapeError`.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine needs (..., K) @ (K, M) with K matching, got {x.shape} @ {w.shape}")
    data = (_rows(x.data) @ w.data).reshape(*x.shape[:-1], w.shape[1])
    data += b.data
    partials = _row_gemm_partials(x, w)
    if residual is None:
        return _record(affine, data, (x, w, b), (*partials, lambda g: g))
    r = _wrap(residual)
    fits = r.ndim <= data.ndim and all(n in (1, m) for n, m in zip(r.shape[::-1], data.shape[::-1]))
    if r.data.dtype != data.dtype or not fits:
        raise ShapeError(f"affine residual must be {data.dtype} and broadcast to the product's "
                         f"{data.shape}, got {r.data.dtype} {r.shape}")
    data += r.data
    # the residual first, as in ``residual + affine(x, w, b)``: it sets the
    # walk order of backward, hence the bits of the sums into shared inputs
    return _record(affine, data, (r, x, w, b), (lambda g: g, *partials, lambda g: g))


# ---------------------------------------------------------------------------
# normalization and softmax
# ---------------------------------------------------------------------------


def _row_mean(y: np.ndarray) -> np.ndarray:
    """``y.mean(axis=-1, keepdims=True)``, bit for bit, without ``ndarray.mean``'s Python wrapper."""
    total = np.add.reduce(y, axis=-1, keepdims=True)
    total /= y.shape[-1]
    return total


def layernorm(a, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization over the last axis (no affine).

    ``eps`` sits inside the square root, so a constant row maps to exact
    zeros instead of dividing by zero. The forward squares into its output
    buffer before it normalizes into it, the backward reuses one scratch
    buffer, and both keep the association of ``(x - mu) * inv`` and
    ``inv * ((g - mean(g)) - y * mean(g * y))``, so the bits are those of
    the plain expressions. Its row means are ``np.add.reduce`` then an
    in-place divide, the arithmetic of ``ndarray.mean`` without its Python
    wrapper.
    """
    a = _wrap(a)
    x = a.data
    centered = np.subtract(x, _row_mean(x))
    data = np.multiply(centered, centered)
    inv = 1.0 / np.sqrt(_row_mean(data) + eps)
    np.multiply(centered, inv, out=data)

    def vjp(g):
        scratch = np.multiply(g, data)
        gym = _row_mean(scratch)
        np.multiply(data, gym, out=scratch)
        dx = np.subtract(g, _row_mean(g))
        dx -= scratch
        dx *= inv
        return dx

    return _record(layernorm, data, (a,), (vjp,))


def _softmax_vjp(data: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The partial of a softmax over the last axis whose output is ``data``."""
    return lambda g: data * (g - (g * data).sum(axis=-1, keepdims=True))


def softmax(a) -> Tensor:
    a = _wrap(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=-1, keepdims=True)
    return _record(softmax, data, (a,), (_softmax_vjp(data),))


def masked_softmax(logits, mask) -> Tensor:
    """Softmax over the last axis restricted to ``mask``'s support.

    ``mask`` is a numpy array (bool or 0/1) that broadcasts to the logits,
    such as the ``bits`` of :func:`mogref.mog.build_mask`. Each row is
    shifted by its maximum over the support, so a support far below the
    row's other logits keeps its precision. Masked positions come out
    exactly 0.0 (bit-level), unmasked rows sum to one. The mask is a
    constant: no gradient flows into it, and the gradient at masked logits
    is exactly zero.
    """
    if not isinstance(mask, np.ndarray):  # any other object would read as one True
        raise TypeError(f"mask must be a numpy array, got {type(mask).__name__}")
    a = _wrap(logits)
    bits = mask.astype(bool, copy=False)
    try:
        m = np.broadcast_to(bits, a.shape)
    except ValueError as exc:
        raise ShapeError(f"mask shape {bits.shape} does not broadcast to logits {a.shape}") from exc
    row_ok = m.any(axis=-1)
    if not row_ok.all():
        bad = int(np.count_nonzero(~row_ok))
        raise DegenerateMaskError(f"masked_softmax: {bad} mask row(s) have empty support")
    shifted = np.where(m, a.data, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted)  # exp(-inf) == 0.0 exactly
    data = e / e.sum(axis=-1, keepdims=True)
    return _record(masked_softmax, data, (a,), (_softmax_vjp(data),))
