"""How long a recorded graph lives, and when none is recorded at all.

A step's graph must be freed by reference counting alone: with the cyclic
garbage collector off, nothing it leaves behind may need a collection.
A graph is walked once: ``backward`` releases each node as it reaches it
(gradient, parents and closure), so after the walk the loss holds its value
and nothing else, and a second walk of the same loss raises
``RuntimeError`` instead of adding nothing. ``no_grad`` must switch
recording off on its own thread only, for exactly the extent of its
block, without changing a single forward value.
"""

import gc
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mogref
from mogref import gradcheck_cases, tensor
from mogref.data import SyntheticSceneSpec, default_vocab
from mogref.matching import grounding_loss
from mogref.model import ModelConfig, SCSModel
from mogref.rng import RngState
from mogref.tensor import (
    Parameter,
    Tensor,
    _accum,
    backward,
    is_grad_enabled,
    matmul,
    no_grad,
    tsum,
    zero_grads,
)
from mogref.train import TrainConfig, build_synthetic_dataset, train_toy

VOCAB = default_vocab()
CFG = ModelConfig(image_size=32, vocab_size=len(VOCAB))


def unreachable_after(run) -> int:
    """Objects only the cyclic collector could free once ``run()`` has returned."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestCycleFree:
    def test_training_step_and_eval_leave_no_cycles(self):
        dataset = build_synthetic_dataset(4, SyntheticSceneSpec(image_size=32), VOCAB, 0)
        model = SCSModel(CFG, VOCAB, RngState(0))
        # one step, then one evaluate_model on the updated parameters
        cfg = TrainConfig(steps=1, batch_size=4, eval_every=1, target_train_p50=None)
        assert unreachable_after(lambda: train_toy(model, dataset, cfg)) == 0

    def test_every_gradcheck_graph_is_freed_by_refcount(self):
        def forward_and_backward():
            for _, builder in gradcheck_cases.all_cases(0):
                build_loss, _ = builder()
                backward(build_loss())

        assert unreachable_after(forward_and_backward) == 0


def graph_nodes(loss: Tensor) -> list[Tensor]:
    """Every node reachable from ``loss``, leaves included."""
    nodes, seen, stack = [], {id(loss)}, [loss]
    while stack:
        node = stack.pop()
        nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def keeping_backward(loss: Tensor) -> None:
    """The walk of ``backward``, in its order, releasing nothing: the reference."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in seen)
    _accum(loss, np.ones_like(loss.data), own=True)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def default_step_loss(seed: int = 0):
    """The loss of one default-model step (64 px, B=8) and the model's parameters."""
    vocab = default_vocab()
    dataset = build_synthetic_dataset(8, SyntheticSceneSpec(), vocab, seed)
    model = SCSModel(ModelConfig(vocab_size=len(vocab)), vocab, RngState(seed))

    def build_loss():
        pred = model.forward(dataset.images, dataset.token_ids)
        return grounding_loss(pred.boxes, pred.confidence, dataset.targets)[0]

    return build_loss, model.parameters()


def every_graph():
    """(name, build_loss, params) of each gradcheck case and of one default-model step."""
    for name, builder in gradcheck_cases.all_cases(0):
        yield (name, *builder())
    yield ("default_model_step", *default_step_loss())


def leaf_grads(params) -> list[np.ndarray]:
    return [p.grad.copy() for p in params]


class TestInteriorGradients:
    def test_walk_frees_every_interior_gradient_and_keeps_leaf_gradients(self):
        for name, build_loss, params in every_graph():
            zero_grads(params)
            keeping_backward(build_loss())
            want = leaf_grads(params)

            zero_grads(params)
            loss = build_loss()
            interior = [n for n in graph_nodes(loss) if n._backward is not None]
            backward(loss)
            holding = [n for n in interior if n.grad is not None or n._parents]
            assert not holding, f"{name}: {len(holding)} walked nodes hold a gradient or parents"
            assert all(n._backward is tensor._walked for n in interior), name
            assert all(np.array_equal(g, p.grad) for g, p in zip(want, params)), name
            # the graph is gone: a second walk raises and adds nothing
            with pytest.raises(RuntimeError, match="already walked"):
                backward(loss)
            assert all(np.array_equal(g, p.grad) for g, p in zip(want, params)), name

    def test_walk_cut_short_by_a_raising_closure_then_rewalked(self):
        build_loss, params = default_step_loss(1)
        zero_grads(params)
        loss = build_loss()
        interior = [n for n in graph_nodes(loss) if n._backward is not None]
        victim = interior[len(interior) // 2]

        def raising(g):
            raise FloatingPointError("cut short")

        victim._backward = raising
        with pytest.raises(FloatingPointError):
            backward(loss)
        assert victim._backward is tensor._walked
        partial = leaf_grads(params)
        # the re-walk raises at the loss instead of finishing partial gradients
        with pytest.raises(RuntimeError, match="already walked"):
            backward(loss)
        assert all(np.array_equal(g, p.grad) for g, p in zip(partial, params))

    def test_walked_graph_holds_almost_nothing(self):
        # a walk that kept every output and closure until the loss went held
        # 6.1 MB here and peaked at 7.45 MB. The peak is bounded in bytes, not
        # as a ratio to the forward's: rebuilding cross-attention's keys and
        # values cut both (5.00 to 4.57 MB, 4.47 to 3.88 MB) and raised the ratio
        build_loss, params = default_step_loss(2)
        backward(build_loss())  # fills the caches and the attention node's reused buffers
        zero_grads(params)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = build_loss()
            live = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            backward(loss)
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert held <= 64 * 2**10, f"the walked graph holds {held / 2**10:.1f} KB"
        assert peak <= 4.75 * 2**20, f"backward peaks at {peak / 2**20:.2f} MB ({live / 2**20:.2f} MB after forward)"

    def test_recorded_step_keeps_little_beyond_its_node_data(self):
        # what a step's graph holds besides the nodes' outputs: the closures,
        # the inputs they read and the attention node's per-row state, about
        # 0.7 MB at 64 px, B=8. Keeping the (..., N_q, sum d_g) class arrays,
        # a scaled copy of q, gelu's tanh and unfolded residual products
        # made it 1.8 MB
        build_loss, params = default_step_loss(3)
        backward(build_loss())  # fills the caches and the attention node's reused buffers
        zero_grads(params)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = build_loss()
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        data = sum(n.data.nbytes for n in graph_nodes(loss) if n._backward is not None)
        assert live - data < 1.0 * 2**20, f"{(live - data) / 2**20:.2f} MB beyond {data / 2**20:.2f} MB of node data"


class TestStepGraphSize:
    def test_default_step_records_66_nodes_and_at_most_3_3_mb_of_node_data(self):
        # 133 nodes and 5.31 MB while each attention kept its q, k and v
        # projection nodes and each FFN and the head's box MLP its gelu
        # node; now every attention is one node from its inputs (3 nodes
        # fewer each, 6 attentions) and gelu folds into the linear layer
        # after it (5 nodes), and both rebuild what they dropped in backward.
        # The set loss, 45 nodes when composed from elementwise ops, is one
        build_loss, _ = default_step_loss(4)
        nodes = [n for n in graph_nodes(build_loss()) if n._backward is not None]
        ops = [n._backward.__qualname__ for n in nodes]
        assert len(nodes) == 66
        assert ops.count("batch_assignment_loss") == 1
        assert (ops.count("_attention"), ops.count("gelu_affine"), ops.count("matmul")) == (6, 5, 0)
        data = sum(n.data.nbytes for n in nodes)
        assert data <= 3.3 * 2**20, f"{data / 2**20:.2f} MB of node data"


def small_forward(model: SCSModel):
    dataset = build_synthetic_dataset(2, SyntheticSceneSpec(image_size=32), VOCAB, 1)
    return model.forward(dataset.images, dataset.token_ids)


class TestNoGrad:
    def test_forward_values_bit_identical_and_unrecorded(self):
        model = SCSModel(CFG, VOCAB, RngState(2))
        recorded = small_forward(model)
        with no_grad():
            bare = small_forward(model)
        for rec, out in ((recorded.boxes, bare.boxes), (recorded.confidence, bare.confidence)):
            assert rec.requires_grad and rec._backward is not None
            assert np.array_equal(rec.data, out.data)
            assert not out.requires_grad
            assert out._parents == () and out._backward is None

    def test_backward_on_unrecorded_output_is_a_no_op(self):
        w = Parameter("w", [[1.0, 2.0], [3.0, 4.0]])
        with no_grad():
            loss = tsum(matmul(Tensor(np.ones((1, 2))), w))
        backward(loss)
        assert (w.grad == 0.0).all()

    def test_nests_and_restores(self):
        assert is_grad_enabled()
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_restored_after_exception(self):
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("boom")
        assert is_grad_enabled()
        w = Parameter("w", [1.0])
        assert tsum(w * 2.0)._backward is not None

    def test_flag_is_per_thread(self):
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def other():
            seen["starts_on"] = is_grad_enabled()
            with no_grad():
                entered.set()
                release.wait(timeout=10)

        w = Parameter("w", [1.0])
        with no_grad():
            worker = threading.Thread(target=other)
            worker.start()
            assert entered.wait(timeout=10)
        # main thread left its block while the worker is still inside its own
        try:
            assert is_grad_enabled()
            assert tsum(w * 2.0)._backward is not None
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == {"starts_on": True}


def test_conftest_fails_a_test_that_leaks_no_grad(tmp_path):
    (tmp_path / "conftest.py").write_text((Path(__file__).parent / "conftest.py").read_text())
    (tmp_path / "test_leak.py").write_text(
        "from mogref.tensor import is_grad_enabled, no_grad\n"
        "LEAKED = no_grad()\n"
        "def test_leaks():\n"
        "    LEAKED.__enter__()\n"
        "def test_next_test_records_again():\n"
        "    assert is_grad_enabled()\n"
    )
    src = str(Path(mogref.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    # the leaking test's teardown errors; the test after it records again
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "ERROR test_leak.py::test_leaks" in proc.stdout, proc.stdout
    assert "2 passed, 1 error" in proc.stdout, proc.stdout
