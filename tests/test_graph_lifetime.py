"""How long a recorded graph lives, and when none is recorded at all.

A step's graph must be freed by reference counting alone: with the cyclic
garbage collector off, nothing it leaves behind may need a collection.
``no_grad`` must switch recording off on its own thread only, for exactly
the extent of its block, without changing a single forward value.
"""

import gc
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mogref
from mogref import gradcheck_cases
from mogref.data import SyntheticSceneSpec, default_vocab
from mogref.model import ModelConfig, SCSModel
from mogref.rng import RngState
from mogref.tensor import Parameter, Tensor, backward, is_grad_enabled, matmul, no_grad, tsum
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
