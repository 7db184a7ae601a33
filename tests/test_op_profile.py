import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from mogref import tensor
from mogref.rng import RngState
from mogref.tensor import (
    Parameter,
    absolute,
    add,
    affine,
    backward,
    concat,
    div,
    gelu_affine,
    layernorm,
    log,
    masked_softmax,
    matmul,
    maximum,
    mean,
    minimum,
    mul,
    neg,
    op_profile,
    reshape,
    select,
    sigmoid,
    softmax,
    sub,
    transpose,
    tsum,
)

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "op_profile.py"


def small_loss():
    a = Parameter("a", np.ones((2, 3)))
    b = Parameter("b", np.full((3, 2), 0.5))
    return tsum(matmul(matmul(a, b), b.data.T) * a), a, b


def test_backward_counts_and_times_each_op():
    loss, a, _ = small_loss()
    with op_profile() as prof:
        backward(loss)
    assert prof.calls == {"tsum": 1, "mul": 1, "matmul": 2}
    assert set(prof.ms) == set(prof.calls)
    assert all(ms >= 0.0 for ms in prof.ms.values())
    assert tensor._RECORDING.profile is None


def test_every_routed_op_is_profiled_under_its_function_name():
    rng = RngState(4)
    x = Parameter("x", rng.uniform_array((2, 3, 4), 0.5, 1.5))
    w = Parameter("w", rng.uniform_array((4, 4), -0.5, 0.5))
    b = Parameter("b", rng.uniform_array((4,), -0.5, 0.5))
    h = matmul(affine(x, w, b), w)  # (2, 3, 4) @ (4, 4): the row-gemm branch
    s = matmul(h, transpose(h, (0, 2, 1)))  # batched (2, 3, 3): the np.matmul branch
    mask = np.tril(np.ones((3, 3), dtype=bool))
    p = sub(add(softmax(s), masked_softmax(s, mask)), s)
    y = select(reshape(concat([layernorm(h), gelu_affine(h, w, b)], axis=-1), (2, 3, 2, 4)), 0, axis=2)
    z = maximum(sigmoid(y), minimum(neg(y), log(absolute(h))))
    loss = mul(tsum(div(z, x)), mean(p))
    with op_profile() as prof:
        backward(loss)
    assert set(prof.calls) == {
        "affine", "matmul", "transpose", "softmax", "masked_softmax",
        "add", "sub", "concat", "layernorm", "gelu_affine", "select", "reshape", "maximum",
        "sigmoid", "minimum", "neg", "log", "absolute", "div", "tsum", "mean", "mul",
    }


def test_outside_the_block_backward_is_unchanged():
    loss, a, b = small_loss()
    with op_profile() as prof:
        pass
    backward(loss)
    ref_loss, ref_a, ref_b = small_loss()
    with op_profile():
        backward(ref_loss)
    assert prof.calls == {} and prof.ms == {}
    assert (a.grad == ref_a.grad).all() and (b.grad == ref_b.grad).all()


def test_profile_is_restored_after_an_exception():
    try:
        with op_profile():
            raise KeyError("boom")
    except KeyError:
        pass
    assert tensor._RECORDING.profile is None


def test_script_profiles_a_default_step(capsys):
    spec = importlib.util.spec_from_file_location("op_profile_script", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(["--steps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.search(r"ms/step \(\d+ minor faults, \d+\.\d ms system CPU\), "
                     r"peak RSS \d+\.\d MB, attention scratch \d+\.\d\d MB, "
                     r"optimizer \d+\.\d\d ms/step, ", lines[0])
    rows = {}
    for line in lines[2:]:
        name, calls, ms, _share = line.split()
        rows[name] = (float(calls), float(ms))
    # one self-attention node per self-attention (two SCE blocks, the SCD
    # and SSD queries) and one attention-core node per cross-attention (SCD
    # and SSD); the nodes hold each attention's logit and value products,
    # and the self-attention node its q/k/v projections too, so matmul
    # counts the 6 bias-free q/k/v projections of the two cross-attentions;
    # every Linear layer after a gelu (4 feed-forward outputs, the head's box output) is
    # one gelu_affine node, and every other (6 attention outputs, 4
    # feed-forward inputs, the patch embedding, 2 head) and the 3 gate
    # logits one affine node each
    assert rows["_self_attention"][0] == 4
    assert rows["_attention_core"][0] == 2
    assert "masked_softmax" not in rows  # the underflow fallback did not run
    assert rows["matmul"][0] == 6
    assert rows["gelu_affine"][0] == 5
    assert rows["affine"][0] == 16
    assert {"layernorm", "gelu_affine", "softmax", "take_rows"} <= set(rows)


def test_script_reports_one_traced_step_of_graph_memory(capsys):
    spec = importlib.util.spec_from_file_location("op_profile_script", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(["--steps", "1", "--batch", "2"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    found = re.search(r", traced graph (\d+\.\d\d) MB after forward and loss "
                      r"\((\d+\.\d\d) KB per token row of (\d+)\), "
                      r"(\d+\.\d\d) MB peak through backward, "
                      r"(\d+\.\d\d) MB held after backward$", header)
    assert found, header
    live, per_row, rows, peak, held = map(float, found.groups())
    assert rows > 2 * 64  # two scenes of 64 visual tokens and their words
    assert abs(per_row * rows / 2**10 - live) < 0.01  # both printed rounded
    assert 0.0 < live < peak  # backward's gradients come on top of the kept graph
    assert held < 0.1 * live  # the walk released the graph


def test_script_exits_quietly_into_a_closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader left before the script printed anything
    src = str(SCRIPT.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run([sys.executable, str(SCRIPT), "--steps", "1", "--batch", "1"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
