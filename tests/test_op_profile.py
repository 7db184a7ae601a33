import importlib.util
import re
from pathlib import Path

import numpy as np

from mogref import tensor
from mogref.tensor import Parameter, backward, matmul, op_profile, tsum

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
                     r"peak RSS \d+\.\d MB", lines[0])
    rows = {}
    for line in lines[2:]:
        name, calls, ms, _share = line.split()
        rows[name] = (float(calls), float(ms))
    # one attention-core node per attention: two SCE blocks, the SCD self-
    # and cross-attention, and the SSD self- and cross-attention; the core
    # holds each attention's logit and value products, so matmul counts the
    # 18 bias-free q/k/v projections and 3 gates, and every Linear layer (6
    # attention outputs, 8 feed-forward, the patch embedding, 3 head) is one
    # affine node
    assert rows["_attention_core"][0] == 6
    assert "_mixture_weights" not in rows
    assert rows["matmul"][0] == 21
    assert rows["affine"][0] == 18
    assert {"layernorm", "gelu", "softmax", "take_rows"} <= set(rows)
