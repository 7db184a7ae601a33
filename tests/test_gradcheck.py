import ast
import re
from pathlib import Path

import numpy as np
import pytest

from mogref.gradcheck import check_case, finite_difference_grad, max_rel_err, run_gradcheck
from mogref.tensor import Parameter, Tensor, backward, op_profile, tsum

SRC = Path(__file__).resolve().parents[1] / "src" / "mogref"


def test_known_derivative_square():
    p = Parameter("x", np.array([3.0]))
    fd = finite_difference_grad(lambda q: float(q.data[0] ** 2), p)
    assert fd[0] == pytest.approx(6.0, abs=1e-6)
    assert p.data[0] == 3.0  # restored in place


def test_constant_function_zero_gradient():
    p = Parameter("x", np.array([1.0, -2.0, 0.5]))
    fd = finite_difference_grad(lambda q: 7.25, p)
    assert (fd == 0.0).all()


def test_accepts_tensor_valued_functions():
    p = Parameter("x", np.array([[1.0, 2.0], [3.0, 4.0]]))
    fd = finite_difference_grad(lambda q: tsum(Tensor(q.data) * Tensor(q.data)), p)
    assert max_rel_err(fd, 2.0 * p.data) < 1e-6


def test_check_case_passes_on_correct_gradient():
    p = Parameter("x", np.array([0.3, -0.7]))
    result = check_case("square_sum", lambda: tsum(p * p), [p])
    assert result.passed
    assert result.worst_rel_err < 1e-6


def test_check_case_flags_sign_flip():
    p = Parameter("x", np.array([0.3, -0.7]))
    result = check_case("square_sum", lambda: tsum(p * p), [p], flip_sign=True)
    assert not result.passed
    assert result.op == "square_sum"


def test_registry_names_cover_every_op_family():
    from mogref.gradcheck_cases import all_cases

    names = {name for name, _ in all_cases(0)}
    for expected in ("matmul", "masked_softmax", "layernorm", "gate_weights",
                     "branch_attention", "mog_forward", "mog_mixture", "giou_pairs",
                     "match_and_loss", "scs_end_to_end", "grounding_loss_batch",
                     "attention_core", "affine"):
        assert expected in names


def recorded_ops() -> set[str]:
    """The profile name of every op the package records, read from its source:
    the first argument of each ``_record(op, ...)`` call."""
    ops = set()
    for path in SRC.glob("*.py"):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_record":
                assert isinstance(call.args[0], ast.Name), ast.dump(call)
                ops.add(call.args[0].id)
    return ops


def test_every_recorded_op_is_profiled_by_some_case():
    from mogref.gradcheck_cases import all_cases

    ops = recorded_ops()
    assert {"matmul", "masked_softmax", "take_rows", "cast", "_attention_core"} <= ops
    profiled = set()
    for _, builder in all_cases(0):
        build_loss, _ = builder()
        with op_profile() as prof:
            backward(build_loss())
        profiled |= set(prof.calls)
    assert sorted(ops - profiled) == []


def test_quick_registry_subset_passes():
    # the full registry is the acceptance suite's job; spot-check here
    results = run_gradcheck(seed=0, only=["masked_softmax", "layernorm", "mog_forward"])
    assert len(results) == 3
    assert all(r.passed for r in results)


def test_fault_injection_names_the_op():
    results = run_gradcheck(seed=0, fault_op="sigmoid", only=["sigmoid", "log"])
    by_name = {r.op: r for r in results}
    assert not by_name["sigmoid"].passed
    assert by_name["log"].passed


@pytest.mark.parametrize("only, fault_op", [(["matmull"], None), (["matmul", "gelu2"], None),
                                            (["matmul"], "matmull"), (None, "matmull")])
def test_unknown_case_names_raise_naming_them(only, fault_op):
    typos = sorted({*(only or ()), fault_op} - {"matmul", None})
    with pytest.raises(ValueError, match=re.escape(repr(typos))):
        run_gradcheck(seed=0, only=only, fault_op=fault_op)
