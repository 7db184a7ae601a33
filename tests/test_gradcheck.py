import ast
import re
from pathlib import Path

import numpy as np
import pytest

from mogref.gradcheck import check_case, finite_difference_grad, max_rel_err, run_gradcheck
from mogref.tensor import Parameter, Tensor, _record, backward, op_profile, tsum

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
    assert result.flipped_rel_err == pytest.approx(2.0)


def test_check_case_fails_on_an_op_whose_partial_has_the_wrong_sign():
    def cube(a):  # d(a^3)/da is 3a^2; the partial negates it
        return _record(cube, a.data ** 3, [a], [lambda g: -3.0 * a.data ** 2 * g])

    p = Parameter("x", np.array([0.3, -0.7]))
    result = check_case("wrong_sign_cube", lambda: tsum(cube(p)), [p])
    assert not result.passed
    assert result.op == "wrong_sign_cube"
    assert result.worst_rel_err == pytest.approx(2.0)
    assert result.flipped_rel_err < 1e-6


def test_check_case_fails_on_an_exactly_zero_gradient():
    # the gradient of p - p and its sign flip are both exactly zero, so the
    # case cannot tell a sign error from the right gradient
    p = Parameter("x", np.array([0.3, -0.7]))
    result = check_case("zero", lambda: tsum(p - p), [p])
    assert result.worst_rel_err == 0.0
    assert result.flipped_rel_err == 0.0
    assert not result.passed


@pytest.mark.parametrize("nan_in", ["both_errors", "flipped_error"])
@pytest.mark.parametrize("nan_first", [True, False])
def test_check_case_fails_on_a_nan_gradient(monkeypatch, nan_first, nan_in):
    # a NaN error fails every comparison, so a finite error checked before or
    # after it must not hide it
    from mogref import gradcheck

    bad = Parameter("bad", np.array([0.5]))
    good = Parameter("good", np.array([0.3, -0.7]))
    if nan_in == "both_errors":
        def fd_nan_for_bad(f, param, h):
            return np.full_like(param.data, np.nan) if param is bad else finite_difference_grad(f, param, h)

        monkeypatch.setattr(gradcheck, "finite_difference_grad", fd_nan_for_bad)
    else:
        def err_nan_for_bads_flip(analytic, reference):
            flip_of_bad = analytic.shape == bad.shape and (analytic == -bad.grad).all()
            return np.nan if flip_of_bad else max_rel_err(analytic, reference)

        monkeypatch.setattr(gradcheck, "max_rel_err", err_nan_for_bads_flip)
    params = [bad, good] if nan_first else [good, bad]
    result = check_case("nan_sum", lambda: tsum(bad * bad) + tsum(good * good), params)
    assert np.isnan(result.worst_rel_err) == (nan_in == "both_errors")
    assert np.isnan(result.flipped_rel_err)
    assert result.worst_param == "bad"
    assert not result.passed


def test_registry_names_cover_every_op_family():
    from mogref.gradcheck_cases import all_cases

    names = {name for name, _ in all_cases(0)}
    for expected in ("matmul", "masked_softmax", "layernorm", "gate_weights",
                     "branch_attention", "mog_forward", "giou_pairs",
                     "match_and_loss", "scs_end_to_end", "grounding_loss_batch",
                     "attention_core", "affine"):
        assert expected in names


def test_a_case_draws_its_inputs_from_its_name_not_its_position(monkeypatch):
    # reversing the registry and dropping a case reseeds no other case
    from mogref import gradcheck_cases

    def inputs():
        return {name: [p.data.copy() for p in builder()[1]]
                for name, builder in gradcheck_cases.all_cases(3)}

    before = inputs()
    assert len(before) == len(gradcheck_cases._CASES)  # no two cases share a name
    monkeypatch.setattr(gradcheck_cases, "_CASES", gradcheck_cases._CASES[:0:-1])
    after = inputs()
    assert len(after) == len(before) - 1
    for name, arrays in after.items():
        assert len(arrays) == len(before[name])
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before[name])), name


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


def test_a_failing_case_is_named_and_the_rest_still_pass(monkeypatch):
    # each case gets its own verdict: one that cannot catch a sign flip does
    # not fail, or hide, the registry cases run beside it
    from mogref import gradcheck_cases

    zero = gradcheck_cases._case(lambda a: a - a, ("a", (3,)), proj=(3,))
    monkeypatch.setattr(gradcheck_cases, "_CASES", [*gradcheck_cases._CASES, ("zero", zero)])
    results = run_gradcheck(seed=0, only=["sigmoid", "zero", "log"])
    assert {r.op: r.passed for r in results} == {"sigmoid": True, "zero": False, "log": True}


@pytest.mark.parametrize("only", [["matmull"], ["matmul", "gelu2"], []])
def test_unknown_case_names_raise_naming_them(monkeypatch, only):
    # an empty only names no case at all, and would check nothing and pass
    from mogref import gradcheck

    monkeypatch.setattr(gradcheck, "check_case", lambda *a, **k: pytest.fail("a case ran"))
    typos = sorted(set(only) - {"matmul"})
    with pytest.raises(ValueError, match=re.escape(repr(typos)) if typos else "names no gradcheck case"):
        run_gradcheck(seed=0, only=only)
