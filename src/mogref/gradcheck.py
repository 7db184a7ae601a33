"""Central finite-difference oracle for every gradient in the package.

The oracle is deliberately independent of the autodiff engine: it only
nudges parameter entries in place and re-runs a forward closure, with
graph recording off (forward values do not depend on it). All gradient
tests compare ``backward`` against this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from mogref.tensor import Parameter, Tensor, no_grad

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4

# coordinates with |reference| below this are compared absolutely; keeps
# finite-difference noise on near-zero entries from blowing up the ratio
REL_FLOOR = 1e-3


def _scalar(v) -> float:
    if isinstance(v, Tensor):
        return v.item()
    return float(v)


def finite_difference_grad(f: Callable, param: Parameter, h: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference estimate of d f / d param, one coordinate at a time.

    ``f`` is called as ``f(param)`` after each in-place tweak of
    ``param.data`` and must recompute its scalar output from scratch.
    """
    flat = param.data.reshape(-1)
    out = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = _scalar(f(param))
            flat[i] = orig - h
            lo = _scalar(f(param))
            flat[i] = orig
            out[i] = (hi - lo) / (2.0 * h)
    return out.reshape(param.data.shape)


def max_rel_err(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Worst elementwise relative error, floored at REL_FLOOR magnitude."""
    denom = np.maximum(np.abs(reference), REL_FLOOR)
    return float(np.max(np.abs(analytic - reference) / denom)) if analytic.size else 0.0


@dataclass
class GradCheckResult:
    op: str
    worst_rel_err: float
    tolerance: float
    passed: bool
    worst_param: str

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "worst_rel_err": self.worst_rel_err,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "worst_param": self.worst_param,
        }


def check_case(
    name: str,
    build_loss: Callable[[], Tensor],
    params: list[Parameter],
    h: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
    flip_sign: bool = False,
) -> GradCheckResult:
    """Compare ``backward`` grads of ``build_loss()`` against the oracle.

    ``flip_sign`` deliberately negates the analytic gradient; used to prove
    the harness actually catches wrong derivatives.
    """
    from mogref.tensor import backward, zero_grads

    zero_grads(params)
    loss = build_loss()
    backward(loss)
    worst = 0.0
    worst_param = params[0].name if params else ""
    for p in params:
        analytic = (-p.grad if flip_sign else p.grad).copy()
        fd = finite_difference_grad(lambda _p: build_loss(), p, h=h)
        err = max_rel_err(analytic, fd)
        if err >= worst:
            worst = err
            worst_param = p.name
    return GradCheckResult(name, worst, tol, worst <= tol, worst_param)


def run_gradcheck(seed: int = 0, h: float = DEFAULT_STEP, tol: float = DEFAULT_TOL,
                  fault_op: str | None = None,
                  only: list[str] | None = None) -> list[GradCheckResult]:
    """Finite-difference validation of every differentiable op at toy dims.

    Returns one result per named case; ``fault_op`` sign-flips that case's
    analytic gradient so the failure path can be exercised deliberately.
    ``only`` restricts the run to the named cases. A name in ``only`` or
    ``fault_op`` that is no case raises ``ValueError`` before any case runs,
    so a typo can neither check nothing nor flip nothing and pass.
    """
    from mogref import gradcheck_cases

    cases = list(gradcheck_cases.all_cases(seed))
    known = {name for name, _ in cases}
    unknown = sorted({*(only or ()), *([fault_op] if fault_op is not None else ())} - known)
    if unknown:
        raise ValueError(f"unknown gradcheck case names {unknown}; the cases are {sorted(known)}")
    results = []
    for name, builder in cases:
        if only is not None and name not in only:
            continue
        build_loss, params = builder()
        results.append(check_case(name, build_loss, params, h=h, tol=tol,
                                   flip_sign=(name == fault_op)))
    return results
