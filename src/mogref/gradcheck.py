"""Central finite-difference oracle for every gradient in the package.

The oracle is deliberately independent of the autodiff engine: it only
nudges parameter entries in place and re-runs a forward closure, with
graph recording off (forward values do not depend on it). All gradient
tests compare ``backward`` against this.

A case passes when its gradient is within ``tol`` of the central
differences and its sign flip is not, so every run also proves that each
case would catch a gradient of the wrong sign; an exactly zero gradient
cannot, and fails.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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
    flipped_rel_err: float

    def to_json(self) -> dict:
        return asdict(self)


def check_case(
    name: str,
    build_loss: Callable[[], Tensor],
    params: list[Parameter],
    h: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
) -> GradCheckResult:
    """Compare ``backward`` grads of ``build_loss()``, and their sign flips, against the oracle."""
    from mogref.tensor import backward, zero_grads

    zero_grads(params)
    backward(build_loss())
    worst = flipped = 0.0
    worst_param = params[0].name if params else ""
    for p in params:
        fd = finite_difference_grad(lambda _p: build_loss(), p, h=h)
        err, flipped_err = max_rel_err(p.grad, fd), max_rel_err(-p.grad, fd)
        # a NaN error fails every comparison; the first one names its
        # parameter and stays the worst
        if not np.isnan(worst + flipped) and (err >= worst or np.isnan(err + flipped_err)):
            worst_param = p.name
        worst, flipped = float(np.maximum(worst, err)), float(np.maximum(flipped, flipped_err))
    return GradCheckResult(name, worst, tol, worst <= tol < flipped, worst_param, flipped)


def run_gradcheck(seed: int = 0, h: float = DEFAULT_STEP, tol: float = DEFAULT_TOL,
                  only: list[str] | None = None) -> list[GradCheckResult]:
    """Finite-difference validation of every differentiable op at toy dims.

    Returns one result per named case. ``only`` restricts the run to the
    named cases. An empty ``only`` or a name in it that is no case raises
    ``ValueError`` before any case runs, so a run cannot check nothing and
    pass.
    """
    from mogref import gradcheck_cases

    cases = list(gradcheck_cases.all_cases(seed))
    known = {name for name, _ in cases}
    if only is not None and not only:
        raise ValueError(f"only names no gradcheck case; the cases are {sorted(known)}")
    unknown = sorted(set(only or ()) - known)
    if unknown:
        raise ValueError(f"unknown gradcheck case names {unknown}; the cases are {sorted(known)}")
    return [check_case(name, *builder(), h=h, tol=tol)
            for name, builder in cases if only is None or name in only]
