"""Spans around calls into mogref's public functions, recorded from outside.

``Tracer.install`` swaps each boundary listed in ``boundaries`` for a wrapper
that records (name, start, end, parent, root) and calls the original;
``uninstall`` puts the originals back, so an untraced step runs the
unmodified program. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict


def boundaries(mg) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped call.

    ``mog_forward`` is wrapped as bound in ``mogref.model``, where the
    encoder and coarse decoder look it up; ``hungarian`` as bound in
    ``mogref.matching``, where the loss looks it up.
    """
    return [
        (mg.model.SCSModel, "project_tokens", "model.projector"),
        (mg.model.SCSModel, "sce_forward", "model.sce"),
        (mg.model.SCSModel, "fuse_hierarchy", "model.fuse"),
        (mg.model.SCSModel, "scd_forward", "model.scd"),
        (mg.model.SCSModel, "ssd_forward", "model.ssd"),
        (mg.model.RegressionHead, "__call__", "model.head"),
        (mg.model, "mog_forward", "mog.forward"),
        (mg.matching, "grounding_loss", "matching.loss"),
        (mg.matching, "hungarian", "matching.hungarian"),
        (mg.tensor, "backward", "tensor.backward"),
        (mg.train.Adam, "step", "train.optim"),
    ]


class Tracer:
    def __init__(self, mg) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._root = -1
        self._patches = []
        for owner, attr, name in boundaries(mg):
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, self._wrap(name, original)))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children can name their parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._root)

        return traced

    def install(self, root: int) -> None:
        """Wrap every boundary; spans recorded until ``uninstall`` belong to ``root``."""
        self._root = root
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._root = -1

    def per_root_ms(self) -> tuple[dict, dict]:
        """Per root, total and self milliseconds by span name.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_s = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        total = defaultdict(lambda: defaultdict(float))
        own = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, root) in enumerate(self.spans):
            total[root][name] += (end - start) * 1e3
            own[root][name] += (end - start - child_s[index]) * 1e3
        return total, own

    @staticmethod
    def median_by_name(per_root: dict, roots) -> dict[str, float]:
        """Median over ``roots`` of each name's per-root milliseconds (0 where absent)."""
        names = sorted({name for root in roots for name in per_root[root]})
        return {name: statistics.median(per_root[root].get(name, 0.0) for root in roots)
                for name in names}
