#!/usr/bin/env python3
"""Per-op backward profile of default training steps.

Builds the default model at --image-size (seed 0), runs ``train_toy`` on
--batch synthetic scenes for --steps full-batch steps (after one untimed
``train_toy`` step that fills the residue-class and position caches),
and prints the backward wall time and call count of every autodiff op per
step, largest first. So the profile covers what ``mogref train`` runs,
with its one Adam parameter group over the whole arena and its divergence
checks. The op name is the function that recorded the node (``affine``,
``_attention``, ...).

The header line gives, per step, the wall ms beside the minor page faults
and the system-CPU ms of the process (``resource.getrusage``): a step that
returns its buffers to the OS and maps them again pays for it there, and
that cost lands in whichever op happens to touch the fresh pages. The
fault count depends on the heap layout as well as on the code: glibc's
dynamic mmap and trim thresholds turn small differences in early
allocations (one more environment variable, output to a pipe or to a
file) into different steady-state counts, so single runs cannot be
compared on it; compare several runs of each tree. It also
gives the process's peak RSS (``ru_maxrss``) at the end of the run and the
bytes the attention node's reused scratch buffers (``mog._SCRATCH``) hold
then, and the wall ms per step of the optimizer update (``Adam.step``,
timed from this script). Last, it gives the memory of one recorded step's
graph: after the timed steps, one more forward, loss and backward run under
``tracemalloc``, and the header prints the traced bytes still live once the
loss is formed (node outputs, closures and whatever they keep), the
traced peak through backward and the traced bytes still held after
backward, while the loss is kept (``backward`` releases each node as it
walks it), all above what was live before the forward. Beside the first it
prints that graph's KB per token row, the batch times the tokens per scene
(visual tokens and words), which is how a step's graph grows with its
tokens.
The script applies the CLI's allocator settings
(``mogref.allocator.tune_allocator``) first, as ``mogref train`` does.

    PYTHONPATH=src python scripts/op_profile.py --image-size 128 --batch 2 --steps 10
"""

import argparse
import os
import resource
import sys
import time
import tracemalloc
from dataclasses import replace

from mogref.allocator import tune_allocator
from mogref.data import SyntheticSceneSpec, default_vocab
from mogref.matching import grounding_loss
from mogref.mog import _SCRATCH
from mogref.model import ModelConfig, SCSModel
from mogref.rng import RngState
from mogref.tensor import OpProfile, backward, op_profile
from mogref.train import Adam, GroundingDataset, TrainConfig, build_synthetic_dataset, train_toy


def traced_graph_mb(model: SCSModel, dataset: GroundingDataset) -> tuple[float, float, float]:
    """MB a full-batch step's graph keeps once its loss is formed, the peak
    MB through backward, and the MB still held after backward.

    All are ``tracemalloc`` bytes above what was live before the forward.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pred = model.forward(dataset.images, dataset.token_ids)
        loss = grounding_loss(pred.boxes, pred.confidence, dataset.targets)[0]
        live = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(loss)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return live / 2**20, peak / 2**20, held / 2**20


def profile_steps(image_size: int, batch: int,
                  steps: int) -> tuple[OpProfile, float, float, float, float, float, int, float, float, float]:
    """Per-op backward profile summed over ``steps`` steps, their mean wall
    ms, minor page faults, system-CPU ms and ``Adam.step`` ms per step, the
    peak RSS in MB, the step's token rows (batch times tokens per scene),
    and the traced graph MB of one more step (:func:`traced_graph_mb`)."""
    vocab = default_vocab()
    dataset = build_synthetic_dataset(batch, SyntheticSceneSpec(image_size=image_size), vocab, 0)
    model = SCSModel(ModelConfig(image_size=image_size, vocab_size=len(vocab)), vocab, RngState(0))
    cfg = TrainConfig(steps=1, batch_size=batch, eval_every=0, target_train_p50=None)
    train_toy(model, dataset, cfg)
    untimed_step = Adam.step
    optimizer_s = []

    def timed_step(opt):
        start = time.perf_counter()
        untimed_step(opt)
        optimizer_s.append(time.perf_counter() - start)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    Adam.step = timed_step
    try:
        with op_profile() as prof:
            train_toy(model, dataset, replace(cfg, steps=steps))
    finally:
        Adam.step = untimed_step
    wall_ms = (time.perf_counter() - start) * 1e3 / steps
    after = resource.getrusage(resource.RUSAGE_SELF)
    faults = (after.ru_minflt - usage.ru_minflt) / steps
    sys_ms = (after.ru_stime - usage.ru_stime) * 1e3 / steps
    optimizer_ms = sum(optimizer_s) * 1e3 / steps
    traced = traced_graph_mb(model, dataset)
    token_rows = batch * (model.config.num_visual_tokens + dataset.token_ids.shape[1])
    return (prof, wall_ms, faults, sys_ms, optimizer_ms,
            after.ru_maxrss / 1024, token_rows, *traced)  # Linux reports KiB


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--image-size", type=int, default=64)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--steps", type=int, default=10)
    args = parser.parse_args(argv)
    if args.steps < 1 or args.batch < 1:
        parser.error("--steps and --batch must be positive")
    tune_allocator()
    (prof, step_ms, faults, sys_ms, optimizer_ms, peak_mb, token_rows,
     graph_mb, backward_peak_mb, held_mb) = profile_steps(args.image_size, args.batch, args.steps)
    total = sum(prof.ms.values())
    print(f"# image_size={args.image_size} batch={args.batch} steps={args.steps}: "
          f"{step_ms:.1f} ms/step ({faults:.0f} minor faults, {sys_ms:.1f} ms system CPU), "
          f"peak RSS {peak_mb:.1f} MB, "
          f"attention scratch {sum(b.nbytes for b in _SCRATCH.buffers) / 2**20:.2f} MB, "
          f"optimizer {optimizer_ms:.2f} ms/step, "
          f"backward ops {total / args.steps:.1f} ms/step, "
          f"traced graph {graph_mb:.2f} MB after forward and loss "
          f"({graph_mb * 2**10 / token_rows:.2f} KB per token row of {token_rows}), "
          f"{backward_peak_mb:.2f} MB peak through backward, "
          f"{held_mb:.2f} MB held after backward")
    print(f"{'op':<28} {'calls/step':>10} {'ms/step':>9} {'share':>6}")
    for name in sorted(prof.ms, key=prof.ms.get, reverse=True):
        print(f"{name:<28} {prof.calls[name] / args.steps:>10g} "
              f"{prof.ms[name] / args.steps:>9.3f} {prof.ms[name] / total:>6.1%}")
    return 0


if __name__ == "__main__":
    try:
        code = run()
        sys.stdout.flush()  # a reader that left raises here, inside the try
    except BrokenPipeError:
        # send what is still buffered to devnull, so the flush at exit does
        # not raise again, and exit without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
