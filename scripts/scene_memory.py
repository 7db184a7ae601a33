#!/usr/bin/env python3
"""Time and memory of building one synthetic training set.

Builds --scenes synthetic scenes at --image-size with
``build_synthetic_dataset`` (seed 0, the default scene spec) in the dtype
--dtype, the dtype ``mogref train --dtype`` stores them in, and prints one
line: the wall ms per scene, the MiB of the dataset's image array, and the
process's peak RSS (``ru_maxrss``) before and after the build. Run it in a
process of its own, as below, so that the peak belongs to this one set.
The script applies the CLI's allocator settings
(``mogref.allocator.tune_allocator``) first, as ``mogref train`` does.

    PYTHONPATH=src python scripts/scene_memory.py --scenes 4096 --image-size 64
"""

import argparse
import os
import resource
import sys
import time

from mogref.allocator import tune_allocator
from mogref.data import SyntheticSceneSpec, default_vocab
from mogref.model import MODEL_DTYPES
from mogref.train import build_synthetic_dataset


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenes", type=int, default=4096)
    parser.add_argument("--image-size", type=int, default=64)
    parser.add_argument("--dtype", choices=MODEL_DTYPES, default="float32")
    args = parser.parse_args(argv)
    if args.scenes < 1:
        parser.error("--scenes must be positive")
    tune_allocator()
    spec = SyntheticSceneSpec(image_size=args.image_size)
    vocab = default_vocab()
    before = peak_rss_mb()
    start = time.perf_counter()
    dataset = build_synthetic_dataset(args.scenes, spec, vocab, 0, args.dtype)
    ms_per_scene = (time.perf_counter() - start) * 1e3 / args.scenes
    print(f"scenes={args.scenes} image_size={args.image_size} dtype={args.dtype}: "
          f"{ms_per_scene:.3f} ms/scene, images {dataset.images.nbytes / 2**20:.1f} MiB, "
          f"peak RSS {before:.1f} MB before the build, {peak_rss_mb():.1f} MB after")
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
