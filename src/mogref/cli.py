"""Operator CLI: gradcheck, toy training, evaluation, granularity sweep, stats.

Every command is deterministic given its flags (seed included) and writes
machine-readable artifacts (JSON always, CSV for tables) that embed the
resolved run configuration and a schema version. The default output
directory comes from ``--out-dir`` or the ``MOGREF_OUT_DIR`` environment
variable, falling back to ``./runs``.

Exit codes: 0 success, 2 validation/schema problems, 3 numerical failures
(divergence, gradient-check breaches), 4 I/O problems.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from mogref.allocator import tune_allocator
from mogref.data import (
    GenerationError,
    SyntheticSceneSpec,
    ValidationError,
    annotations_path,
    atomic_open,
    default_vocab,
    load_annotations,
    require_count,
    save_annotations,
    write_ppm,
)
from mogref.gradcheck import run_gradcheck
from mogref.metrics import STAT_DEFINITIONS, dataset_stats
from mogref.model import MODEL_DTYPES, ModelConfig, SCSModel
from mogref.rng import RngState
from mogref.train import (
    DivergenceError,
    TrainConfig,
    build_synthetic_dataset,
    evaluate_model,
    load_dataset_dir,
    train_toy,
)

ARTIFACT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Full-scale reference results for the granularity sweep (per-branch count ->
# P@0.5..P@0.8, mP). Informational context only; desk-scale runs are not
# expected to reproduce them and nothing asserts against them.
FULL_SCALE_SWEEP_REFERENCE = {
    1: {"P@0.5": 25.52, "P@0.6": 20.96, "P@0.7": 13.45, "P@0.8": 5.17, "mP": 16.27},
    2: {"P@0.5": 26.07, "P@0.6": 21.23, "P@0.7": 14.32, "P@0.8": 5.65, "mP": 16.81},
    3: {"P@0.5": 27.51, "P@0.6": 22.13, "P@0.7": 14.75, "P@0.8": 6.12, "mP": 17.62},
    4: {"P@0.5": 28.15, "P@0.6": 23.37, "P@0.7": 15.23, "P@0.8": 6.41, "mP": 18.29},
    5: {"P@0.5": 28.05, "P@0.6": 23.17, "P@0.7": 15.01, "P@0.8": 6.15, "mP": 18.09},
    6: {"P@0.5": 27.82, "P@0.6": 22.23, "P@0.7": 14.67, "P@0.8": 5.93, "mP": 17.66},
}


def _artifact(args, name: str) -> Path:
    """The path of artifact ``name``, its directory made now: a run refused
    before it writes anything leaves no ``--out-dir`` behind."""
    path = Path(args.out_dir or os.environ.get("MOGREF_OUT_DIR", "runs")) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _run_config(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(cfg.items())}


def _write_json(args, name: str, payload: dict) -> None:
    doc = {"schema_version": ARTIFACT_SCHEMA_VERSION, "run_config": _run_config(args)}
    doc.update(payload)
    path = _artifact(args, name)
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def _write_csv(args, name: str, header: list[str], rows: list[list[str]],
               comments: tuple[str, ...] = ()) -> None:
    lines = [f"# schema_version: {ARTIFACT_SCHEMA_VERSION}",
             f"# run_config: {json.dumps(_run_config(args), sort_keys=True)}"]
    lines += [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines += [",".join(row) for row in rows]
    path = _artifact(args, name)
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")


def _blas_env() -> dict:
    """Thread settings that BLAS reductions, hence the loss log's last bits, depend on."""
    env = {name: os.environ.get(name)
           for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {**env, "cpu_count": os.cpu_count()}


def _parse_dilations(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ValidationError(f"bad --dilations value {text!r}") from exc


# every ModelConfig field but these two is a flag of the field's type and
# default (--dtype a choice of MODEL_DTYPES); the vocabulary fixes vocab_size
# and --dilations is a comma-separated string
_MODEL_FLAGS = [f.name for f in fields(ModelConfig) if f.name not in ("dilations", "vocab_size")]


def _model_config(args, vocab_size: int, dilations: tuple[int, ...]) -> ModelConfig:
    return ModelConfig(vocab_size=vocab_size, dilations=dilations,
                       **{name: getattr(args, name) for name in _MODEL_FLAGS})


def _add_model_flags(p: argparse.ArgumentParser, dilations: bool = True) -> None:
    for f in fields(ModelConfig):
        if f.name in _MODEL_FLAGS:
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default,
                           choices=MODEL_DTYPES if f.name == "dtype" else None)
        elif f.name == "dilations" and dilations:
            p.add_argument("--dilations", default=",".join(map(str, f.default)),
                           help="comma-separated dilation per granularity branch")


def _add_scene_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenes", type=int, default=16, help="synthetic scenes to build")
    p.add_argument("--distractors", type=int, default=SyntheticSceneSpec.num_distractors)
    p.add_argument("--sizes", default=",".join(SyntheticSceneSpec.size_classes),
                   help="comma-separated size classes for generated objects")
    p.add_argument("--templates", default=",".join(SyntheticSceneSpec.templates))


def _scene_spec(args) -> SyntheticSceneSpec:
    return SyntheticSceneSpec(
        image_size=args.image_size,
        num_distractors=args.distractors,
        size_classes=tuple(s for s in args.sizes.split(",") if s),
        templates=tuple(t for t in args.templates.split(",") if t),
    )


def _load_any_dataset(args, spec: SyntheticSceneSpec | None, vocab, dtype: str):
    """The ``--data`` directory or ``spec``'s synthetic scenes, stored in the model's ``dtype``."""
    if args.data:
        return load_dataset_dir(args.data, vocab, dtype)
    return build_synthetic_dataset(args.scenes, spec, vocab, args.seed, dtype)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    only = [s for s in args.only.split(",") if s] if args.only else None
    results = run_gradcheck(seed=args.seed, fault_op=args.fault_inject, only=only)
    all_passed = all(r.passed for r in results)
    for r in results:
        flag = "ok  " if r.passed else "FAIL"
        print(f"{flag} {r.op:28s} worst_rel_err={r.worst_rel_err:.3e} "
              f"(tol {r.tolerance:g}, param {r.worst_param})")
    _write_json(args, "gradcheck.json",
                {"results": [r.to_json() for r in results], "all_passed": all_passed})
    if not all_passed:
        failed = [r.op for r in results if not r.passed]
        print(f"gradient check FAILED for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_make_data(args) -> int:
    spec = _scene_spec(args)
    # float64, the rendered values themselves: the PPMs quantize those
    dataset = build_synthetic_dataset(args.scenes, spec, default_vocab(), args.seed, dtype="float64")
    ann = _artifact(args, "annotations.json")
    save_annotations(ann, dataset.records)
    print(f"wrote {ann} ({len(dataset)} records)")
    if args.ppm:
        for record, image in zip(dataset.records, dataset.images):
            ppm = _artifact(args, f"images/{record.image_id}.ppm")
            write_ppm(ppm, image)
        print(f"wrote {len(dataset)} rasters under {ppm.parent}")
    _write_json(args, "make_data.json", {"scenes": len(dataset)})
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = TrainConfig(
        steps=args.steps,
        lr=args.lr,
        batch_size=args.batch_size,
        eval_every=args.eval_every,
        target_train_p50=None if args.target_p50 <= 0 else args.target_p50,
    )
    vocab = default_vocab()
    config = _model_config(args, len(vocab), _parse_dilations(args.dilations))
    spec = None if args.data else _scene_spec(args)
    allocator_tuned = tune_allocator()
    dataset = _load_any_dataset(args, spec, vocab, args.dtype)
    model = SCSModel(config, vocab, RngState(args.seed))
    t0 = time.time()
    result = train_toy(model, dataset, cfg)
    elapsed = time.time() - t0
    ckpt = _artifact(args, "checkpoint.json")
    model.save(ckpt)
    rows = [[str(row["step"]), repr(row["loss"]),
             "" if row["train_p50"] is None else repr(row["train_p50"])] for row in result.log]
    _write_csv(args, "train_log.csv", ["step", "loss", "train_p50"], rows)
    print(f"wrote {ckpt}")
    _write_json(args, "train_summary.json", {
        "steps_run": result.steps_run,
        "fit_step": result.fit_step,
        "final_train_p50": result.final_train_p50,
        "final_loss": result.log[-1]["loss"] if result.log else None,
        "elapsed_seconds": elapsed,
        "checkpoint": str(ckpt),
        "blas_env": _blas_env(),
        "allocator_tuned": allocator_tuned,
    })
    if result.log:
        print(f"trained {result.steps_run} steps in {elapsed:.1f}s; "
              f"final loss {result.log[-1]['loss']:.4f}, "
              f"train P@0.5 {result.final_train_p50}")
    return EXIT_OK


def cmd_eval(args) -> int:
    tune_allocator()
    model = SCSModel.load(args.checkpoint)
    # the only raster size the model accepts; run_config records it
    args.image_size = model.config.image_size
    spec = None if args.data else _scene_spec(args)
    dataset = _load_any_dataset(args, spec, model.vocab, model.config.dtype)
    result = evaluate_model(model, dataset)
    _write_json(args, "eval.json", {"eval": result.to_json()})
    _write_csv(args, "eval.csv", result.csv_header() + ["count"],
               [result.csv_row() + [str(result.count)]])
    cells = " ".join(f"P@{k:g}={v:.4f}" for k, v in result.precisions.items())
    print(f"{cells} mP={result.mp:.4f} over {result.count} samples")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = TrainConfig(steps=args.steps, lr=args.lr, batch_size=args.batch_size,
                      eval_every=0, target_train_p50=None)
    # no row would be trained, or a negative count would score the training scenes
    require_count("--gmax", args.gmax, 1)
    require_count("--eval-scenes", args.eval_scenes, 0)
    vocab = default_vocab()
    # the G = gmax row's config; every other row's dilations are a prefix of its
    _model_config(args, len(vocab), tuple(range(1, args.gmax + 1)))
    spec = _scene_spec(args)
    tune_allocator()
    train_ds = build_synthetic_dataset(args.scenes, spec, vocab, args.seed, args.dtype)
    if args.eval_scenes > 0:
        eval_ds = build_synthetic_dataset(args.eval_scenes, spec, vocab, args.seed + 7919,
                                          args.dtype)
    else:
        # desk-scale models memorize; fit on the training scenes is the
        # informative per-granularity measurement, so it is the default
        eval_ds = train_ds
    rows = []
    table = []
    for g in range(1, args.gmax + 1):
        model = SCSModel(_model_config(args, len(vocab), tuple(range(1, g + 1))),
                         vocab, RngState(args.seed))
        train_toy(model, train_ds, cfg)
        result = evaluate_model(model, eval_ds)
        print(f"granularities={g} " +
              " ".join(f"P@{t:g}={p:.4f}" for t, p in result.precisions.items()) +
              f" mP={result.mp:.4f}")
        rows.append([str(g)] + result.csv_row())
        table.append({"granularity": g, **result.to_json()})
    _write_csv(args, "sweep.csv", ["Granularity"] + result.csv_header(), rows)
    _write_json(args, "sweep.json", {
        "rows": table,
        "full_scale_reference": {str(k): v for k, v in FULL_SCALE_SWEEP_REFERENCE.items()},
        "reference_note": "full-scale reference numbers for context; not asserted at desk scale",
    })
    return EXIT_OK


def cmd_stats(args) -> int:
    records = load_annotations(annotations_path(args.data))
    if not records:
        raise ValidationError(f"{args.data}: no records to summarize")
    stats = dataset_stats(records)
    _write_json(args, "stats.json", {"stats": stats.to_json()})
    header = ["O2S Ratio Mean (%)", "O2S Ratio Std (%)", "Word No. Mean",
              "Word No. Std", "Target No.", "Bbox No.", "Image No."]
    row = [repr(stats.o2s_mean), repr(stats.o2s_std), repr(stats.words_mean),
           repr(stats.words_std), repr(stats.targets_per_image_mean),
           str(stats.bbox_count), str(stats.image_count)]
    _write_csv(args, "stats.csv", header, [row], comments=STAT_DEFINITIONS)
    print(f"o2s {stats.o2s_mean:.3f}% (std {stats.o2s_std:.3f}), "
          f"words {stats.words_mean:.2f} (std {stats.words_std:.2f}), "
          f"{stats.bbox_count} boxes over {stats.image_count} images")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mogref",
        description="mixture-of-granularity referring grounding: train, evaluate, sweep, summarize",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, seed: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default=None,
                       help="default: $MOGREF_OUT_DIR or ./runs; made with the first artifact")
        return p

    p = command("gradcheck", cmd_gradcheck, "finite-difference validation of every gradient")
    p.add_argument("--fault-inject", default=None, metavar="OP",
                   help="sign-flip the analytic gradient of one op (harness self-test)")
    p.add_argument("--only", default=None, metavar="OPS",
                   help="comma-separated case names to restrict the run")

    p = command("make-data", cmd_make_data, "generate a synthetic referring dataset")
    p.add_argument("--image-size", type=int, default=SyntheticSceneSpec.image_size)
    _add_scene_flags(p)
    p.add_argument("--ppm", action="store_true", help="also write images/<id>.ppm rasters")

    p = command("train", cmd_train, "train the toy grounding model")
    p.add_argument("--data", default=None,
                   help="dataset directory (annotations.json + images/); default: synthetic scenes")
    p.add_argument("--steps", type=int, default=TrainConfig.steps)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size, help="0 = full batch")
    p.add_argument("--eval-every", type=int, default=TrainConfig.eval_every)
    p.add_argument("--target-p50", type=float, default=TrainConfig.target_train_p50,
                   help="stop once train P@0.5 reaches this; <=0 disables")
    _add_model_flags(p)
    _add_scene_flags(p)

    p = command("eval", cmd_eval, "evaluate a checkpoint: P@theta table and mP")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None,
                   help="dataset directory; default: synthetic scenes from --seed/--scenes")
    _add_scene_flags(p)

    p = command("sweep", cmd_sweep, "train/evaluate granularity counts 1..G under one budget")
    p.add_argument("--gmax", type=int, default=6)
    p.add_argument("--eval-scenes", type=int, default=0,
                   help="held-out scene count; 0 (default) evaluates the training scenes")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    _add_model_flags(p, dilations=False)  # the sweep sets dilations 1..G per row
    _add_scene_flags(p)

    p = command("stats", cmd_stats, "summarize an annotation file", seed=False)
    p.add_argument("--data", required=True,
                   help="annotation JSON file, or a dataset directory holding annotations.json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GenerationError,
            MemoryError) as exc:  # MemoryError: a size flag past what numpy can allocate
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DivergenceError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
