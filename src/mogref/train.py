"""Toy training loop: Adam over the set-matching loss on synthetic scenes.

Deterministic end to end: scene generation, initialization, batching order,
and the optimizer all run off explicit seeds, so the same configuration
reproduces the same loss log bit for bit (at the same dtype and BLAS
thread count). Divergence (a non-finite prediction, loss or gradient)
aborts with the offending step, and parameter, rather than logging garbage
or carrying it into the weights; an evaluation of diverged weights aborts
naming the samples whose prediction is not finite.

:class:`Adam` works on the model's whole parameter arena, with one flat
``m`` and ``v``, updated block by block in a small kept scratch, and the
gradient check is one ``isfinite`` over the arena's gradient buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from mogref.data import (
    AnnotationRecord,
    SyntheticSceneSpec,
    ValidationError,
    Vocab,
    annotations_path,
    generate_scene,
    is_finite_number,
    load_annotations,
    read_ppm,
    require_count,
    tokenize,
)
from mogref.matching import BBox, box_overlaps, box_rows, grounding_loss
from mogref.metrics import DEFAULT_THRESHOLDS, EvalResult, check_thetas, score_ious
from mogref.model import MODEL_DTYPES, Prediction, SCSModel
from mogref.rng import RngState
from mogref.tensor import Parameter, backward, no_grad


class DivergenceError(RuntimeError):
    """A non-finite prediction (in training or evaluation), loss or gradient."""


def _require_finite(pred: Prediction, samples: Sequence[int], when: str) -> None:
    """Raise :class:`DivergenceError` naming each of ``samples`` (the
    dataset indices of ``pred``'s rows) whose boxes or confidence are not finite.

    Matching needs finite costs and :class:`BBox` finite coordinates; a
    float32 forward overflows before the loss does.
    """
    finite = np.isfinite(pred.boxes.data).all(axis=(1, 2))
    finite &= np.isfinite(pred.confidence.data).all(axis=1)
    if not finite.all():
        bad = [samples[i] for i in np.flatnonzero(~finite)]
        raise DivergenceError(f"non-finite prediction {when} for samples {bad}")


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass
class GroundingDataset:
    """Batched rasters, padded token ids, and normalized target boxes."""

    images: np.ndarray  # (B, S, S, 3), in the dtype the model computes in
    token_ids: np.ndarray  # (B, L)
    targets: list[list[BBox]]
    records: list[AnnotationRecord]

    def __len__(self) -> int:
        return self.images.shape[0]


def _pad_ids(token_lists: Sequence[Sequence[int]], pad_id: int) -> np.ndarray:
    width = max((len(t) for t in token_lists), default=0)
    return np.array([list(t) + [pad_id] * (width - len(t)) for t in token_lists],
                    dtype=np.intp)


def _targets_of(record: AnnotationRecord) -> list[BBox]:
    return [BBox.from_pixel(*b, record.image_w, record.image_h)
            for b in record.target_boxes]


def _scene_dtype(dtype: str) -> str:
    if dtype not in MODEL_DTYPES:
        raise ValidationError(f"scene dtype must be one of {MODEL_DTYPES}, got {dtype!r}")
    return dtype


def _image_array(num: int, height: int, width: int, dtype: str) -> np.ndarray:
    """The uninitialized (num, H, W, 3) array a dataset's scenes are written into."""
    return np.empty((num, height, width, 3), dtype=_scene_dtype(dtype))


def _assemble(images: np.ndarray, records: list[AnnotationRecord],
              vocab: Vocab) -> GroundingDataset:
    ids = _pad_ids([tokenize(r.expression, vocab) for r in records], vocab.pad_id)
    return GroundingDataset(images, ids, [_targets_of(r) for r in records], records)


def build_synthetic_dataset(num_scenes: int, spec: SyntheticSceneSpec, vocab: Vocab,
                            seed: int, dtype: str = "float32") -> GroundingDataset:
    """Generate ``num_scenes`` referring scenes from per-index substreams.

    Each scene is rendered in float64 and rounded once to ``dtype`` as it is
    written into the dataset's one preallocated image array, so the images
    take ``dtype``'s bytes and no more. The default is the model's default
    compute dtype; ``"float64"`` keeps the rendered values exactly.
    """
    require_count("num_scenes", num_scenes, 1)
    root = RngState(seed)
    images = _image_array(num_scenes, spec.image_size, spec.image_size, dtype)
    records = []
    for i in range(num_scenes):
        scene = generate_scene(spec, root.derive(i), image_id=f"scene-{i:05d}")
        images[i] = scene.image
        records.append(scene.record)
    return _assemble(images, records, vocab)


def load_dataset_dir(path, vocab: Vocab, dtype: str = "float32") -> GroundingDataset:
    """Load ``annotations.json`` plus ``images/<image_id>.ppm`` from a directory.

    Each raster is read as float64 in [0, 1] and rounded once to ``dtype``
    as it is written into the dataset's one preallocated image array.
    """
    _scene_dtype(dtype)
    ann = annotations_path(path)
    records = load_annotations(ann)
    if not records:
        raise ValidationError(f"{ann}: no records")
    width, height = records[0].image_w, records[0].image_h
    for i, rec in enumerate(records):
        if (rec.image_w, rec.image_h) != (width, height):
            raise ValidationError(f"{ann}: records[{i}] is {rec.image_w}x{rec.image_h}, records[0] "
                                  f"{width}x{height}; a dataset has one resolution")
    images_dir = ann.parent / "images"
    images = None
    for i, rec in enumerate(records):
        # an id is one plain file name, so no record reads outside images/
        if rec.image_id in ("", ".", "..") or Path(rec.image_id).name != rec.image_id:
            raise ValidationError(f"records[{i}]: image_id {rec.image_id!r} is not a plain file name")
        img_path = images_dir / f"{rec.image_id}.ppm"
        if not img_path.exists():
            raise FileNotFoundError(f"missing raster {img_path}")
        image = read_ppm(img_path)
        if image.shape[:2] != (rec.image_h, rec.image_w):
            raise ValidationError(
                f"{img_path}: raster is {image.shape[1]}x{image.shape[0]}, "
                f"record says {rec.image_w}x{rec.image_h}"
            )
        if images is None:  # the claimed resolution has met real pixels first
            images = _image_array(len(records), height, width, dtype)
        images[i] = image
    return _assemble(images, records, vocab)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class ParamGroup:
    params: list[Parameter]
    lr: float


# Adam's moment decay rates and denominator offset (Kingma & Ba, 2014)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# Elements one pass of an Adam step covers: the update runs block by block
# through a kept (2, _ADAM_BLOCK) scratch, 128 KB in float32, instead of two
# arena-sized temporaries per step. On a 2-core host with 2 MB of L2 per
# core, a step over the default model's 184531 parameters took 0.72-0.82 ms
# in float32 and 1.6-1.7 ms in float64 (0.71-0.86 and 3.5-3.7 ms with the
# whole-arena temporaries); 8K blocks ran slower in both dtypes, 64K slower
# in float64.
_ADAM_BLOCK = 1 << 14


class Adam:
    """Standard Adam over every parameter of one arena at one learning rate.

    The groups must hold each parameter of one :class:`~mogref.tensor.Arena`
    exactly once, in any order, at one learning rate (``ValueError``
    otherwise). The state is one flat ``m`` and ``v``, slot for slot with
    the arena's buffers (the parameters' ``data.base`` and ``grad.base``),
    and one step count ``t``. A step runs through the arena in blocks of
    ``_ADAM_BLOCK`` elements, one pass per operation, in a
    ``(2, _ADAM_BLOCK)`` scratch the optimizer keeps, so it allocates
    nothing of the arena's size; :meth:`zero_grad` is one fill. Every
    operation is elementwise with one bias correction per step, so neither
    the blocks nor the grouping changes a bit of the update. A parameter
    whose ``data`` or ``grad`` was rebound after construction would no
    longer be updated, so :meth:`step` raises ``RuntimeError`` instead.
    """

    def __init__(self, groups: list[ParamGroup]):
        lrs = sorted({group.lr for group in groups})
        if len(lrs) != 1:
            raise ValueError(f"Adam groups must share one lr, got {lrs}")
        self.lr = lrs[0]
        params = [p for group in groups for p in group.params]
        data, self._grad = (params[0].data.base, params[0].grad.base) if params else (None, None)
        for p in params:
            if data is None or self._grad is None or p.data.base is not data or p.grad.base is not self._grad:
                raise ValueError(f"parameter {p.name} is not a view of the arena's buffers: "
                                 "never packed, rebound after packing, or packed in another arena")
        size = sum(p.size for p in params)
        if data is None or size != data.size or len({id(p) for p in params}) != len(params):
            raise ValueError("Adam's groups must hold every parameter of one arena exactly once")
        self.m, self.v = np.zeros_like(data), np.zeros_like(data)
        self.t = 0
        scratch = np.empty((2, _ADAM_BLOCK), dtype=data.dtype)
        # per block: its views of values, gradients, m and v, and the two
        # scratch rows cut to its length; views cost no array memory
        self._blocks = []
        for lo in range(0, data.size, _ADAM_BLOCK):
            views = [a[lo:lo + _ADAM_BLOCK] for a in (data, self._grad, self.m, self.v)]
            self._blocks.append((*views, *scratch[:, :views[0].size]))
        self._views = [(p, p.data, p.grad) for p in params]

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

    def step(self) -> None:
        """One update, in place: ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``."""
        rebound = [p.name for p, data, grad in self._views if p.data is not data or p.grad is not grad]
        if rebound:
            raise RuntimeError(f"parameters rebound after the optimizer was built: {rebound}")
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        for data, g, m, v, num, den in self._blocks:
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=num)
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=den)
            den *= g
            v += den
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += EPS
            np.divide(m, c1, out=num)
            num *= self.lr
            num /= den
            data -= num


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


# Token rows one eval forward may hold: 16 scenes of 64 patches and 10 words.
# Activations grow with rows, so larger rasters run fewer scenes at a time.
# A fixed 16-scene chunk raised the 128-px benchmark's peak RSS from 57.2 to
# 63.8 MB (+11.7%) with eval throughput within noise.
EVAL_TOKEN_ROWS = 16 * 74


def eval_chunk(tokens_per_scene: int) -> int:
    """Scenes per eval forward: as many as fit ``EVAL_TOKEN_ROWS``, 1 to 16."""
    return max(1, min(16, EVAL_TOKEN_ROWS // tokens_per_scene))


def predict_best_boxes(model: SCSModel, dataset: GroundingDataset) -> np.ndarray:
    """The (N, 4) float64 highest-confidence box of every sample, clipped to [0, 1].

    Runs the no-grad forwards in chunks of :func:`eval_chunk` scenes. A
    non-finite prediction (weights that diverged) raises
    :class:`DivergenceError` naming the samples.
    """
    chunk = eval_chunk(model.config.num_visual_tokens + dataset.token_ids.shape[1])
    out = np.empty((len(dataset), 4))
    for lo in range(0, len(dataset), chunk):
        with no_grad():
            pred = model.forward(dataset.images[lo:lo + chunk], dataset.token_ids[lo:lo + chunk])
        _require_finite(pred, range(lo, lo + chunk), "in evaluation")
        best = np.argmax(pred.confidence.data, axis=1)
        out[lo:lo + chunk] = pred.boxes.data[np.arange(best.size), best]
    return np.clip(out, 0.0, 1.0)


def evaluate_model(model: SCSModel, dataset: GroundingDataset,
                   thetas: Sequence[float] = DEFAULT_THRESHOLDS) -> EvalResult:
    """P@theta of each sample's :func:`predict_best_boxes` box, scored by its
    IoU with whichever of the sample's target boxes it overlaps most."""
    check_thetas(thetas)
    counts = np.array([len(targets) for targets in dataset.targets], dtype=np.intp)
    if not counts.all():
        raise ValueError("every evaluated sample needs a target box")
    preds = np.repeat(predict_best_boxes(model, dataset), counts, axis=0)
    ious, _ = box_overlaps(preds, box_rows([t for targets in dataset.targets for t in targets]))
    return score_ious(np.maximum.reduceat(ious, np.cumsum(counts) - counts), thetas)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    steps: int = 2000
    lr: float = 1e-3
    batch_size: int = 8  # any size >= the dataset's is a full batch
    eval_every: int = 20  # 0 means no eval
    target_train_p50: float | None = 1.0  # early stop once reached; None disables

    def __post_init__(self):
        # a rate <= 0 never descends and a non-finite one poisons the weights;
        # a negative count would silently act as 0 and a batch needs a scene;
        # a bool would act as 1 or 0 and a string fail with a bare TypeError
        if not (is_finite_number(self.lr) and self.lr > 0.0):
            raise ValidationError(f"lr must be a finite number > 0, got {self.lr!r}")
        for name, minimum in (("steps", 0), ("batch_size", 1), ("eval_every", 0)):
            require_count(name, getattr(self, name), minimum)
        # P@0.5 never exceeds 1 and never compares >= NaN: either target
        # would silently never stop the run
        p50 = self.target_train_p50
        if p50 is not None and not (is_finite_number(p50) and p50 <= 1.0):
            raise ValidationError(f"target_train_p50 must be a number <= 1 or None, got {p50!r}")


@dataclass
class TrainResult:
    steps_run: int
    log: list[dict]  # {"step", "loss", "train_p50" (may be None)}
    fit_step: int | None
    final_train_p50: float | None


def train_toy(model: SCSModel, dataset: GroundingDataset, cfg: TrainConfig) -> TrainResult:
    if len(dataset) == 0:
        raise ValidationError("training needs a non-empty dataset")
    opt = Adam([ParamGroup(model.parameters(), cfg.lr)])

    batch = min(cfg.batch_size, len(dataset))
    log: list[dict] = []
    fit_step = None
    final_p50 = None
    for step in range(1, cfg.steps + 1):
        idx = [((step - 1) * batch + i) % len(dataset) for i in range(batch)]
        pred = model.forward(dataset.images[idx], dataset.token_ids[idx])
        _require_finite(pred, idx, f"at step {step}")
        loss, _ = grounding_loss(pred.boxes, pred.confidence,
                                 [dataset.targets[i] for i in idx])
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise DivergenceError(f"non-finite loss at step {step}")
        opt.zero_grad()
        backward(loss)
        if not np.isfinite(model.arena.grad).all():
            bad = next(p for p in model.parameters() if not np.isfinite(p.grad).all())
            raise DivergenceError(f"non-finite gradient at step {step} in {bad.name}")
        opt.step()

        entry = {"step": step, "loss": loss_value, "train_p50": None}
        if cfg.eval_every > 0 and step % cfg.eval_every == 0:
            p50 = evaluate_model(model, dataset, thetas=(0.5,)).precisions[0.5]
            entry["train_p50"] = p50
            final_p50 = p50
            if cfg.target_train_p50 is not None and p50 >= cfg.target_train_p50:
                log.append(entry)
                fit_step = step
                break
        log.append(entry)
    return TrainResult(len(log), log, fit_step, final_p50)
