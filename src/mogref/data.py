"""Annotation files, the synthetic referring-scene generator, and tokenization.

Annotation schema (JSON, one canonical form):

    {
      "schema_version": 1,
      "records": [
        {
          "image_id": "scene-00000",
          "image_w": 64, "image_h": 64,
          "expression": "the red square",
          "target_boxes": [[x, y, w, h]],        # pixel top-left form
          "category": "square"                    # optional
        },
        ...
      ]
    }

The generator rasterizes colored shapes (squares, circles, triangles) at
several size classes onto a flat background and emits a templated referring
expression that uniquely identifies one of them; uniqueness is established
by exhaustively evaluating the expression's predicate against every placed
object. :func:`generate_scene` is its one entry point: it returns a
:class:`Scene` with the image, the annotation record and every placed object
(the target's index included), so oracles and the dataset builders read the
same draw. Everything is deterministic given an :class:`RngState`.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from mogref.rng import RngState

SCHEMA_VERSION = 1

PAD_WORD = "<pad>"
UNK_WORD = "<unk>"


class ValidationError(ValueError):
    """An input file or record violates the documented schema."""


class GenerationError(RuntimeError):
    """The scene generator could not satisfy its constraints."""


# ---------------------------------------------------------------------------
# annotation records
# ---------------------------------------------------------------------------


@dataclass
class AnnotationRecord:
    image_id: str
    image_w: int
    image_h: int
    expression: str
    target_boxes: list[tuple[float, float, float, float]]  # pixel (x, y, w, h)
    category: str | None = None

    def validate(self, where: str = "") -> None:
        tag = where or self.image_id
        if self.image_w <= 0 or self.image_h <= 0:
            raise ValidationError(f"{tag}: image_w/image_h must be positive")
        if not self.expression:
            raise ValidationError(f"{tag}: expression is empty")
        if not self.target_boxes:
            raise ValidationError(f"{tag}: target_boxes is empty")
        for i, (x, y, w, h) in enumerate(self.target_boxes):
            if w < 0 or h < 0:
                raise ValidationError(f"{tag}: target_boxes[{i}] has negative width/height")
            if x < 0 or y < 0 or x + w > self.image_w or y + h > self.image_h:
                raise ValidationError(
                    f"{tag}: target_boxes[{i}] exceeds image bounds "
                    f"({x}, {y}, {w}, {h}) vs {self.image_w}x{self.image_h}"
                )

    def to_json(self) -> dict:
        out = {
            "image_id": self.image_id,
            "image_w": self.image_w,
            "image_h": self.image_h,
            "expression": self.expression,
            "target_boxes": [list(b) for b in self.target_boxes],
        }
        if self.category is not None:
            out["category"] = self.category
        return out


def _number(value, where: str, field: str, integer: bool = False):
    """``value`` if it is a finite JSON number (an integer where ``integer``
    asks for one; a bool is neither); otherwise a :class:`ValidationError`
    that names the record and the field."""
    kinds = int if integer else (int, float)
    try:
        if isinstance(value, kinds) and not isinstance(value, bool) and math.isfinite(value):
            return value
    except OverflowError:  # an int too large for a float
        pass
    kind = "finite number (an integer)" if integer else "finite number"
    raise ValidationError(f"{where}: {field} must be a {kind}, got {value!r}")


def _string(value, where: str, field: str, optional: bool = False):
    if isinstance(value, str) or (optional and value is None):
        return value
    kind = "a string or null" if optional else "a string"
    raise ValidationError(f"{where}: {field} must be {kind}, got {value!r}")


def _record_from_json(obj: dict, index: int) -> AnnotationRecord:
    where = f"records[{index}]"
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    for key in ("image_id", "image_w", "image_h", "expression", "target_boxes"):
        if key not in obj:
            raise ValidationError(f"{where}: missing field {key!r}")
    boxes = obj["target_boxes"]
    if not isinstance(boxes, list):
        raise ValidationError(f"{where}: target_boxes must be a list")
    parsed = []
    for i, b in enumerate(boxes):
        if not (isinstance(b, list) and len(b) == 4):
            raise ValidationError(f"{where}: target_boxes[{i}] must be [x, y, w, h]")
        parsed.append(tuple(float(_number(v, where, f"target_boxes[{i}][{k}]"))
                            for k, v in enumerate(b)))
    rec = AnnotationRecord(
        image_id=_string(obj["image_id"], where, "image_id"),
        image_w=_number(obj["image_w"], where, "image_w", integer=True),
        image_h=_number(obj["image_h"], where, "image_h", integer=True),
        expression=_string(obj["expression"], where, "expression"),
        target_boxes=parsed,
        category=_string(obj.get("category"), where, "category", optional=True),
    )
    rec.validate(where)
    return rec


def annotations_path(path) -> Path:
    """The annotation file every reader loads: ``path/annotations.json`` when
    ``path`` is a dataset directory (beside ``images/``), else ``path`` itself."""
    path = Path(path)
    return path / "annotations.json" if path.is_dir() else path


def load_annotations(path) -> list[AnnotationRecord]:
    """Read and validate an annotation file; errors name record and field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "records" not in doc:
        raise ValidationError(f"{path}: expected an object with a 'records' field")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"{path}: schema_version {doc.get('schema_version')!r} != {SCHEMA_VERSION}"
        )
    if not isinstance(doc["records"], list):
        raise ValidationError(f"{path}: records must be a list, got {type(doc['records']).__name__}")
    return [_record_from_json(obj, i) for i, obj in enumerate(doc["records"])]


@contextmanager
def atomic_open(path, mode: str = "w") -> Iterator:
    """Write ``path`` through a temporary file in the same directory.

    The body writes to the yielded handle; when it returns, the file is
    flushed to disk and moved over ``path`` with :func:`os.replace`, so a
    reader sees the old file or the whole new one, never a partial write.
    If the body raises, ``path`` is left as it was and the temporary file
    is removed. Text modes write UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_annotations(path, records: Sequence[AnnotationRecord]) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "records": [r.to_json() for r in records]}
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# vocabulary and tokenization
# ---------------------------------------------------------------------------

COLORS = {
    "red": (0.85, 0.15, 0.15),
    "green": (0.15, 0.75, 0.2),
    "blue": (0.2, 0.3, 0.85),
    "yellow": (0.9, 0.85, 0.2),
}
COLOR_NAMES = tuple(COLORS)
SHAPES = ("square", "circle", "triangle")
SIZE_CLASSES = ("small", "medium", "large")
# placement restarts before the generator gives up on a spec
MAX_RETRIES = 25

# side length as a fraction of the scene edge, per size class; box areas
# span roughly 1% to 25% of the scene
_SIZE_RANGES = {
    "small": (0.09, 0.16),
    "medium": (0.22, 0.28),
    "large": (0.38, 0.47),
}

_REGION_NAMES = (
    ("top left", "top center", "top right"),
    ("middle left", "center", "middle right"),
    ("bottom left", "bottom center", "bottom right"),
)

_LEXICON = (
    "the", "in", "of", "image", "nearest", "to",
    "top", "bottom", "middle", "left", "right", "center",
    *COLORS.keys(), *SHAPES, *SIZE_CLASSES,
)


class Vocab:
    """Closed word list; id 0 is padding, id 1 catches unknown words."""

    def __init__(self, words: Sequence[str]):
        self.words = (PAD_WORD, UNK_WORD, *words)
        self._ids = {w: i for i, w in enumerate(self.words)}
        if len(self._ids) != len(self.words):
            raise ValueError("vocabulary contains duplicate words")

    def __len__(self) -> int:
        return len(self.words)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    def id_of(self, word: str) -> int:
        return self._ids.get(word, self.unk_id)

    def word_of(self, idx: int) -> str:
        return self.words[idx]

    def content_words(self) -> list[str]:
        return list(self.words[2:])


def default_vocab() -> Vocab:
    return Vocab(_LEXICON)


def normalize_words(expression: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    cleaned = "".join(c if (c.isalnum() or c.isspace()) else " " for c in expression.lower())
    return cleaned.split()


def tokenize(expression: str, vocab: Vocab) -> list[int]:
    """Map words to ids; unknown words become the UNK id, never an error."""
    return [vocab.id_of(w) for w in normalize_words(expression)]


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Controls one generated referring scene."""

    image_size: int = 64
    num_distractors: int = 3
    size_classes: tuple[str, ...] = SIZE_CLASSES
    templates: tuple[str, ...] = ("attribute", "position", "relation")

    def __post_init__(self):
        if self.image_size < 16:
            raise ValueError("image_size must be at least 16")
        if self.num_distractors < 0:
            raise ValueError("num_distractors must be non-negative")
        for name in ("size_classes", "templates"):
            if not getattr(self, name):
                raise ValueError(f"{name} must name at least one entry")
        for s in self.size_classes:
            if s not in _SIZE_RANGES:
                raise ValueError(f"unknown size class {s!r}")
        for t in self.templates:
            if t not in ("attribute", "position", "relation"):
                raise ValueError(f"unknown template {t!r}")


@dataclass(frozen=True)
class SceneObject:
    shape: str
    color: str
    size_class: str
    x: int  # top-left, pixels
    y: int
    side: int

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (float(self.x), float(self.y), float(self.side), float(self.side))

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.side / 2.0, self.y + self.side / 2.0)


@dataclass
class Scene:
    image: np.ndarray  # (S, S, 3) float64 in [0, 1]
    objects: list[SceneObject]
    target_index: int
    record: AnnotationRecord


def region_of(obj: SceneObject, image_size: int) -> str:
    """Name of the 3x3 grid cell containing the object's center."""
    cx, cy = obj.center
    col = min(2, int(3.0 * cx / image_size))
    row = min(2, int(3.0 * cy / image_size))
    return _REGION_NAMES[row][col]


def expression_matches(expression: str, obj_index: int, objects: Sequence[SceneObject],
                       image_size: int) -> bool:
    """Does the templated expression pick out ``objects[obj_index]``?

    Understands the three template families emitted by the generator. The
    relation form requires a unique anchor; if the anchor is ambiguous the
    expression matches nothing.
    """
    words = normalize_words(expression)
    obj = objects[obj_index]
    if "nearest" in words:
        # the <color> <shape> nearest to the <color2> <shape2>
        color, shape, anchor_color, anchor_shape = words[1], words[2], words[6], words[7]
        anchors = [o for o in objects if o.color == anchor_color and o.shape == anchor_shape]
        if len(anchors) != 1:
            return False
        anchor = anchors[0]
        group = [o for o in objects if o.color == color and o.shape == shape and o is not anchor]
        if not group:
            return False

        def dist(o: SceneObject) -> float:
            ax, ay = anchor.center
            ox, oy = o.center
            return (ax - ox) ** 2 + (ay - oy) ** 2

        best = min(dist(o) for o in group)
        nearest = [o for o in group if dist(o) == best]
        if len(nearest) != 1:  # equidistant candidates: ambiguous, matches nothing
            return False
        return obj is nearest[0] and obj.color == color and obj.shape == shape
    if "in" in words:
        # the <color> <shape> in the <region...> of the image
        color, shape = words[1], words[2]
        region = " ".join(words[5:-3]) if words[-1] == "image" else ""
        return (
            obj.color == color
            and obj.shape == shape
            and region_of(obj, image_size) == region
        )
    # the <color> <shape>
    color, shape = words[1], words[2]
    return obj.color == color and obj.shape == shape


def _matches_uniquely(expression: str, target: int, objects: Sequence[SceneObject],
                      image_size: int) -> bool:
    hits = [i for i in range(len(objects))
            if expression_matches(expression, i, objects, image_size)]
    return hits == [target]


def _place_objects(spec: SyntheticSceneSpec, rng: RngState) -> list[SceneObject] | None:
    size = spec.image_size
    count = 1 + spec.num_distractors
    placed: list[SceneObject] = []
    for _ in range(count):
        ok = False
        for _attempt in range(60):
            size_class = rng.choice(spec.size_classes)
            lo, hi = _SIZE_RANGES[size_class]
            side = max(3, int(round(rng.uniform_in(lo, hi) * size)))
            if side + 2 >= size:
                continue
            x = rng.randint(size - side - 1) + 1
            y = rng.randint(size - side - 1) + 1
            clear = all(
                x + side + 1 <= o.x or o.x + o.side + 1 <= x
                or y + side + 1 <= o.y or o.y + o.side + 1 <= y
                for o in placed
            )
            if clear:
                placed.append(SceneObject(
                    shape=rng.choice(SHAPES),
                    color=rng.choice(COLOR_NAMES),
                    size_class=size_class,
                    x=x, y=y, side=side,
                ))
                ok = True
                break
        if not ok:
            return None
    return placed


def _candidate_expression(template: str, target: SceneObject,
                          objects: Sequence[SceneObject], image_size: int,
                          rng: RngState) -> str | None:
    if template == "attribute":
        return f"the {target.color} {target.shape}"
    if template == "position":
        return (f"the {target.color} {target.shape} in the "
                f"{region_of(target, image_size)} of the image")
    # relation: pick a unique-looking anchor of a different color/shape combo
    anchors = [o for o in objects
               if o is not target and (o.color, o.shape) != (target.color, target.shape)]
    if not anchors:
        return None
    anchor = rng.choice(anchors)
    return (f"the {target.color} {target.shape} nearest to the "
            f"{anchor.color} {anchor.shape}")


def _rasterize(objects: Sequence[SceneObject], size: int) -> np.ndarray:
    """Paint each object's shape over a flat background, in placement order.

    Every shape lies inside its s-by-s box, so its predicate is evaluated on
    that box's pixel grid alone.
    """
    image = np.full((size, size, 3), 0.12, dtype=np.float64)
    for obj in objects:
        x0, y0, s = obj.x, obj.y, obj.side
        box = image[y0:y0 + s, x0:x0 + s]
        if obj.shape == "square":
            box[...] = COLORS[obj.color]
            continue
        yy, xx = np.ogrid[y0:y0 + s, x0:x0 + s]
        cx = x0 + (s - 1) / 2.0
        if obj.shape == "circle":
            cy = y0 + (s - 1) / 2.0
            r = s / 2.0
            sel = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        else:  # upward triangle filling the box
            half = (yy - y0) / max(1, s - 1) * (s / 2.0)
            sel = np.abs(xx - cx) <= half
        box[sel] = COLORS[obj.color]
    return image


def generate_scene(spec: SyntheticSceneSpec, rng: RngState, image_id: str = "scene") -> Scene:
    """Render one scene with its referring annotation and placed objects; deterministic per rng."""
    for _ in range(MAX_RETRIES):
        objects = _place_objects(spec, rng)
        if objects is None:
            continue
        order = list(range(len(objects)))
        rng.shuffle(order)
        templates = list(spec.templates)
        rng.shuffle(templates)
        for target_idx in order:
            target = objects[target_idx]
            for template in templates:
                expr = _candidate_expression(template, target, objects,
                                             spec.image_size, rng)
                if expr is None:
                    continue
                if _matches_uniquely(expr, target_idx, objects, spec.image_size):
                    image = _rasterize(objects, spec.image_size)
                    record = AnnotationRecord(
                        image_id=image_id,
                        image_w=spec.image_size,
                        image_h=spec.image_size,
                        expression=expr,
                        target_boxes=[target.box],
                        category=target.shape,
                    )
                    record.validate()
                    return Scene(image, objects, target_idx, record)
    raise GenerationError(
        f"could not build a uniquely-referring scene in {MAX_RETRIES} attempts"
    )


# ---------------------------------------------------------------------------
# PPM raster I/O (inspection-format, no codec dependency)
# ---------------------------------------------------------------------------


def write_ppm(path, image: np.ndarray) -> None:
    """Binary P6 PPM, 8-bit, from a float image in [0, 1]."""
    h, w, c = image.shape
    if c != 3:
        raise ValueError(f"expected an (H, W, 3) image, got {image.shape}")
    quantized = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with atomic_open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM back into a float image in [0, 1].

    The header is scanned token by token (comments allowed) and exactly one
    whitespace byte is consumed after maxval, so pixel data that happens to
    start with whitespace-valued bytes is preserved.
    """
    raw = Path(path).read_bytes()
    whitespace = b" \t\n\r\x0b\x0c"
    idx = 0
    tokens: list[bytes] = []
    while len(tokens) < 4:
        while idx < len(raw) and raw[idx] in whitespace:
            idx += 1
        if idx < len(raw) and raw[idx : idx + 1] == b"#":  # comment to end of line
            while idx < len(raw) and raw[idx] not in b"\n":
                idx += 1
            continue
        start = idx
        while idx < len(raw) and raw[idx] not in whitespace:
            idx += 1
        if start == idx:
            raise ValidationError(f"{path}: truncated PPM header")
        tokens.append(raw[start:idx])
    if tokens[0] != b"P6":
        raise ValidationError(f"{path}: not a binary PPM (P6) file")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed PPM header") from exc
    if maxval != 255:
        raise ValidationError(f"{path}: only maxval 255 is supported")
    if w < 1 or h < 1:
        raise ValidationError(f"{path}: width and height must be at least 1, got {w}x{h}")
    idx += 1  # the single whitespace byte separating header and pixels
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=idx, count=-1)
    if pixels.size < w * h * 3:
        raise ValidationError(f"{path}: truncated pixel data")
    return pixels[: w * h * 3].reshape(h, w, 3).astype(np.float64) / 255.0
