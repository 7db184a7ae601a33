import hashlib
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mogref.data import (
    COLOR_NAMES,
    COLORS,
    SHAPES,
    TEMPLATES,
    AnnotationRecord,
    Description,
    SceneObject,
    SyntheticSceneSpec,
    ValidationError,
    Vocab,
    default_vocab,
    generate_scene,
    load_annotations,
    normalize_words,
    read_ppm,
    referents,
    save_annotations,
    tokenize,
    write_ppm,
    _describe,
    _rasterize,
)
from mogref.metrics import dataset_stats
from mogref.rng import RngState
from mogref.train import build_synthetic_dataset


def full_grid_raster(objects, size: int) -> np.ndarray:
    """Reference renderer: every shape's predicate over the whole image grid."""
    image = np.full((size, size, 3), 0.12, dtype=np.float64)
    yy, xx = np.mgrid[0:size, 0:size]
    for obj in objects:
        x0, y0, s = obj.x, obj.y, obj.side
        if obj.shape == "square":
            sel = (xx >= x0) & (xx < x0 + s) & (yy >= y0) & (yy < y0 + s)
        elif obj.shape == "circle":
            cx, cy = x0 + (s - 1) / 2.0, y0 + (s - 1) / 2.0
            r = s / 2.0
            sel = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        else:
            fy = (yy - y0) / max(1, s - 1)
            cx = x0 + (s - 1) / 2.0
            half = fy * (s / 2.0)
            sel = (yy >= y0) & (yy < y0 + s) & (np.abs(xx - cx) <= half)
        image[sel] = COLORS[obj.color]
    return image


# -- independent expression oracle (re-implements the template semantics) ----


def _center(o):
    return (o.x + o.side / 2.0, o.y + o.side / 2.0)


REGION_NAMES = (("top left", "top center", "top right"),
                ("middle left", "center", "middle right"),
                ("bottom left", "bottom center", "bottom right"))


def _region(o, image_size):
    cx, cy = _center(o)
    return REGION_NAMES[min(2, int(3 * cy / image_size))][min(2, int(3 * cx / image_size))]


def oracle_referents(expression: str, objects, image_size: int) -> list:
    """All objects the expression could denote, per the template grammar."""
    words = expression.split()
    assert words[0] == "the"
    color, shape = words[1], words[2]
    group = [o for o in objects if o.color == color and o.shape == shape]
    if len(words) == 3:
        return group
    if words[3] == "in":
        assert words[4] == "the" and words[-3:-1] == ["of", "the"] and words[-1] == "image"
        region = " ".join(words[5:-3])
        return [o for o in group if _region(o, image_size) == region]
    assert words[3:6] == ["nearest", "to", "the"]
    anchor_color, anchor_shape = words[6], words[7]
    anchors = [o for o in objects if o.color == anchor_color and o.shape == anchor_shape]
    if len(anchors) != 1:
        return []
    anchor = anchors[0]
    candidates = [o for o in group if o is not anchor]
    if not candidates:
        return []

    def d2(o):
        ox, oy = _center(o)
        ax, ay = _center(anchor)
        return (ox - ax) ** 2 + (oy - ay) ** 2

    best = min(d2(o) for o in candidates)
    nearest = [o for o in candidates if d2(o) == best]
    return nearest if len(nearest) == 1 else []


class _PickEntry:
    """An rng stand-in whose ``choice`` returns entry ``k`` (mod its length) of what it is offered."""

    def __init__(self, k: int):
        self.k = k

    def choice(self, seq):
        return seq[self.k % len(seq)]


def every_description(objects, image_size: int) -> list:
    """Every description the generator can form for any of ``objects``: each
    template for each target, and for a relation each anchor it can draw."""
    formed = (_describe(template, target, objects, image_size, _PickEntry(k))
              for target in objects for template in TEMPLATES for k in range(len(objects)))
    return list(dict.fromkeys(d for d in formed if d is not None))


# -- annotation files --------------------------------------------------------


class TestAnnotationIO:
    def test_round_trip(self, tmp_path):
        records = [
            AnnotationRecord("a", 64, 64, "the red square", [(1.0, 2.0, 10.0, 12.0)], "square"),
            AnnotationRecord("b", 64, 64, "the blue circle", [(3.0, 4.0, 8.0, 8.0)]),
        ]
        path = tmp_path / "ann.json"
        save_annotations(path, records)
        assert load_annotations(path) == records

    def test_empty_records_list(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text('{"schema_version": 1, "records": []}')
        assert load_annotations(path) == []

    def test_fixture_round_trips(self, fixtures_dir, tmp_path):
        records = load_annotations(fixtures_dir / "annotations_fixture.json")
        assert len(records) == 2
        out = tmp_path / "copy.json"
        save_annotations(out, records)
        assert load_annotations(out) == records

    def test_generated_records_round_trip(self, tmp_path):
        records = [generate_scene(SyntheticSceneSpec(), RngState(s), f"s-{s}").record for s in range(4)]
        path = tmp_path / "ann.json"
        save_annotations(path, records)
        assert load_annotations(path) == records

    def test_negative_width_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "records": [{
            "image_id": "x", "image_w": 64, "image_h": 64,
            "expression": "the red square", "target_boxes": [[1, 1, -5, 5]],
        }]}))
        with pytest.raises(ValidationError, match="negative width"):
            load_annotations(path)

    def test_missing_field_names_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "records": [
            {"image_id": "x", "image_w": 64, "image_h": 64,
             "expression": "e", "target_boxes": [[1, 1, 2, 2]]},
            {"image_id": "y", "image_w": 64, "image_h": 64, "target_boxes": [[1, 1, 2, 2]]},
        ]}))
        with pytest.raises(ValidationError, match=r"records\[1\].*expression"):
            load_annotations(path)

    def test_out_of_bounds_box_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "records": [{
            "image_id": "x", "image_w": 64, "image_h": 64,
            "expression": "e", "target_boxes": [[60, 60, 10, 10]],
        }]}))
        with pytest.raises(ValidationError, match="exceeds image bounds"):
            load_annotations(path)

    @pytest.mark.parametrize("version", ["99", "true", "1.0"])
    def test_wrong_schema_version(self, tmp_path, version):
        # a bool or a float is not the integer version, as in every other count
        path = tmp_path / "bad.json"
        path.write_text(f'{{"schema_version": {version}, "records": []}}')
        with pytest.raises(ValidationError, match="schema_version"):
            load_annotations(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_annotations(path)


# -- vocabulary --------------------------------------------------------------


class TestTokenize:
    def test_empty_expression(self):
        assert tokenize("", default_vocab()) == []

    def test_known_words_round_trip(self):
        vocab = default_vocab()
        ids = tokenize("the red square", vocab)
        assert len(ids) == 3
        assert [vocab.word_of(i) for i in ids] == ["the", "red", "square"]
        assert vocab.unk_id not in ids

    def test_unknown_word_is_unk_never_error(self):
        vocab = default_vocab()
        ids = tokenize("the chartreuse dodecahedron", vocab)
        assert ids == [vocab.id_of("the"), vocab.unk_id, vocab.unk_id]

    def test_punctuation_and_case(self):
        vocab = default_vocab()
        assert tokenize("The RED, square!", vocab) == tokenize("the red square", vocab)

    def test_pad_and_unk_are_reserved(self):
        vocab = default_vocab()
        assert vocab.pad_id == 0 and vocab.unk_id == 1
        assert vocab.word_of(0) == "<pad>" and vocab.word_of(1) == "<unk>"

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            Vocab(["red", "red"])

    def test_normalize_words(self):
        assert normalize_words("  The red-square. ") == ["the", "red", "square"]


# -- generator ---------------------------------------------------------------


class TestGenerator:
    def test_no_distractors_single_object(self):
        spec = SyntheticSceneSpec(num_distractors=0)
        scene = generate_scene(spec, RngState(1))
        assert len(scene.objects) == 1
        referents = oracle_referents(scene.record.expression, scene.objects, spec.image_size)
        assert referents == [scene.objects[scene.target_index]]

    def test_fixed_seed_bit_identical(self):
        spec = SyntheticSceneSpec()
        one = generate_scene(spec, RngState(99), "s")
        two = generate_scene(spec, RngState(99), "s")
        assert (one.image == two.image).all()
        assert (one.record, one.objects, one.target_index) == (two.record, two.objects, two.target_index)

    @pytest.mark.parametrize("spec, seeds", [
        (SyntheticSceneSpec(), 1000),
        *((SyntheticSceneSpec(templates=(t,)), 500) for t in ("attribute", "position", "relation")),
        (SyntheticSceneSpec(num_distractors=0), 500),
        (SyntheticSceneSpec(num_distractors=8, size_classes=("small",)), 500),
        (SyntheticSceneSpec(image_size=16, num_distractors=1), 500),
        (SyntheticSceneSpec(image_size=128), 500),
        (SyntheticSceneSpec(image_size=128, num_distractors=15, size_classes=("small", "medium")),
         300),
    ], ids=["default", "attribute", "position", "relation", "no-distractors",
            "eight-small-distractors", "16px-one-distractor", "128px",
            "128px-fifteen-small-medium-distractors"])
    def test_unique_referent_oracle_over_many_seeds(self, spec, seeds):
        for seed in range(seeds):
            scene = generate_scene(spec, RngState(seed))
            scene.record.validate()
            expression = scene.record.expression
            referents = oracle_referents(expression, scene.objects, spec.image_size)
            assert referents == [scene.objects[scene.target_index]], (seed, expression)

    @pytest.mark.parametrize("spec, seeds", [
        (SyntheticSceneSpec(), 200),
        (SyntheticSceneSpec(num_distractors=8, size_classes=("small",)), 100),
        (SyntheticSceneSpec(image_size=128, num_distractors=15, size_classes=("small", "medium")),
         50),
    ], ids=["default", "eight-small-distractors", "128px-fifteen-small-medium-distractors"])
    def test_every_formable_description_agrees_with_the_oracle(self, spec, seeds):
        # every description of every object, not only the one a scene emits
        for seed in range(seeds):
            objects = generate_scene(spec, RngState(seed)).objects
            for description in every_description(objects, spec.image_size):
                assert (referents(description, objects, spec.image_size)
                        == oracle_referents(description.text, objects, spec.image_size)), (
                    seed, description.text)

    def test_every_formable_description_is_in_the_default_vocab(self):
        # the vocabulary, default-vocab checkpoints and C11 rely on this
        vocab = default_vocab()
        kinds = [Description(c, s) for c in COLOR_NAMES for s in SHAPES]
        grammar = {Description(k.color, k.shape, region, anchor) for k in kinds
                   for region in (None, *itertools.chain(*REGION_NAMES)) for anchor in (None, *kinds)}
        for description in grammar:
            assert vocab.unk_id not in tokenize(description.text, vocab), description.text
        for spec in (SyntheticSceneSpec(), SyntheticSceneSpec(image_size=128, num_distractors=15)):
            for seed in range(50):
                objects = generate_scene(spec, RngState(seed)).objects
                assert set(every_description(objects, spec.image_size)) <= grammar, seed

    # anchor blue circle centred at (32, 32); red squares 20 px to its left
    # and right, or 18 px to its right
    _ANCHOR = SceneObject("circle", "blue", "small", 28, 28, 8)
    _LEFT = SceneObject("square", "red", "small", 8, 28, 8)
    _RIGHT = SceneObject("square", "red", "small", 48, 28, 8)
    _NEARER_RIGHT = SceneObject("square", "red", "small", 46, 28, 8)
    _RELATION = Description("red", "square", anchor=Description("blue", "circle"))

    @pytest.mark.parametrize("description, objects, expected", [
        (_RELATION, [_LEFT, _ANCHOR], [_LEFT]),
        (_RELATION, [_LEFT, _ANCHOR, SceneObject("circle", "blue", "small", 28, 48, 8)], []),
        (Description("red", "square", anchor=Description("red", "square")), [_LEFT, _ANCHOR], []),
        (_RELATION, [_LEFT, _ANCHOR, _NEARER_RIGHT], [_NEARER_RIGHT]),
        (_RELATION, [_LEFT, _ANCHOR, _RIGHT], []),
    ], ids=["unique-anchor", "anchor-not-unique", "anchor-shares-color-and-shape",
            "strictly-nearer", "exact-tie"])
    def test_relation_referents(self, description, objects, expected):
        # an anchor that is not unique, is the target's own kind, or ties two
        # candidates denotes nothing; the other rows show each case can denote
        assert referents(description, objects, 64) == expected
        assert oracle_referents(description.text, objects, 64) == expected

    @pytest.mark.parametrize("spec, digest", [
        (SyntheticSceneSpec(), "0ce9696775ab243ed006ee3d4956faa311aff8f6244a5e1b5daee726fcd55944"),
        (SyntheticSceneSpec(templates=("relation",)),
         "4106bde9d4ed2d9c55f0fc9805e0af946b2ef7258447ed10c894486b4c323e82"),
    ], ids=["default", "relation"])
    def test_generated_dataset_bits_are_pinned(self, tmp_path, spec, digest):
        # existing specs keep their scenes bit for bit across changes to the
        # generator; a change that means to alter them updates these digests
        dataset = build_synthetic_dataset(16, spec, default_vocab(), 0, "float64")
        save_annotations(tmp_path / "annotations.json", dataset.records)
        data = dataset.images.tobytes() + (tmp_path / "annotations.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_record_invariants_over_seeds(self):
        spec = SyntheticSceneSpec(num_distractors=5)
        root = RngState(0)
        for i in range(100):
            scene = generate_scene(spec, root.derive(i), f"s{i}")
            image, record = scene.image, scene.record
            record.validate()
            assert image.shape == (64, 64, 3)
            assert image.min() >= 0.0 and image.max() <= 1.0
            assert record.target_boxes

    def test_small_size_class_keeps_o2s_low(self):
        spec = SyntheticSceneSpec(size_classes=("small",), num_distractors=4)
        root = RngState(123)
        records = []
        for i in range(200):
            records.append(generate_scene(spec, root.derive(i), f"s{i:04d}").record)
        stats = dataset_stats(records)
        assert stats.o2s_mean < 6.0

    def test_target_box_matches_rendered_object(self):
        spec = SyntheticSceneSpec(num_distractors=2)
        scene = generate_scene(spec, RngState(5))
        target = scene.objects[scene.target_index]
        assert scene.record.target_boxes == [target.box]
        assert scene.record.category == target.shape

    @pytest.mark.parametrize("size", [16, 64, 128])
    def test_box_local_raster_equals_the_full_grid_renderer(self, size):
        spec = SyntheticSceneSpec(image_size=size)
        for seed in range(100):
            scene = generate_scene(spec, RngState(seed))
            assert np.array_equal(scene.image, full_grid_raster(scene.objects, size)), seed

    @pytest.mark.parametrize("shape", ["square", "circle", "triangle"])
    @pytest.mark.parametrize("side", [3, 4, 7, 10])
    def test_box_local_raster_at_the_image_border(self, shape, side):
        # boxes touching the 1-px margin the generator keeps, and the edge itself
        size = 16
        corners = [(1, 1), (size - side - 1, size - side - 1), (1, size - side - 1),
                   (0, 0), (size - side, size - side), (0, size - side)]
        objects = [SceneObject(shape, color, "small", x, y, side)
                   for (x, y), color in zip(corners, itertools.cycle(COLORS))]
        for obj in objects:
            assert np.array_equal(_rasterize([obj], size), full_grid_raster([obj], size))
        assert np.array_equal(_rasterize(objects, size), full_grid_raster(objects, size))

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSceneSpec(image_size=4)
        with pytest.raises(ValueError):
            SyntheticSceneSpec(size_classes=("giant",))
        with pytest.raises(ValueError):
            SyntheticSceneSpec(templates=("haiku",))

    @pytest.mark.parametrize("field, value", [("image_size", 64.0), ("num_distractors", 2.5),
                                              ("num_distractors", True)])
    def test_non_integer_count_is_refused_naming_it(self, field, value):
        # a float size used to fail later in the generator with a bare TypeError
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {value!r}$"):
            SyntheticSceneSpec(**{field: value})


# -- ppm ---------------------------------------------------------------------


class TestPPM:
    def test_round_trip_is_quantized_identity(self, tmp_path):
        rng = RngState(2)
        image = rng.uniform_array((16, 12, 3))
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        back = read_ppm(path)
        quantized = np.clip(np.rint(image * 255.0), 0, 255) / 255.0
        assert back.shape == (16, 12, 3)
        assert np.abs(back - quantized).max() == 0.0

    def test_rejects_non_ppm(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValidationError):
            read_ppm(path)

    @pytest.mark.parametrize("size", [b"-3 -3", b"0 4", b"4 0"])
    def test_rejects_dimensions_below_one_naming_the_file(self, tmp_path, size):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(48))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: width and height")):
            read_ppm(path)

    def test_pixels_starting_with_whitespace_bytes_survive(self, tmp_path):
        # 0x20/0x0a are valid pixel values; the header parser must consume
        # exactly one separator byte, not all leading whitespace
        path = tmp_path / "x.ppm"
        payload = bytes([0x20, 0x0A, 0x0D])
        path.write_bytes(b"P6\n1 1\n255\n" + payload)
        image = read_ppm(path)
        assert np.allclose(image.reshape(3) * 255.0, [0x20, 0x0A, 0x0D])

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n# made by hand\n1 1\n255\n\x01\x02\x03")
        image = read_ppm(path)
        assert np.allclose(image.reshape(3) * 255.0, [1, 2, 3])

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "x.ppm"
        # short pixel data, and a header with no byte after maxval
        for raw in (b"P6\n2 2\n255\n\x01\x02", b"P6 1 1 255"):
            path.write_bytes(raw)
            with pytest.raises(ValidationError, match=re.escape(f"{path}: truncated pixel data")):
                read_ppm(path)
