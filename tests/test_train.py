import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mogref.data import SyntheticSceneSpec, ValidationError, default_vocab, generate_scene
from mogref.matching import BBox, box_rows, iou
from mogref.metrics import DEFAULT_THRESHOLDS, EvalResult
from mogref.model import ModelConfig, SCSModel
from mogref.rng import RngState
from mogref import train as train_module
from mogref.tensor import Arena, Parameter, Tensor, no_grad
from mogref.train import (
    Adam,
    DivergenceError,
    ParamGroup,
    TrainConfig,
    build_synthetic_dataset,
    GroundingDataset,
    eval_chunk,
    evaluate_model,
    load_dataset_dir,
    predict_best_boxes,
    train_toy,
)

VOCAB = default_vocab()
ROOT = Path(__file__).resolve().parents[1]

TINY_CFG = ModelConfig(
    model_dim=8, num_heads=2, dilations=(1, 2), sce_blocks=1, scd_blocks=1,
    ssd_blocks=1, num_queries=2, ffn_dim=12, image_size=16, patch_size=8,
    vocab_size=len(VOCAB),
)
TINY_SPEC = SyntheticSceneSpec(image_size=16, num_distractors=1)


def tiny_setup(seed=0, scenes=4):
    dataset = build_synthetic_dataset(scenes, TINY_SPEC, VOCAB, seed)
    model = SCSModel(TINY_CFG, VOCAB, RngState(seed))
    return model, dataset


class TestDatasets:
    def test_synthetic_shapes(self):
        _, ds = tiny_setup(scenes=5)
        assert ds.images.shape[0] == 5
        assert ds.token_ids.shape[0] == 5
        assert all(len(t) >= 1 for t in ds.targets)

    def test_synthetic_deterministic(self):
        a = build_synthetic_dataset(3, TINY_SPEC, VOCAB, 7)
        b = build_synthetic_dataset(3, TINY_SPEC, VOCAB, 7)
        assert (a.images == b.images).all()
        assert (a.token_ids == b.token_ids).all()
        assert a.targets == b.targets

    def test_dataset_dir_round_trip(self, tmp_path):
        from mogref.data import save_annotations, write_ppm

        root = RngState(3)
        from mogref.data import generate_scene

        records, images = [], []
        for i in range(3):
            scene = generate_scene(TINY_SPEC, root.derive(i), f"s-{i}")
            records.append(scene.record)
            images.append(scene.image)
        save_annotations(tmp_path / "annotations.json", records)
        (tmp_path / "images").mkdir()
        for rec, img in zip(records, images):
            write_ppm(tmp_path / "images" / f"{rec.image_id}.ppm", img)
        ds = load_dataset_dir(tmp_path, VOCAB)
        assert len(ds) == 3
        # the stored images are the 8-bit quantized rasters, rounded once to float32
        quantized = np.rint(np.stack(images) * 255.0) / 255.0
        assert ds.images.dtype == np.float32
        assert np.array_equal(ds.images, quantized.astype(np.float32))
        assert np.array_equal(load_dataset_dir(tmp_path, VOCAB, dtype="float64").images, quantized)

    @pytest.mark.parametrize("image_id", ["../outside/secret", "ABSOLUTE", "images/s-0", "..", ""])
    def test_dataset_dir_refuses_an_image_id_that_is_no_plain_file_name(self, tmp_path, image_id):
        from mogref.data import load_annotations, save_annotations, write_ppm

        outside, data = tmp_path / "outside", tmp_path / "data"
        (data / "images").mkdir(parents=True)
        outside.mkdir()
        scene = generate_scene(TINY_SPEC, RngState(3), "s-0")
        # every path the id could name holds a valid raster of the right size
        for path in (data / "images" / "s-0.ppm", outside / "secret.ppm", data / "images" / ".ppm",
                     data / "..ppm"):
            write_ppm(path, scene.image)
        if image_id == "ABSOLUTE":
            image_id = str(outside / "secret")
        records = [scene.record, replace(scene.record, image_id=image_id)]
        save_annotations(data / "annotations.json", records)
        with pytest.raises(ValidationError, match=re.escape("records[1]: image_id")):
            load_dataset_dir(data, VOCAB)
        # the rule is the loader's: the annotation file itself stays valid
        assert load_annotations(data / "annotations.json")[1].image_id == image_id

    def test_default_build_is_the_float64_build_rounded_to_float32(self):
        spec = SyntheticSceneSpec()
        wide = build_synthetic_dataset(6, spec, VOCAB, 7, dtype="float64")
        narrow = build_synthetic_dataset(6, spec, VOCAB, 7)
        assert (wide.images.dtype, narrow.images.dtype) == (np.float64, np.float32)
        assert np.array_equal(narrow.images, wide.images.astype(np.float32))
        assert narrow.records == wide.records
        assert np.array_equal(narrow.token_ids, wide.token_ids)

    def test_float64_build_is_byte_identical_to_the_rendered_scenes(self):
        spec = SyntheticSceneSpec()
        root = RngState(7)
        rendered = [generate_scene(spec, root.derive(i), f"scene-{i:05d}").image for i in range(6)]
        images = build_synthetic_dataset(6, spec, VOCAB, 7, dtype="float64").images
        assert images.tobytes() == np.stack(rendered).tobytes()

    @pytest.mark.parametrize("num_scenes", [2.5, True, 0])
    def test_scene_count_must_be_a_positive_integer(self, num_scenes):
        # 2.5 and True failed with a bare TypeError
        with pytest.raises(ValidationError, match=rf"^num_scenes must be .*, got {num_scenes!r}$"):
            build_synthetic_dataset(num_scenes, TINY_SPEC, VOCAB, 0)

    def test_scene_dtype_must_be_a_model_dtype(self, tmp_path):
        with pytest.raises(ValidationError, match="float16"):
            build_synthetic_dataset(1, TINY_SPEC, VOCAB, 0, dtype="float16")
        from mogref.data import save_annotations

        record = generate_scene(TINY_SPEC, RngState(0)).record
        save_annotations(tmp_path / "annotations.json", [record])
        with pytest.raises(ValidationError, match="float16"):
            load_dataset_dir(tmp_path, VOCAB, dtype="float16")

    def test_building_scenes_holds_one_image_array(self):
        # a list of float64 scenes and np.stack's copy of it took about 4x the
        # float32 image bytes; one preallocated float32 array takes 1x
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, str(ROOT / "scripts" / "scene_memory.py"),
                              "--scenes", "512", "--image-size", "64"],
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        found = re.search(r"images ([\d.]+) MiB, peak RSS ([\d.]+) MB before the build, "
                          r"([\d.]+) MB after", out.stdout)
        assert found, out.stdout
        image_mib, before, after = map(float, found.groups())
        assert image_mib == 512 * 64 * 64 * 3 * 4 / 2**20
        assert after - before < 1.5 * image_mib + 16.0, out.stdout

    def test_claimed_resolution_meets_a_raster_before_the_image_array(self, tmp_path,
                                                                      monkeypatch):
        # two records claiming 200000x200000 once asked for an 894 GiB array
        from mogref.data import save_annotations, write_ppm

        (tmp_path / "images").mkdir()
        records = []
        for i in range(2):
            scene = generate_scene(TINY_SPEC, RngState(i), f"s-{i}")
            write_ppm(tmp_path / "images" / f"s-{i}.ppm", scene.image)
            records.append(replace(scene.record, image_w=200000, image_h=200000))
        save_annotations(tmp_path / "annotations.json", records)
        sizes = []
        real_image_array = train_module._image_array
        monkeypatch.setattr(train_module, "_image_array",
                            lambda *args: sizes.append(args) or real_image_array(*args))
        with pytest.raises(ValidationError, match=re.escape("raster is 16x16, record says 200000x200000")):
            load_dataset_dir(tmp_path, VOCAB)
        assert sizes == []
        # the honest claim reads both rasters into one array of that size
        save_annotations(tmp_path / "annotations.json",
                         [replace(r, image_w=16, image_h=16) for r in records])
        assert len(load_dataset_dir(tmp_path, VOCAB)) == 2
        assert sizes == [(2, 16, 16, "float32")]

    def test_missing_raster_is_io_error(self, tmp_path):
        from mogref.data import generate_scene, save_annotations

        rec = generate_scene(TINY_SPEC, RngState(0), "s-0").record
        save_annotations(tmp_path / "annotations.json", [rec])
        with pytest.raises(FileNotFoundError):
            load_dataset_dir(tmp_path, VOCAB)


class TestTraining:
    def test_zero_steps_leaves_initialization(self):
        model, ds = tiny_setup()
        before = [p.data.copy() for p in model.parameters()]
        result = train_toy(model, ds, TrainConfig(steps=0))
        assert result.steps_run == 0
        for p, b in zip(model.parameters(), before):
            assert (p.data == b).all()

    def test_same_seed_identical_loss_logs(self):
        cfg = TrainConfig(steps=12, lr=1e-3, batch_size=2, eval_every=5,
                          target_train_p50=None)
        m1, d1 = tiny_setup(seed=5)
        m2, d2 = tiny_setup(seed=5)
        r1 = train_toy(m1, d1, cfg)
        r2 = train_toy(m2, d2, cfg)
        assert r1.log == r2.log
        assert repr(r1.log) == repr(r2.log)  # bit for bit, as train_log.csv writes them

    def test_loss_decreases_on_short_run(self):
        model, ds = tiny_setup(seed=2)
        result = train_toy(model, ds, TrainConfig(steps=60, lr=3e-3, batch_size=0,
                                                  eval_every=0, target_train_p50=None))
        assert result.log[-1]["loss"] < result.log[0]["loss"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/log(0) is the tested path
    def test_divergence_aborts_with_step_index(self):
        model, ds = tiny_setup(seed=1)
        with pytest.raises(DivergenceError, match=r"step \d+"):
            train_toy(model, ds, TrainConfig(steps=200, lr=1e8, eval_every=0,
                                             target_train_p50=None))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reaching_an_eval_aborts_naming_the_samples(self):
        # the eval forward after the diverging update of step 1 reaches BBox
        # before any loss would show the divergence
        model, ds = tiny_setup(seed=1)
        with pytest.raises(DivergenceError, match=r"in evaluation for samples \[0, 1, 2, 3\]$"):
            train_toy(model, ds, TrainConfig(steps=5, lr=1e8, eval_every=1,
                                             target_train_p50=None))

    def test_non_finite_loss_aborts_naming_the_step(self):
        # a confidence bias of 40 rounds the float64 sigmoid to exactly 1.0,
        # so the loss takes log(0) of an unmatched query's 1 - p
        model, ds = tiny_setup(seed=1)
        bias = next(p for p in model.parameters() if p.name == "head.conf_out.b")
        bias.data[...] = 40.0
        with np.errstate(divide="ignore"), pytest.raises(DivergenceError,
                                                         match=r"^non-finite loss at step 1$"):
            train_toy(model, ds, TrainConfig(steps=3, eval_every=0, target_train_p50=None))

    def test_non_finite_gradient_aborts_naming_step_and_parameter(self, monkeypatch):
        from mogref import train

        model, ds = tiny_setup(seed=1)
        target = model.parameters()[3]
        before = target.data.copy()
        real_backward = train.backward
        calls = []

        def backward_with_nan_on_step_two(loss):
            real_backward(loss)
            calls.append(None)
            if len(calls) == 2:
                target.grad.flat[0] = np.nan

        monkeypatch.setattr(train, "backward", backward_with_nan_on_step_two)
        with pytest.raises(DivergenceError, match=rf"step 2 in {re.escape(target.name)}$"):
            train_toy(model, ds, TrainConfig(steps=5, eval_every=0, target_train_p50=None))
        assert len(calls) == 2
        # step 1 moved the parameter; the NaN of step 2 never reached it
        assert not (target.data == before).all()
        assert np.isfinite(target.data).all()

    def test_batches_cycle_through_the_dataset_in_order(self, monkeypatch):
        model, ds = tiny_setup(scenes=4)
        real_forward = model.forward
        visited = []

        def recording_forward(images, token_ids):
            visited.append([next(i for i in range(len(ds)) if np.array_equal(ds.images[i], image))
                            for image in images])
            return real_forward(images, token_ids)

        monkeypatch.setattr(model, "forward", recording_forward)
        train_toy(model, ds, TrainConfig(steps=3, batch_size=3, eval_every=0,
                                         target_train_p50=None))
        assert visited == [[0, 1, 2], [3, 0, 1], [2, 3, 0]]

    @pytest.mark.parametrize("field, value", [("eval_every", 1.5), ("steps", True),
                                              ("batch_size", 2.5)])
    def test_non_integer_count_is_refused_naming_it(self, field, value):
        # eval_every=1.5 evaluated every third step, steps=True trained one
        # step and batch_size=2.5 failed later with a bare TypeError
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {value!r}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("lr", True), ("lr", "0.1"), ("target_train_p50", True), ("target_train_p50", False),
        ("target_train_p50", "0.5"),
        pytest.param("lr", 10**400, id="lr-past-a-float"),
        pytest.param("target_train_p50", 10**400, id="target_train_p50-past-a-float"),
        pytest.param("target_train_p50", -10**400, id="target_train_p50-past-minus-a-float"),
        pytest.param("target_train_p50", float("-inf"), id="target_train_p50--inf"),
    ])
    def test_non_number_rate_or_target_is_refused_naming_it(self, field, value):
        # lr=True trained at rate 1.0, target_train_p50=False stopped at the
        # first evaluation, either string failed with a bare TypeError and
        # lr=10**400 with a bare OverflowError
        rule = {"lr": "a finite number > 0", "target_train_p50": "a number <= 1 or None"}[field]
        with pytest.raises(ValidationError, match=f"^{field} must be {re.escape(rule)}, got {value!r}$"):
            TrainConfig(**{field: value})

    def test_early_stop_reports_fit_step(self):
        # a 1-scene dataset is fit almost immediately
        dataset = build_synthetic_dataset(1, TINY_SPEC, VOCAB, 3)
        model = SCSModel(TINY_CFG, VOCAB, RngState(3))
        result = train_toy(model, dataset, TrainConfig(
            steps=400, lr=3e-3, batch_size=0, eval_every=10, target_train_p50=1.0))
        assert result.fit_step is not None
        assert result.final_train_p50 == 1.0
        assert result.steps_run < 400


def reference_eval(boxes, targets, thetas=DEFAULT_THRESHOLDS) -> EvalResult:
    """The eval protocol from scalar ``iou`` and ``max``: each sample's box is
    scored by its best IoU over the sample's targets, correct when > theta."""
    best = [max(iou(BBox(*box), t) for t in tgts) for box, tgts in zip(boxes, targets)]
    precisions = {t: sum(v > t for v in best) / len(best) for t in thetas}
    return EvalResult(precisions, sum(precisions.values()) / len(precisions), len(best))


def nested(box: BBox, overlap: float) -> BBox:
    """The box of the same center whose IoU with ``box`` is ``overlap``."""
    return BBox(box.cx, box.cy, box.w * overlap**0.5, box.h * overlap**0.5)


class TestEvaluation:
    def test_perfect_oracle_predictor_scores_one(self, monkeypatch):
        model, ds = tiny_setup(scenes=6)
        oracle = box_rows([targets[0] for targets in ds.targets])
        monkeypatch.setattr(train_module, "predict_best_boxes", lambda *_: oracle)
        assert evaluate_model(model, ds).mp == 1.0

    def test_each_sample_is_scored_against_its_best_target(self):
        # two or three targets per sample, the best one at every position;
        # scoring only the first or only the last target reads lower
        model, ds = tiny_setup(scenes=6)
        preds = train_module.predict_best_boxes(model, ds)
        overlaps = [(0.55, 0.1), (0.2, 0.65), (0.3, 0.75, 0.05), (0.1, 0.85, 0.4),
                    (0.02, 0.3, 0.95), (0.45, 0.58)]
        targets = [[nested(BBox(*box), v) for v in vs] for box, vs in zip(preds, overlaps)]
        result = evaluate_model(model, replace(ds, targets=targets))
        assert result == reference_eval(preds, targets)
        assert result.precisions == {0.5: 1.0, 0.6: 4 / 6, 0.7: 3 / 6, 0.8: 2 / 6}

    def test_a_sample_without_targets_is_refused(self):
        # a per-sample maximum over no targets would read a neighbour's IoU
        model, ds = tiny_setup(scenes=3)
        with pytest.raises(ValueError, match="every evaluated sample needs a target box"):
            evaluate_model(model, replace(ds, targets=[ds.targets[0], [], ds.targets[2]]))

    def test_precisions_are_python_floats(self):
        model, ds = tiny_setup(scenes=4)
        result = evaluate_model(model, ds)
        assert {type(v) for v in result.precisions.values()} | {type(result.mp)} == {float}

    def test_one_overlap_call_per_evaluation(self, monkeypatch):
        model, ds = tiny_setup(scenes=4)
        calls = []
        real = train_module.box_overlaps
        monkeypatch.setattr(train_module, "box_overlaps",
                            lambda a, b: calls.append(a.shape) or real(a, b))
        evaluate_model(model, ds)
        assert calls == [(4, 4)]

    def test_predict_best_boxes_uses_argmax_confidence(self):
        model, ds = tiny_setup(scenes=3)
        preds = predict_best_boxes(model, ds)
        assert preds.shape == (3, 4)
        pred_full = model.forward(ds.images, ds.token_ids)
        for b, box in enumerate(preds):
            q = int(np.argmax(pred_full.confidence.data[b]))
            assert np.allclose(box, np.clip(pred_full.boxes.data[b, q], 0.0, 1.0))

    def test_evaluate_model_bounds(self):
        model, ds = tiny_setup(scenes=4)
        result = evaluate_model(model, ds)
        assert set(result.precisions) == {0.5, 0.6, 0.7, 0.8}
        assert all(0.0 <= v <= 1.0 for v in result.precisions.values())
        assert result.count == 4

    def test_constant_predictor_on_fixture_matches_hand_ious(self, fixtures_dir, monkeypatch):
        from mogref.data import load_annotations
        from mogref.train import _targets_of

        records = load_annotations(fixtures_dir / "annotations_fixture.json")
        targets = [_targets_of(r) for r in records]
        constant = BBox(0.5, 0.35, 0.12, 0.12)
        # record 1 target normalizes to (0.5, 0.35, 0.1, 0.1): nested boxes,
        # IoU = 0.01 / 0.0144 = 25/36 ~ 0.694; record 2 overlaps negligibly
        assert iou(constant, targets[0][0]) == pytest.approx(25.0 / 36.0, abs=1e-12)
        assert iou(constant, targets[1][0]) < 0.01
        monkeypatch.setattr(train_module, "predict_best_boxes",
                            lambda *_: box_rows([constant, constant]))
        dataset = GroundingDataset(np.zeros((2, 1, 1, 3)), np.zeros((2, 1), dtype=np.intp),
                                   targets, records)
        result = evaluate_model(None, dataset)
        assert result.precisions == {0.5: 0.5, 0.6: 0.5, 0.7: 0.0, 0.8: 0.0}
        assert result.mp == 0.25


def reference_adam_update(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The plain-expression Adam update the in-place step must reproduce bit for bit."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    p -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)


class TestAdam:
    @staticmethod
    def two_groups(seed, dtype=np.float64):
        rng = np.random.default_rng(seed)
        a = Parameter("a", rng.normal(0.0, 1.0, (4, 6)).astype(dtype))
        b = Parameter("b", rng.normal(0.0, 1.0, (5,)).astype(dtype))
        Arena([a, b], dtype)
        return [ParamGroup([a], 3e-3), ParamGroup([b], 3e-3)], rng

    def check_plain_expressions(self, dtype):
        groups, rng = self.two_groups(0, dtype)
        opt = Adam(groups)
        params = [p for g in groups for p in g.params]
        ref = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
        for t in range(1, 4):
            for p in params:
                grad = rng.normal(0.0, 1.0, p.shape) * 10.0 ** rng.integers(-6, 3, p.shape)
                p.grad[...] = grad.astype(dtype)
            opt.step()
            for p, (rp, rm, rv) in zip(params, ref):
                reference_adam_update(rp, p.grad, rm, rv, t, 3e-3)
                assert p.data.dtype == dtype
                assert np.array_equal(p.data, rp)

    def test_step_bit_identical_to_the_plain_expressions(self):
        self.check_plain_expressions(np.float64)

    def test_float32_step_stays_float32_and_bit_identical_to_the_plain_expressions(self):
        # m, v and the scratch are float32 too, so no step rounds through float64
        self.check_plain_expressions(np.float32)

    @staticmethod
    def model_groups(model):
        projector = model.projector.parameters()
        return [ParamGroup(projector, 1e-3), ParamGroup(model.parameters()[len(projector):], 1e-3)]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_projector_and_rest_groups_at_one_lr_equal_one_group_bit_for_bit(self, dtype):
        # the benchmark times Adam([projector, rest]) and checks its log
        # against train_toy's one group, so the split must change no bit
        cfg = replace(TINY_CFG, dtype=dtype)
        split, reverse, whole = (SCSModel(cfg, VOCAB, RngState(6)) for _ in range(3))
        assert np.array_equal(split.arena.data, whole.arena.data)
        optimizers = [Adam(self.model_groups(split)),
                      Adam(self.model_groups(reverse)[::-1]),  # any order covers the arena
                      Adam([ParamGroup(whole.parameters(), 1e-3)])]
        rng, size = np.random.default_rng(6), whole.arena.grad.size
        for _ in range(5):
            grad = rng.normal(0.0, 1.0, size) * 10.0 ** rng.integers(-6, 3, size)
            for model, opt in zip((split, reverse, whole), optimizers):
                model.arena.grad[...] = grad
                opt.step()
        assert split.arena.data.dtype == np.dtype(dtype)
        assert not np.array_equal(split.arena.data, SCSModel(cfg, VOCAB, RngState(6)).arena.data)
        assert np.array_equal(split.arena.data, whole.arena.data)
        assert np.array_equal(reverse.arena.data, whole.arena.data)

    def test_zero_grad_zeroes_every_gradient_in_one_fill(self):
        from mogref.matching import grounding_loss
        from mogref.tensor import backward

        model, ds = tiny_setup()
        opt = Adam([ParamGroup(model.parameters(), 1e-3)])  # as train_toy builds it
        pred = model.forward(ds.images, ds.token_ids)
        backward(grounding_loss(pred.boxes, pred.confidence, ds.targets)[0])
        assert all(np.any(p.grad != 0.0) for p in model.parameters()[:3])
        opt.zero_grad()
        assert not model.arena.grad.any()
        assert all(not p.grad.any() for p in model.parameters())

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_step_allocates_nothing_arena_sized(self, dtype):
        # the update runs through the optimizer's kept (2, block) scratch;
        # two arena-sized temporaries per step would peak at twice the arena
        model = SCSModel(ModelConfig(vocab_size=len(VOCAB), dtype=dtype), VOCAB, RngState(0))
        opt = Adam(self.model_groups(model))
        model.arena.grad[...] = np.random.default_rng(0).normal(0.0, 1.0, model.arena.grad.size)
        opt.step()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.arena.data.size > 8 * train_module._ADAM_BLOCK
        assert peak - base < model.arena.data.nbytes / 4, (peak - base, model.arena.data.nbytes)

    @staticmethod
    def rejected_groups(case, model):
        """Groups that are not every parameter of one arena, once, at one lr."""
        params, lr = model.parameters(), 1e-3
        projector = model.projector.parameters()
        if case == "empty":
            return [ParamGroup([], lr)]
        if case == "loose":
            return [ParamGroup(params + [Parameter("loose", np.zeros(3))], lr)]
        if case == "loose view":
            # values that view a whole array, but a gradient of its own
            return [ParamGroup([Parameter("view", np.zeros(6)[:])], lr)]
        if case == "two arenas":
            return [ParamGroup(params, lr), ParamGroup(tiny_setup()[0].parameters(), lr)]
        if case == "projector alone":
            return [ParamGroup(projector, lr)]
        if case == "duplicate":
            # w_q twice in place of the equal-sized w_k, so the sizes still add up
            w_k = next(p for p in params if p.name.endswith(".w_k"))
            w_q = next(p for p in params if p.name == w_k.name[:-1] + "q")
            return [ParamGroup([w_q if p is w_k else p for p in params], lr)]
        if case in ("rebound data", "rebound grad"):
            attr = case.split()[1]
            setattr(params[5], attr, getattr(params[5], attr).copy())
            return [ParamGroup(params, lr)]
        assert case == "two lrs"
        return [ParamGroup(projector, lr), ParamGroup(params[len(projector):], 2 * lr)]

    @pytest.mark.parametrize("case, message", [pytest.param(case, message, id=case) for case, message in [
        ("empty", "exactly once"),
        ("loose", "parameter loose is not a view"),
        ("loose view", "parameter view is not a view"),
        ("two arenas", "packed in another arena"),
        ("projector alone", "exactly once"),
        ("duplicate", "exactly once"),
        ("rebound data", "parameter sce.0.attn.w_k is not a view"),
        ("rebound grad", "parameter sce.0.attn.w_k is not a view"),
        ("two lrs", "one lr"),
    ]])
    def test_groups_that_are_not_one_whole_arena_at_one_lr_raise(self, case, message):
        model, _ = tiny_setup()
        with pytest.raises(ValueError, match=re.escape(message)):
            Adam(self.rejected_groups(case, model))

    def test_state_is_one_flat_m_and_v_over_the_run(self):
        model, _ = tiny_setup()
        opt = Adam(self.model_groups(model))
        assert opt.m.shape == opt.v.shape == model.arena.data.shape
        model.arena.grad[...] = 1.0
        opt.step()
        assert opt.t == 1 and opt.m.all() and opt.v.all()

    @pytest.mark.parametrize("attr", ["grad", "data"])
    def test_rebound_parameter_array_raises(self, attr):
        model, _ = tiny_setup()
        opt = Adam(self.model_groups(model))
        p = model.parameters()[5]
        setattr(p, attr, getattr(p, attr).copy())
        before = model.arena.data.copy()
        with pytest.raises(RuntimeError, match=re.escape(p.name)):
            opt.step()
        assert np.array_equal(model.arena.data, before)


class TestDtypeAudit:
    def test_default_training_step_is_float32_up_to_the_head_cast(self):
        # every node the head's two casts read from is float32, the boxes,
        # confidences and loss after them float64; every gradient and Adam's
        # state keep the parameters' float32
        from mogref.matching import grounding_loss
        from mogref.tensor import backward

        dataset = build_synthetic_dataset(8, SyntheticSceneSpec(image_size=64), VOCAB, 0)
        model = SCSModel(ModelConfig(vocab_size=len(VOCAB)), VOCAB, RngState(0))
        assert model.config.dtype == "float32"
        opt = Adam([ParamGroup(model.parameters(), 1e-3)])
        pred = model.forward(dataset.images, dataset.token_ids)
        loss, _ = grounding_loss(pred.boxes, pred.confidence, dataset.targets)

        def ancestors(roots):
            found, stack = {}, list(roots)
            while stack:
                node = stack.pop()
                if id(node) not in found:
                    found[id(node)] = node
                    stack.extend(node._parents)
            return list(found.values())

        def name(node):
            return getattr(node, "name", None) or node._backward.__qualname__

        def closure_arrays(node):
            """Float arrays a backward closure keeps, through tuples, lists and dataclasses."""
            found, stack = [], [cell.cell_contents for cell in node._backward.__closure__ or ()]
            while stack:
                obj = stack.pop()
                if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
                    found.append(obj)
                elif isinstance(obj, Tensor):
                    stack.append(obj.data)  # its data, not its graph
                elif isinstance(obj, (tuple, list)):
                    stack.extend(obj)
                elif hasattr(obj, "__dataclass_fields__"):
                    stack.extend(getattr(obj, f) for f in obj.__dataclass_fields__)
                elif callable(obj) and getattr(obj, "__closure__", None):
                    stack.extend(cell.cell_contents for cell in obj.__closure__)
            return found

        casts = [n for n in ancestors([loss]) if n._backward and n._backward.__qualname__ == "cast"]
        assert len(casts) == 2
        before = ancestors([p for c in casts for p in c._parents])
        assert len(before) > 100
        assert sorted({name(n) for n in before if n.data.dtype != np.float32}) == []
        # what the closures keep, e.g. the attention core's class sums and keys
        assert sorted({name(n) for n in before if n._backward
                       and any(a.dtype != np.float32 for a in closure_arrays(n))}) == []
        assert {c.data.dtype for c in casts} == {np.dtype(np.float64)}
        assert loss.data.dtype == np.float64

        opt.zero_grad()
        backward(loss)
        assert sorted(p.name for p in model.parameters() if p.grad.dtype != np.float32) == []
        opt.step()
        assert sorted(p.name for p in model.parameters() if p.data.dtype != np.float32) == []
        assert {opt.m.dtype, opt.v.dtype} == {np.dtype(np.float32)}

    def test_eval_boxes_and_confidences_are_float64(self):
        model, dataset = tiny_setup()
        assert model.config.dtype == "float32"
        with no_grad():
            assert model.forward(dataset.images, dataset.token_ids).confidence.data.dtype == np.float64
        assert predict_best_boxes(model, dataset).dtype == np.float64


class TestEvalChunks:
    @pytest.mark.parametrize("tokens, scenes", [(1, 16), (74, 16), (75, 15), (266, 4),
                                                (1034, 1), (5000, 1)])
    def test_scenes_per_forward_follow_the_token_rows(self, tokens, scenes):
        assert eval_chunk(tokens) == scenes


@pytest.fixture(scope="module")
def longseq():
    """The default model and 16 scenes at 128 px: 256 patches and 10 words."""
    spec = SyntheticSceneSpec(image_size=128)
    dataset = build_synthetic_dataset(16, spec, VOCAB, 3)
    model = SCSModel(ModelConfig(image_size=128, vocab_size=len(VOCAB)), VOCAB, RngState(3))
    return model, dataset


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestLongSequenceEval:
    def full_forward(self, model, dataset):
        with no_grad():
            return model.forward(dataset.images, dataset.token_ids)

    def test_chunked_boxes_agree_with_one_forward(self, longseq):
        model, ds = longseq
        assert eval_chunk(model.config.num_visual_tokens + ds.token_ids.shape[1]) == 4
        full = self.full_forward(model, ds)
        best = np.argmax(full.confidence.data, axis=1)
        want = np.clip(full.boxes.data[np.arange(len(ds)), best], 0.0, 1.0)
        np.testing.assert_allclose(predict_best_boxes(model, ds), want, rtol=0, atol=1e-12)
        assert evaluate_model(model, ds).precisions == reference_eval(want, ds.targets).precisions

    def test_eval_peak_is_under_half_of_one_forward(self, longseq):
        model, ds = longseq
        self.full_forward(model, ds)  # size the attention core's reusable buffers first
        eval_mb = traced_peak_mb(lambda: evaluate_model(model, ds))
        full_mb = traced_peak_mb(lambda: self.full_forward(model, ds))
        assert eval_mb < 0.5 * full_mb, (eval_mb, full_mb)
