import argparse
import ast
import csv
import dataclasses
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mogref
from mogref import allocator, cli
from mogref.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    main,
)
from mogref.data import (
    SyntheticSceneSpec,
    ValidationError,
    default_vocab,
    load_annotations,
    read_ppm,
)
from mogref.metrics import EvalResult
from mogref.model import ModelConfig, SCSModel
from mogref.train import TrainConfig, build_synthetic_dataset, load_dataset_dir

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TINY_MODEL_FLAGS = [
    "--model-dim", "8", "--num-heads", "2", "--sce-blocks", "1",
    "--num-queries", "2", "--ffn-dim", "12", "--image-size", "16",
    "--patch-size", "8", "--distractors", "1",
]


def read_csv_rows(path: Path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


def comments_of(path: Path):
    return [l for l in path.read_text().splitlines() if l.startswith("#")]


class TestGradcheckCommand:
    @pytest.mark.parametrize("only", ["matmul,mog_forward,match_and_loss",
                                      " matmul, mog_forward ,,match_and_loss "],
                             ids=["plain", "spaced"])
    def test_writes_valid_json_and_passes(self, tmp_path, only):
        # a fast subset here; the acceptance suite runs the full registry
        code = main(["gradcheck", "--only", only, "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "gradcheck.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["all_passed"] is True
        assert "run_config" in doc
        assert {r["op"] for r in doc["results"]} == {"matmul", "mog_forward", "match_and_loss"}
        # each case also proves it would catch its gradient's sign flip
        for r in doc["results"]:
            assert np.isfinite(r["flipped_rel_err"]) and r["flipped_rel_err"] > r["tolerance"], r

    @pytest.mark.parametrize("why", ["sign flip not caught", "gradient outside tol"],
                             ids=["zero_gradient", "wrong_sign"])
    def test_a_failing_case_exits_numerical_saying_why(self, tmp_path, capsys, monkeypatch, why):
        # a - a has an exactly zero gradient, and so has its sign flip; the
        # cube's partial has the wrong sign
        from mogref import gradcheck_cases
        from mogref.tensor import _record

        def wrong_sign_cube(a):
            return _record(wrong_sign_cube, a.data ** 3, [a], [lambda g: -3.0 * a.data ** 2 * g])

        op = (lambda a: a - a) if why == "sign flip not caught" else wrong_sign_cube
        bad = gradcheck_cases._case(op, ("a", (3,)), proj=(3,))
        monkeypatch.setattr(gradcheck_cases, "_CASES", [*gradcheck_cases._CASES, ("bad", bad)])
        code = main(["gradcheck", "--only", "bad,gelu_affine", "--out-dir", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        doc = json.loads((tmp_path / "gradcheck.json").read_text())
        assert [r["op"] for r in doc["results"] if not r["passed"]] == ["bad"]
        assert doc["all_passed"] is False
        out, err = capsys.readouterr()
        assert re.search(rf"^FAIL bad .*: {why}$", out, re.M), out
        assert "gradient check FAILED for: bad" in err

    @pytest.mark.parametrize("flags, expected", [
        (["--only", "matmull"], "unknown gradcheck case names"),
        (["--only", "matmul,gelu2"], "unknown gradcheck case names"),
        (["--only", ","], "names no gradcheck case"),
        (["--only", ""], "names no gradcheck case"),
        (["--only", " , "], "names no gradcheck case"),
    ], ids=["typo", "typo_in_list", "comma", "empty", "spaces"])
    def test_unknown_case_name_exits_validation_and_writes_nothing(self, tmp_path, capsys,
                                                                   flags, expected):
        # at a typo or a list of no names, the run would check nothing and pass
        code = main(["gradcheck", *flags, "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "gradcheck.json").exists()


class TestMakeDataAndStats:
    def test_make_data_then_stats(self, tmp_path):
        data_dir = tmp_path / "data"
        code = main(["make-data", "--scenes", "5", "--seed", "3", "--image-size", "16",
                     "--distractors", "1", "--ppm", "--out-dir", str(data_dir)])
        assert code == EXIT_OK
        assert (data_dir / "annotations.json").exists()
        assert len(list((data_dir / "images").glob("*.ppm"))) == 5

        stats_dir = tmp_path / "stats"
        code = main(["stats", "--data", str(data_dir / "annotations.json"),
                     "--out-dir", str(stats_dir)])
        assert code == EXIT_OK
        doc = json.loads((stats_dir / "stats.json").read_text())
        assert doc["stats"]["bbox_count"] == 5
        header = comments_of(stats_dir / "stats.csv")
        assert any("o2s" in line for line in header)  # definitions documented

    def test_stats_reads_a_dataset_directory_as_train_does(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["make-data", "--scenes", "3", "--seed", "3", "--image-size", "16",
                     "--distractors", "1", "--out-dir", str(data_dir)]) == EXIT_OK
        outputs = []
        for data in (data_dir, data_dir / "annotations.json"):
            out = tmp_path / data.name
            assert main(["stats", "--data", str(data), "--out-dir", str(out)]) == EXIT_OK
            outputs.append((json.loads((out / "stats.json").read_text())["stats"],
                            read_csv_rows(out / "stats.csv")))
        assert outputs[0] == outputs[1]

    def test_make_data_writes_the_training_dataset(self, tmp_path):
        # make-data and training draw the same scenes for a seed and spec
        code = main(["make-data", "--scenes", "3", "--seed", "3", "--image-size", "16",
                     "--distractors", "1", "--ppm", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        spec = SyntheticSceneSpec(image_size=16, num_distractors=1)
        dataset = build_synthetic_dataset(3, spec, default_vocab(), 3, dtype="float64")
        assert load_annotations(tmp_path / "annotations.json") == dataset.records
        # training on the directory stores the quantized rasters rounded once to float32
        stored = load_dataset_dir(tmp_path, default_vocab()).images
        assert stored.dtype == np.float32
        for record, image, loaded in zip(dataset.records, dataset.images, stored):
            quantized = np.rint(image * 255.0) / 255.0
            raster = read_ppm(tmp_path / "images" / f"{record.image_id}.ppm")
            assert np.array_equal(raster, quantized)
            assert np.array_equal(loaded, quantized.astype(np.float32))

    @pytest.mark.parametrize("args", [
        ["make-data", "--scenes", "100000000000"],
        ["train", "--steps", "1", "--scenes", "1", "--ffn-dim", "1000000000000"],
    ], ids=["make-data-scenes", "train-ffn-dim"])
    def test_a_request_too_large_for_memory_exits_validation(self, tmp_path, capsys, args):
        # each asks for an array past the 48-bit address space, which no
        # overcommit setting can grant, so numpy raises before allocating
        assert main([*args, "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        assert "Unable to allocate" in capsys.readouterr().err

    def test_stats_matches_bundled_expected_file(self, tmp_path, fixtures_dir):
        code = main(["stats", "--data", str(fixtures_dir / "annotations_fixture.json"),
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        emitted = json.loads((tmp_path / "stats.json").read_text())["stats"]
        expected = json.loads((fixtures_dir / "expected_stats.json").read_text())
        assert emitted == expected

    def test_stats_on_malformed_file_exits_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "records": [{"image_id": "x"}]}')
        assert main(["stats", "--data", str(bad), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("field, value, named", [
        ("image_w", None, "image_w"),
        ("image_w", "x", "image_w"),
        ("image_h", [64], "image_h"),
        ("target_boxes", [[1, None, 3, 4]], r"target_boxes\[0\]\[1\]"),
        ("target_boxes", [[1, 1, 2, 2], [1, 1, "nan", 4]], r"target_boxes\[1\]\[2\]"),
        ("image_w", 64.9, r"image_w"),
        ("image_w", 64.0, r"image_w"),
        ("image_h", True, r"image_h"),
        ("target_boxes", [[1, 1, True, 2]], r"target_boxes\[0\]\[2\]"),
        ("image_w", 10**400, r"image_w"),
        ("target_boxes", [[1, 10**400, 2, 2]], r"target_boxes\[0\]\[1\]"),
    ], ids=["image_w-null", "image_w-string", "image_h-list", "box-null", "box-nan-string",
            "image_w-fraction", "image_w-float", "image_h-bool", "box-bool",
            "image_w-past-a-float", "box-past-a-float"])
    def test_stats_on_malformed_number_names_record_and_field(self, tmp_path, capsys,
                                                               field, value, named):
        good = {"image_id": "a", "image_w": 64, "image_h": 64, "expression": "e",
                "target_boxes": [[1, 1, 2, 2]]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "records": [good, {**good, field: value}]}))
        assert main(["stats", "--data", str(bad), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        assert re.search(rf"records\[1\]: {named} must be a finite number", capsys.readouterr().err)

    @pytest.mark.parametrize("field, value, kind", [
        ("image_id", None, "a string"),
        ("expression", None, "a string"),
        ("category", 5, "a string or null"),
    ])
    def test_stats_on_non_string_names_record_and_field(self, tmp_path, capsys,
                                                         field, value, kind):
        good = {"image_id": "a", "image_w": 64, "image_h": 64, "expression": "e",
                "target_boxes": [[1, 1, 2, 2]]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "records": [good, {**good, field: value}]}))
        assert main(["stats", "--data", str(bad), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        assert f"records[1]: {field} must be {kind}, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("records", [5, None, True, {"image_id": "a"}, "abc"],
                             ids=["number", "null", "bool", "object", "string"])
    def test_stats_on_records_that_are_no_list_exits_validation(self, tmp_path, capsys, records):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "records": records}))
        assert main(["stats", "--data", str(bad), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        assert "records must be a list" in capsys.readouterr().err

    def test_stats_missing_file_exits_io(self, tmp_path):
        assert main(["stats", "--data", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)]) == EXIT_IO

    def test_stats_on_empty_record_list_is_error_not_empty_stats(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"schema_version": 1, "records": []}')
        assert main(["stats", "--data", str(empty),
                     "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        assert not (tmp_path / "stats.json").exists()


class TestTrainEval:
    def test_zero_step_train_writes_init_checkpoint(self, tmp_path):
        code = main(["train", "--steps", "0", "--scenes", "2", "--seed", "1",
                     *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        ckpt = SCSModel.load(tmp_path / "checkpoint.json")
        from mogref.data import default_vocab
        from mogref.model import ModelConfig
        from mogref.rng import RngState

        fresh = SCSModel(ckpt.config, default_vocab(), RngState(1))
        for a, b in zip(ckpt.parameters(), fresh.parameters()):
            assert (a.data == b.data).all(), a.name

    def test_short_train_then_eval_round_trip(self, tmp_path):
        train_dir = tmp_path / "train"
        code = main(["train", "--steps", "6", "--scenes", "2", "--seed", "2",
                     "--batch-size", "2", "--eval-every", "3", "--target-p50", "0",
                     *TINY_MODEL_FLAGS, "--out-dir", str(train_dir)])
        assert code == EXIT_OK
        log_rows = read_csv_rows(train_dir / "train_log.csv")
        assert [int(r["step"]) for r in log_rows] == [1, 2, 3, 4, 5, 6]
        summary = json.loads((train_dir / "train_summary.json").read_text())
        assert summary["steps_run"] == 6
        assert set(summary["blas_env"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "cpu_count"}

        eval_dir = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(train_dir / "checkpoint.json"),
                     "--scenes", "2", "--seed", "2", "--distractors", "1",
                     "--out-dir", str(eval_dir)])
        assert code == EXIT_OK
        doc = json.loads((eval_dir / "eval.json").read_text())
        parsed = EvalResult.from_json(doc["eval"])
        assert parsed.count == 2
        rows = read_csv_rows(eval_dir / "eval.csv")
        assert set(rows[0]) == {"P@0.5", "P@0.6", "P@0.7", "P@0.8", "mP", "count"}
        # CSV and JSON agree losslessly
        assert float(rows[0]["mP"]) == parsed.mp

    def test_train_determinism_across_runs(self, tmp_path):
        args = ["train", "--steps", "5", "--scenes", "2", "--seed", "9",
                "--batch-size", "2", "--eval-every", "0", *TINY_MODEL_FLAGS]
        main([*args, "--out-dir", str(tmp_path / "a")])
        main([*args, "--out-dir", str(tmp_path / "b")])
        log_a = (tmp_path / "a" / "train_log.csv").read_text()
        log_b = (tmp_path / "b" / "train_log.csv").read_text()
        # identical up to the echoed out-dir in the header
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
        assert strip(log_a) == strip(log_b)

    def test_eval_checkpoint_config_mismatch(self, tmp_path, capsys):
        main(["train", "--steps", "0", "--scenes", "1", "--seed", "1",
              *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        # evaluate a 16-px checkpoint on a dataset rendered at 32 px
        main(["make-data", "--scenes", "1", "--seed", "1", "--image-size", "32",
              "--distractors", "1", "--ppm", "--out-dir", str(tmp_path / "data")])
        code = main(["eval", "--checkpoint", str(tmp_path / "checkpoint.json"),
                     "--data", str(tmp_path / "data"), "--out-dir", str(tmp_path / "eval")])
        assert code == EXIT_VALIDATION
        assert "expected images of shape (B, 16, 16, 3), got (1, 32, 32, 3)" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_eval_defaults_to_the_checkpoint_image_size(self, tmp_path):
        main(["train", "--steps", "0", "--scenes", "1", "--seed", "1",
              *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        # the scenes are built at the checkpoint's 16 px, which run_config records
        code = main(["eval", "--checkpoint", str(tmp_path / "checkpoint.json"),
                     "--scenes", "1", "--seed", "1", "--distractors", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert doc["run_config"]["image_size"] == 16

    @pytest.mark.parametrize("mangle", [
        lambda doc: [doc],
        lambda doc: {k: v for k, v in doc.items() if k != "config"},
        lambda doc: {**doc, "config": {k: v for k, v in doc["config"].items() if k != "dilations"}},
        lambda doc: {**doc, "params": {**doc["params"], "queries": [0.0]}},
        lambda doc: {**doc, "params": {**doc["params"], "queries": {"shape": [2, 8]}}},
        lambda doc: {**doc, "params": {**doc["params"], "queries": {"shape": 16, "data": [0.0] * 16}}},
        lambda doc: {**doc, "params": {**doc["params"], "queries": {"shape": [2, 8], "data": [0.0]}}},
        lambda doc: {**doc, "params": {**doc["params"],
                                       "queries": {"shape": [2, 8], "data": [None] * 16}}},
        lambda doc: {**doc, "params": {**doc["params"],
                                       "queries": {"shape": [2, 8], "data": [{}] * 16}}},
    ], ids=["list", "no-config", "no-dilations", "entry-not-object", "entry-without-data",
            "shape-not-list", "data-wrong-length", "data-null", "data-object"])
    def test_eval_malformed_checkpoint_exits_validation(self, tmp_path, mangle):
        main(["train", "--steps", "0", "--scenes", "1", "--seed", "1",
              *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(mangle(json.loads(ckpt.read_text()))))
        code = main(["eval", "--checkpoint", str(ckpt), "--scenes", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("section, key, value, named", [
        ("vocab", 0, ["red"], "vocab[0] must be a string, got ['red']"),
        ("vocab", 0, {"red": 1}, "vocab[0] must be a string, got {'red': 1}"),
        ("config", "model_dim", 8.0, "model_dim must be an integer, got 8.0"),
        ("config", "num_queries", True, "num_queries must be an integer, got True"),
        ("config", "dilations", [1, 2, 3, 4.7], "each of dilations must be an integer, got 4.7"),
        ("config", "dilations", [True, 2, 3, 4], "each of dilations must be an integer, got True"),
        ("vocab", 1, "the", "bad checkpoint vocab: vocabulary contains duplicate words"),
        ("config", "vocab_size", 7, "config vocab_size is 7"),
    ], ids=["vocab-list", "vocab-object", "float-model-dim", "bool-count", "fraction-dilation",
            "bool-dilation", "vocab-duplicate", "vocab-size"])
    def test_eval_checkpoint_with_a_mistyped_value_names_it(self, tmp_path, capsys,
                                                            section, key, value, named):
        main(["train", "--steps", "0", "--scenes", "1", "--seed", "1",
              *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        ckpt = tmp_path / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        doc[section][key] = value
        ckpt.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(ckpt), "--scenes", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("field, named", [
        ("ffn_dim", "parameter sce.0.ffn_in.w needs shape [8, 1000000000] and a data list, got shape [8, 12]"),
        ("model_dim", "parameter projector.patch.w needs shape [192, 1000000000]"),
        ("num_queries", "parameter queries needs shape [1000000000, 8]"),
        ("sce_blocks", "parameter set mismatch (missing ['sce.1."),
        ("ssd_blocks", "parameter set mismatch (missing ['ssd.1."),
    ], ids=["ffn_dim", "model_dim", "num_queries", "sce_blocks", "ssd_blocks"])
    def test_eval_checkpoint_with_a_huge_count_exits_before_building_a_model(
            self, tmp_path, capsys, monkeypatch, field, named):
        main(["train", "--steps", "0", "--scenes", "1", "--seed", "1",
              *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        ckpt = tmp_path / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        doc["config"][field] = 10**9  # a model of it would take gigabytes or more
        ckpt.write_text(json.dumps(doc))

        def refuse(*args, **kwargs):
            raise AssertionError("the checkpoint's shapes are checked before a model is built")

        monkeypatch.setattr(SCSModel, "__init__", refuse)
        code = main(["eval", "--checkpoint", str(ckpt), "--scenes", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["make-data", "train", "sweep", "eval"])
    def test_default_flags_give_default_configs(self, monkeypatch, command):
        # perfbench builds each config from its class defaults; from default
        # flags a command builds the same, but for the fields it sets itself
        vocab_size = len(default_vocab())
        expected = {
            "make-data": [SyntheticSceneSpec()],
            "train": [TrainConfig(), ModelConfig(vocab_size=vocab_size), SyntheticSceneSpec()],
            "sweep": [TrainConfig(steps=300, eval_every=0, target_train_p50=None),
                      ModelConfig(vocab_size=vocab_size, dilations=(1, 2, 3, 4, 5, 6)),
                      SyntheticSceneSpec()],
            "eval": [SyntheticSceneSpec(image_size=32)],  # the checkpoint's size
        }[command]
        built = []

        class Built(Exception):
            pass

        def build_dataset(*args, **kwargs):
            raise Built

        config = cli._config
        monkeypatch.setattr(cli, "_config", lambda *a, **k: built.append(config(*a, **k)) or built[-1])
        monkeypatch.setattr(cli, "build_synthetic_dataset", build_dataset)
        monkeypatch.setattr(cli, "tune_allocator", lambda: False)
        checkpoint = SimpleNamespace(config=SimpleNamespace(image_size=32, dtype="float32"),
                                     vocab=default_vocab())
        monkeypatch.setattr(SCSModel, "load", staticmethod(lambda path: checkpoint))
        args = build_parser().parse_args([command, *(["--checkpoint", "c.json"] * (command == "eval"))])
        with pytest.raises(Built):
            args.func(args)
        assert built == expected

    def test_a_new_config_field_is_a_flag(self):
        @dataclasses.dataclass
        class Config:
            count: int = 3
            rate: float = 0.5
            label_text: str = "a"
            widths: tuple[int, ...] = (1, 2)

        parser = argparse.ArgumentParser()
        cli._add_config_flags(parser, [Config])
        assert {a.dest for a in parser._actions} == {"help", *(f.name for f in dataclasses.fields(Config))}
        assert cli._config(Config, parser.parse_args([])) == Config()
        args = parser.parse_args(["--count", "4", "--rate", "0.25", "--label-text", "b",
                                  "--widths", " 5, ,6 "])
        assert cli._config(Config, args) == Config(4, 0.25, "b", (5, 6))

    @pytest.mark.parametrize("annotation, default", [
        (bool, False),  # argparse reads "False" as True
        (float | None, None),  # no type to parse with
        (float, 0),  # an int flag would refuse 0.5
        (tuple[int, ...], ()),  # no entry type
    ], ids=["bool", "none", "int_for_float", "empty_tuple"])
    def test_a_config_field_whose_default_types_no_flag_is_refused(self, annotation, default):
        Config = dataclasses.make_dataclass("Config", [("odd", annotation, default)])
        with pytest.raises(TypeError, match="odd"):
            cli._add_config_flags(argparse.ArgumentParser(), [Config])

    @pytest.mark.parametrize("skip, fixed, how", [((), {"count": 4}, "both"), (("count",), {}, "neither")],
                             ids=["both", "neither"])
    def test_a_field_is_set_by_its_flag_or_by_the_command(self, skip, fixed, how):
        Config = dataclasses.make_dataclass("Config", [("count", int, 3), ("rate", float, 0.5)])
        parser = argparse.ArgumentParser()
        cli._add_config_flags(parser, [Config], skip)
        with pytest.raises(TypeError, match=f"Config.count needs .* not {how}"):
            cli._config(Config, parser.parse_args([]), **fixed)

    @pytest.mark.parametrize("flag, text, field, entries", [
        ("--sizes", "small, large", "size_classes", ("small", "large")),
        ("--templates", " position,,relation ", "templates", ("position", "relation")),
    ])
    def test_list_flag_entries_are_stripped(self, monkeypatch, tmp_path, flag, text, field, entries):
        # as --dilations "1, 2" always was
        class Built(Exception):
            pass

        def build_dataset(scenes, spec, *args, **kwargs):
            raise Built(spec)

        monkeypatch.setattr(cli, "build_synthetic_dataset", build_dataset)
        with pytest.raises(Built) as built:
            main(["make-data", flag, text, "--out-dir", str(tmp_path)])
        assert getattr(built.value.args[0], field) == entries

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dtype_flag_reaches_checkpoint_and_run_config(self, tmp_path, dtype):
        code = main(["train", "--steps", "1", "--scenes", "2", "--seed", "1",
                     "--batch-size", "2", "--eval-every", "0", "--dtype", dtype,
                     *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        ckpt = SCSModel.load(tmp_path / "checkpoint.json")
        assert ckpt.config.dtype == dtype
        assert {p.data.dtype for p in ckpt.parameters()} == {np.dtype(dtype)}
        summary = json.loads((tmp_path / "train_summary.json").read_text())
        assert summary["run_config"]["dtype"] == dtype

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_train_and_eval_read_scenes_in_the_model_dtype(self, tmp_path, dtype, monkeypatch):
        # a float64 run never sees float32 scenes, from the generator or a --data directory
        main(["make-data", "--scenes", "2", "--seed", "1", "--image-size", "16",
              "--distractors", "1", "--ppm", "--out-dir", str(tmp_path / "data")])
        seen = set()
        forward = SCSModel.forward

        def recording(model, images, token_ids):
            seen.add((images.dtype.name, model.config.dtype))
            return forward(model, images, token_ids)

        monkeypatch.setattr(SCSModel, "forward", recording)
        for data in ([], ["--data", str(tmp_path / "data")]):
            assert main(["train", "--steps", "1", "--scenes", "2", "--seed", "1",
                         "--batch-size", "2", "--eval-every", "1", "--dtype", dtype, *data,
                         *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)]) == EXIT_OK
            assert main(["eval", "--checkpoint", str(tmp_path / "checkpoint.json"), *data,
                         "--scenes", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
        assert seen == {(dtype, dtype)}

    def test_unknown_dtype_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["train", "--dtype", "float16"])
        assert exc.value.code == 2

    def test_eval_missing_checkpoint_exits_io(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "none.json"),
                     "--out-dir", str(tmp_path)]) == EXIT_IO

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # divergence path
    @pytest.mark.parametrize("command", [
        ["train", "--steps", "3", "--eval-every", "1", "--target-p50", "0"],
        ["sweep", "--gmax", "1", "--steps", "1"],
    ], ids=["train", "sweep"])
    def test_eval_after_divergence_exits_numerical(self, tmp_path, capsys, command):
        code = main([*command, "--scenes", "2", "--seed", "1", "--lr", "1e8",
                     *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert "non-finite prediction in evaluation for samples [0, 1]" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # divergence path
    def test_eval_of_a_diverged_checkpoint_exits_numerical(self, tmp_path, capsys):
        # finite float32 values, scaled until the forward overflows
        main(["train", "--steps", "0", "--scenes", "1", "--seed", "1",
              *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        ckpt = tmp_path / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        for entry in doc["params"].values():
            entry["data"] = [x * 1e19 for x in entry["data"]]
        ckpt.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(ckpt), "--scenes", "2",
                     "--out-dir", str(tmp_path / "eval")])
        assert code == EXIT_NUMERICAL
        assert "non-finite prediction in evaluation" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_train_from_dataset_dir(self, tmp_path):
        data_dir = tmp_path / "data"
        main(["make-data", "--scenes", "2", "--seed", "4", "--image-size", "16",
              "--distractors", "1", "--ppm", "--out-dir", str(data_dir)])
        code = main(["train", "--steps", "2", "--data", str(data_dir),
                     "--eval-every", "0", *TINY_MODEL_FLAGS,
                     "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_OK

    @pytest.mark.parametrize("first_raster, code, message", [
        ("kept", EXIT_VALIDATION, "raster is 16x16, record says 200000x200000"),
        ("deleted", EXIT_IO, "missing raster"),
    ])
    def test_train_on_a_dataset_claiming_a_huge_resolution_reads_a_raster_first(
            self, tmp_path, capsys, first_raster, code, message):
        # the claim sized the image array before any raster was read: 894 GiB
        data_dir = tmp_path / "data"
        main(["make-data", "--scenes", "2", "--seed", "4", "--image-size", "16",
              "--distractors", "1", "--ppm", "--out-dir", str(data_dir)])
        ann = data_dir / "annotations.json"
        doc = json.loads(ann.read_text())
        for record in doc["records"]:
            record["image_w"] = record["image_h"] = 200000
        ann.write_text(json.dumps(doc))
        if first_raster == "deleted":
            (data_dir / "images" / f"{doc['records'][0]['image_id']}.ppm").unlink()
        assert main(["train", "--steps", "2", "--data", str(data_dir), "--eval-every", "0",
                     *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path / "run")]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mangle, message", [
        (lambda doc, ppm: doc.update(records=[]), "annotations.json: no records"),
        (lambda doc, ppm: doc["records"][1].update(image_w=32),
         "records[1] is 32x16, records[0] 16x16"),
        (lambda doc, ppm: doc["records"][1].update(image_w=0),
         "records[1]: image_w/image_h must be positive"),
        (lambda doc, ppm: doc["records"][1].update(expression=""), "records[1]: expression is empty"),
        (lambda doc, ppm: doc["records"].__setitem__(1, 5), "records[1]: expected an object"),
        (lambda doc, ppm: ppm.write_bytes(b"P6\n16 16"), ".ppm: truncated PPM header"),
        (lambda doc, ppm: ppm.write_bytes(b"P6\n16 x\n255\n" + bytes(768)),
         ".ppm: malformed PPM header"),
        (lambda doc, ppm: ppm.write_bytes(b"P6\n16 16\n65535\n" + bytes(1536)),
         ".ppm: only maxval 255 is supported"),
    ], ids=["no-records", "two-resolutions", "zero-width", "empty-expression", "record-not-object",
            "ppm-truncated-header", "ppm-non-integer-field", "ppm-maxval"])
    def test_train_on_a_malformed_dataset_dir_names_the_fault(self, tmp_path, capsys,
                                                             mangle, message):
        data_dir = tmp_path / "data"
        main(["make-data", "--scenes", "2", "--seed", "4", "--image-size", "16",
              "--distractors", "1", "--ppm", "--out-dir", str(data_dir)])
        ann = data_dir / "annotations.json"
        doc = json.loads(ann.read_text())
        mangle(doc, data_dir / "images" / f"{doc['records'][0]['image_id']}.ppm")
        ann.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_dataset_dir(data_dir, default_vocab())
        capsys.readouterr()
        assert main(["train", "--steps", "2", "--data", str(data_dir), *TINY_MODEL_FLAGS,
                     "--out-dir", str(tmp_path / "run")]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--lr", "0", "lr"),
        ("--lr", "-1e-3", "lr"),
        ("--lr", "nan", "lr"),
        ("--lr", "inf", "lr"),
        ("--steps", "-1", "steps"),
        ("--batch-size", "-1", "batch_size"),
        ("--batch-size", "0", "batch_size"),
        ("--eval-every", "-1", "eval_every"),
        # P@0.5 never exceeds 1 and never compares >= NaN: no early stop
        ("--target-p50", "nan", "target_train_p50"),
        ("--target-p50", "1.5", "target_train_p50"),
    ])
    def test_train_config_that_would_do_nothing_exits_validation(self, tmp_path, capsys,
                                                                  flag, value, named):
        code = main(["train", "--steps", "3", "--scenes", "1", "--seed", "1", f"{flag}={value}",
                     *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert re.search(rf"validation error: {named} must be", capsys.readouterr().err)
        assert not (tmp_path / "checkpoint.json").exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--patch-size", "0", "patch_size"),
        ("--patch-size", "-8", "patch_size"),
        ("--ffn-dim", "0", "ffn_dim"),
        ("--sizes", ",", "size_classes"),
        ("--templates", ",", "templates"),
    ])
    def test_unusable_model_or_scene_field_exits_validation(self, tmp_path, capsys,
                                                            flag, value, named):
        code = main(["train", "--steps", "3", "--scenes", "1", "--seed", "1",
                     *TINY_MODEL_FLAGS, f"{flag}={value}", "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert re.search(rf"validation error: {named} must", capsys.readouterr().err)
        assert not (tmp_path / "checkpoint.json").exists()


class TestBadFlagsCostNoWork:
    @pytest.mark.parametrize("args, message", [
        (["train", "--patch-size", "7"], "not divisible by patch_size 7"),
        (["train", "--dilations", "1,x", "--scenes", "3000"], "bad --dilations value '1,x'"),
        (["make-data", "--sizes", "huge"], "unknown size class 'huge'"),
        (["sweep", "--num-heads", "3"], "not divisible by num_heads 3"),
        (["eval", "--checkpoint", "{}"], "expected mogref.checkpoint v1"),
    ], ids=["train-patch-size", "train-dilations", "make-data-sizes", "sweep-num-heads",
            "eval-empty-checkpoint"])
    def test_refused_before_the_out_dir_or_a_dataset(self, tmp_path, monkeypatch, capsys,
                                                     args, message):
        # each once created --out-dir first; train and sweep built every scene
        built = []
        monkeypatch.setattr(cli, "build_synthetic_dataset", lambda *a, **k: built.append(a))
        checkpoint = tmp_path / "empty.json"
        checkpoint.write_text("{}")
        args = [str(checkpoint) if a == "{}" else a for a in args]
        out = tmp_path / "out"
        assert main([*args, "--out-dir", str(out)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert built == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # divergence path
    @pytest.mark.parametrize("args, code", [
        (["make-data", "--scenes", "0"], EXIT_VALIDATION),
        (["train", "--scenes", "0"], EXIT_VALIDATION),
        (["sweep", "--scenes", "0"], EXIT_VALIDATION),
        (["eval", "--checkpoint", "CKPT", "--scenes", "0"], EXIT_VALIDATION),
        (["train", "--data", "MISSING"], EXIT_IO),
        (["train", "--steps", "200", "--scenes", "2", "--seed", "1", "--lr", "1e8",
          "--batch-size", "2", "--eval-every", "0", "--target-p50", "0", *TINY_MODEL_FLAGS],
         EXIT_NUMERICAL),
    ], ids=["make-data-no-scenes", "train-no-scenes", "sweep-no-scenes", "eval-no-scenes",
            "train-missing-data", "train-diverges"])
    def test_refused_run_leaves_no_out_dir(self, tmp_path, args, code):
        # the output directory appears with the first artifact, so a run that
        # fails while it reads its data or trains leaves none behind
        ckpt_dir = tmp_path / "ckpt"
        if "CKPT" in args:
            assert main(["train", "--steps", "0", "--scenes", "1", *TINY_MODEL_FLAGS,
                         "--out-dir", str(ckpt_dir)]) == EXIT_OK
        paths = {"CKPT": str(ckpt_dir / "checkpoint.json"), "MISSING": str(tmp_path / "missing")}
        out = tmp_path / "out"
        assert main([*(paths.get(a, a) for a in args), "--out-dir", str(out)]) == code
        assert not out.exists()


class TestSweep:
    def test_two_row_sweep_table(self, tmp_path):
        code = main(["sweep", "--gmax", "2", "--steps", "2", "--scenes", "2",
                     "--eval-scenes", "2", "--seed", "0", *TINY_MODEL_FLAGS,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv_rows(tmp_path / "sweep.csv")
        assert len(rows) == 2
        assert list(rows[0]) == ["Granularity", "P@0.5", "P@0.6", "P@0.7", "P@0.8", "mP"]
        assert [r["Granularity"] for r in rows] == ["1", "2"]
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert "full_scale_reference" in doc
        assert doc["rows"][0]["granularity"] == 1

    def test_single_row_sweep(self, tmp_path):
        code = main(["sweep", "--gmax", "1", "--steps", "1", "--scenes", "1",
                     "--eval-scenes", "1", "--seed", "0", *TINY_MODEL_FLAGS,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert len(read_csv_rows(tmp_path / "sweep.csv")) == 1

    @pytest.mark.parametrize("flag, value", [("--gmax", "0"), ("--eval-scenes", "-1")])
    def test_bad_count_exits_validation_before_training(self, tmp_path, capsys, flag, value):
        code = main(["sweep", "--gmax", "1", "--steps", "1", "--scenes", "1", flag, value,
                     "--seed", "0", *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_zero_lr_exits_validation_before_training(self, tmp_path):
        code = main(["sweep", "--gmax", "1", "--steps", "1", "--scenes", "1", "--lr", "0",
                     "--seed", "0", *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "sweep.csv").exists()


class TestAllocatorSettings:
    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        """Record mallopt calls instead of retuning this process's allocator."""
        calls = []

        def fake_mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(allocator, "_applied", None)
        monkeypatch.setattr(allocator, "_mallopt", lambda: fake_mallopt)
        return calls

    def test_train_applies_them_once_and_records_it(self, tmp_path, mallopt_calls):
        assert main(["train", "--steps", "0", "--scenes", "1", "--seed", "1",
                     *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)]) == EXIT_OK
        assert main(["train", "--steps", "0", "--scenes", "1", "--seed", "1",
                     *TINY_MODEL_FLAGS, "--out-dir", str(tmp_path)]) == EXIT_OK
        assert mallopt_calls == [(-3, 8 << 20), (-1, 256 << 20)]
        summary = json.loads((tmp_path / "train_summary.json").read_text())
        assert summary["allocator_tuned"] is True

    @pytest.mark.parametrize("command", [
        ["sweep", "--gmax", "1", "--steps", "1", "--scenes", "1", *TINY_MODEL_FLAGS],
        ["eval", "--checkpoint", "missing.json"],
    ])
    def test_sweep_and_eval_apply_them(self, tmp_path, mallopt_calls, command):
        main([*command, "--out-dir", str(tmp_path)])
        assert mallopt_calls == [(-3, 8 << 20), (-1, 256 << 20)]

    def test_without_mallopt_it_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(allocator, "_applied", None)
        monkeypatch.setattr(allocator, "_mallopt", lambda: None)
        assert allocator.tune_allocator() is False

    def test_importing_mogref_leaves_the_allocator_alone(self):
        # a fresh process, since CLI tests in this one may have tuned it
        src = str(Path(mogref.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import mogref, mogref.cli, mogref.allocator as a; "
                "assert a._applied is None, a._applied; print(a.tune_allocator())")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        # the real mallopt takes both settings wherever glibc provides it
        assert proc.stdout.strip() == str(platform.libc_ver()[0] == "glibc")


class TestEntryPoints:
    def test_module_help(self):
        # the child imports the mogref under test, also when only pytest's pythonpath finds it
        src = str(Path(mogref.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "mogref.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "gradcheck" in proc.stdout and "sweep" in proc.stdout

    def test_every_import_is_stdlib_numpy_or_mogref(self):
        # numpy is the one runtime dependency pyproject.toml declares
        imported = set()
        for path in sorted(Path(mogref.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        assert "numpy" in imported
        assert imported - set(sys.stdlib_module_names) - {"numpy", "mogref"} == set()

    def test_out_dir_env_var(self, tmp_path, monkeypatch, fixtures_dir):
        monkeypatch.setenv("MOGREF_OUT_DIR", str(tmp_path / "envout"))
        code = main(["stats", "--data", str(fixtures_dir / "annotations_fixture.json")])
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "stats.json").exists()

    def test_artifacts_embed_run_config(self, tmp_path, fixtures_dir):
        main(["stats", "--data", str(fixtures_dir / "annotations_fixture.json"),
              "--out-dir", str(tmp_path)])
        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["run_config"]["data"].endswith("annotations_fixture.json")
        assert doc["schema_version"] == 1

    def test_every_name_the_benchmark_reads_exists(self):
        # perfbench/run.py reaches the program only as mg.<module>.<name>
        read = set()
        for node in ast.walk(ast.parse((PERFBENCH / "run.py").read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and getattr(node.value.value, "id", None) == "mg"):
                read.add((node.value.attr, node.attr))
        assert len(read) >= 10  # the walk found the benchmark's reads, not nothing
        missing = sorted(f"{module}.{name}" for module, name in read
                         if not hasattr(importlib.import_module(f"mogref.{module}"), name))
        assert missing == []

    def test_every_traced_boundary_is_callable(self):
        spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        mg = SimpleNamespace(**{m: importlib.import_module(f"mogref.{m}")
                                for m in ("matching", "model", "tensor", "train")})
        targets = tracer.boundaries(mg)
        assert targets
        assert [name for owner, attr, name in targets if not callable(getattr(owner, attr, None))] == []
