import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semiprop import cli
from semiprop.cli import apply_mode, config_hash, main
from semiprop.data import (FEATURE_PREFIX, MAGIC, DatasetManifest, FeatureSequence,
                           VideoEntry, write_features, write_framed, write_manifest)
from semiprop.model import (CHECKPOINT_MAGIC, HyperShape, init_params,
                            load_checkpoint, save_checkpoint)
from semiprop.trainer import LOSS_WEIGHTS, TrainConfig


def run_cli(args):
    return main(list(args))


TRAIN_FLAGS = ["--hidden", "4", "--pem-hidden", "4", "--n-samples", "4",
               "--max-duration", "8", "--mu", "0.5", "--epochs", "1"]


@pytest.fixture
def dataset(tmp_path):
    root = tmp_path / "data"
    rc = run_cli(["gen-data", "--out", str(root), "--videos", "4",
                  "--snippets", "16", "--channels", "4",
                  "--labeled", "0.5", "--seed", "3"])
    assert rc == 0
    return root


def _manifest_case(edit):
    """Train on the fixture manifest after `edit(doc)`; a data error."""
    def make(dataset, tmp_path):
        path = dataset / "manifest.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return ["train", "--manifest", str(path), "--out", str(tmp_path / "run")], 2
    return make


def _video_case(**fields):
    return _manifest_case(lambda doc: doc["videos"][0].update(fields))


# case -> (header field, value); `epoch` is the one in the header's extra block
BAD_HEADER_FIELDS = {
    "precision": ("precision", "float65"),
    "rng": ("rng", "MT19937"),
    "step_string": ("step", "2"),
    "step_negative": ("step", -1),
    "step_null": ("step", None),
    "epoch_string": ("epoch", "1"),
    "epoch_float": ("epoch", 1.5),
    "epoch_null": ("epoch", None),
    "epoch_negative": ("epoch", -3),
    "epoch_bool": ("epoch", True),
}


def _config_case(doc):
    """Train with `doc` as the config file; a usage error."""
    def make(dataset, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return ["train", "--manifest", str(dataset / "manifest.json"),
                "--config", str(path), "--out", str(tmp_path / "run")], 1
    return make


MALFORMED = {
    "manifest_videos_not_list": _manifest_case(lambda doc: doc.update(videos={})),
    "manifest_video_not_object": _manifest_case(lambda doc: doc["videos"].append(3)),
    "manifest_negative_T": _video_case(T=-3),
    "manifest_string_C": _video_case(C="4"),
    "manifest_labeled_string": _video_case(labeled="no"),
    "manifest_reversed_annotation": _video_case(annotations=[[5, 2]]),
    "manifest_annotation_past_end": _video_case(annotations=[[1, 200]]),
    "manifest_annotation_strings": _video_case(annotations=[["a", "b"]]),
    "manifest_annotation_triple": _video_case(annotations=[[1, 2, 3]]),
    "manifest_annotation_bool": _video_case(annotations=[[False, 2]]),
    "manifest_mixed_lengths": _video_case(T=20),
    "manifest_int_video_id": _video_case(video_id=7),
    "manifest_duplicate_video_ids": _manifest_case(
        lambda doc: doc["videos"][1].update(video_id=doc["videos"][0]["video_id"])),
    "manifest_is_directory": lambda dataset, tmp_path: (
        ["train", "--manifest", str(dataset), "--out", str(tmp_path / "run")], 2),
    "checkpoint_is_directory": lambda dataset, tmp_path: (
        ["infer", "--checkpoint", str(dataset), "--manifest",
         str(dataset / "manifest.json"), "--out", str(tmp_path / "props")], 2),
    "config_is_directory": lambda dataset, tmp_path: (
        ["train", "--manifest", str(dataset / "manifest.json"),
         "--config", str(dataset), "--out", str(tmp_path / "run")], 2),
    "eval_missing_proposals": lambda dataset, tmp_path: (
        ["eval", "--proposals", str(tmp_path / "missing"),
         "--manifest", str(dataset / "manifest.json")], 2),
    "config_not_object": _config_case([1, 2]),
    "config_string_epochs": _config_case({"epochs": "abc"}),
    "config_float_epochs": _config_case({"epochs": 2.5}),
    "config_bool_epochs": _config_case({"epochs": True}),
    "config_null_lr": _config_case({"lr": None}),
    "config_string_max_duration": _config_case({"max_duration": "8"}),
    "config_beta1_2": _config_case({"beta1": 2.0}),
    "config_beta2_negative": _config_case({"beta2": -1}),
    "config_eps_negative": _config_case({"eps": -1}),
    "config_eps_0": _config_case({"eps": 0}),
    "config_K_1": _config_case({"K": 1}),
    "config_lambda2_nan": _config_case({"lambda2": float("nan")}),  # a bare NaN
    "gen_data_negative_seed": lambda dataset, tmp_path: (
        ["gen-data", "--out", str(tmp_path / "run"), "--videos", "2", "--seed", "-1"], 1),
}


class TestApplyMode:
    @pytest.mark.parametrize("term", LOSS_WEIGHTS)
    def test_modes_zero_the_table_weights(self, term):
        base = TrainConfig()

        def changed(mode):  # field -> new value, for each field the mode changes
            new = dataclasses.asdict(apply_mode(base, mode))
            return {k: v for k, v in new.items() if v != getattr(base, k)}

        assert changed(f"no_{term}") == {LOSS_WEIGHTS[term]: 0.0}
        assert changed("supervised") == {**dict.fromkeys(LOSS_WEIGHTS.values(), 0.0),
                                         "batch_unlabeled": 0}
        assert apply_mode(base, "sstap") == base

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="unknown training mode 'bogus'"):
            apply_mode(TrainConfig(), "bogus")

    def test_mode_and_grid_order(self):
        # the `--mode` choices, and `ablation.csv`'s row order for the components grid
        assert list(cli.MODES) == ["sstap", "supervised", "no_shift", "no_flip",
                                   "no_recon", "no_order"]
        assert cli.GRIDS["components"] == ["sstap", "no_shift", "no_flip", "no_recon",
                                           "no_order", "supervised"]

    def test_readme_names_every_mode_and_grid(self):
        path = Path(__file__).resolve().parent.parent / "README.md"
        readme = path.read_text(encoding="utf-8")
        for name in [*cli.MODES, *cli.GRIDS]:
            assert f"`{name}`" in readme, name

    def test_hash_depends_on_config(self):
        a = config_hash(TrainConfig())
        b = config_hash(TrainConfig(lr=2e-3))
        assert a != b and len(a) == 8


class TestExitCodes:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-data", "--nope", "1"])
        assert exc.value.code == 1

    def test_missing_manifest_is_data_error(self, tmp_path):
        rc = run_cli(["train", "--manifest", str(tmp_path / "none.json"),
                      "--out", str(tmp_path / "run")])
        assert rc == 2

    def test_bad_config_value_is_usage_error(self, dataset, tmp_path):
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(tmp_path / "run"), "--alpha", "2.0"])
        assert rc == 1

    @pytest.mark.parametrize("mode, flag", [("no_shift", ["--lambda1", "1"]),
                                            ("supervised", ["--lambda4", "5"]),
                                            ("supervised", ["--batch-unlabeled", "2"])])
    def test_flag_contradicting_the_mode_is_usage_error(self, dataset, tmp_path, capsys,
                                                        mode, flag):
        run_dir = tmp_path / "run"
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(run_dir), "--mode", mode, *flag] + TRAIN_FLAGS)
        assert rc == 1
        assert not run_dir.exists()
        assert f"--mode {mode} sets" in capsys.readouterr().err

    def test_config_value_gives_way_to_the_mode(self, dataset, tmp_path):
        # a flag equal to the mode's value passes; a config file's value is patched
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda1": 1.0, "lambda2": 0.5}))
        run_dir = tmp_path / "run"
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(run_dir), "--config", str(config),
                      "--mode", "no_shift", "--lambda1", "0"] + TRAIN_FLAGS)
        assert rc == 0
        written = json.loads((run_dir / "config.json").read_text())
        assert (written["lambda1"], written["lambda2"]) == (0.0, 0.5)

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_manifest_with_no_labeled_video_is_usage_error_before_out_exists(
            self, tmp_path, capsys, command):
        data = tmp_path / "data"
        assert run_cli(["gen-data", "--out", str(data), "--videos", "2", "--snippets", "16",
                        "--channels", "4", "--labeled", "0", "--seed", "3"]) == 0
        manifest, out_dir = str(data / "manifest.json"), tmp_path / "out"
        cfg_path = tmp_path / "config.json"
        TrainConfig(hidden=4, pem_hidden=4, n_samples=4, max_duration=8, mu=0.5,
                    epochs=1).to_file(cfg_path)
        argv = (["train", "--manifest", manifest] if command == "train" else
                ["ablate", "--seeds", "1", "--train-manifest", manifest,
                 "--test-manifest", manifest])
        rc = run_cli(argv + ["--config", str(cfg_path), "--out", str(out_dir)])
        assert rc == 1
        assert "training needs at least one labeled video" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.fixture
    def short_videos(self, tmp_path):
        """Two T = 4, C = 4 videos, one labeled: shorter than `gen-data` makes
        them, so the files are written here."""
        root = tmp_path / "short"
        root.mkdir()
        rng = np.random.default_rng(0)
        videos = []
        for i in range(2):
            vid = f"v{i}"
            write_features(FeatureSequence(vid, rng.normal(size=(4, 4)).astype(np.float32)),
                           root / f"{vid}.feat")
            videos.append(VideoEntry(vid, 4, 4, i == 0, f"{vid}.feat", [[0.5, 2.0]]))
        write_manifest(DatasetManifest(videos, 0, {}), root / "manifest.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"K": 5, "mu": 0.5, "epochs": 1}))
        return str(root / "manifest.json"), str(config)

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_more_clips_than_snippets_is_usage_error_before_out_exists(
            self, short_videos, tmp_path, capsys, command):
        manifest, config = short_videos
        out_dir = tmp_path / "out"
        argv = (["train", "--manifest", manifest] if command == "train" else
                ["ablate", "--seeds", "1", "--train-manifest", manifest,
                 "--test-manifest", manifest])
        assert run_cli(argv + ["--config", config, "--out", str(out_dir)]) == 1
        assert "need 2 <= K <= T, got K=5, T=4" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_more_clips_than_snippets_trains_without_the_order_loss(
            self, short_videos, tmp_path):
        manifest, config = short_videos
        out_dir = tmp_path / "out"
        assert run_cli(["train", "--manifest", manifest, "--config", config,
                        "--mode", "no_order", "--out", str(out_dir)]) == 0
        assert (out_dir / "checkpoint.bin").exists()

    def test_corrupt_checkpoint_is_data_error(self, dataset, tmp_path):
        bad = tmp_path / "ck.bin"
        bad.write_bytes(b"SPCHKPT1" + b"\0" * 16)
        rc = run_cli(["infer", "--checkpoint", str(bad),
                      "--manifest", str(dataset / "manifest.json"),
                      "--out", str(tmp_path / "props")])
        assert rc == 2

    @pytest.fixture
    def checkpoint(self, dataset, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                        "--out", str(run_dir), "--mode", "supervised"]
                       + TRAIN_FLAGS) == 0
        return run_dir / "checkpoint.bin"

    @pytest.mark.parametrize("damage", ["truncate", "extend"])
    def test_damaged_checkpoint_is_data_error(self, dataset, checkpoint, tmp_path,
                                              damage):
        blob = checkpoint.read_bytes()
        checkpoint.write_bytes(blob[:-3] if damage == "truncate" else blob + b"\0\0\0")
        rc = run_cli(["infer", "--checkpoint", str(checkpoint),
                      "--manifest", str(dataset / "manifest.json"),
                      "--out", str(tmp_path / "props")])
        assert rc == 2

    def test_manifest_without_seed_is_data_error(self, dataset, tmp_path):
        path = dataset / "manifest.json"
        doc = json.loads(path.read_text())
        del doc["seed"]
        path.write_text(json.dumps(doc))
        rc = run_cli(["train", "--manifest", str(path), "--out", str(tmp_path / "run")]
                     + TRAIN_FLAGS)
        assert rc == 2

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_feature_file_below_the_smallest_T_is_data_error(self, dataset, checkpoint,
                                                             tmp_path, capsys, command):
        """`read_features` refuses a T = 3 file by the rule `write_features`
        keeps, before the manifest's T = 16 is compared with it."""
        write_framed(dataset / "v00000.feat", MAGIC, FEATURE_PREFIX,
                     {"video_id": "v00000", "T": 3, "C": 4}, [np.zeros((3, 4), "<f4")])
        manifest = str(dataset / "manifest.json")
        argv = (["infer", "--checkpoint", str(checkpoint), "--manifest", manifest]
                if command == "infer" else ["train", "--manifest", manifest] + TRAIN_FLAGS)
        assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "v00000.feat: need T >= 4 and C >= 1, got T=3, C=4" in err
        assert "Traceback" not in err

    def test_manifest_length_mismatch_is_data_error(self, dataset, checkpoint,
                                                    tmp_path, capsys):
        path = dataset / "manifest.json"
        doc = json.loads(path.read_text())
        doc["videos"][0]["T"] += 4
        path.write_text(json.dumps(doc))
        rc = run_cli(["infer", "--checkpoint", str(checkpoint),
                      "--manifest", str(path), "--out", str(tmp_path / "props")])
        assert rc == 2
        assert "T=20" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["1.0 2.0", "abc 2.0 0.5", "3.0 2.0 0.5",
                                      "1.0 2.0 nan"],
                             ids=["two_fields", "not_numeric", "start_after_end",
                                  "nan_score"])
    def test_malformed_proposal_file_is_data_error(self, dataset, tmp_path, capsys,
                                                   line):
        props_dir = tmp_path / "props"
        props_dir.mkdir()
        path = props_dir / "v00000.props.tsv"
        path.write_text(f"# start end score\n{line}\n")
        rc = run_cli(["eval", "--proposals", str(props_dir),
                      "--manifest", str(dataset / "manifest.json")])
        assert rc == 2
        assert f"{path}:2" in capsys.readouterr().err

    def test_rising_proposal_score_is_data_error(self, dataset, tmp_path, capsys):
        """Scores may tie but not rise down the file."""
        props_dir = tmp_path / "props"
        props_dir.mkdir()
        path = props_dir / "v00000.props.tsv"
        path.write_text("# start end score\n1.0 2.0 0.5\n1.0 3.0 0.5\n2.0 3.0 0.6\n")
        rc = run_cli(["eval", "--proposals", str(props_dir),
                      "--manifest", str(dataset / "manifest.json")])
        assert rc == 2
        assert f"{path}:4" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["proposals", "metrics"])
    def test_non_utf8_text_file_is_data_error(self, dataset, checkpoint, tmp_path, capsys,
                                              which):
        if which == "proposals":
            props_dir = tmp_path / "props"
            props_dir.mkdir()
            path = props_dir / "v00000.props.tsv"
            path.write_bytes(b"# start end score\n1.0 2.0 0.5\xff\n")
            argv = ["eval", "--proposals", str(props_dir),
                    "--manifest", str(dataset / "manifest.json")]
        else:
            path = checkpoint.parent / "metrics.jsonl"
            path.write_bytes(path.read_bytes() + b"\xff\n")
            argv = ["train", "--manifest", str(dataset / "manifest.json"),
                    "--out", str(checkpoint.parent), "--mode", "supervised",
                    "--resume", str(checkpoint)] + TRAIN_FLAGS
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize("old, new, reason", [
        ('"total"', '"totam"', "KeyError"),
        ('"shift": 0.0', '"shift": "x"', "non-numeric loss term")],
        ids=["missing_total", "non_numeric_shift"])
    def test_resume_of_finished_run_with_bad_metrics_line_is_data_error(
            self, dataset, checkpoint, capsys, old, new, reason):
        """With no epoch left to train, the kept line is the one reported,
        so it must hold every loss term, each a number."""
        path = checkpoint.parent / "metrics.jsonl"
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(checkpoint.parent), "--mode", "supervised",
                      "--resume", str(checkpoint)] + TRAIN_FLAGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}: bad metrics line" in err and "Traceback" not in err
        assert reason in err

    def test_resume_of_finished_run_into_new_dir_is_usage_error(
            self, dataset, checkpoint, tmp_path, capsys):
        """With no epoch left to train, a new run directory would get no
        checkpoint, so the run stops before writing anything there."""
        out = tmp_path / "resumed"
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(out), "--mode", "supervised",
                      "--resume", str(checkpoint)] + TRAIN_FLAGS)
        assert rc == 1
        captured = capsys.readouterr()
        assert "trained" not in captured.out
        assert (f"{checkpoint} is at epoch 1 and the run asks for 1 epochs" in captured.err
                and "Traceback" not in captured.err)
        assert not out.exists()

    def test_resume_into_new_dir_logs_only_the_epochs_it_trains(
            self, dataset, checkpoint, tmp_path, capsys):
        """A run resumed into a fresh directory has no earlier metrics to
        keep: its log holds the lines of the epochs it trains."""
        out = tmp_path / "resumed"
        flags = [f if f != "1" else "2" for f in TRAIN_FLAGS]  # epochs 1 -> 2
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(out), "--mode", "supervised",
                      "--resume", str(checkpoint)] + flags)
        assert rc == 0
        ckpt = out / "checkpoint.bin"
        assert f"trained 2 epochs; checkpoint at {ckpt}" in capsys.readouterr().out
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [2]

    def test_resume_of_finished_run_into_its_own_dir_reports_it(
            self, dataset, checkpoint, capsys):
        before = checkpoint.read_bytes()
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(checkpoint.parent), "--mode", "supervised",
                      "--resume", str(checkpoint)] + TRAIN_FLAGS)
        assert rc == 0
        assert f"trained 1 epochs; checkpoint at {checkpoint}" in capsys.readouterr().out
        assert checkpoint.read_bytes() == before

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("command", ["infer", "resume"])
    def test_non_finite_checkpoint_tensor_is_data_error(self, dataset, checkpoint, tmp_path,
                                                        capsys, value, command):
        header, tensors = load_checkpoint(checkpoint)
        tensors["student.base.conv1.w"].flat[0] = value
        save_checkpoint(checkpoint, HyperShape(**header["hyper"]), header["seed"],
                        header["step"], header["precision"], tensors, extra=header["extra"])
        if command == "infer":
            rc = self._infer(checkpoint, dataset, tmp_path)
        else:
            rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                          "--out", str(tmp_path / "resumed"), "--mode", "supervised",
                          "--resume", str(checkpoint)] + TRAIN_FLAGS)
        assert rc == 2
        assert "student.base.conv1.w holds a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["int64_student", "float64_in_float32"])
    @pytest.mark.parametrize("command", ["infer", "resume"])
    def test_store_tensor_of_other_dtype_is_data_error(self, dataset, checkpoint, tmp_path,
                                                       capsys, case, command):
        """A store's tensors must be in the header's precision: int64 student
        weights would cast the features to integers inside the network, and a
        float64 tensor among float32 ones would run a pass in mixed precision."""
        header, tensors = load_checkpoint(checkpoint)
        if case == "int64_student":
            precision, bad = "float64", "student.base.conv1.w"
            tensors = {k: v.astype(np.int64) if k.startswith("student.") else v
                       for k, v in tensors.items()}
        else:
            precision, bad = "float32", "student.pem.conv2a.w"
            tensors = {k: v.astype(np.float32) for k, v in tensors.items()}
            tensors[bad] = tensors[bad].astype(np.float64)
        header["extra"]["config"]["precision"] = precision
        save_checkpoint(checkpoint, HyperShape(**header["hyper"]), header["seed"],
                        header["step"], precision, tensors, extra=header["extra"])
        if command == "infer":
            rc = self._infer(checkpoint, dataset, tmp_path)
        else:
            rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                          "--out", str(tmp_path / "resumed"), "--mode", "supervised",
                          "--resume", str(checkpoint), "--precision", precision]
                         + TRAIN_FLAGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"tensor {bad} is" in err and precision in err and "Traceback" not in err
        assert not (tmp_path / "props").exists() and not (tmp_path / "resumed").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_checkpoint_is_numeric_error(self, dataset, checkpoint, tmp_path,
                                                     capsys):
        header, tensors = load_checkpoint(checkpoint)
        tensors["student.base.conv1.w"][...] = 1.7e308
        save_checkpoint(checkpoint, HyperShape(**header["hyper"]), header["seed"],
                        header["step"], header["precision"], tensors, extra=header["extra"])
        assert self._infer(checkpoint, dataset, tmp_path) == 3
        assert "non-finite activation" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_m_cr_alone_is_numeric_error(self, dataset, checkpoint, tmp_path,
                                                    capsys):
        """A float32 checkpoint whose confidence head overflows on m_cr only:
        conv2a's ReLU outputs 3e37, so each conv2b tap reads ±4.8e38 = ±inf
        per output channel. m_cc's taps are all positive (+inf, sigmoid 1);
        m_cr's kernel rows 0 and 2 are negative and row 1 positive, so its
        sum is inf - inf = NaN. The run stops at the head's finite check,
        naming it, before any proposal is decoded."""
        header, tensors = load_checkpoint(checkpoint)
        tensors = {k: v.astype(np.float32) for k, v in tensors.items()}
        tensors["student.pem.conv2a.b"][...] = 3e37
        w = tensors["student.pem.conv2b.w"]
        w[..., 0] = np.abs(w[..., 0])
        w[..., 1] = 4.0
        w[[0, 2], ..., 1] = -4.0
        header["extra"]["config"]["precision"] = "float32"
        save_checkpoint(checkpoint, HyperShape(**header["hyper"]), header["seed"],
                        header["step"], "float32", tensors, extra=header["extra"])
        assert self._infer(checkpoint, dataset, tmp_path) == 3
        err = capsys.readouterr().err
        assert "non-finite activation in layer 'pem'" in err and "Traceback" not in err

    def test_checkpoint_tensor_of_negative_dimension_is_data_error(
            self, dataset, checkpoint, tmp_path, capsys):
        """A header that declares a negative dimension is refused while the
        header is read, before any payload size is taken from it."""
        header, tensors = load_checkpoint(checkpoint)
        header["tensors"][0]["shape"][0] = -3
        write_framed(checkpoint, CHECKPOINT_MAGIC, b"", header, list(tensors.values()))
        assert self._infer(checkpoint, dataset, tmp_path) == 2
        err = capsys.readouterr().err
        name = header["tensors"][0]["name"]
        assert f"bad header block: tensor {name} has a negative dimension" in err
        assert "Traceback" not in err
        assert not (tmp_path / "props").exists()

    def test_checkpoint_missing_a_tensor_is_data_error(self, dataset, checkpoint, tmp_path,
                                                       capsys):
        header, tensors = load_checkpoint(checkpoint)
        del tensors["student.pem.reduce.w"]
        save_checkpoint(checkpoint, HyperShape(**header["hyper"]), header["seed"],
                        header["step"], header["precision"], tensors, extra=header["extra"])
        assert self._infer(checkpoint, dataset, tmp_path) == 2
        assert "pem.reduce.w" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(BAD_HEADER_FIELDS))
    def test_resume_with_bad_header_field_is_data_error(self, dataset, checkpoint,
                                                        tmp_path, capsys, case):
        field, value = BAD_HEADER_FIELDS[case]
        header, tensors = load_checkpoint(checkpoint)
        if field == "rng":
            header["extra"]["rng"]["aux"]["bit_generator"] = value
        elif field == "epoch":
            header["extra"]["epoch"] = value
        else:
            header[field] = value
        save_checkpoint(checkpoint, HyperShape(**header["hyper"]), header["seed"],
                        header["step"], header["precision"], tensors, extra=header["extra"])
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(tmp_path / "resumed"), "--mode", "supervised",
                      "--resume", str(checkpoint)] + TRAIN_FLAGS)
        assert rc == 2
        err = capsys.readouterr().err
        expect = {"rng": "rng.aux", "precision": "float65"}.get(field, f"bad {field}")
        assert expect in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["gen-data", "train", "infer", "eval", "ablate"])
    def test_empty_out_is_path_error_that_writes_nothing(self, dataset, checkpoint, tmp_path,
                                                         monkeypatch, capsys, command):
        """An empty `--out=` is a path, not a missing flag: no default run or
        proposal directory stands in for it."""
        manifest = str(dataset / "manifest.json")
        props_dir, cfg_path = tmp_path / "props", tmp_path / "config.json"
        assert run_cli(["infer", "--checkpoint", str(checkpoint), "--manifest", manifest,
                        "--out", str(props_dir)]) == 0
        TrainConfig(hidden=4, pem_hidden=4, n_samples=4, max_duration=8, mu=0.5,
                    epochs=1).to_file(cfg_path)
        argv = {"gen-data": ["gen-data", "--videos", "2", "--snippets", "16"],
                "train": ["train", "--manifest", manifest] + TRAIN_FLAGS,
                "infer": ["infer", "--checkpoint", str(checkpoint), "--manifest", manifest],
                "eval": ["eval", "--proposals", str(props_dir), "--manifest", manifest],
                "ablate": ["ablate", "--seeds", "1", "--train-manifest", manifest,
                           "--test-manifest", manifest, "--config", str(cfg_path)]}
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run_cli(argv[command] + ["--out="]) == 2
        assert "No such file or directory: ''" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_eval_with_no_ground_truth_reports_no_metrics(self, dataset, tmp_path, capsys):
        """A manifest whose videos all lack annotations has no video to
        score: `eval` says so, exits 0 and writes no report."""
        path = dataset / "manifest.json"
        doc = json.loads(path.read_text())
        for video in doc["videos"]:
            video["annotations"] = []
        path.write_text(json.dumps(doc))
        props_dir, out = tmp_path / "props", tmp_path / "report"
        props_dir.mkdir()
        (props_dir / "v00000.props.tsv").write_text("# start end score\n1.0 2.0 0.5\n")
        rc = run_cli(["eval", "--proposals", str(props_dir), "--manifest", str(path),
                      "--out", str(out)])
        assert rc == 0
        assert ("no eligible videos (all ground truth empty); metrics absent"
                in capsys.readouterr().out)
        assert not out.exists()

    def test_eval_with_zero_an_max_is_usage_error(self, dataset, tmp_path, capsys):
        props_dir = tmp_path / "props"
        props_dir.mkdir()
        (props_dir / "v00000.props.tsv").write_text("# start end score\n1.0 2.0 0.5\n")
        rc = run_cli(["eval", "--proposals", str(props_dir),
                      "--manifest", str(dataset / "manifest.json"), "--an-max", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "an_max" in err and "0" in err and "Traceback" not in err

    def test_eval_with_an_max_past_ssize_t_is_usage_error(self, dataset, tmp_path, capsys):
        props_dir = tmp_path / "props"
        props_dir.mkdir()
        (props_dir / "v00000.props.tsv").write_text("# start end score\n1.0 2.0 0.5\n")
        rc = run_cli(["eval", "--proposals", str(props_dir), "--manifest",
                      str(dataset / "manifest.json"), "--an-max", str(2 ** 63)])
        assert rc == 1
        assert "too large" in capsys.readouterr().err
        assert not (props_dir / "report.txt").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_exit_code(self, dataset, tmp_path, capsys, case):
        argv, code = MALFORMED[case](dataset, tmp_path)
        assert run_cli(argv + TRAIN_FLAGS if argv[0] == "train" else argv) == code
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value", [("--epochs", "0"), ("--p-drop", "1.0"),
                                            ("--p-drop", "-0.1"), ("--lr", "-1"),
                                            ("--lr", "0"), ("--max-duration", "0"),
                                            ("--lambda1", "nan"), ("--lr", "inf"),
                                            ("--omega", "1.5"), ("--mu", "5.0"),
                                            ("--hidden", "0"), ("--n-samples", "1")])
    def test_out_of_range_train_flag_is_usage_error(self, dataset, tmp_path, capsys,
                                                    flag, value):
        """Every config field is checked when the config is built, before the
        run directory or its `config.json` exists."""
        run_dir = tmp_path / "run"
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(run_dir)] + TRAIN_FLAGS + [flag, value])
        assert rc == 1
        assert "error" in capsys.readouterr().err
        assert not (run_dir / "checkpoint.bin").exists() and not run_dir.exists()

    def test_out_of_memory_is_usage_error(self, dataset, tmp_path, capsys, monkeypatch):
        """A run too large for memory is reported as one error line with exit
        1; the allocation failure is raised here, never made."""
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")
        monkeypatch.setattr(cli, "train_run", too_large)
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(tmp_path / "run")] + TRAIN_FLAGS)
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: Unable to allocate 7.45 GiB for an array\n"
        assert "Traceback" not in err

    def test_shift_selecting_no_channel_is_usage_error(self, dataset, tmp_path, capsys):
        """A mu that shifts no channel of the data's C fails before the run
        directory exists; with the shift branch off, the same mu trains."""
        flags = TRAIN_FLAGS + ["--mu", "0.0625"]  # the last --mu wins
        run_dir = tmp_path / "run"
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(run_dir)] + flags)
        assert rc == 1
        assert "selects zero channels for C=4" in capsys.readouterr().err
        assert not run_dir.exists()
        for mode in ("supervised", "no_shift"):
            assert run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                            "--out", str(tmp_path / mode), "--mode", mode] + flags) == 0

    @pytest.mark.parametrize("flag,value", [("--sigma", "nan"), ("--sigma", "0"),
                                            ("--sigma", "-1"), ("--sigma", "inf"),
                                            ("--score-floor", "nan"),
                                            ("--max-out", "0"), ("--max-out", "-1")])
    def test_bad_nms_flag_is_usage_error(self, dataset, checkpoint, tmp_path, capsys,
                                         flag, value):
        out = tmp_path / "props"
        rc = run_cli(["infer", "--checkpoint", str(checkpoint),
                      "--manifest", str(dataset / "manifest.json"),
                      "--out", str(out), flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lr,good_epochs", [("1e5", 0), ("3e4", 1), ("1e8", 0)])
    def test_diverging_training_is_numeric_error(self, tmp_path, capsys, lr, good_epochs):
        """An update that overflows, or a forward pass that overflows after it
        (lr 1e8), stops the run with no warning before its metrics line or
        checkpoint: every line left is strict JSON, and the checkpoint is the
        last good epoch's, every tensor finite."""
        data, run_dir = tmp_path / "data", tmp_path / "run"
        assert run_cli(["gen-data", "--out", str(data), "--videos", "6", "--snippets", "20",
                        "--labeled", "0.5", "--seed", "3"]) == 0
        rc = run_cli(["train", "--manifest", str(data / "manifest.json"),
                      "--out", str(run_dir), "--lr", lr, "--mu", "0.25", "--hidden", "8",
                      "--pem-hidden", "4", "--max-duration", "20",
                      "--precision", "float32", "--epochs", "3"])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"epoch {good_epochs + 1}, step" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err

        def strict(token):
            raise ValueError(f"non-standard JSON constant {token}")
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(ln, parse_constant=strict)["epoch"] for ln in lines] == \
            list(range(1, good_epochs + 1))
        assert (run_dir / "checkpoint.bin").exists() == (good_epochs > 0)
        if good_epochs:
            header, tensors = load_checkpoint(run_dir / "checkpoint.bin")
            assert header["extra"]["epoch"] == good_epochs
            assert all(np.isfinite(t).all() for t in tensors.values())

    @staticmethod
    def _infer(checkpoint, dataset, tmp_path):
        return run_cli(["infer", "--checkpoint", str(checkpoint),
                        "--manifest", str(dataset / "manifest.json"),
                        "--out", str(tmp_path / "props")])

    def test_checkpoint_for_other_length_is_data_error(self, dataset, tmp_path, capsys):
        hyper = HyperShape(T=20, C=4, H=4, Hp=4, D=8, N=4)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, hyper, 0, 0, "float64",
                        {f"student.{k}": v for k, v in init_params(hyper, 0).items()})
        assert self._infer(path, dataset, tmp_path) == 2
        assert "T=20" in capsys.readouterr().err

    def test_checkpoint_with_d_above_t_is_data_error(self, dataset, tmp_path):
        hyper = HyperShape(T=16, C=4, H=4, Hp=4, D=8, N=4)
        params = init_params(hyper, 0)
        # a HyperShape with D > T cannot be made, so the header is written by hand
        header = {"hyper": {**hyper.__dict__, "D": 20}, "seed": 0, "step": 0,
                  "precision": "float64",
                  "tensors": [{"name": f"student.{k}", "shape": list(v.shape),
                               "dtype": str(v.dtype)} for k, v in params.items()],
                  "extra": {}}
        path = tmp_path / "ck.bin"
        write_framed(path, CHECKPOINT_MAGIC, b"", header, list(params.values()))
        assert self._infer(path, dataset, tmp_path) == 2

    def test_checkpoint_with_object_dtype_is_data_error(self, dataset, tmp_path):
        header = {"hyper": HyperShape(T=16, C=4, H=4, Hp=4, D=8, N=4).__dict__,
                  "seed": 0, "step": 0, "precision": "float64", "extra": {},
                  "tensors": [{"name": "student.base.conv1.w", "shape": [1],
                               "dtype": "object"}]}
        path = tmp_path / "ck.bin"
        write_framed(path, CHECKPOINT_MAGIC, b"", header, [np.zeros(1)])
        assert self._infer(path, dataset, tmp_path) == 2

    @pytest.mark.parametrize("partial", ["student_only", "no_adam_v_store"])
    def test_resume_without_training_state_is_data_error(self, dataset, checkpoint,
                                                         tmp_path, capsys, partial):
        """A checkpoint that lacks the training fields (an inference
        checkpoint of student tensors only) or one of the stores cannot be
        resumed: exit 2, no traceback."""
        header, tensors = load_checkpoint(checkpoint)
        if partial == "student_only":
            tensors = {k: v for k, v in tensors.items() if k.startswith("student.")}
            extra = None
        else:
            tensors = {k: v for k, v in tensors.items() if not k.startswith("adam.v.")}
            extra = header["extra"]
        path = tmp_path / "partial.bin"
        save_checkpoint(path, HyperShape(**header["hyper"]), header["seed"], header["step"],
                        header["precision"], tensors, extra=extra)
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(tmp_path / "resumed"), "--mode", "supervised",
                      "--resume", str(path)] + TRAIN_FLAGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert "not a training checkpoint" in err and "Traceback" not in err
        assert ("teacher." if partial == "student_only" else "adam.v.") in err

    def test_resume_with_other_precision_is_usage_error(self, dataset, checkpoint,
                                                        capsys):
        rc = run_cli(["train", "--manifest", str(dataset / "manifest.json"),
                      "--out", str(checkpoint.parent), "--mode", "supervised",
                      "--resume", str(checkpoint), "--precision", "float32"]
                     + TRAIN_FLAGS)
        assert rc == 1
        err = capsys.readouterr().err
        assert "'float64'" in err and "'float32'" in err


class TestPipeline:
    def test_end_to_end(self, dataset, tmp_path, capsys):
        manifest = str(dataset / "manifest.json")
        run_dir = tmp_path / "run"
        rc = run_cli(["train", "--manifest", manifest, "--out", str(run_dir),
                      "--mode", "supervised", "--seed", "1"] + TRAIN_FLAGS)
        assert rc == 0
        assert (run_dir / "checkpoint.bin").exists()
        assert (run_dir / "config.json").exists()
        cfg = json.loads((run_dir / "config.json").read_text())
        assert cfg["lambda1"] == 0.0  # supervised mode persisted

        props_dir = tmp_path / "props"
        rc = run_cli(["infer", "--checkpoint", str(run_dir / "checkpoint.bin"),
                      "--manifest", manifest, "--out", str(props_dir)])
        assert rc == 0
        files = sorted(os.listdir(props_dir))
        assert len(files) == 4 and all(f.endswith(".props.tsv") for f in files)

        rc = run_cli(["eval", "--proposals", str(props_dir),
                      "--manifest", manifest, "--thresholds", "anet"])
        assert rc == 0
        assert (props_dir / "report.txt").exists()
        assert (props_dir / "ar_curve.csv").exists()
        out = capsys.readouterr().out
        assert "AUC" in out

    def test_teacher_weights_selectable(self, dataset, tmp_path):
        manifest = str(dataset / "manifest.json")
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--manifest", manifest, "--out", str(run_dir),
                        "--seed", "1"] + TRAIN_FLAGS) == 0
        out = tmp_path / "props_teacher"
        assert run_cli(["infer", "--checkpoint", str(run_dir / "checkpoint.bin"),
                        "--manifest", manifest, "--out", str(out),
                        "--weights", "teacher"]) == 0
        assert len(os.listdir(out)) == 4

    def test_resume_flag(self, dataset, tmp_path):
        manifest = str(dataset / "manifest.json")
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--manifest", manifest, "--out", str(run_dir),
                        "--seed", "1"] + TRAIN_FLAGS) == 0
        flags = [f if f != "1" else "2" for f in TRAIN_FLAGS]  # epochs 1 -> 2
        assert run_cli(["train", "--manifest", manifest, "--out", str(run_dir),
                        "--seed", "1", "--resume",
                        str(run_dir / "checkpoint.bin")] + flags) == 0
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert json.loads(lines[-1])["epoch"] == 2


class TestGradCheckCommand:
    def test_default_tiny_model_passes(self, capsys):
        rc = run_cli(["grad-check", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "base.conv1.w" in out


class TestAblate:
    def test_bad_seed_is_usage_error_before_out_exists(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "ablation"
        manifest = str(dataset / "manifest.json")
        rc = run_cli(["ablate", "--seeds", "1,-1", "--train-manifest", manifest,
                      "--test-manifest", manifest, "--out", str(out_dir)])
        assert rc == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("seeds", ["", "1,,2", ",", "a"])
    def test_malformed_seed_list_is_usage_error_before_out_exists(self, dataset, tmp_path,
                                                                 capsys, seeds):
        out_dir = tmp_path / "ablation"
        manifest = str(dataset / "manifest.json")
        rc = run_cli(["ablate", f"--seeds={seeds}", "--train-manifest", manifest,
                      "--test-manifest", manifest, "--out", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--seeds must be a comma-separated list of integers, got {seeds!r}" in err
        assert not out_dir.exists()

    def test_grid_emits_csv(self, tmp_path, capsys):
        train_dir, test_dir = tmp_path / "train", tmp_path / "test"
        for d, seed, frac in ((train_dir, 3, 0.5), (test_dir, 4, 1.0)):
            assert run_cli(["gen-data", "--out", str(d), "--videos", "4",
                            "--snippets", "16", "--channels", "4",
                            "--labeled", str(frac), "--seed", str(seed)]) == 0
        cfg = TrainConfig(hidden=4, pem_hidden=4, n_samples=4, max_duration=8,
                          mu=0.5, epochs=1)
        cfg_path = tmp_path / "config.json"
        cfg.to_file(cfg_path)
        out_dir = tmp_path / "ablation"
        rc = run_cli(["ablate", "--grid", "default", "--seeds", "1,2",
                      "--train-manifest", str(train_dir / "manifest.json"),
                      "--test-manifest", str(test_dir / "manifest.json"),
                      "--config", str(cfg_path), "--out", str(out_dir)])
        assert rc == 0
        with open(out_dir / "ablation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 modes x 2 seeds
        assert {r["config"] for r in rows} == {"sstap", "supervised"}
        assert {r["seed"] for r in rows} == {"1", "2"}
        for r in rows:
            assert np.isfinite(float(r["AUC"]))
            assert np.isfinite(float(r["AR@10"]))

    def test_repeated_seed_is_usage_error_before_out_exists(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "ablation"
        manifest = str(dataset / "manifest.json")
        rc = run_cli(["ablate", "--seeds", "2,1,2", "--train-manifest", manifest,
                      "--test-manifest", manifest, "--out", str(out_dir)])
        assert rc == 1
        assert "repeats a seed" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("config,message", [
        ({}, "selects zero channels for C=16"),  # the default mu = 1/16 on gen-data's C
        ({"mu": 0.5, "max_duration": 40}, "must not exceed T=16")])
    def test_grid_that_cannot_train_is_usage_error_before_out_exists(
            self, tmp_path, capsys, config, message):
        data = tmp_path / "data"
        assert run_cli(["gen-data", "--out", str(data), "--videos", "2",
                        "--snippets", "16", "--seed", "3"]) == 0
        cfg_path, out_dir = tmp_path / "config.json", tmp_path / "ablation"
        TrainConfig(**config).to_file(cfg_path)
        manifest = str(data / "manifest.json")
        rc = run_cli(["ablate", "--seeds", "1", "--train-manifest", manifest,
                      "--test-manifest", manifest, "--config", str(cfg_path),
                      "--out", str(out_dir)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags", [["--snippets", "20"], ["--channels", "6"]])
    def test_test_manifest_of_other_shape_is_data_error_before_out_exists(
            self, dataset, tmp_path, capsys, flags):
        test_dir = tmp_path / "test"
        assert run_cli(["gen-data", "--out", str(test_dir), "--videos", "2",
                        "--snippets", "16", "--channels", "4", *flags]) == 0
        cfg_path, out_dir = tmp_path / "config.json", tmp_path / "ablation"
        TrainConfig(hidden=4, pem_hidden=4, n_samples=4, max_duration=8, mu=0.5,
                    epochs=1).to_file(cfg_path)
        rc = run_cli(["ablate", "--seeds", "1", "--config", str(cfg_path),
                      "--train-manifest", str(dataset / "manifest.json"),
                      "--test-manifest", str(test_dir / "manifest.json"),
                      "--out", str(out_dir)])
        assert rc == 2
        assert "the training manifest expects T=16, C=4" in capsys.readouterr().err
        assert not out_dir.exists()


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only: a fresh process that imports the CLI,
    and with it every module of the package, has not loaded it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c",
                          "import semiprop.cli, sys; print('scipy' in sys.modules)"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
