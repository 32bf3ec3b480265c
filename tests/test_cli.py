"""End-to-end tests for the command-line interface."""

import errno
import inspect
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from twobranch import cli, data, evaluation, hard_negatives, training
from twobranch import network as nw
from twobranch.errors import ConfigError, DivergenceError, TwoBranchError


def run_cli(*argv):
    return cli.main(list(argv))


# train's four modes: fresh or resumed, plain or fine-tune
TRAIN_MODES = {
    "fresh": {},
    "resumed": {"checkpoint_in": "in.ckpt"},
    "fine_tune": {"hard_negatives": "hn.tsv"},
    "resumed_fine_tune": {"checkpoint_in": "in.ckpt",
                          "hard_negatives": "hn.tsv"},
}
COMMAND_MODES = [("train", mode) for mode in TRAIN_MODES] + [
    (command, "") for command in cli.COMMAND_KEYS if command != "train"]


def keys_read(command, mode):
    return cli.keys_read(command,
                         cli.ExperimentConfig(**TRAIN_MODES.get(mode, {})))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Generated data plus trained checkpoints shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    ret = root / "retrieval"
    loc = root / "localization"

    assert run_cli("gen-synthetic", "--out-dir", str(ret),
                   "--clusters", "6", "--images-per-cluster", "2",
                   "--sents-per-image", "3", "--dim-x", "12", "--dim-y",
                   "10", "--seed", "0") == 0
    assert run_cli("gen-synthetic", "--mode", "localization",
                   "--out-dir", str(loc), "--phrases", "4",
                   "--images-per-phrase", "3", "--dim-regions", "14",
                   "--dim-phrases", "9", "--seed", "0") == 0

    common = ["--x-hidden-dim", "16", "--y-hidden-dim", "16",
              "--embed-dim", "8", "--epochs", "4", "--batch-pairs", "6",
              "--seed", "0"]
    assert run_cli("train",
                   "--features-x", str(ret / "x.feat"),
                   "--features-y", str(ret / "y.feat"),
                   "--pairs", str(ret / "pairs.tsv"),
                   "--checkpoint-out", str(ret / "model.ckpt"),
                   "--train-csv", str(ret / "train.csv"),
                   *common) == 0
    assert run_cli("train",
                   "--features-x", str(loc / "regions.feat"),
                   "--features-y", str(loc / "phrases.feat"),
                   "--pairs", str(loc / "pairs.tsv"),
                   "--checkpoint-out", str(loc / "model.ckpt"),
                   "--augment", "false",
                   *common) == 0
    return {"root": root, "ret": ret, "loc": loc}


class TestConfigParsing:
    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# experiment\nmargin = 0.2\nepochs = 7\n"
                        "augment = false\nfeatures_x = a.feat\n")
        got = cli.parse_config_file(str(path))
        assert got == {"margin": 0.2, "epochs": 7, "augment": False,
                       "features_x": "a.feat"}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("granularity = 3\n")
        with pytest.raises(ConfigError):
            cli.parse_config_file(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(ConfigError):
            cli.parse_config_file(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs 7\n")
        with pytest.raises(ConfigError):
            cli.parse_config_file(str(path))

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("margin = 0.2\nepochs = 7\n")
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--config", str(path),
                                  "--epochs", "9"])
        cfg = cli.resolve_config(args)
        assert cfg.margin == 0.2
        assert cfg.epochs == 9
        assert cfg.lambda1 == 2.0

    def test_shared_defaults_agree(self):
        # a default the config shares with a function's keyword is kept
        # in both places; the two must not drift apart
        cfg = cli.ExperimentConfig()

        def default(func, name):
            return inspect.signature(func).parameters[name].default

        assert {default(hard_negatives.mine_hard_negatives, "cap"),
                default(hard_negatives.load_hard_negatives, "cap")} == \
            {cfg.hn_cap}
        assert {default(training.train, "negatives_per_anchor"),
                default(hard_negatives.fine_tune, "negatives_per_anchor")} \
            == {cfg.negatives_per_anchor}
        assert {default(evaluation.phrase_map, "iou_thresh"),
                default(evaluation.localization_recall_at_k, "iou_thresh"),
                default(hard_negatives.mine_hard_negatives, "iou_thresh")} \
            == {cfg.iou_thresh}
        assert default(evaluation.phrase_map, "nms_overlap") == \
            cfg.nms_overlap

    def test_every_key_read_by_some_command(self):
        # no config key that nothing reads, and no table key that is not
        # a config key
        read = set().union(*(keys_read(command, mode)
                             for command, mode in COMMAND_MODES))
        assert read == set(cli._CONFIG_FIELDS)

    def test_key_counts(self):
        counts = {(command, mode): len(keys_read(command, mode))
                  for command, mode in COMMAND_MODES}
        assert counts == {
            ("train", "fresh"): 27, ("train", "fine_tune"): 27,
            ("train", "resumed"): 18, ("train", "resumed_fine_tune"): 18,
            ("eval-retrieval", ""): 6, ("eval-localization", ""): 7,
            ("mine-negatives", ""): 7, ("fuse", ""): 12}

    @pytest.mark.parametrize("command, mode", COMMAND_MODES)
    def test_required_keys_are_read(self, command, mode, monkeypatch):
        # each cmd_* checks its required keys first; stop it there
        class Required(Exception):
            pass

        def record(cfg, *keys):
            raise Required(keys)

        monkeypatch.setattr(cli, "_require", record)
        cfg = cli.ExperimentConfig(**TRAIN_MODES.get(mode, {}))
        func = cli.build_parser().parse_args([command]).func
        with pytest.raises(Required) as required:
            func(cfg, cli.keys_read(command, cfg))
        assert required.value.args[0]
        assert set(required.value.args[0]) <= cli.keys_read(command, cfg)

    def test_unknown_key_exits_one(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("granularity = 3\n")
        assert run_cli("train", "--config", str(path)) == 1

    def test_threads_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("threads = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'threads'"):
            cli.parse_config_file(str(path))

    @pytest.mark.parametrize("flag, value", [("--augment", "maybe"),
                                             ("--epochs", "soon"),
                                             ("--margin", "wide")])
    def test_bad_flag_value_exits_one(self, flag, value, caplog):
        assert run_cli("train", flag, value) == 1
        key = flag[2:].replace("-", "_")
        assert f"config key {key}" in caplog.text
        assert value in caplog.text

    @pytest.mark.parametrize("flag", ["--pairs", "--config"])
    def test_non_utf8_input_exits_one(self, workdir, tmp_path, flag, caplog):
        ret = workdir["ret"]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# a comment\n\xff\n")
        args = {"--pairs": str(ret / "pairs.tsv"), flag: str(bad)}
        assert run_cli("train",
                       "--features-x", str(ret / "x.feat"),
                       "--features-y", str(ret / "y.feat"),
                       "--checkpoint-out", str(tmp_path / "model.ckpt"),
                       *(arg for item in args.items() for arg in item)) == 1
        assert f"{bad}:2: not UTF-8 text" in caplog.text
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", "--config"), ("train", "--pairs"),
        ("train", "--checkpoint-in"), ("eval-retrieval", "--features-x")])
    def test_directory_input_exits_one(self, workdir, tmp_path, command,
                                       flag, caplog):
        # a directory where an input file is named is a bad input, as a
        # missing file is
        ret = workdir["ret"]
        folder = tmp_path / "folder"
        folder.mkdir()
        out = tmp_path / "out"
        out.mkdir()
        args = {"--features-x": str(ret / "x.feat"),
                "--features-y": str(ret / "y.feat"),
                "--pairs": str(ret / "pairs.tsv")}
        if command == "train":
            args["--checkpoint-out"] = str(out / "model.ckpt")
            args["--best-checkpoint-out"] = str(out / "best.ckpt")
            args["--train-csv"] = str(out / "train.csv")
        else:
            args["--checkpoint-in"] = str(ret / "model.ckpt")
            args["--report"] = str(out / "report.csv")
        args[flag] = str(folder)
        assert run_cli(command,
                       *(arg for item in args.items() for arg in item)) == 1
        assert str(folder) in caplog.text
        assert os.listdir(out) == []

    def test_missing_required_key_exits_one(self, workdir):
        ret = workdir["ret"]
        assert run_cli("train",
                       "--features-x", str(ret / "x.feat"),
                       "--features-y", str(ret / "y.feat"),
                       "--pairs", str(ret / "pairs.tsv")) == 1

    def test_non_finite_features_exit_one(self, workdir, tmp_path, caplog):
        ret = workdir["ret"]
        feats = data.load_feature_file(str(ret / "x.feat"))
        feats.features[3, 1] = np.nan
        bad = str(tmp_path / "x.feat")
        data.save_feature_file(feats, bad)
        ckpt = tmp_path / "m.ckpt"
        assert run_cli("train",
                       "--features-x", bad,
                       "--features-y", str(ret / "y.feat"),
                       "--pairs", str(ret / "pairs.tsv"),
                       "--checkpoint-out", str(ckpt)) == 1
        assert not ckpt.exists()
        assert bad in caplog.text and "non-finite" in caplog.text


class TestTrainCommand:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_nonzero_without_checkpoint(self, workdir,
                                                         tmp_path, caplog):
        ret = workdir["ret"]
        ckpt = tmp_path / "m.ckpt"
        best = tmp_path / "best.ckpt"
        assert run_cli("train",
                       "--features-x", str(ret / "x.feat"),
                       "--features-y", str(ret / "y.feat"),
                       "--pairs", str(ret / "pairs.tsv"),
                       "--checkpoint-out", str(ckpt),
                       "--best-checkpoint-out", str(best),
                       "--x-hidden-dim", "16", "--y-hidden-dim", "16",
                       "--embed-dim", "8", "--epochs", "3",
                       "--batch-pairs", "6", "--seed", "0",
                       "--lr0", "1e200") == 2
        assert os.listdir(tmp_path) == []
        assert "epoch 0 step" in caplog.text
        assert "non-finite" in caplog.text

    def train_args(self, workdir, tmp_path, *extra):
        ret = workdir["ret"]
        # a resumed run takes its sizes from the checkpoint and refuses
        # them as flags
        sizes = () if "--checkpoint-in" in extra else (
            "--x-hidden-dim", "16", "--y-hidden-dim", "16",
            "--embed-dim", "8")
        return ("train",
                "--features-x", str(ret / "x.feat"),
                "--features-y", str(ret / "y.feat"),
                "--pairs", str(ret / "pairs.tsv"),
                "--checkpoint-out", str(tmp_path / "model.ckpt"),
                "--best-checkpoint-out", str(tmp_path / "best.ckpt"),
                *sizes, "--batch-pairs", "6") + extra

    def test_best_checkpoint_of_earlier_epoch(self, workdir, tmp_path,
                                              monkeypatch):
        oracle = tmp_path / "oracle" / "best.ckpt"
        oracle.parent.mkdir()
        monkeypatch.setattr(cli, "train",
                            oracles.deepcopy_best_train(cli.train, oracle))
        assert run_cli(*self.train_args(
            workdir, tmp_path, "--train-csv", str(tmp_path / "t.csv"),
            "--epochs", "4", "--lr0", "12", "--lambda2", "0.3",
            "--seed", "2")) == 0
        rows = [l.split(",") for l in (tmp_path / "t.csv").read_text()
                .splitlines() if not l.startswith("#")][1:]
        losses = [float(r[2]) for r in rows]
        best_epoch = losses.index(min(losses))
        assert best_epoch < len(losses) - 1
        best = (tmp_path / "best.ckpt").read_bytes()
        assert best == oracle.read_bytes()
        assert best != (tmp_path / "model.ckpt").read_bytes()
        _, opt = nw.load_checkpoint(tmp_path / "best.ckpt")
        assert opt.epoch == best_epoch + 1

    def test_divergence_after_improving_epoch_leaves_best(
            self, workdir, tmp_path, monkeypatch, caplog):
        real_train = cli.train

        def one_epoch_then_diverge(params, opt, graph, fx, fy, loss_cfg,
                                   epochs, *args, **kwargs):
            real_train(params, opt, graph, fx, fy, loss_cfg, 1, *args,
                       **kwargs)
            raise DivergenceError("epoch 1 step 0: loss is nan")

        monkeypatch.setattr(cli, "train", one_epoch_then_diverge)
        assert run_cli(*self.train_args(workdir, tmp_path, "--epochs", "3",
                                        "--seed", "0")) == 2
        assert "epoch 1 step 0" in caplog.text
        assert os.listdir(tmp_path) == ["best.ckpt"]
        params, opt = nw.load_checkpoint(tmp_path / "best.ckpt")
        assert opt.epoch == 1
        assert nw.non_finite_tensors(params, opt) == []

    @staticmethod
    def epoch_rows(csv):
        """A train CSV's epoch rows, each split into its fields."""
        return [l.split(",") for l in csv.read_text().splitlines()
                if not l.startswith("#")][1:]

    @staticmethod
    def final_state_bytes(monkeypatch):
        """Record the bytes a fresh save of the state ``train`` returns
        with would hold, under "ckpt"."""
        real_train = cli.train
        final = {}

        def recording_train(params, opt, *args, **kwargs):
            history = real_train(params, opt, *args, **kwargs)
            final["ckpt"] = oracles.joined_checkpoint_bytes(params, opt)
            return history

        monkeypatch.setattr(cli, "train", recording_train)
        return final

    def test_last_best_epoch_links_final_checkpoint(self, workdir, tmp_path,
                                                    monkeypatch):
        final = self.final_state_bytes(monkeypatch)
        csv = tmp_path / "t.csv"
        assert run_cli(*self.train_args(workdir, tmp_path, "--epochs", "3",
                                        "--seed", "0", "--train-csv",
                                        str(csv))) == 0
        losses = [float(r[2]) for r in self.epoch_rows(csv)]
        assert losses[-1] == min(losses)
        model, best = tmp_path / "model.ckpt", tmp_path / "best.ckpt"
        assert os.stat(model).st_ino == os.stat(best).st_ino
        assert model.read_bytes() == final["ckpt"]
        _, opt = nw.load_checkpoint(model)
        assert opt.epoch == 3
        assert sorted(os.listdir(tmp_path)) == ["best.ckpt", "model.ckpt",
                                                "t.csv"]

    def test_failed_link_writes_final_checkpoint(self, workdir, tmp_path,
                                                 monkeypatch):
        final = self.final_state_bytes(monkeypatch)

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link", src)

        monkeypatch.setattr(os, "link", cross_device)
        assert run_cli(*self.train_args(workdir, tmp_path, "--epochs", "1",
                                        "--seed", "0")) == 0
        model, best = tmp_path / "model.ckpt", tmp_path / "best.ckpt"
        assert os.stat(model).st_ino != os.stat(best).st_ino
        assert model.read_bytes() == final["ckpt"] == best.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["best.ckpt", "model.ckpt"]

    @pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
    def test_one_file_for_both_checkpoints(self, workdir, tmp_path,
                                           monkeypatch, spelling):
        # the final checkpoint names the best one's file: nothing is
        # linked or written after the best save, and no *.tmp is left
        final = self.final_state_bytes(monkeypatch)
        best = tmp_path / "m.ckpt"
        out = {"same": best, "dot": tmp_path / "." / "m.ckpt",
               "symlink": tmp_path / "link.ckpt"}[spelling]
        if spelling == "symlink":
            out.symlink_to(best)
        for epochs in ("1", "2"):
            args = list(self.train_args(workdir, tmp_path, "--epochs",
                                        epochs, "--seed", "0"))
            args[args.index("--checkpoint-out") + 1] = str(out)
            args[args.index("--best-checkpoint-out") + 1] = str(best)
            assert run_cli(*args) == 0
            assert not [n for n in os.listdir(tmp_path)
                        if n.endswith(".tmp")]
            assert out.is_symlink() == (spelling == "symlink")
            assert out.read_bytes() == final["ckpt"]
            _, opt = nw.load_checkpoint(out)
            assert opt.epoch == int(epochs)

    def test_resume_from_best_runs_the_next_epoch(self, workdir, tmp_path):
        csv = tmp_path / "t.csv"
        assert run_cli(*self.train_args(
            workdir, tmp_path, "--train-csv", str(csv), "--epochs", "4",
            "--lr0", "12", "--lambda2", "0.3", "--seed", "2")) == 0
        losses = [float(r[2]) for r in self.epoch_rows(csv)]
        best_epoch = losses.index(min(losses))
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        args = list(self.train_args(
            workdir, resumed, "--train-csv", str(resumed / "t.csv"),
            "--epochs", "1", "--lambda2", "0.3", "--seed", "2",
            "--checkpoint-in", str(tmp_path / "best.ckpt")))
        assert run_cli(*args) == 0
        assert [r[0] for r in self.epoch_rows(resumed / "t.csv")] == [
            str(best_epoch + 1)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rerun_replaces_linked_checkpoints(self, workdir, tmp_path):
        model, best = tmp_path / "model.ckpt", tmp_path / "best.ckpt"
        assert run_cli(*self.train_args(workdir, tmp_path, "--epochs", "1",
                                        "--seed", "0")) == 0
        first = model.read_bytes()
        keep = tmp_path / "keep"
        keep.mkdir()
        os.link(model, keep / "first.ckpt")
        # a run that fails before its first checkpoint leaves both files
        assert run_cli(*self.train_args(workdir, tmp_path, "--epochs", "1",
                                        "--seed", "0", "--lr0",
                                        "1e200")) == 2
        assert model.read_bytes() == first == best.read_bytes()
        assert os.stat(model).st_ino == os.stat(best).st_ino
        assert run_cli(*self.train_args(workdir, tmp_path, "--epochs", "1",
                                        "--seed", "1")) == 0
        second = model.read_bytes()
        assert second != first and best.read_bytes() == second
        assert os.stat(model).st_ino == os.stat(best).st_ino
        # each file was replaced, never edited: the old inode is whole
        assert (keep / "first.ckpt").read_bytes() == first
        assert sorted(os.listdir(tmp_path)) == ["best.ckpt", "keep",
                                                "model.ckpt"]

    def test_train_csv_shape(self, workdir):
        lines = (workdir["ret"] / "train.csv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("# ")]
        assert any(l.startswith("# margin = ") for l in comments)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header.startswith("epoch,lr,mean_loss,image_to_sentence")
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 4
        assert rows[0].split(",")[0] == "0"

    def test_loss_drops_over_training(self, workdir, tmp_path):
        ret = workdir["ret"]
        csv = tmp_path / "long.csv"
        assert run_cli("train",
                       "--features-x", str(ret / "x.feat"),
                       "--features-y", str(ret / "y.feat"),
                       "--pairs", str(ret / "pairs.tsv"),
                       "--checkpoint-out", str(tmp_path / "m.ckpt"),
                       "--train-csv", str(csv),
                       "--x-hidden-dim", "16", "--y-hidden-dim", "16",
                       "--embed-dim", "8", "--epochs", "30",
                       "--batch-pairs", "6", "--seed", "1") == 0
        rows = [l.split(",") for l in csv.read_text().splitlines()
                if not l.startswith("#")][1:]
        first, last = float(rows[0][2]), float(rows[-1][2])
        assert last < first

    def test_rerun_identical_bytes(self, workdir, tmp_path):
        ret = workdir["ret"]
        args = ("train",
                "--features-x", str(ret / "x.feat"),
                "--features-y", str(ret / "y.feat"),
                "--pairs", str(ret / "pairs.tsv"),
                "--checkpoint-out", str(tmp_path / "m.ckpt"),
                "--train-csv", str(tmp_path / "t.csv"),
                "--x-hidden-dim", "16", "--y-hidden-dim", "16",
                "--embed-dim", "8", "--epochs", "3", "--batch-pairs", "6",
                "--seed", "2")
        assert run_cli(*args) == 0
        csv_first = (tmp_path / "t.csv").read_bytes()
        ckpt_first = (tmp_path / "m.ckpt").read_bytes()
        assert run_cli(*args) == 0
        assert (tmp_path / "t.csv").read_bytes() == csv_first
        assert (tmp_path / "m.ckpt").read_bytes() == ckpt_first

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "-2"), ("--lr0", "-1"), ("--lr0", "0"),
        ("--momentum", "5"), ("--momentum", "1"), ("--momentum", "-0.1"),
        ("--weight-decay", "-0.001"), ("--bn-eps", "-5"), ("--bn-eps", "0"),
        ("--bn-momentum", "1.5"), ("--bn-momentum", "-0.1"),
        ("--max-x-per-y", "-3"), ("--lr0", "inf"), ("--weight-decay", "inf"),
        ("--margin", "inf"), ("--margin", "nan"), ("--lambda1", "inf"),
        ("--lambda3", "nan"), ("--seed", "-1"),
        ("--seed", "9007199254740993")])
    def test_out_of_range_setting_exits_one(self, workdir, tmp_path, flag,
                                            value, caplog):
        assert run_cli(*self.train_args(workdir, tmp_path, "--epochs", "1",
                                        flag, value)) == 1
        assert not (tmp_path / "model.ckpt").exists()
        assert flag[2:].replace("-", "_") in caplog.text
        if flag == "--max-x-per-y":
            # the command-line range, where 0 is allowed
            assert ">= 0, 0 means no cap" in caplog.text

    @pytest.mark.parametrize("seed", ["-1", "9007199254740993"])
    def test_out_of_range_seed_with_checkpoint_in_exits_one(
            self, workdir, tmp_path, seed, caplog):
        # the seed still drives the batch draws of a resumed run
        assert run_cli(*self.train_args(
            workdir, tmp_path, "--epochs", "1", "--checkpoint-in",
            str(workdir["ret"] / "model.ckpt"), "--seed", seed)) == 1
        assert not (tmp_path / "model.ckpt").exists()
        assert not (tmp_path / "best.ckpt").exists()
        assert "seed must lie in [0, 2^53]" in caplog.text

    @pytest.mark.parametrize("name, value", [
        ("meta.seed", np.nan), ("meta.seed", 1.5), ("opt.epoch", np.inf),
        ("opt.epoch", 2.5), ("opt.lr", np.nan)])
    def test_checkpoint_in_with_bad_scalar_exits_one(
            self, workdir, tmp_path, name, value, caplog):
        params, opt = nw.load_checkpoint(workdir["ret"] / "model.ckpt")
        records = oracles.checkpoint_records(params, opt)
        records[name] = np.full((1, 1), value)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(oracles.records_checkpoint_bytes(records))
        assert run_cli(*self.train_args(workdir, tmp_path, "--epochs", "0",
                                        "--checkpoint-in", str(bad))) == 1
        assert not (tmp_path / "model.ckpt").exists()
        assert f"record {name} holds" in caplog.text

    @pytest.mark.parametrize("epochs", ["2", "0"])
    def test_one_pair_batches_exit_one(self, workdir, tmp_path, epochs,
                                       caplog):
        # every one-pair chunk would be dropped, so the run would train
        # nothing and save the untrained state
        assert run_cli(*self.train_args(workdir, tmp_path, "--epochs", epochs,
                                        "--batch-pairs", "1")) == 1
        assert os.listdir(tmp_path) == []
        assert "batch_pairs must be >= 2, got 1" in caplog.text

    def test_one_pair_fine_tune_exits_one(self, workdir, tmp_path):
        loc = workdir["loc"]
        negatives = tmp_path / "hn.tsv"
        negatives.write_text("phrase_000\t5\t0.5\n")
        assert run_cli("train",
                       "--features-x", str(loc / "regions.feat"),
                       "--features-y", str(loc / "phrases.feat"),
                       "--pairs", str(loc / "pairs.tsv"),
                       "--checkpoint-in", str(loc / "model.ckpt"),
                       "--checkpoint-out", str(tmp_path / "ft.ckpt"),
                       "--hard-negatives", str(negatives),
                       "--fine-tune-epochs", "1", "--batch-pairs", "1") == 1
        assert not (tmp_path / "ft.ckpt").exists()

    def test_fine_tune_epochs_below_zero_exits_one(self, workdir, tmp_path):
        loc = workdir["loc"]
        negatives = tmp_path / "hn.tsv"
        negatives.write_text("phrase_000\t5\t0.5\n")
        assert run_cli("train",
                       "--features-x", str(loc / "regions.feat"),
                       "--features-y", str(loc / "phrases.feat"),
                       "--pairs", str(loc / "pairs.tsv"),
                       "--checkpoint-in", str(loc / "model.ckpt"),
                       "--checkpoint-out", str(tmp_path / "ft.ckpt"),
                       "--hard-negatives", str(negatives),
                       "--fine-tune-epochs", "-1", "--batch-pairs", "6") == 1
        assert not (tmp_path / "ft.ckpt").exists()

    def test_lambda_flag_changes_echo(self, workdir, tmp_path):
        ret = workdir["ret"]
        outs = []
        for tag, value in (("a", "0"), ("b", "0.2")):
            csv = tmp_path / f"{tag}.csv"
            assert run_cli("train",
                           "--features-x", str(ret / "x.feat"),
                           "--features-y", str(ret / "y.feat"),
                           "--pairs", str(ret / "pairs.tsv"),
                           "--checkpoint-out", str(tmp_path / f"{tag}.ckpt"),
                           "--train-csv", str(csv),
                           "--x-hidden-dim", "16", "--y-hidden-dim", "16",
                           "--embed-dim", "8", "--epochs", "1",
                           "--batch-pairs", "6", "--seed", "0",
                           "--lambda3", value) == 0
            echo = [l for l in csv.read_text().splitlines()
                    if l.startswith("# lambda3")]
            outs.append(echo)
        assert outs[0] == ["# lambda3 = 0.0"]
        assert outs[1] == ["# lambda3 = 0.2"]

    def test_continue_from_checkpoint(self, workdir, tmp_path):
        ret = workdir["ret"]
        assert run_cli("train",
                       "--features-x", str(ret / "x.feat"),
                       "--features-y", str(ret / "y.feat"),
                       "--pairs", str(ret / "pairs.tsv"),
                       "--checkpoint-in", str(ret / "model.ckpt"),
                       "--checkpoint-out", str(tmp_path / "more.ckpt"),
                       "--train-csv", str(tmp_path / "more.csv"),
                       "--epochs", "2", "--batch-pairs", "6",
                       "--seed", "3") == 0
        rows = [l.split(",") for l in
                (tmp_path / "more.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [r[0] for r in rows] == ["4", "5"]


class TestEvalRetrieval:
    def test_report_rows(self, workdir, tmp_path):
        ret = workdir["ret"]
        report = tmp_path / "report.csv"
        assert run_cli("eval-retrieval",
                       "--features-x", str(ret / "x.feat"),
                       "--features-y", str(ret / "y.feat"),
                       "--pairs", str(ret / "pairs.tsv"),
                       "--checkpoint-in", str(ret / "model.ckpt"),
                       "--report", str(report)) == 0
        rows = [l for l in report.read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == "metric,direction,k,value"
        assert len(rows) == 7
        labels = [tuple(r.split(",")[:3]) for r in rows[1:]]
        assert labels == [
            ("recall", "image_to_sentence", "1"),
            ("recall", "image_to_sentence", "5"),
            ("recall", "image_to_sentence", "10"),
            ("recall", "sentence_to_image", "1"),
            ("recall", "sentence_to_image", "5"),
            ("recall", "sentence_to_image", "10"),
        ]
        for r in rows[1:]:
            value = float(r.split(",")[3])
            assert 0.0 <= value <= 100.0

    def test_dim_mismatch_exits_one(self, workdir, tmp_path):
        ret, loc = workdir["ret"], workdir["loc"]
        assert run_cli("eval-retrieval",
                       "--features-x", str(ret / "x.feat"),
                       "--features-y", str(ret / "y.feat"),
                       "--pairs", str(ret / "pairs.tsv"),
                       "--checkpoint-in", str(loc / "model.ckpt"),
                       "--report", str(tmp_path / "r.csv")) == 1


class TestLocalizationPipeline:
    def test_eval_mine_finetune_cycle(self, workdir, tmp_path):
        loc = workdir["loc"]
        report = tmp_path / "loc.csv"
        assert run_cli("eval-localization",
                       "--features-x", str(loc / "regions.feat"),
                       "--features-y", str(loc / "phrases.feat"),
                       "--corpus", str(loc / "corpus.tsv"),
                       "--checkpoint-in", str(loc / "model.ckpt"),
                       "--report", str(report)) == 0
        rows = [l.split(",") for l in report.read_text().splitlines()
                if not l.startswith("#")][1:]
        metrics = [r[0] for r in rows]
        assert metrics == ["localization_recall"] * 3 + ["map",
                                                         "skipped_phrases"]

        negatives = tmp_path / "hn.tsv"
        assert run_cli("mine-negatives",
                       "--features-x", str(loc / "regions.feat"),
                       "--features-y", str(loc / "phrases.feat"),
                       "--corpus", str(loc / "corpus.tsv"),
                       "--checkpoint-in", str(loc / "model.ckpt"),
                       "--hard-negatives", str(negatives)) == 0
        assert negatives.exists()

        assert run_cli("train",
                       "--features-x", str(loc / "regions.feat"),
                       "--features-y", str(loc / "phrases.feat"),
                       "--pairs", str(loc / "pairs.tsv"),
                       "--checkpoint-in", str(loc / "model.ckpt"),
                       "--checkpoint-out", str(tmp_path / "ft.ckpt"),
                       "--hard-negatives", str(negatives),
                       "--train-csv", str(tmp_path / "ft.csv"),
                       "--fine-tune-epochs", "2", "--batch-pairs", "6",
                       "--augment", "false", "--seed", "0") == 0
        rows = [l.split(",") for l in
                (tmp_path / "ft.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [r[0] for r in rows] == ["0", "1"]
        header = [l for l in (tmp_path / "ft.csv").read_text().splitlines()
                  if not l.startswith("#")][0].split(",")
        i_structure = header.index("image_structure")
        s_structure = header.index("sentence_structure")
        for r in rows:
            assert r[i_structure] == "0"
            assert r[s_structure] == "0"

        assert run_cli("eval-localization",
                       "--features-x", str(loc / "regions.feat"),
                       "--features-y", str(loc / "phrases.feat"),
                       "--corpus", str(loc / "corpus.tsv"),
                       "--checkpoint-in", str(tmp_path / "ft.ckpt"),
                       "--report", str(tmp_path / "loc2.csv")) == 0


    def test_rerun_identical_bytes(self, workdir, tmp_path):
        loc = workdir["loc"]
        common = ("--features-x", str(loc / "regions.feat"),
                  "--features-y", str(loc / "phrases.feat"),
                  "--corpus", str(loc / "corpus.tsv"),
                  "--checkpoint-in", str(loc / "model.ckpt"))
        report = tmp_path / "loc.csv"
        negatives = tmp_path / "hn.tsv"
        first = None
        for _ in range(2):
            assert run_cli("eval-localization", *common,
                           "--report", str(report)) == 0
            assert run_cli("mine-negatives", *common,
                           "--hard-negatives", str(negatives)) == 0
            outputs = (report.read_bytes(), negatives.read_bytes())
            assert first is None or outputs == first
            first = outputs
        assert negatives.read_text().count("\n") > 0

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_mine_negatives_cap_below_one_exits_one(self, workdir, tmp_path,
                                                     cap):
        loc = workdir["loc"]
        negatives = tmp_path / "hn.tsv"
        assert run_cli("mine-negatives",
                       "--features-x", str(loc / "regions.feat"),
                       "--features-y", str(loc / "phrases.feat"),
                       "--corpus", str(loc / "corpus.tsv"),
                       "--checkpoint-in", str(loc / "model.ckpt"),
                       "--hard-negatives", str(negatives),
                       "--hn-cap", cap) == 1
        assert not negatives.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("eval-localization", "--iou-thresh", "2"),
        ("eval-localization", "--iou-thresh", "nan"),
        ("eval-localization", "--nms-overlap", "-1"),
        ("eval-localization", "--nms-overlap", "nan"),
        ("mine-negatives", "--iou-thresh", "-0.5"),
        ("mine-negatives", "--iou-thresh", "nan"),
    ])
    def test_overlap_outside_unit_interval_exits_one(self, workdir, tmp_path,
                                                     command, flag, value,
                                                     caplog):
        loc = workdir["loc"]
        out = tmp_path / "out"
        output = {"eval-localization": "--report",
                  "mine-negatives": "--hard-negatives"}[command]
        assert run_cli(command,
                       "--features-x", str(loc / "regions.feat"),
                       "--features-y", str(loc / "phrases.feat"),
                       "--corpus", str(loc / "corpus.tsv"),
                       "--checkpoint-in", str(loc / "model.ckpt"),
                       output, str(out), flag, value) == 1
        assert "must lie in [0, 1]" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_overlap_endpoints_accepted(self, workdir, tmp_path, value):
        loc = workdir["loc"]
        common = ("--features-x", str(loc / "regions.feat"),
                  "--features-y", str(loc / "phrases.feat"),
                  "--corpus", str(loc / "corpus.tsv"),
                  "--checkpoint-in", str(loc / "model.ckpt"),
                  "--iou-thresh", value)
        assert run_cli("eval-localization", *common,
                       "--report", str(tmp_path / "loc.csv"),
                       "--nms-overlap", value) == 0
        assert run_cli("mine-negatives", *common,
                       "--hard-negatives", str(tmp_path / "hn.tsv")) == 0

    @pytest.mark.parametrize("flag, value", [
        ("--hn-cap", "0"), ("--hn-cap", "-1"),
        ("--negatives-per-anchor", "0"), ("--negatives-per-anchor", "-1"),
    ])
    def test_fine_tune_count_below_one_exits_one(self, workdir, tmp_path,
                                                 flag, value):
        loc = workdir["loc"]
        negatives = tmp_path / "hn.tsv"
        negatives.write_text("phrase_000\t5\t0.5\nphrase_001\t2\t0.25\n")
        assert run_cli("train",
                       "--features-x", str(loc / "regions.feat"),
                       "--features-y", str(loc / "phrases.feat"),
                       "--pairs", str(loc / "pairs.tsv"),
                       "--checkpoint-in", str(loc / "model.ckpt"),
                       "--checkpoint-out", str(tmp_path / "ft.ckpt"),
                       "--hard-negatives", str(negatives),
                       "--fine-tune-epochs", "1", "--batch-pairs", "6",
                       flag, value) == 1
        assert not (tmp_path / "ft.ckpt").exists()

class TestFuse:
    def build_bridge_files(self, workdir, tmp_path):
        ret, loc = workdir["ret"], workdir["loc"]
        fx = data.load_feature_file(str(ret / "x.feat"))
        fy = data.load_feature_file(str(ret / "y.feat"))
        regions = data.load_feature_file(str(loc / "regions.feat"))
        corpus = tmp_path / "bridge_corpus.tsv"
        with open(corpus, "w") as fh:
            for i, image_id in enumerate(fx.ids):
                row = i % regions.n
                fh.write(f"{image_id}\tP\tphrase_000\t0.0\t0.0\t10.0\t"
                         f"10.0\t{row}\n")
                fh.write(f"{image_id}\tG\tphrase_000\t0.0\t0.0\t10.0\t"
                         f"10.0\n")
        membership = tmp_path / "membership.tsv"
        with open(membership, "w") as fh:
            for sent_id in fy.ids[:4]:
                fh.write(f"{sent_id}\tphrase_000\n")
        return corpus, membership

    def fuse_args(self, workdir, corpus, membership, report, alpha):
        ret, loc = workdir["ret"], workdir["loc"]
        return ("fuse",
                "--features-x", str(ret / "x.feat"),
                "--features-y", str(ret / "y.feat"),
                "--pairs", str(ret / "pairs.tsv"),
                "--checkpoint-in", str(ret / "model.ckpt"),
                "--rp-checkpoint", str(loc / "model.ckpt"),
                "--rp-features-x", str(loc / "regions.feat"),
                "--rp-features-y", str(loc / "phrases.feat"),
                "--corpus", str(corpus),
                "--membership", str(membership),
                "--report", str(report),
                "--alpha", str(alpha))

    def test_alpha_zero_matches_plain_retrieval(self, workdir, tmp_path):
        ret = workdir["ret"]
        plain = tmp_path / "plain.csv"
        assert run_cli("eval-retrieval",
                       "--features-x", str(ret / "x.feat"),
                       "--features-y", str(ret / "y.feat"),
                       "--pairs", str(ret / "pairs.tsv"),
                       "--checkpoint-in", str(ret / "model.ckpt"),
                       "--report", str(plain)) == 0
        corpus, membership = self.build_bridge_files(workdir, tmp_path)
        fused = tmp_path / "fused.csv"
        assert run_cli(*self.fuse_args(workdir, corpus, membership, fused,
                                       0.0)) == 0
        strip = lambda p: [l for l in p.read_text().splitlines()
                           if not l.startswith("#")]
        assert strip(fused) == strip(plain)

    def test_alpha_seven_tenths_runs(self, workdir, tmp_path):
        corpus, membership = self.build_bridge_files(workdir, tmp_path)
        report = tmp_path / "fused07.csv"
        assert run_cli(*self.fuse_args(workdir, corpus, membership, report,
                                       0.7)) == 0
        rows = [l for l in report.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 7

    def test_unknown_membership_sentence_exits_one(self, workdir, tmp_path,
                                                   caplog):
        corpus, membership = self.build_bridge_files(workdir, tmp_path)
        with open(membership, "a") as fh:
            fh.write("sent_missing\tphrase_000\n")
        report = tmp_path / "fused.csv"
        assert run_cli(*self.fuse_args(workdir, corpus, membership, report,
                                       0.7)) == 1
        assert "'sent_missing'" in caplog.text
        assert not report.exists()


# (command, train mode, flags that command does not read)
UNREAD_FLAGS = [
    ("train", "fresh", ["--hn-cap", "2"]),
    ("train", "fresh", ["--report", "r.csv"]),
    ("train", "fine_tune", ["--epochs", "3"]),
    ("train", "resumed", ["--lr0", "0.5"]),
    # a flag is refused whatever its value, the default included
    ("train", "resumed_fine_tune", ["--lambda3", "0.2"]),
    # the probes that found such flags accepted and ignored, verbatim
    ("train", "resumed", ["--lr0", "0.5", "--momentum", "0.1",
                          "--x-hidden-dim", "999", "--dropout", "0.9"]),
    ("eval-retrieval", "", ["--lambda1", "7", "--epochs", "3",
                            "--hn-cap", "2"]),
    ("eval-retrieval", "", ["--alpha", "0.7"]),
    ("eval-localization", "", ["--pairs", "pairs.tsv"]),
    ("mine-negatives", "", ["--report", "r.csv"]),
    ("fuse", "", ["--epochs", "3"]),
]


class TestKeysRead:
    """A command refuses every flag it does not read, and echoes only
    the keys it read."""

    @staticmethod
    def args(workdir, tmp_path, command, mode):
        """Flags of a run of ``command`` in train ``mode`` that exits 0,
        with every output under ``tmp_path / "out"``."""
        ret, loc = workdir["ret"], workdir["loc"]
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        rp = ["--features-x", str(loc / "regions.feat"),
              "--features-y", str(loc / "phrases.feat"),
              "--corpus", str(loc / "corpus.tsv"),
              "--checkpoint-in", str(loc / "model.ckpt")]
        xy = ["--features-x", str(ret / "x.feat"),
              "--features-y", str(ret / "y.feat"),
              "--pairs", str(ret / "pairs.tsv")]
        if command == "eval-retrieval":
            return xy + ["--checkpoint-in", str(ret / "model.ckpt"),
                         "--report", str(out / "r.csv")]
        if command == "eval-localization":
            return rp + ["--report", str(out / "r.csv")]
        if command == "mine-negatives":
            return rp + ["--hard-negatives", str(out / "hn.tsv")]
        if command == "fuse":
            fuse = TestFuse()
            corpus, membership = fuse.build_bridge_files(workdir, tmp_path)
            return fuse.fuse_args(workdir, corpus, membership,
                                  out / "r.csv", 0.7)[1:]
        argv = ["--features-x", str(loc / "regions.feat"),
                "--features-y", str(loc / "phrases.feat"),
                "--pairs", str(loc / "pairs.tsv"),
                "--checkpoint-out", str(out / "m.ckpt"),
                "--train-csv", str(out / "t.csv"), "--batch-pairs", "6"]
        if "resumed" in mode:
            argv += ["--checkpoint-in", str(loc / "model.ckpt")]
        else:
            argv += ["--x-hidden-dim", "16", "--y-hidden-dim", "16",
                     "--embed-dim", "8"]
        if "fine_tune" in mode:
            negatives = tmp_path / "hn.tsv"
            negatives.write_text("phrase_000\t5\t0.5\n")
            argv += ["--hard-negatives", str(negatives),
                     "--fine-tune-epochs", "1"]
        else:
            argv += ["--epochs", "1"]
        return argv

    @pytest.mark.parametrize("command, mode, refused", UNREAD_FLAGS, ids=[
        "-".join(filter(None, (c, m, "+".join(f[2:] for f in r[::2]))))
        for c, m, r in UNREAD_FLAGS])
    def test_unread_flag_exits_one(self, workdir, tmp_path, command, mode,
                                   refused, caplog):
        argv = [command, *self.args(workdir, tmp_path, command, mode)]
        assert run_cli(*argv, *refused) == 1
        for flag in refused[::2]:
            assert flag in caplog.text
        assert os.listdir(tmp_path / "out") == []
        # the same run without the refused flags works
        assert run_cli(*argv) == 0
        assert os.listdir(tmp_path / "out")

    def test_mode_from_config_file(self, workdir, tmp_path, caplog):
        # --checkpoint-in given in the file makes --lr0 a refused flag
        argv = self.args(workdir, tmp_path, "train", "fresh")
        cut = argv.index("--x-hidden-dim")
        path = tmp_path / "run.cfg"
        path.write_text(f"checkpoint_in = {workdir['loc'] / 'model.ckpt'}\n")
        assert run_cli("train", *argv[:cut], "--config", str(path),
                       "--lr0", "0.5") == 1
        assert "--lr0" in caplog.text
        assert os.listdir(tmp_path / "out") == []

    @staticmethod
    def echo(path):
        """The ``# key = value`` lines of a CSV, as a dict."""
        return dict(line[2:].split(" = ", 1)
                    for line in path.read_text().splitlines()
                    if line.startswith("# "))

    def test_pipeline_config_file(self, workdir, tmp_path):
        # one file may hold keys for the other commands of a pipeline
        path = tmp_path / "pipeline.cfg"
        path.write_text("alpha = 0.5\nlambda1 = 7\nhn_cap = 2\n")
        argv = self.args(workdir, tmp_path, "eval-retrieval", "")
        assert run_cli("eval-retrieval", "--config", str(path), *argv) == 0
        echo = self.echo(tmp_path / "out" / "r.csv")
        assert set(echo) == keys_read("eval-retrieval", "")
        assert not {"alpha", "lambda1", "hn_cap"} & set(echo)

    @pytest.mark.parametrize("dropout_y", [0.25, 0.5])
    def test_resumed_echo_is_the_checkpoint(self, workdir, tmp_path,
                                            dropout_y):
        # settings unlike the config defaults, each branch its own dropout
        params = nw.init_params(nw.BranchSpec(12, 16, 8, 0.5),
                                nw.BranchSpec(10, 24, 8, dropout_y),
                                seed=5, bn_momentum=0.2, bn_eps=1e-4)
        opt = nw.OptimizerState(lr0=0.05, lr=0.05, momentum=0.8,
                                weight_decay=0.001)
        ckpt = tmp_path / "in.ckpt"
        nw.save_checkpoint(params, opt, ckpt)
        ret = workdir["ret"]
        csv = tmp_path / "t.csv"
        assert run_cli("train", "--features-x", str(ret / "x.feat"),
                       "--features-y", str(ret / "y.feat"),
                       "--pairs", str(ret / "pairs.tsv"),
                       "--checkpoint-in", str(ckpt),
                       "--checkpoint-out", str(tmp_path / "out.ckpt"),
                       "--train-csv", str(csv), "--epochs", "1",
                       "--batch-pairs", "6", "--seed", "3") == 0
        params, opt = nw.load_checkpoint(ckpt)
        x, y = params.spec_x, params.spec_y
        held = {"x_hidden_dim": str(x.hidden_dim),
                "y_hidden_dim": str(y.hidden_dim),
                "embed_dim": str(x.embed_dim),
                "dropout": (repr(x.dropout_p) if x.dropout_p == y.dropout_p
                            else f"x {x.dropout_p!r}, y {y.dropout_p!r}"),
                "bn_momentum": repr(params.bn_momentum),
                "bn_eps": repr(params.bn_eps), "lr0": repr(opt.lr0),
                "momentum": repr(opt.momentum),
                "weight_decay": repr(opt.weight_decay)}
        echo = self.echo(csv)
        # the resumed run's keys, plus those a fresh run reads
        assert set(echo) == (keys_read("train", "resumed")
                             | keys_read("train", "fresh"))
        assert {key: echo[key] for key in held} == held
        assert echo["seed"] == "3" and echo["epochs"] == "1"

    def test_fine_tune_reads_no_structure_weight(self, workdir, tmp_path,
                                                 caplog):
        argv = self.args(workdir, tmp_path, "train", "resumed_fine_tune")
        assert run_cli("train", *argv) == 0
        assert "forces lambda2/lambda3" not in caplog.text
        echo = self.echo(tmp_path / "out" / "t.csv")
        assert not {"lambda2", "lambda3", "epochs"} & set(echo)
        assert echo["fine_tune_epochs"] == "1"


class TestGenSynthetic:
    @pytest.mark.parametrize("args", [
        ("--clusters", "4", "--heldout-clusters", "-2"),
        ("--mode", "localization", "--dim-regions", "0"),
        ("--mode", "localization", "--dim-phrases", "0"),
        ("--mode", "localization", "--jitter-per-gt", "-1"),
        ("--mode", "localization", "--background-per-image", "-3"),
        ("--mode", "localization", "--noise-sigma", "-0.1"),
        ("--seed", "-1"), ("--seed", "9007199254740993"),
        ("--mode", "localization", "--seed", "-1")])
    def test_bad_input_exits_one(self, tmp_path, args):
        out = tmp_path / "out"
        assert run_cli("gen-synthetic", "--out-dir", str(out), *args) == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["retrieval", "localization"])
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_exits_one(self, tmp_path, mode, sigma):
        # the parent wrote feature files that load_feature_file rejects
        out = tmp_path / "out"
        assert run_cli("gen-synthetic", "--out-dir", str(out), "--mode",
                       mode, "--noise-sigma", sigma) == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["retrieval", "localization"])
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_dir_at_a_file_exits_one(self, tmp_path, mode, under):
        # makedirs raises FileExistsError at the file itself and
        # NotADirectoryError under it: both name a bad --out-dir
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"kept")
        out = blocker / under if under else blocker
        assert run_cli("gen-synthetic", "--out-dir", str(out), "--mode",
                       mode) == 1
        assert blocker.read_bytes() == b"kept"
        assert os.listdir(tmp_path) == ["blocker"]


class TestGradCheckCommand:
    def test_passes_on_fresh_init(self):
        assert run_cli("grad-check", "--seeds", "2") == 0

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_exits_one(self, seeds, caplog):
        # no seed checked is no pass
        caplog.set_level("INFO")
        assert run_cli("grad-check", f"--seeds={seeds}") == 1
        assert "seeds must be >= 1" in caplog.text
        assert "passed" not in caplog.text

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-4"])
    def test_unusable_tolerance_exits_one(self, tolerance, caplog):
        # err >= nan is never true, so NaN would pass every check
        caplog.set_level("INFO")
        assert run_cli("grad-check", "--seeds", "1",
                       f"--tolerance={tolerance}") == 1
        assert "tolerance must be finite and > 0" in caplog.text
        assert "passed" not in caplog.text


# A scalar setting, a weight or a velocity may hold any of these.
HOSTILE_VALUES = (np.nan, np.inf, -np.inf, -1.0, -0.0, 0.0, 5e-324, 0.5,
                  1.5, 2.0**53, 2.0**53 + 2, 1e300, -1e300)


def fuzzed_checkpoint(draw, good):
    """Bytes of a hostile checkpoint drawn from the checkpoint ``good``:
    arbitrary bytes, a truncation, one flipped byte, or records edited
    into hostile ones behind a forged checksum."""
    # record edits twice as often: only they get past the checksum
    kind = draw(st.sampled_from(["bytes", "truncated", "flipped",
                                 "records", "records"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    raw = good.read_bytes()
    if kind == "truncated":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "flipped":
        at = draw(st.integers(0, len(raw) - 1))
        return (raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))])
                + raw[at + 1:])
    records = oracles.checkpoint_records(*nw.load_checkpoint(good))
    for _ in range(draw(st.integers(1, 3))):
        # mostly a record the loader knows, now and then a new name
        name = draw(st.sampled_from(sorted(records) + [""]))
        name = name or draw(st.text(max_size=12))
        held = records.get(name, np.zeros((1, 1)))
        edit = draw(st.sampled_from(["drop", "fill", "entry", "shape"]))
        if edit == "drop":
            records.pop(name, None)
        elif edit == "shape":
            records[name] = np.full(
                (draw(st.integers(0, 20)), draw(st.integers(0, 20))),
                draw(st.sampled_from(HOSTILE_VALUES)))
        elif edit == "fill":
            records[name] = np.full(held.shape,
                                    draw(st.sampled_from(HOSTILE_VALUES)))
        elif held.size:
            records[name] = held.copy()
            records[name].flat[draw(st.integers(0, held.size - 1))] = \
                draw(st.sampled_from(HOSTILE_VALUES))
    return oracles.records_checkpoint_bytes(records)


class TestHostileCheckpoint:
    # bounded: about 1.5 s of tier-1 time on 2 CPUs
    @settings(max_examples=60, deadline=5000,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_loads_or_fails_with_package_error(self, workdir, data):
        # A hostile file either loads or raises a TwoBranchError, and a
        # resumed train exits 0 or 1, never 2.  It runs no epoch, so
        # the file's settings are not trained with: a finite but huge
        # learning rate diverges, which exits 2 by design.
        root = workdir["root"]
        ret = workdir["ret"]
        bad, out = root / "hostile.ckpt", root / "hostile_out.ckpt"
        bad.write_bytes(fuzzed_checkpoint(data.draw, ret / "model.ckpt"))
        out.unlink(missing_ok=True)
        try:
            nw.load_checkpoint(bad)
            loaded = True
        except TwoBranchError:
            loaded = False
        code = run_cli("train", "--features-x", str(ret / "x.feat"),
                       "--features-y", str(ret / "y.feat"),
                       "--pairs", str(ret / "pairs.tsv"),
                       "--checkpoint-in", str(bad),
                       "--checkpoint-out", str(out), "--epochs", "0",
                       "--batch-pairs", "6")
        assert code in (0, 1)
        assert code == 1 or loaded
        assert out.exists() == (code == 0)
        if code == 0:
            # non-finite values never reach a checkpoint
            assert nw.non_finite_tensors(*nw.load_checkpoint(out)) == []
