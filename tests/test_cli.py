"""End-to-end tests for the command-line interface."""

import errno
import os

import numpy as np
import pytest

import oracles
from twobranch import cli, data
from twobranch import network as nw
from twobranch.errors import ConfigError, DivergenceError


def run_cli(*argv):
    return cli.main(list(argv))


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
        return ("train",
                "--features-x", str(ret / "x.feat"),
                "--features-y", str(ret / "y.feat"),
                "--pairs", str(ret / "pairs.tsv"),
                "--checkpoint-out", str(tmp_path / "model.ckpt"),
                "--best-checkpoint-out", str(tmp_path / "best.ckpt"),
                "--x-hidden-dim", "16", "--y-hidden-dim", "16",
                "--embed-dim", "8", "--batch-pairs", "6") + extra

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
        ("--bn-momentum", "1.5"), ("--bn-momentum", "-0.1")])
    def test_out_of_range_setting_exits_one(self, workdir, tmp_path, flag,
                                            value, caplog):
        assert run_cli(*self.train_args(workdir, tmp_path, "--epochs", "1",
                                        flag, value)) == 1
        assert not (tmp_path / "model.ckpt").exists()
        assert flag[2:].replace("-", "_") in caplog.text

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
        assert run_cli(command,
                       "--features-x", str(loc / "regions.feat"),
                       "--features-y", str(loc / "phrases.feat"),
                       "--corpus", str(loc / "corpus.tsv"),
                       "--checkpoint-in", str(loc / "model.ckpt"),
                       "--report", str(out), "--hard-negatives", str(out),
                       flag, value) == 1
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


class TestGenSynthetic:
    @pytest.mark.parametrize("args", [
        ("--clusters", "4", "--heldout-clusters", "-2"),
        ("--mode", "localization", "--dim-regions", "0"),
        ("--mode", "localization", "--dim-phrases", "0"),
        ("--mode", "localization", "--jitter-per-gt", "-1"),
        ("--mode", "localization", "--background-per-image", "-3"),
        ("--mode", "localization", "--noise-sigma", "-0.1")])
    def test_bad_input_exits_one(self, tmp_path, args):
        out = tmp_path / "out"
        assert run_cli("gen-synthetic", "--out-dir", str(out), *args) == 1
        assert not out.exists() or os.listdir(out) == []


class TestGradCheckCommand:
    def test_passes_on_fresh_init(self):
        assert run_cli("grad-check", "--seeds", "2") == 0
