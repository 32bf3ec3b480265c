"""Tests for hard-negative mining and ranking-only fine-tuning."""

import copy
import logging
import os

import numpy as np
import pytest

import oracles
from twobranch import data, evaluation as ev, hard_negatives as hn_mod
from twobranch import network as nw, training
from twobranch.errors import ConsistencyError, FormatError
from twobranch.loss_mining import LossConfig


def localization_setup(seed=0, stage1_epochs=10):
    d = data.gen_localization(6, 3, 16, 12, seed=seed,
                              background_per_image=6,
                              bg_offset_lo=0.03, bg_offset_hi=0.20)
    graph = data.build_graph(d.pairs, d.regions.ids, d.phrases.ids)
    params = nw.init_params(nw.BranchSpec(16, 24, 12, 0.5),
                            nw.BranchSpec(12, 24, 12, 0.5), seed=seed)
    opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                            weight_decay=0.0005)
    if stage1_epochs:
        training.train(params, opt, graph, d.regions, d.phrases,
                       LossConfig(), stage1_epochs, 8, False,
                       np.random.default_rng(seed))
    corpus = ev.corpus_from_rows(d.corpus_rows, d.phrases, d.regions)
    return d, graph, params, opt, corpus


def embeddings(params, phrases, regions):
    """Eval-mode (phrase_emb, region_emb), as mine-negatives embeds them."""
    phrase_emb, _ = nw.forward_branch(params, "y", phrases.features, "eval")
    region_emb, _ = nw.forward_branch(params, "x", regions.features, "eval")
    return phrase_emb, region_emb


def expected_negatives(params, rows, phrases, regions, cap,
                       iou_thresh=0.5):
    """Recompute the mining rule with plain loops."""
    region_emb, _ = nw.forward_branch(params, "x", regions.features, "eval")
    phrase_emb, _ = nw.forward_branch(params, "y", phrases.features, "eval")
    all_queries = oracles.corpus_queries(rows, phrases, regions)
    out = {}
    skipped = []
    for phrase_id in oracles.unique_phrases(all_queries):
        queries = oracles.queries_of_phrase(all_queries, phrase_id)
        gt_rows = sorted({int(r) for q in queries for r in q.gt_rows
                          if int(r) >= 0})
        if not gt_rows:
            skipped.append(phrase_id)
            continue
        anchor = phrase_emb[queries[0].phrase_row]
        threshold = min(
            float(np.linalg.norm(region_emb[g] - anchor)) for g in gt_rows)
        qualifying = {}
        for q in queries:
            for p in range(q.proposal_rows.shape[0]):
                row = int(q.proposal_rows[p])
                dist = float(np.linalg.norm(region_emb[row] - anchor))
                if not dist < threshold:
                    continue
                best_iou = 0.0
                for g in range(q.gt_boxes.shape[0]):
                    box = q.proposal_boxes[p]
                    gt = q.gt_boxes[g]
                    iw = min(box[2], gt[2]) - max(box[0], gt[0])
                    ih = min(box[3], gt[3]) - max(box[1], gt[1])
                    if iw > 0 and ih > 0:
                        inter = iw * ih
                        union = ((box[2] - box[0]) * (box[3] - box[1])
                                 + (gt[2] - gt[0]) * (gt[3] - gt[1])
                                 - inter)
                        best_iou = max(best_iou, inter / union)
                if best_iou >= iou_thresh:
                    continue
                if row not in qualifying or dist < qualifying[row]:
                    qualifying[row] = dist
        ranked = sorted((d, r) for r, d in qualifying.items())[:cap]
        out[phrase_id] = [(r, d) for d, r in ranked]
    return out, skipped


class TestMineHardNegatives:
    def test_matches_loop_oracle(self):
        d, _, params, _, corpus = localization_setup(seed=0)
        hn, skipped = hn_mod.mine_hard_negatives(
            corpus, *embeddings(params, d.phrases, d.regions), cap=50)
        want, want_skipped = expected_negatives(params, d.corpus_rows,
                                                d.phrases, d.regions, cap=50)
        assert skipped == want_skipped == []
        assert set(hn.by_phrase) == set(want)
        for phrase_id, entries in want.items():
            got = hn.by_phrase[phrase_id]
            assert [r for r, _ in got] == [r for r, _ in entries]
            for (_, da), (_, db) in zip(got, entries):
                assert abs(da - db) < 1e-12
        assert hn.total > 0

    def test_conditions_hold_per_entry(self):
        d, _, params, _, corpus = localization_setup(seed=1)
        hn, _ = hn_mod.mine_hard_negatives(
            corpus, *embeddings(params, d.phrases, d.regions), cap=50)
        region_emb, _ = nw.forward_branch(params, "x", d.regions.features,
                                          "eval")
        phrase_emb, _ = nw.forward_branch(params, "y", d.phrases.features,
                                          "eval")
        all_queries = oracles.corpus_queries(d.corpus_rows, d.phrases,
                                             d.regions)
        for phrase_id, entries in hn.by_phrase.items():
            queries = oracles.queries_of_phrase(all_queries, phrase_id)
            anchor = phrase_emb[queries[0].phrase_row]
            gt_rows = [int(r) for q in queries for r in q.gt_rows
                       if int(r) >= 0]
            threshold = min(float(np.linalg.norm(region_emb[g] - anchor))
                            for g in gt_rows)
            dists = [dist for _, dist in entries]
            assert dists == sorted(dists)
            for row, dist in entries:
                assert abs(dist - float(np.linalg.norm(
                    region_emb[row] - anchor))) < 1e-12
                assert dist < threshold
                owner = [q for q in queries
                         if row in q.proposal_rows.tolist()]
                assert len(owner) == 1
                q = owner[0]
                p = q.proposal_rows.tolist().index(row)
                best = ev.box_iou(q.proposal_boxes[p],
                                  q.gt_boxes).max()
                assert best < 0.5

    def test_gt_and_jitter_rows_never_mined(self):
        d, _, params, _, corpus = localization_setup(seed=2)
        hn, _ = hn_mod.mine_hard_negatives(
            corpus, *embeddings(params, d.phrases, d.regions), cap=50)
        for entries in hn.by_phrase.values():
            for row, _ in entries:
                rid = d.regions.ids[row]
                assert rid.rsplit("_", 1)[-1].startswith("b")

    def test_cap_keeps_closest_prefix(self):
        d, _, params, _, corpus = localization_setup(seed=0)
        full, _ = hn_mod.mine_hard_negatives(
            corpus, *embeddings(params, d.phrases, d.regions), cap=50)
        assert any(len(v) > 2 for v in full.by_phrase.values())
        capped, _ = hn_mod.mine_hard_negatives(
            corpus, *embeddings(params, d.phrases, d.regions), cap=2)
        for phrase_id, entries in full.by_phrase.items():
            assert capped.by_phrase[phrase_id] == entries[:2]
            assert len(capped.by_phrase[phrase_id]) <= 2

    def test_deterministic(self):
        d, _, params, _, corpus = localization_setup(seed=3,
                                                     stage1_epochs=0)
        a, sk_a = hn_mod.mine_hard_negatives(
            corpus, *embeddings(params, d.phrases, d.regions), cap=10)
        b, sk_b = hn_mod.mine_hard_negatives(
            corpus, *embeddings(params, d.phrases, d.regions), cap=10)
        assert a.by_phrase == b.by_phrase
        assert sk_a == sk_b

    def test_phrase_without_gt_feature_rows_skipped(self):
        rows = [
            ("im_0", "G", "cat", 0.0, 0.0, 10.0, 10.0, None),
            ("im_0", "P", "cat", 40.0, 40.0, 50.0, 50.0, 0),
        ]
        phrases = data.FeatureSet(ids=["cat"],
                                  features=np.ones((1, 4)))
        regions = data.FeatureSet(ids=["r0"],
                                  features=np.ones((1, 5)))
        corpus = ev.corpus_from_rows(rows, phrases, regions)
        params = nw.init_params(nw.BranchSpec(5, 6, 4, 0.0),
                                nw.BranchSpec(4, 6, 4, 0.0), seed=0)
        hn, skipped = hn_mod.mine_hard_negatives(
            corpus, *embeddings(params, phrases, regions))
        assert skipped == ["cat"]
        assert hn.by_phrase == {}


class TestHardNegativeIO:
    def test_round_trip(self, tmp_path):
        d, _, params, _, corpus = localization_setup(seed=0)
        hn, _ = hn_mod.mine_hard_negatives(
            corpus, *embeddings(params, d.phrases, d.regions), cap=50)
        path = str(tmp_path / "negatives.tsv")
        hn_mod.save_hard_negatives(hn, path)
        back = hn_mod.load_hard_negatives(path, cap=50)
        nonempty = {k: v for k, v in hn.by_phrase.items() if v}
        assert back.by_phrase == nonempty

    def test_round_trip_refuses_comment_rows(self, tmp_path):
        path = str(tmp_path / "negatives.tsv")
        hn = hn_mod.HardNegativeSet(by_phrase={"a": [(3, 0.5)],
                                               "p#": [(1, 0.25)]})
        hn_mod.save_hard_negatives(hn, path)
        assert hn_mod.load_hard_negatives(path).by_phrase == hn.by_phrase
        bad = hn_mod.HardNegativeSet(by_phrase={**hn.by_phrase,
                                                "#p": [(2, 0.75)]})
        with pytest.raises(ConsistencyError, match="'#p'"):
            hn_mod.save_hard_negatives(bad, path)
        assert hn_mod.load_hard_negatives(path).by_phrase == hn.by_phrase

    @pytest.mark.parametrize("phrase_id", ["p\tq", "p\nq", "p\rq"])
    def test_round_trip_refuses_tabs_and_line_breaks(self, tmp_path,
                                                     phrase_id):
        path = tmp_path / "negatives.tsv"
        hn = hn_mod.HardNegativeSet(by_phrase={"a": [(3, 0.5)]})
        hn_mod.save_hard_negatives(hn, str(path))
        bad = hn_mod.HardNegativeSet(by_phrase={"a": [(3, 0.5)],
                                                phrase_id: [(2, 0.75)]})
        with pytest.raises(ConsistencyError, match="would not read back"):
            hn_mod.save_hard_negatives(bad, str(path))
        assert hn_mod.load_hard_negatives(str(path)).by_phrase == \
            hn.by_phrase
        assert os.listdir(tmp_path) == ["negatives.tsv"]

    def test_load_keeps_cap_closest_per_phrase(self, tmp_path):
        path = tmp_path / "negatives.tsv"
        path.write_text("a\t9\t0.5\na\t4\t0.25\nb\t1\t0.9\n"
                        "a\t7\t0.25\na\t2\t0.75\n")
        back = hn_mod.load_hard_negatives(str(path), cap=2)
        assert back.by_phrase == {"a": [(4, 0.25), (7, 0.25)],
                                  "b": [(1, 0.9)]}
        assert back.total == 3

    @pytest.mark.parametrize("dist", ["nan", "inf", "-inf"])
    def test_non_finite_distance_rejected(self, tmp_path, dist):
        path = tmp_path / "negatives.tsv"
        path.write_text(f"a\t3\t0.5\na\t4\t{dist}\n")
        with pytest.raises(FormatError, match=":2:"):
            hn_mod.load_hard_negatives(str(path))

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "negatives.tsv"
        hn_mod.save_hard_negatives(
            hn_mod.HardNegativeSet(by_phrase={"a": [(3, 0.5)]}), path)
        before = path.read_bytes()
        # the second phrase's distance cannot be formatted
        broken = hn_mod.HardNegativeSet(
            by_phrase={"a": [(4, 0.25)], "b": [(5, "far")]})
        with pytest.raises(ValueError):
            hn_mod.save_hard_negatives(broken, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["negatives.tsv"]

    def test_malformed_lines(self, tmp_path):
        path = str(tmp_path / "negatives.tsv")
        with open(path, "w") as fh:
            fh.write("phrase_000\t3\n")
        with pytest.raises(FormatError):
            hn_mod.load_hard_negatives(path)
        with open(path, "w") as fh:
            fh.write("phrase_000\tthree\t0.5\n")
        with pytest.raises(FormatError):
            hn_mod.load_hard_negatives(path)

    def test_comments_skipped(self, tmp_path):
        path = str(tmp_path / "negatives.tsv")
        with open(path, "w") as fh:
            fh.write("# mined against checkpoint 7\nphrase_000\t3\t0.5\n")
        back = hn_mod.load_hard_negatives(path)
        assert back.by_phrase == {"phrase_000": [(3, 0.5)]}

    def test_negatives_by_anchor_row(self):
        phrases = data.FeatureSet(ids=["a", "b"], features=np.zeros((2, 3)))
        hn = hn_mod.HardNegativeSet(
            by_phrase={"b": [(4, 0.1), (7, 0.2)], "a": [(1, 0.3)]})
        got = hn_mod.negatives_by_anchor_row(hn, phrases)
        assert got == {1: [4, 7], 0: [1]}


class TestFineTune:
    def test_forces_structure_weights_to_zero(self, caplog):
        d, graph, params, opt, _ = localization_setup(seed=4,
                                                      stage1_epochs=4)
        hn = hn_mod.HardNegativeSet()
        cfg = LossConfig(lambda2=0.1, lambda3=0.2)
        with caplog.at_level(logging.WARNING, logger="twobranch"):
            history = hn_mod.fine_tune(params, opt, graph, d.regions,
                                       d.phrases, hn, cfg, 2, 8, False,
                                       np.random.default_rng(0))
        assert any("lambda" in rec.message for rec in caplog.records)
        assert cfg.lambda3 == 0.2
        for h in history:
            assert h.family_counts["image_structure"] == 0
            assert h.family_counts["sentence_structure"] == 0

    def test_no_warning_when_already_zero(self, caplog):
        d, graph, params, opt, _ = localization_setup(seed=4,
                                                      stage1_epochs=4)
        cfg = LossConfig(lambda2=0.0, lambda3=0.0)
        with caplog.at_level(logging.WARNING, logger="twobranch"):
            hn_mod.fine_tune(params, opt, graph, d.regions, d.phrases,
                             hn_mod.HardNegativeSet(), cfg, 1, 8, False,
                             np.random.default_rng(0))
        assert not [rec for rec in caplog.records
                    if rec.levelno >= logging.WARNING]

    def test_empty_set_equals_plain_training(self):
        d, graph, params, opt, _ = localization_setup(seed=5,
                                                      stage1_epochs=6)
        params_a = copy.deepcopy(params)
        opt_a = copy.deepcopy(opt)
        params_b = copy.deepcopy(params)
        opt_b = copy.deepcopy(opt)
        cfg = LossConfig(lambda2=0.0, lambda3=0.0)

        hist_a = hn_mod.fine_tune(params_a, opt_a, graph, d.regions,
                                  d.phrases, hn_mod.HardNegativeSet(), cfg,
                                  3, 8, False, np.random.default_rng(42))

        opt_b.epoch = 0
        opt_b.lr = nw.learning_rate(0, opt_b.lr0)
        hist_b = training.train(params_b, opt_b, graph, d.regions,
                                d.phrases, cfg, 3, 8, False,
                                np.random.default_rng(42))

        assert [h.mean_loss for h in hist_a] == [h.mean_loss for h in hist_b]
        names = ("w1", "b1", "w2", "b2", "gamma", "beta",
                 "running_mean", "running_var")
        for branch in ("x", "y"):
            pa = getattr(params_a, branch)
            pb = getattr(params_b, branch)
            for name in names:
                assert np.array_equal(getattr(pa, name),
                                      getattr(pb, name)), name

    def test_schedule_restarts(self):
        d, graph, params, opt, _ = localization_setup(seed=6,
                                                      stage1_epochs=12)
        assert opt.epoch == 12
        history = hn_mod.fine_tune(params, opt, graph, d.regions, d.phrases,
                                   hn_mod.HardNegativeSet(),
                                   LossConfig(lambda2=0.0, lambda3=0.0), 3,
                                   8, False, np.random.default_rng(1))
        assert [h.epoch for h in history] == [0, 1, 2]
        assert history[0].lr == opt.lr0

    def test_mined_negatives_join_training(self):
        d, graph, params, opt, corpus = localization_setup(seed=0)
        hn, _ = hn_mod.mine_hard_negatives(
            corpus, *embeddings(params, d.phrases, d.regions), cap=50)
        assert hn.total > 0
        history = hn_mod.fine_tune(params, opt, graph, d.regions, d.phrases,
                                   hn, LossConfig(lambda2=0.0, lambda3=0.0),
                                   3, 8, False, np.random.default_rng(2),
                                   negatives_per_anchor=20)
        for h in history:
            assert h.family_counts["image_structure"] == 0
            assert h.family_counts["sentence_structure"] == 0
        assert sum(h.family_counts["sentence_to_image"]
                   for h in history) > 0

    def test_out_of_range_negative_rejected(self):
        d, graph, params, opt, _ = localization_setup(seed=7,
                                                      stage1_epochs=0)
        bad = hn_mod.HardNegativeSet(
            by_phrase={"phrase_000": [(d.regions.n + 5, 0.1)]})
        with pytest.raises(ConsistencyError):
            hn_mod.fine_tune(params, opt, graph, d.regions, d.phrases, bad,
                             LossConfig(lambda2=0.0, lambda3=0.0), 1, 8,
                             False, np.random.default_rng(3))
