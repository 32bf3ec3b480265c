"""Tests for retrieval metrics, localization metrics, and fusion."""

import os
import tracemalloc

import numpy as np
import pytest

import oracles
from twobranch import data
from twobranch import evaluation as ev
from twobranch import hard_negatives as hn_mod
from twobranch import tensor_core as tc
from twobranch.errors import (
    ConfigError,
    ConsistencyError,
    EvaluationError,
    FormatError,
)


def recall_at_k(d, positives, k):
    """recall_at_k of per-query lists of positives."""
    return ev.recall_at_k(d, oracles.adjacency(positives), k)


def evaluate_retrieval(d, by_x, by_y, **kwargs):
    """evaluate_retrieval of per-row lists of positives."""
    return ev.evaluate_retrieval(d, oracles.adjacency(by_x),
                                 oracles.adjacency(by_y), **kwargs)


class TestRecallAtK:
    def test_diagonal_dominant(self):
        d = np.full((3, 3), 0.9)
        np.fill_diagonal(d, 0.1)
        pos = [[0], [1], [2]]
        assert recall_at_k(d, pos, 1) == 100.0

    def test_positive_ranked_fifth(self):
        d = np.arange(10, dtype=np.float64).reshape(1, 10)
        pos = [[4]]
        assert recall_at_k(d, pos, 1) == 0.0
        assert recall_at_k(d, pos, 4) == 0.0
        assert recall_at_k(d, pos, 5) == 100.0

    def test_matches_sort_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            d = rng.random((20, 100))
            pos = [rng.choice(100, size=int(rng.integers(1, 4)),
                              replace=False).tolist() for _ in range(20)]
            for k in (1, 5, 10):
                assert recall_at_k(d, pos, k) == \
                    oracles.naive_recall_at_k(d, pos, k)

    def test_ties_break_by_index(self):
        d = np.zeros((1, 4))
        assert recall_at_k(d, [[0]], 1) == 100.0
        assert recall_at_k(d, [[3]], 1) == 0.0
        assert recall_at_k(d, [[3]], 4) == 100.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(6)
        d = rng.random((12, 30))
        pos = [[int(rng.integers(30))] for _ in range(12)]
        values = [recall_at_k(d, pos, k) for k in range(1, 31)]
        for a, b in zip(values, values[1:]):
            assert a <= b
        assert values[-1] == 100.0

    def test_errors(self):
        d = np.zeros((2, 3))
        with pytest.raises(ConfigError):
            recall_at_k(d, [[0], [1]], 0)
        with pytest.raises(EvaluationError):
            recall_at_k(d, [[0], []], 1)
        with pytest.raises(ConsistencyError):
            recall_at_k(d, [[0]], 1)

    def test_positive_outside_candidates_rejected(self):
        d = np.zeros((1, 3))
        for bad in (-1, 3):
            with pytest.raises(ConsistencyError, match="outside"):
                recall_at_k(d, [[bad]], 1)
            with pytest.raises(ConsistencyError, match="outside"):
                evaluate_retrieval(d, [[bad]], [[0], [0], [0]])
            with pytest.raises(ConsistencyError, match="outside"):
                evaluate_retrieval(d.T, [[0], [0], [0]], [[bad]])

    def test_nan_distance_rejected(self):
        d = np.array([[0.1, np.nan, 0.3]])
        with pytest.raises(EvaluationError):
            recall_at_k(d, [[0]], 1)

    def test_heavy_ties_match_sort_oracle_at_every_k(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            nq = int(rng.integers(1, 12))
            nc = int(rng.integers(1, 25))
            # few distinct values: positives tie with each other and
            # with negatives on both sides of the cutoffs
            d = np.round(rng.random((nq, nc)) * 3.0) / 3.0
            pos = [rng.choice(nc, size=int(rng.integers(1, min(nc, 4) + 1)),
                              replace=False).tolist() for _ in range(nq)]
            for k in range(1, nc + 2):
                assert recall_at_k(d, pos, k) == \
                    oracles.naive_recall_at_k(d, pos, k)
            pos_t = [[q for q in range(nq) if c in pos[q]]
                     for c in range(nc)]
            if all(pos_t):
                report = evaluate_retrieval(d, pos, pos_t,
                                               ks=range(1, nq + 2))
                for k, value in report.sentence_to_image.items():
                    assert value == oracles.naive_recall_at_k(d.T, pos_t, k)

    def test_evaluate_retrieval_directions(self):
        rng = np.random.default_rng(7)
        d = rng.random((6, 9))
        by_x = [[int(rng.integers(9))] for _ in range(6)]
        by_y = [[int(rng.integers(6))] for _ in range(9)]
        report = evaluate_retrieval(d, by_x, by_y, ks=(1, 5))
        assert report.image_to_sentence[5] == recall_at_k(d, by_x, 5)
        assert report.sentence_to_image[1] == recall_at_k(d.T, by_y, 1)
        rows = report.rows()
        assert [r[1:3] for r in rows] == [
            ("image_to_sentence", 1), ("image_to_sentence", 5),
            ("sentence_to_image", 1), ("sentence_to_image", 5)]


class TestMeanNeighborhoodDistance:
    def test_hand_pair(self):
        emb = np.array([[0.0, 0.0], [3.0, 4.0]])
        neighbors = [{0, 1}, {0, 1}]
        assert oracles.mean_neighborhood_distance(emb, neighbors) == 5.0

    def test_self_only_is_zero(self):
        emb = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert oracles.mean_neighborhood_distance(emb, [{0}, {1}]) == 0.0


def iou(a, b):
    return ev.box_iou([a], [b])[0, 0]


class TestIou:
    def test_identical(self):
        b = (0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_quarter_overlap(self):
        a = (0, 0, 10, 10)
        b = (5, 5, 15, 15)
        assert iou(a, b) == 25.0 / 175.0

    def test_disjoint(self):
        a = (0, 0, 10, 10)
        b = (20, 20, 30, 30)
        assert iou(a, b) == 0.0

    def test_touching_edge(self):
        a = (0, 0, 10, 10)
        b = (10, 0, 20, 10)
        assert iou(a, b) == 0.0

    def test_symmetry_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            vals = rng.uniform(0, 50, size=8)
            a = (vals[0], vals[1], vals[0] + 1 + vals[2],
                 vals[1] + 1 + vals[3])
            b = (vals[4], vals[5], vals[4] + 1 + vals[6],
                 vals[5] + 1 + vals[7])
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0
            assert iou(a, a) == 1.0
            got = iou(a, b)
            want = oracles.naive_iou(a, b)
            assert got == want

    def test_matrix_matches_pairwise_oracle(self):
        rng = np.random.default_rng(10)
        a = random_boxes(rng, 7)
        b = np.concatenate([random_boxes(rng, 4), a[:2]])
        got = ev.box_iou(a, b)
        assert got.shape == (7, 6)
        for i in range(7):
            for j in range(6):
                assert got[i, j] == oracles.naive_iou(a[i], b[j])
        assert ev.box_iou(a, np.zeros((0, 4))).shape == (7, 0)


def random_boxes(rng, n):
    out = np.zeros((n, 4))
    out[:, 0] = rng.uniform(0, 60, size=n)
    out[:, 1] = rng.uniform(0, 60, size=n)
    out[:, 2] = out[:, 0] + rng.uniform(5, 40, size=n)
    out[:, 3] = out[:, 1] + rng.uniform(5, 40, size=n)
    return out


def nms_kept(boxes, dist, overlap):
    """The NMS survivors of one query, best first, through the corpus."""
    corpus = single_query_corpus(proposals=boxes, gts=[])
    kept, _ = ev._survivors(corpus, dist, overlap, 0.5)
    return sorted(np.flatnonzero(kept).tolist(), key=lambda i: (dist[i], i))


class TestNms:
    def test_two_overlapping_keeps_better(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 6]], dtype=float)
        assert oracles.naive_iou(boxes[0], boxes[1]) == 0.6
        kept = nms_kept(boxes, np.array([0.2, 0.1]), 0.5)
        assert kept == [1]

    def test_disjoint_all_kept(self):
        boxes = np.array([[0, 0, 10, 10], [20, 20, 30, 30],
                          [50, 50, 60, 60]], dtype=float)
        kept = nms_kept(boxes, np.array([0.3, 0.1, 0.2]), 0.5)
        assert kept == [1, 2, 0]

    def test_matches_naive_oracle(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            boxes = random_boxes(rng, 30)
            dist = rng.random(30)
            got = nms_kept(boxes, dist, 0.4)
            want = oracles.naive_nms(boxes, (-dist).tolist(), 0.4)
            assert got == want
            assert oracles.nms(boxes, dist, 0.4) == want

    def test_tied_scores_match_naive_oracle(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            boxes = random_boxes(rng, 30)
            dist = rng.integers(0, 4, size=30).astype(np.float64)
            want = oracles.naive_nms(boxes, (-dist).tolist(), 0.3)
            assert nms_kept(boxes, dist, 0.3) == want
            assert oracles.nms(boxes, dist, 0.3) == want

    def test_kept_boxes_weakly_overlap(self):
        rng = np.random.default_rng(9)
        boxes = random_boxes(rng, 25)
        kept = nms_kept(boxes, rng.random(25), 0.3)
        for i in kept:
            for j in kept:
                if i != j:
                    assert oracles.naive_iou(boxes[i], boxes[j]) <= 0.3

    def test_length_mismatch(self):
        corpus = single_query_corpus(
            proposals=[(0, 0, 1, 1), (0, 0, 1, 1)], gts=[(0, 0, 1, 1)])
        with pytest.raises(ConsistencyError):
            ev.phrase_map(corpus, np.zeros(3))

    def test_walk_memory_bounded(self, monkeypatch):
        # 200 queries of 100 proposals walked two queries at a time: one
        # block holding every query would form (200, 100, 100) floats,
        # 16 MB a tensor
        rng = np.random.default_rng(5)
        rows = []
        for q in range(200):
            for b in random_boxes(rng, 100):
                rows.append((f"im_{q}", "P", "cat") + tuple(b) + (q,))
            rows.append((f"im_{q}", "G", "cat") + tuple(b) + (None,))
        phrases = data.FeatureSet(ids=["cat"], features=np.zeros((1, 2)))
        regions = data.FeatureSet(ids=[f"r{i}" for i in range(200)],
                                  features=np.zeros((200, 2)))
        corpus = ev.corpus_from_rows(rows, phrases, regions)
        dist = rng.random(corpus.proposal_query.shape[0])
        monkeypatch.setattr(ev, "DIRECT_CHUNK_FLOATS", 2 * 100 * 100)
        tracemalloc.start()
        try:
            ev._survivors(corpus, dist, 0.3, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_blocks_walk_like_one(self, monkeypatch):
        rng = np.random.default_rng(4)
        rows, phrases, regions, phrase_emb, region_emb = \
            oracles.random_localization_case(rng)
        corpus = ev.corpus_from_rows(rows, phrases, regions)
        dist = ev.query_distances(corpus, phrase_emb, region_emb)
        whole = ev._survivors(corpus, dist, 0.3, 0.5)
        # one query per block
        monkeypatch.setattr(ev, "DIRECT_CHUNK_FLOATS", 1)
        for got, want in zip(ev._survivors(corpus, dist, 0.3, 0.5), whole):
            assert np.array_equal(got, want)


def corpus_rows_fixture():
    return [
        ("im_a", "G", "cat", 0.0, 0.0, 10.0, 10.0, None),
        ("im_a", "P", "cat", 0.0, 0.0, 10.0, 10.0, 0),
        ("im_a", "P", "cat", 30.0, 30.0, 40.0, 40.0, 1),
        ("im_b", "G", "cat", 5.0, 5.0, 20.0, 20.0, None),
        ("im_b", "P", "cat", 5.0, 5.0, 20.0, 20.0, 2),
        ("im_b", "P", "dog", 50.0, 50.0, 60.0, 60.0, 3),
        ("im_b", "G", "dog", 50.0, 50.0, 60.0, 60.0, None),
    ]


def tiny_sets():
    phrases = data.FeatureSet(ids=["cat", "dog"], features=np.zeros((2, 3)))
    regions = data.FeatureSet(ids=[f"r{i}" for i in range(4)],
                              features=np.zeros((4, 3)))
    return phrases, regions


class TestCorpusIO:
    def test_rows_round_trip(self, tmp_path):
        rows = corpus_rows_fixture()
        path = str(tmp_path / "corpus.tsv")
        ev.save_corpus_file(rows, path)
        assert ev.load_corpus_rows(path) == rows

    def test_round_trip_refuses_comment_rows(self, tmp_path):
        rows = corpus_rows_fixture()
        path = str(tmp_path / "corpus.tsv")
        ev.save_corpus_file(rows, path)
        bad = rows + [("#img", "P", "cat", 0.0, 0.0, 5.0, 5.0, 0)]
        with pytest.raises(ConsistencyError, match="'#img'"):
            ev.save_corpus_file(bad, path)
        assert ev.load_corpus_rows(path) == rows

    @pytest.mark.parametrize("bad", [
        ("im\ta", "P", "cat", 0.0, 0.0, 5.0, 5.0, 0),
        ("img", "P", "ca\nt", 0.0, 0.0, 5.0, 5.0, 0),
        ("img", "P", "cat\r", 0.0, 0.0, 5.0, 5.0, None)])
    def test_round_trip_refuses_tabs_and_line_breaks(self, tmp_path, bad):
        rows = corpus_rows_fixture()
        path = tmp_path / "corpus.tsv"
        ev.save_corpus_file(rows, str(path))
        with pytest.raises(ConsistencyError, match="would not read back"):
            ev.save_corpus_file(rows + [bad], str(path))
        assert ev.load_corpus_rows(str(path)) == rows
        assert os.listdir(tmp_path) == ["corpus.tsv"]

    def test_comments_and_blanks(self, tmp_path):
        path = str(tmp_path / "corpus.tsv")
        with open(path, "w") as fh:
            fh.write("# header\n\nim_a\tP\tcat\t0.0\t0.0\t5.0\t5.0\t0\n")
        rows = ev.load_corpus_rows(path)
        assert rows == [("im_a", "P", "cat", 0.0, 0.0, 5.0, 5.0, 0)]

    def test_bad_column_count(self, tmp_path):
        path = str(tmp_path / "corpus.tsv")
        with open(path, "w") as fh:
            fh.write("im_a\tP\tcat\t0.0\n")
        with pytest.raises(FormatError):
            ev.load_corpus_rows(path)

    def test_bad_kind(self, tmp_path):
        path = str(tmp_path / "corpus.tsv")
        with open(path, "w") as fh:
            fh.write("im_a\tQ\tcat\t0.0\t0.0\t5.0\t5.0\t0\n")
        with pytest.raises(FormatError):
            ev.load_corpus_rows(path)

    def test_bad_number(self, tmp_path):
        path = str(tmp_path / "corpus.tsv")
        with open(path, "w") as fh:
            fh.write("im_a\tP\tcat\t0.0\t0.0\tfive\t5.0\t0\n")
        with pytest.raises(FormatError):
            ev.load_corpus_rows(path)

    @pytest.mark.parametrize("faults, first", [
        (("im_a\tQ\tcat\t0\t0\t5\t5\t0", "im_a\tP\tcat\t0"),
         ":2: kind must be P or G, got 'Q'"),
        (("im_a\tP\tcat\t0\t0\t5\t5\t0\tx", "im_a\tP\tcat\t0\t0\t5\tfive"),
         ":2: expected 7 or 8 tab-separated columns, got 9"),
        (("im_a\tG\tcat\t0\t0\t5\t5\t1.5", "im_a\tQ\tcat\t0\t0\t5\t5"),
         ":2: invalid literal for int() with base 10: '1.5'"),
        (("im_a\tG\tcat\t0\t0\t5\t5", "im_a\tP\tcat\t0\t0\t5\tfive\t0"),
         ":3: could not convert string to float: 'five'")])
    def test_first_faulty_line_is_named(self, tmp_path, faults, first):
        # the file is parsed a column at a time, but the message is
        # still the first faulty line's, whatever its fault
        path = tmp_path / "corpus.tsv"
        path.write_text("\n".join(["im_a\tP\tcat\t0.0\t0.0\t5.0\t5.0\t0",
                                   *faults]) + "\n")
        for load in (ev.load_corpus_rows, lambda p: ev.load_corpus_file(
                p, *tiny_sets())):
            with pytest.raises(FormatError) as got:
                load(str(path))
            assert str(got.value) == f"{path}{first}"

    def test_grouping(self):
        phrases, regions = tiny_sets()
        corpus = ev.corpus_from_rows(corpus_rows_fixture(), phrases, regions)
        assert corpus.image_ids.tolist() == ["im_a", "im_b", "im_b"]
        assert corpus.phrase_ids == ["cat", "dog"]
        assert corpus.query_phrase.tolist() == [0, 0, 1]
        assert corpus.phrase_rows.tolist() == [0, 0, 1]
        assert corpus.proposal_rows.tolist() == [0, 1, 2, 3]
        assert corpus.proposal_query.tolist() == [0, 0, 1, 2]
        assert corpus.proposal_boxes[1].tolist() == [30.0, 30.0, 40.0, 40.0]
        assert corpus.gt_boxes.shape == (3, 4)
        assert corpus.gt_rows.tolist() == [-1, -1, -1]
        assert corpus.gt_query.tolist() == [0, 1, 2]
        assert corpus.region_rows_by_image() == {"im_a": [0, 1],
                                                 "im_b": [2, 3]}

    def test_interleaved_rows_group_in_first_appearance_order(self):
        rng = np.random.default_rng(3)
        rows, phrases, regions, _, _ = oracles.random_localization_case(rng)
        corpus = ev.corpus_from_rows(rows, phrases, regions)
        queries = oracles.corpus_queries(rows, phrases, regions)
        assert corpus.image_ids.tolist() == [q.image_id for q in queries]
        assert corpus.phrase_ids == oracles.unique_phrases(queries)
        assert [corpus.phrase_ids[p] for p in corpus.query_phrase] == \
            [q.phrase_id for q in queries]
        assert corpus.phrase_rows.tolist() == [q.phrase_row for q in queries]
        for name in ("proposal_boxes", "proposal_rows", "gt_boxes",
                     "gt_rows"):
            want = np.concatenate([getattr(q, name) for q in queries])
            assert np.array_equal(getattr(corpus, name), want)
        assert np.array_equal(corpus.proposal_query, np.repeat(
            np.arange(len(queries)),
            [q.proposal_rows.shape[0] for q in queries]))
        assert np.array_equal(corpus.gt_query, np.repeat(
            np.arange(len(queries)), [q.gt_rows.shape[0] for q in queries]))
        by_image = {}
        for q in queries:
            by_image.setdefault(q.image_id, set()).update(
                q.proposal_rows.tolist())
        assert corpus.region_rows_by_image() == {
            image: sorted(found) for image, found in by_image.items()}

    @pytest.mark.parametrize("fault", [
        "inf", "nan", "flat", "no_feature", "row_high", "row_negative",
        "no_proposals", "too_many", "unknown_phrase"])
    def test_first_fault_reads_like_the_per_query_build(self, fault):
        # the fault lands on a random row or query of a valid corpus;
        # a later copy of the corpus, under other image ids, holds a
        # query with too many proposals
        for seed in range(6):
            rng = np.random.default_rng(seed)
            rows, phrases, regions, _, _ = \
                oracles.random_localization_case(rng)
            later = [("later_" + r[0],) + r[1:]
                     for r in corrupt(rows, "too_many", rng)]
            rows = corrupt(rows, fault, rng) + later
            with pytest.raises(ConsistencyError) as want:
                oracles.corpus_queries(rows, phrases, regions)
            with pytest.raises(ConsistencyError) as got:
                ev.corpus_from_rows(rows, phrases, regions)
            assert str(got.value) == str(want.value)

    def test_proposal_without_feature_row(self):
        phrases, regions = tiny_sets()
        rows = [("im_a", "P", "cat", 0.0, 0.0, 5.0, 5.0, None)]
        with pytest.raises(ConsistencyError):
            ev.corpus_from_rows(rows, phrases, regions)

    def test_feature_row_out_of_bounds(self):
        phrases, regions = tiny_sets()
        rows = [("im_a", "P", "cat", 0.0, 0.0, 5.0, 5.0, 9)]
        with pytest.raises(ConsistencyError):
            ev.corpus_from_rows(rows, phrases, regions)

    def test_query_without_proposals(self):
        phrases, regions = tiny_sets()
        rows = [("im_a", "G", "cat", 0.0, 0.0, 5.0, 5.0, None)]
        with pytest.raises(ConsistencyError):
            ev.corpus_from_rows(rows, phrases, regions)

    def test_too_many_proposals(self):
        phrases, regions = tiny_sets()
        rows = [("im_a", "P", "cat", float(i), 0.0, float(i) + 1.0, 5.0, 0)
                for i in range(101)]
        with pytest.raises(ConsistencyError):
            ev.corpus_from_rows(rows, phrases, regions)

    def test_unknown_kind(self):
        phrases, regions = tiny_sets()
        rows = [("im_a", "P", "cat", 0.0, 0.0, 5.0, 5.0, 0),
                ("im_a", "Q", "cat", 0.0, 0.0, 5.0, 5.0, 1)]
        with pytest.raises(ConsistencyError, match="kind must be P or G"):
            ev.corpus_from_rows(rows, phrases, regions)

    def test_zero_area_box(self):
        phrases, regions = tiny_sets()
        rows = [("im_a", "P", "cat", 5.0, 0.0, 5.0, 5.0, 0)]
        with pytest.raises(ConsistencyError):
            ev.corpus_from_rows(rows, phrases, regions)

    def test_non_finite_box(self):
        # an infinite corner has positive "area", but the IoU of the box
        # with itself would read inf - inf
        phrases, regions = tiny_sets()
        box = (0.0, 0.0, float("inf"), 10.0)
        rows = [("im_a", "P", "cat", *box, 0), ("im_a", "G", "cat", *box, 1)]
        with pytest.raises(ConsistencyError, match=r"\(im_a, cat\).*finite"):
            ev.corpus_from_rows(rows, phrases, regions)

    def test_generated_corpus_loads(self, tmp_path):
        d = data.gen_localization(3, 2, 8, 6, seed=1)
        path = str(tmp_path / "corpus.tsv")
        ev.save_corpus_file(d.corpus_rows, path)
        corpus = ev.load_corpus_file(path, d.phrases, d.regions)
        assert corpus.num_queries == 6
        assert corpus.proposal_boxes.shape == (6 * 9, 4)
        assert np.array_equal(corpus.proposal_query, np.repeat(range(6), 9))
        assert np.array_equal(corpus.gt_query, np.arange(6))

    def test_empty_corpus(self):
        phrases, regions = tiny_sets()
        corpus = ev.corpus_from_rows([], phrases, regions)
        assert corpus.num_queries == 0
        assert corpus.proposal_boxes.shape == (0, 4)
        assert corpus.region_rows_by_image() == {}
        with pytest.raises(EvaluationError):
            ev.localization_recall_at_k(corpus, np.zeros(0), 1)


def corrupt(rows, fault, rng):
    """A copy of rows with one fault at a random row or query."""
    rows = list(rows)
    i = int(rng.integers(len(rows)))
    image_id, kind, phrase_id, x1, y1, x2, y2, feat = rows[i]
    if fault in ("inf", "nan"):
        rows[i] = (image_id, kind, phrase_id, x1, float(fault), x2, y2, feat)
    elif fault == "flat":
        rows[i] = (image_id, kind, phrase_id, x1, y1, x1, y2, feat)
    elif fault == "no_feature":
        rows[i] = (image_id, "P", phrase_id, x1, y1, x2, y2, None)
    elif fault in ("row_high", "row_negative"):
        rows[i] = (image_id, kind, phrase_id, x1, y1, x2, y2,
                   999 if fault == "row_high" else -1)
    elif fault == "no_proposals":
        rows.insert(i, ("im_new", "G", phrase_id, x1, y1, x2, y2, None))
    elif fault == "too_many":
        rows[i:i] = [(image_id, "P", phrase_id, x1, y1, x2, y2, 0)] * 101
    else:
        rows.insert(i, (image_id, "P", "nobody", x1, y1, x2, y2, 0))
    return rows


def single_query_corpus(proposals, gts, phrase_id="cat"):
    """Corpus with one query; proposals/gts are box tuples."""
    rows = []
    for g in gts:
        rows.append(("im_0", "G", phrase_id) + tuple(map(float, g)) + (None,))
    for i, p in enumerate(proposals):
        rows.append(("im_0", "P", phrase_id) + tuple(map(float, p)) + (i,))
    phrases = data.FeatureSet(ids=[phrase_id], features=np.zeros((1, 2)))
    regions = data.FeatureSet(ids=[f"r{i}" for i in range(len(proposals))],
                              features=np.zeros((len(proposals), 2)))
    return ev.corpus_from_rows(rows, phrases, regions)


class TestLocalizationRecall:
    def test_exact_gt_copy_hits_at_one(self):
        corpus = single_query_corpus(
            proposals=[(0, 0, 10, 10), (50, 50, 60, 60)],
            gts=[(0, 0, 10, 10)])
        dist = np.array([0.1, 0.9])
        assert ev.localization_recall_at_k(corpus, dist, 1) == 100.0

    def test_no_overlap_misses_everywhere(self):
        corpus = single_query_corpus(
            proposals=[(50, 50, 60, 60), (70, 70, 90, 90)],
            gts=[(0, 0, 10, 10)])
        dist = np.array([0.1, 0.2])
        for k in (1, 2, 50):
            assert ev.localization_recall_at_k(corpus, dist, k) == 0.0

    def test_three_query_hand_count(self):
        rows = []
        boxes = {
            "q0": ([(0, 0, 10, 10), (40, 40, 50, 50)], (0, 0, 10, 10)),
            "q1": ([(40, 40, 50, 50), (0, 0, 10, 10)], (0, 0, 10, 10)),
            "q2": ([(40, 40, 50, 50), (70, 70, 80, 80)], (0, 0, 10, 10)),
        }
        feat = 0
        for name, (props, gt) in boxes.items():
            rows.append((name, "G", name) + tuple(map(float, gt)) + (None,))
            for p in props:
                rows.append((name, "P", name) + tuple(map(float, p)) + (feat,))
                feat += 1
        phrases = data.FeatureSet(ids=list(boxes), features=np.zeros((3, 2)))
        regions = data.FeatureSet(ids=[f"r{i}" for i in range(feat)],
                                  features=np.zeros((feat, 2)))
        corpus = ev.corpus_from_rows(rows, phrases, regions)
        dist = np.array([0.1, 0.2, 0.1, 0.2, 0.1, 0.2])
        assert ev.localization_recall_at_k(corpus, dist, 1) == 100.0 / 3.0
        assert ev.localization_recall_at_k(corpus, dist, 2) == 200.0 / 3.0

    def test_query_without_gt_is_a_miss(self):
        rows = [("im_0", "P", "cat", 0.0, 0.0, 10.0, 10.0, 0)]
        phrases = data.FeatureSet(ids=["cat"], features=np.zeros((1, 2)))
        regions = data.FeatureSet(ids=["r0"], features=np.zeros((1, 2)))
        corpus = ev.corpus_from_rows(rows, phrases, regions)
        dist = np.array([0.1])
        assert ev.localization_recall_at_k(corpus, dist, 1) == 0.0

    def test_errors(self):
        corpus = single_query_corpus(
            proposals=[(0, 0, 10, 10)], gts=[(0, 0, 10, 10)])
        with pytest.raises(ConfigError):
            ev.localization_recall_at_k(corpus, np.array([0.1]), 0)
        with pytest.raises(ConsistencyError):
            ev.localization_recall_at_k(corpus, np.zeros(0), 1)
        with pytest.raises(ConsistencyError):
            ev.localization_recall_at_k(corpus, np.array([0.1, 0.2]), 1)


class TestPhraseMap:
    def test_one_zero_one_pattern(self):
        corpus = single_query_corpus(
            proposals=[(0, 0, 10, 10), (30, 0, 40, 10), (60, 0, 70, 10)],
            gts=[(0, 0, 10, 10), (60, 0, 70, 10)])
        dist = np.array([0.1, 0.2, 0.3])
        map_value, per_phrase, skipped = ev.phrase_map(corpus, dist)
        assert abs(per_phrase["cat"] - (1.0 + 2.0 / 3.0) / 2.0) < 1e-15
        assert map_value == per_phrase["cat"]
        assert skipped == []

    def test_all_correct_is_one(self):
        corpus = single_query_corpus(
            proposals=[(0, 0, 10, 10), (60, 0, 70, 10)],
            gts=[(0, 0, 10, 10), (60, 0, 70, 10)])
        dist = np.array([0.2, 0.1])
        _, per_phrase, _ = ev.phrase_map(corpus, dist)
        assert per_phrase["cat"] == 1.0

    def test_two_phrase_hand_map(self):
        rows = [
            ("im_0", "G", "cat", 0.0, 0.0, 10.0, 10.0, None),
            ("im_0", "P", "cat", 0.0, 0.0, 10.0, 10.0, 0),
            ("im_1", "G", "dog", 0.0, 0.0, 10.0, 10.0, None),
            ("im_1", "P", "dog", 40.0, 40.0, 50.0, 50.0, 1),
            ("im_1", "P", "dog", 0.0, 0.0, 10.0, 10.0, 2),
        ]
        phrases = data.FeatureSet(ids=["cat", "dog"],
                                  features=np.zeros((2, 2)))
        regions = data.FeatureSet(ids=["r0", "r1", "r2"],
                                  features=np.zeros((3, 2)))
        corpus = ev.corpus_from_rows(rows, phrases, regions)
        dist = np.array([0.1, 0.1, 0.2])
        map_value, per_phrase, _ = ev.phrase_map(corpus, dist)
        assert per_phrase["cat"] == 1.0
        assert per_phrase["dog"] == 0.5
        assert map_value == 0.75

    def test_gt_consumed_once(self):
        corpus = single_query_corpus(
            proposals=[(0, 0, 10, 6), (0, 4, 10, 10), (50, 50, 60, 60)],
            gts=[(0, 0, 10, 10), (50, 50, 60, 60)])
        assert oracles.naive_iou((0, 0, 10, 6), (0, 4, 10, 10)) <= 0.3
        dist = np.array([0.1, 0.2, 0.3])
        _, per_phrase, _ = ev.phrase_map(corpus, dist)
        assert abs(per_phrase["cat"] - (1.0 + 2.0 / 3.0) / 2.0) < 1e-15

    def test_tied_gt_overlap_consumes_lower_index(self):
        # the 2nd-ranked box overlaps both GT boxes at exactly 0.8 and
        # takes GT 0, so the 3rd, which only reaches GT 0, misses
        corpus = single_query_corpus(
            proposals=[(50, 50, 60, 60), (0, 0, 10, 10), (0, 0, 10, 5)],
            gts=[(0, 0, 10, 8), (0, 2, 10, 10)])
        assert oracles.naive_iou((0, 0, 10, 10), (0, 0, 10, 8)) == \
            oracles.naive_iou((0, 0, 10, 10), (0, 2, 10, 10)) == 0.8
        dist = np.array([0.1, 0.2, 0.3])
        _, per_phrase, _ = ev.phrase_map(corpus, dist, nms_overlap=0.9)
        assert per_phrase["cat"] == 0.5

    def test_nms_prunes_before_ranking(self):
        far = (50.0, 50.0, 60.0, 60.0)
        corpus = single_query_corpus(
            proposals=[far, far, (0, 0, 10, 10)],
            gts=[(0, 0, 10, 10)])
        dist = np.array([0.1, 0.2, 0.3])
        _, per_phrase, _ = ev.phrase_map(corpus, dist)
        assert per_phrase["cat"] == 0.5

    def test_phrase_without_gt_excluded(self):
        rows = [
            ("im_0", "G", "cat", 0.0, 0.0, 10.0, 10.0, None),
            ("im_0", "P", "cat", 0.0, 0.0, 10.0, 10.0, 0),
            ("im_0", "P", "dog", 40.0, 40.0, 50.0, 50.0, 1),
        ]
        phrases = data.FeatureSet(ids=["cat", "dog"],
                                  features=np.zeros((2, 2)))
        regions = data.FeatureSet(ids=["r0", "r1"], features=np.zeros((2, 2)))
        corpus = ev.corpus_from_rows(rows, phrases, regions)
        dist = np.array([0.1, 0.1])
        map_value, per_phrase, skipped = ev.phrase_map(corpus, dist)
        assert skipped == ["dog"]
        assert set(per_phrase) == {"cat"}

    def test_no_gt_anywhere(self):
        rows = [("im_0", "P", "cat", 0.0, 0.0, 10.0, 10.0, 0)]
        phrases = data.FeatureSet(ids=["cat"], features=np.zeros((1, 2)))
        regions = data.FeatureSet(ids=["r0"], features=np.zeros((1, 2)))
        corpus = ev.corpus_from_rows(rows, phrases, regions)
        with pytest.raises(EvaluationError):
            ev.phrase_map(corpus, np.array([0.1]))

    def test_matches_flag_oracle_on_random_fixtures(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            rows = []
            dists = []
            feat = 0
            want_flags = {}
            n_queries = int(rng.integers(3, 7))
            for qi in range(n_queries):
                phrase = f"p{int(rng.integers(2))}"
                image = f"im_{qi}"
                gt = (0.0, 0.0, 10.0, 10.0)
                rows.append((image, "G", phrase) + gt + (None,))
                entries = []
                n_props = int(rng.integers(2, 5))
                hit_slot = int(rng.integers(n_props))
                base = 100.0 * (qi + 1)
                for p in range(n_props):
                    if p == hit_slot:
                        box = gt
                    else:
                        box = (base + 20.0 * p, 0.0,
                               base + 20.0 * p + 10.0, 10.0)
                    rows.append((image, "P", phrase)
                                + tuple(map(float, box)) + (feat,))
                    entries.append(rng.random())
                    feat += 1
                    want_flags.setdefault(phrase, []).append(
                        (entries[-1], p == hit_slot))
                dists.extend(entries)
            phrases = data.FeatureSet(
                ids=["p0", "p1"], features=np.zeros((2, 2)))
            regions = data.FeatureSet(
                ids=[f"r{i}" for i in range(feat)],
                features=np.zeros((feat, 2)))
            corpus = ev.corpus_from_rows(rows, phrases, regions)
            _, per_phrase, _ = ev.phrase_map(corpus, np.array(dists))
            for phrase, entries in want_flags.items():
                flags = [f for _, f in sorted(entries)]
                want = oracles.naive_average_precision(flags)
                assert abs(per_phrase[phrase] - want) < 1e-12


class TestQueryDistances:
    def test_matches_manual_norms(self):
        d = data.gen_localization(2, 1, 6, 5, seed=4)
        rng = np.random.default_rng(0)
        phrase_emb = rng.normal(size=(d.phrases.n, 3))
        region_emb = rng.normal(size=(d.regions.n, 3))
        corpus = ev.corpus_from_rows(d.corpus_rows, d.phrases, d.regions)
        got = ev.query_distances(corpus, phrase_emb, region_emb)
        queries = oracles.corpus_queries(d.corpus_rows, d.phrases, d.regions)
        for q, vec in zip(queries, oracles.split_by_query(queries, got)):
            for j, row in enumerate(q.proposal_rows):
                want = oracles.dist(region_emb[row],
                                    phrase_emb[q.phrase_row])
                assert abs(vec[j] - want) < 1e-12

    def test_chunks_give_the_same_bits(self, monkeypatch):
        d = data.gen_localization(4, 3, 6, 5, seed=2)
        rng = np.random.default_rng(1)
        phrase_emb = rng.normal(size=(d.phrases.n, 7))
        region_emb = rng.normal(size=(d.regions.n, 7))
        corpus = ev.corpus_from_rows(d.corpus_rows, d.phrases, d.regions)
        whole = ev.query_distances(corpus, phrase_emb, region_emb)
        # 3 rows of 7 floats a chunk
        monkeypatch.setattr(tc, "DIRECT_CHUNK_FLOATS", 21)
        assert np.array_equal(
            ev.query_distances(corpus, phrase_emb, region_emb), whole)


class TestLocalizationOracles:
    """Each columnar metric equals its per-query oracle exactly."""

    CASES = range(24)

    def case(self, seed):
        rng = np.random.default_rng(seed)
        rows, phrases, regions, phrase_emb, region_emb = \
            oracles.random_localization_case(rng)
        corpus = ev.corpus_from_rows(rows, phrases, regions)
        queries = oracles.corpus_queries(rows, phrases, regions)
        dist = ev.query_distances(corpus, phrase_emb, region_emb)
        want = oracles.query_distances(queries, phrase_emb, region_emb)
        assert np.array_equal(dist, np.concatenate(want))
        return corpus, queries, dist, want, (phrase_emb, region_emb)

    @pytest.mark.parametrize("seed", CASES)
    def test_recall(self, seed):
        corpus, queries, dist, per_query, _ = self.case(seed)
        for k in (1, 5, 10):
            for iou in (0.5, 0.8, 0.25, 0.0):
                assert ev.localization_recall_at_k(corpus, dist, k, iou) == \
                    oracles.localization_recall_at_k(queries, per_query, k,
                                                     iou)

    @pytest.mark.parametrize("seed", CASES)
    def test_nms_keep_sets(self, seed):
        corpus, queries, dist, per_query, _ = self.case(seed)
        for overlap in (0.3, 0.5, 0.9):
            kept, _ = ev._survivors(corpus, dist, overlap, 0.5)
            for q, mask, d in zip(queries,
                                  oracles.split_by_query(queries, kept),
                                  per_query):
                assert np.flatnonzero(mask).tolist() == \
                    sorted(oracles.nms(q.proposal_boxes, d, overlap))

    @pytest.mark.parametrize("seed", CASES)
    def test_phrase_map(self, seed):
        corpus, queries, dist, per_query, _ = self.case(seed)
        for overlap in (0.3, 0.9):
            for iou in (0.5, 0.8, 0.0):
                map_value, per_phrase, skipped = ev.phrase_map(
                    corpus, dist, overlap, iou)
                want = oracles.phrase_map(queries, per_query, overlap, iou)
                assert map_value == want[0]
                assert list(per_phrase.items()) == list(want[1].items())
                assert skipped == want[2]

    @pytest.mark.parametrize("seed", CASES)
    def test_hard_negatives(self, seed):
        corpus, queries, _, _, (phrase_emb, region_emb) = self.case(seed)
        for cap in (1, 3, 50):
            for iou in (0.5, 0.25, 0.0):
                hn, skipped = hn_mod.mine_hard_negatives(
                    corpus, phrase_emb, region_emb, cap=cap,
                    iou_thresh=iou)
                want, want_skipped = oracles.mine_hard_negatives(
                    queries, phrase_emb, region_emb, cap, iou)
                assert list(hn.by_phrase.items()) == list(want.items())
                assert skipped == want_skipped


class TestWeightedDistance:
    def test_endpoints(self):
        assert ev.weighted_distance(0.5, 0.1, 0.0) == 0.5
        assert ev.weighted_distance(0.5, 0.1, 1.0) == 0.1

    def test_seven_tenths(self):
        assert abs(ev.weighted_distance(0.5, 0.1, 0.7) - 0.22) < 1e-12

    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            ev.weighted_distance(0.5, 0.1, -0.01)
        with pytest.raises(ConfigError):
            ev.weighted_distance(0.5, 0.1, 1.01)

    def test_affine_in_alpha(self):
        for alpha in (0.25, 0.5, 0.9):
            d0 = ev.weighted_distance(0.8, 0.3, 0.0)
            d1 = ev.weighted_distance(0.8, 0.3, 1.0)
            want = (1 - alpha) * d0 + alpha * d1
            assert abs(ev.weighted_distance(0.8, 0.3, alpha) - want) < 1e-15


class TestRegionPhraseDistance:
    def test_min_over_regions(self):
        phrase = np.array([[0.0, 0.0]])
        regions = np.array([[0.4, 0.0], [0.2, 0.0], [0.9, 0.0]])
        assert abs(oracles.region_phrase_distance(phrase, regions) - 0.2) < 1e-12

    def test_mean_over_phrases(self):
        phrases = np.array([[0.0, 0.0], [10.0, 0.0]])
        regions = np.array([[0.2, 0.0], [10.4, 0.0], [50.0, 50.0]])
        got = oracles.region_phrase_distance(phrases, regions)
        assert abs(got - 0.3) < 1e-12

    def test_zero_phrases_returns_none(self):
        assert oracles.region_phrase_distance(np.zeros((0, 2)),
                                         np.ones((3, 2))) is None

    def test_zero_regions_rejected(self):
        with pytest.raises(EvaluationError):
            oracles.region_phrase_distance(np.ones((1, 2)), np.zeros((0, 2)))


def fusion_fixture():
    rng = np.random.default_rng(12)
    d_global = rng.random((3, 4))
    phrase_emb = rng.normal(size=(5, 3))
    region_emb = rng.normal(size=(7, 3))
    region_rows = {"im_0": [0, 1], "im_1": [2, 3, 4], "im_2": [5, 6]}
    image_ids = ["im_0", "im_1", "im_2"]
    phrase_rows = [[0], [1, 2], [], [3, 4]]
    return (d_global, phrase_emb, region_emb, region_rows, image_ids,
            phrase_rows)


class TestFusedDistanceMatrix:
    def test_alpha_zero_is_global(self):
        args = fusion_fixture()
        fused = ev.fused_distance_matrix(*args, alpha=0.0)
        assert np.array_equal(fused, args[0])

    def test_alpha_one_matches_loops(self):
        (d_global, phrase_emb, region_emb, region_rows, image_ids,
         phrase_rows) = fusion_fixture()
        fused = ev.fused_distance_matrix(d_global, phrase_emb, region_emb,
                                         region_rows, image_ids,
                                         phrase_rows, alpha=1.0)
        for i, image_id in enumerate(image_ids):
            for j, rows in enumerate(phrase_rows):
                if not rows:
                    assert fused[i, j] == d_global[i, j]
                    continue
                parts = []
                for pr in rows:
                    best = min(
                        oracles.dist(phrase_emb[pr], region_emb[rr])
                        for rr in region_rows[image_id])
                    parts.append(best)
                assert abs(fused[i, j] - np.mean(parts)) < 1e-12

    def test_midpoint_alpha_matches_formula(self):
        args = fusion_fixture()
        d_global = args[0]
        f0 = ev.fused_distance_matrix(*args, alpha=0.0)
        f1 = ev.fused_distance_matrix(*args, alpha=1.0)
        f7 = ev.fused_distance_matrix(*args, alpha=0.7)
        want = 0.3 * f0 + 0.7 * f1
        assert np.allclose(f7, want, rtol=0, atol=1e-12)
        assert f7.shape == d_global.shape

    def test_fusion_can_flip_ranking(self):
        d_global = np.array([[0.40], [0.50]])
        phrase_emb = np.array([[0.0, 0.0]])
        region_emb = np.array([[2.0, 0.0], [0.1, 0.0]])
        region_rows = {"im_0": [0], "im_1": [1]}
        fused = ev.fused_distance_matrix(
            d_global, phrase_emb, region_emb, region_rows,
            ["im_0", "im_1"], [[0]], alpha=0.7)
        assert np.argmin(d_global[:, 0]) == 0
        assert np.argmin(fused[:, 0]) == 1

    def test_image_without_regions(self):
        (d_global, phrase_emb, region_emb, region_rows, image_ids,
         phrase_rows) = fusion_fixture()
        region_rows = dict(region_rows)
        del region_rows["im_1"]
        with pytest.raises(EvaluationError):
            ev.fused_distance_matrix(d_global, phrase_emb, region_emb,
                                     region_rows, image_ids, phrase_rows,
                                     alpha=0.5)
        all_empty = [[] for _ in phrase_rows]
        fused = ev.fused_distance_matrix(d_global, phrase_emb, region_emb,
                                         region_rows, image_ids, all_empty,
                                         alpha=0.5)
        assert np.array_equal(fused, d_global)

    def test_shape_checks(self):
        (d_global, phrase_emb, region_emb, region_rows, image_ids,
         phrase_rows) = fusion_fixture()
        with pytest.raises(ConsistencyError):
            ev.fused_distance_matrix(d_global, phrase_emb, region_emb,
                                     region_rows, image_ids[:-1],
                                     phrase_rows, alpha=0.5)
        with pytest.raises(ConsistencyError):
            ev.fused_distance_matrix(d_global, phrase_emb, region_emb,
                                     region_rows, image_ids,
                                     phrase_rows[:-1], alpha=0.5)
        with pytest.raises(ConfigError):
            ev.fused_distance_matrix(d_global, phrase_emb, region_emb,
                                     region_rows, image_ids, phrase_rows,
                                     alpha=1.5)

    def check_against_cell_oracle(self, seed, lengths, embed, exact):
        rng = np.random.default_rng(seed)
        n_img, n_phr, n_reg = 4, 9, 12
        phrase_emb = embed(rng, n_phr)
        region_emb = embed(rng, n_reg)
        region_rows = {f"im_{i}": sorted(rng.choice(
            n_reg, size=int(rng.integers(1, 5)), replace=False).tolist())
            for i in range(n_img)}
        image_ids = list(region_rows)
        # rows drawn with replacement, so sentences repeat phrases
        phrase_rows = [rng.integers(0, n_phr, size=n).tolist()
                       for n in lengths]
        d_global = rng.random((n_img, len(lengths)))
        for alpha in (1.0, 0.6):
            fused = ev.fused_distance_matrix(
                d_global, phrase_emb, region_emb, region_rows, image_ids,
                phrase_rows, alpha=alpha)
            for i, image_id in enumerate(image_ids):
                for j, rows in enumerate(phrase_rows):
                    d_rp = oracles.region_phrase_distance(
                        phrase_emb[rows], region_emb[region_rows[image_id]])
                    if d_rp is None:
                        want = d_global[i, j]
                    else:
                        want = (1.0 - alpha) * d_global[i, j] + alpha * d_rp
                    if exact:
                        assert fused[i, j] == want
                    else:
                        assert abs(fused[i, j] - want) < 1e-12

    def test_matches_cell_oracle_bitwise_below_eight_phrases(self):
        # Integer coordinates make every distance exact whichever rows
        # share a matrix product, so only the summation order is tested.
        def embed(rng, n):
            return rng.integers(-4, 5, size=(n, 3)).astype(np.float64)

        for seed in range(6):
            self.check_against_cell_oracle(seed, list(range(8)) * 2, embed,
                                           exact=True)

    def test_matches_cell_oracle_from_eight_phrases(self):
        def embed(rng, n):
            return rng.normal(size=(n, 5))

        for seed in range(6):
            self.check_against_cell_oracle(seed, [8, 9, 12, 0, 3, 16],
                                           embed, exact=False)

    def test_phrase_row_out_of_range(self):
        (d_global, phrase_emb, region_emb, region_rows, image_ids,
         phrase_rows) = fusion_fixture()
        for bad in (-1, phrase_emb.shape[0]):
            with pytest.raises(ConsistencyError):
                ev.fused_distance_matrix(
                    d_global, phrase_emb, region_emb, region_rows,
                    image_ids, [[0], [1, bad], [], [3]], alpha=0.5)


class TestReportCsv:
    def test_deterministic_bytes(self, tmp_path):
        rows = [("recall", "image_to_sentence", 1, 62.5),
                ("recall", "sentence_to_image", 5, 100.0 / 3.0)]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        ev.write_report_csv(str(a), rows, config_lines=("alpha=0.7",))
        ev.write_report_csv(str(b), rows, config_lines=("alpha=0.7",))
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text().splitlines()
        assert text[0] == "# alpha=0.7"
        assert text[1] == "metric,direction,k,value"
        assert text[2] == f"recall,image_to_sentence,1,{62.5!r}"

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "report.csv"
        ev.write_report_csv(str(path), [("recall", "i2s", 1, 50.0)])
        before = path.read_bytes()

        def rows():
            yield ("recall", "i2s", 1, 75.0)
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            ev.write_report_csv(str(path), rows(), config_lines=("a = 1",))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["report.csv"]
