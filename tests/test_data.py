"""Tests for feature files, pair files, graphs, batching, generators."""

import os

import numpy as np
import pytest

import oracles
from twobranch import data
from twobranch.errors import ConfigError, ConsistencyError, FormatError


def make_features(rng, n, d):
    return data.FeatureSet(
        ids=[f"row_{i:03d}" for i in range(n)],
        features=rng.normal(size=(n, d)).astype(np.float32),
    )


class TestFeatureSet:
    def test_id_count_mismatch(self):
        with pytest.raises(ConsistencyError):
            data.FeatureSet(ids=["a"], features=np.zeros((2, 3)))

    def test_duplicate_ids(self):
        with pytest.raises(ConsistencyError):
            data.FeatureSet(ids=["a", "a"], features=np.zeros((2, 3)))

    def test_row_lookup(self):
        fs = data.FeatureSet(ids=["a", "b"], features=np.zeros((2, 3)))
        assert fs.row_of("b") == 1
        with pytest.raises(ConsistencyError):
            fs.row_of("c")

    def test_one_dim_rejected(self):
        with pytest.raises(ConsistencyError):
            data.FeatureSet(ids=["a"], features=np.zeros(3))


class TestFeatureFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        fs = make_features(rng, 7, 5)
        path = str(tmp_path / "feat.bin")
        data.save_feature_file(fs, path)
        back = data.load_feature_file(path)
        assert back.ids == fs.ids
        assert np.array_equal(back.features, fs.features)

    def test_wide_rows_accepted(self, tmp_path):
        rng = np.random.default_rng(1)
        fs = make_features(rng, 2, 4096)
        path = str(tmp_path / "feat.bin")
        data.save_feature_file(fs, path)
        back = data.load_feature_file(path)
        assert back.dim == 4096
        assert np.array_equal(back.features, fs.features)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(2)
        fs = make_features(rng, 4, 3)
        path = str(tmp_path / "feat.bin")
        data.save_feature_file(fs, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-5])
        with pytest.raises(FormatError):
            data.load_feature_file(path)

    def test_bad_magic(self, tmp_path):
        rng = np.random.default_rng(3)
        fs = make_features(rng, 2, 2)
        path = str(tmp_path / "feat.bin")
        data.save_feature_file(fs, path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XXXX"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError):
            data.load_feature_file(path)

    def test_id_file_row_mismatch(self, tmp_path):
        rng = np.random.default_rng(4)
        fs = make_features(rng, 3, 2)
        path = str(tmp_path / "feat.bin")
        data.save_feature_file(fs, path)
        lines = open(path + ".ids").read().splitlines()
        open(path + ".ids", "w").write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ConsistencyError):
            data.load_feature_file(path)

    def test_missing_id_file(self, tmp_path):
        rng = np.random.default_rng(5)
        fs = make_features(rng, 3, 2)
        path = str(tmp_path / "feat.bin")
        data.save_feature_file(fs, path)
        (tmp_path / "feat.bin.ids").unlink()
        with pytest.raises(ConsistencyError):
            data.load_feature_file(path)


class TestPairFile:
    def test_round_trip(self, tmp_path):
        pairs = [("img_0", "sent_0"), ("img_0", "sent_1"), ("img_1", "sent_2")]
        path = str(tmp_path / "pairs.tsv")
        data.save_pair_file(pairs, path)
        assert data.load_pair_file(path) == pairs

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = str(tmp_path / "pairs.tsv")
        with open(path, "w") as fh:
            fh.write("# header comment\n\nimg_0\tsent_0\n\n# tail\n")
        assert data.load_pair_file(path) == [("img_0", "sent_0")]

    def test_wrong_column_count(self, tmp_path):
        path = str(tmp_path / "pairs.tsv")
        with open(path, "w") as fh:
            fh.write("img_0\tsent_0\textra\n")
        with pytest.raises(FormatError):
            data.load_pair_file(path)


class TestAtomicWrite:
    def test_replaces_target(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with data.atomic_write(path, "wb") as fh:
            fh.write(b"new bytes")
        assert path.read_bytes() == b"new bytes"
        with data.atomic_write(str(path)) as fh:
            fh.write("caf\u00e9\n")
        assert path.read_bytes() == "caf\u00e9\n".encode("utf-8")
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_raise_midway_keeps_old_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old contents\n")
        with pytest.raises(RuntimeError):
            with data.atomic_write(path) as fh:
                fh.write("half of the new")
                fh.flush()
                raise RuntimeError("interrupted")
        assert path.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_missing_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with data.atomic_write(tmp_path / "absent" / "out.txt") as fh:
                fh.write("x")
        assert os.listdir(tmp_path) == []


class TestBuildGraph:
    def test_one_image_five_sentences(self):
        x_ids = ["img_0"]
        y_ids = [f"sent_{i}" for i in range(5)]
        pairs = [("img_0", s) for s in y_ids]
        g = data.build_graph(pairs, x_ids, y_ids)
        for j in range(5):
            assert g.y_neighbors[j] == {0, 1, 2, 3, 4}
        assert g.x_neighbors[0] == {0}

    def test_disjoint_images(self):
        pairs = [("img_0", "sent_0"), ("img_1", "sent_1")]
        g = data.build_graph(pairs, ["img_0", "img_1"], ["sent_0", "sent_1"])
        assert g.x_neighbors[0] == {0}
        assert g.x_neighbors[1] == {1}
        assert g.y_neighbors[0] == {0}
        assert g.y_neighbors[1] == {1}

    def test_regions_sharing_phrase(self):
        pairs = [("reg_0", "phr_0"), ("reg_1", "phr_0")]
        g = data.build_graph(pairs, ["reg_0", "reg_1"], ["phr_0"])
        assert g.x_neighbors[0] == {0, 1}
        assert g.x_neighbors[1] == {0, 1}

    def test_unknown_ids(self):
        with pytest.raises(ConsistencyError):
            data.build_graph([("ghost", "sent_0")], ["img_0"], ["sent_0"])
        with pytest.raises(ConsistencyError):
            data.build_graph([("img_0", "ghost")], ["img_0"], ["sent_0"])

    def test_dedupe(self):
        pairs = [("img_0", "sent_0"), ("img_0", "sent_0")]
        g = data.build_graph(pairs, ["img_0"], ["sent_0"])
        assert g.num_pairs == 1
        g2 = data.build_graph(pairs, ["img_0"], ["sent_0"], dedupe=False)
        assert g2.num_pairs == 2

    def test_max_x_per_y_keeps_first(self):
        x_ids = ["reg_0", "reg_1", "reg_2"]
        pairs = [("reg_2", "phr_0"), ("reg_0", "phr_0"), ("reg_1", "phr_0")]
        g = data.build_graph(pairs, x_ids, ["phr_0"], max_x_per_y=2)
        assert g.num_pairs == 2
        assert g.pos_x_by_y[0] == [0, 2]

    def test_max_x_per_y_validation(self):
        with pytest.raises(ConfigError):
            data.build_graph([], ["img_0"], ["sent_0"], max_x_per_y=0)

    def test_neighborhood_symmetry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            nx, ny = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            x_ids = [f"x{i}" for i in range(nx)]
            y_ids = [f"y{j}" for j in range(ny)]
            pairs = []
            for i in range(nx):
                for j in range(ny):
                    if rng.random() < 0.3:
                        pairs.append((x_ids[i], y_ids[j]))
            g = data.build_graph(pairs, x_ids, y_ids)
            for i in range(nx):
                assert i in g.x_neighbors[i]
                for m in g.x_neighbors[i]:
                    assert i in g.x_neighbors[m]
            for j in range(ny):
                assert j in g.y_neighbors[j]
                for m in g.y_neighbors[j]:
                    assert j in g.y_neighbors[m]


def small_corpus():
    return data.gen_synthetic(4, 2, 5, 12, 10, 0.05, seed=7)


class TestSampleMinibatch:
    def test_plain_batch_size(self):
        d = small_corpus()
        rng = np.random.default_rng(0)
        batch = oracles.sample_minibatch(d.graph, 6, False, rng)
        assert batch.num_y == 6
        assert batch.pair_indices.shape == (6,)

    def test_no_duplicate_pairs(self):
        d = small_corpus()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            batch = oracles.sample_minibatch(d.graph, 10, False, rng)
            assert len(set(batch.pair_indices.tolist())) == 10

    def test_augment_gives_two_positives_per_image(self):
        d = small_corpus()
        rng = np.random.default_rng(3)
        batch = oracles.sample_minibatch(d.graph, 6, True, rng)
        for i in range(batch.num_x):
            owned = np.sum(batch.pos_pairs[:, 0] == i)
            assert owned >= 2
        assert batch.num_y == 6 + len(batch.augmented_y_rows)

    def test_fixed_seed_reproduces_composition(self):
        d = small_corpus()
        a = oracles.sample_minibatch(d.graph, 8, True,
                                     np.random.default_rng(9))
        b = oracles.sample_minibatch(d.graph, 8, True,
                                     np.random.default_rng(9))
        assert np.array_equal(a.x_rows, b.x_rows)
        assert np.array_equal(a.y_rows, b.y_rows)
        assert np.array_equal(a.pos_pairs, b.pos_pairs)

    def test_batch_positives_match_graph(self):
        d = small_corpus()
        rng = np.random.default_rng(4)
        batch = oracles.sample_minibatch(d.graph, 8, True, rng)
        have = {(int(a), int(b)) for a, b in batch.pos_pairs}
        for i, xr in enumerate(batch.x_rows):
            for j, yr in enumerate(batch.y_rows):
                linked = int(yr) in d.graph.pos_y_by_x[int(xr)]
                assert ((i, j) in have) == linked

    def test_oversized_batch_rejected(self):
        d = small_corpus()
        with pytest.raises(ConfigError):
            oracles.sample_minibatch(d.graph, d.graph.num_pairs + 1, False,
                                     np.random.default_rng(0))
        with pytest.raises(ConfigError):
            oracles.sample_minibatch(d.graph, 0, False,
                                     np.random.default_rng(0))


class TestEpochBatches:
    def test_disjoint_cover(self):
        d = small_corpus()
        batches = list(data.epoch_batches(d.graph, 16, False,
                                          np.random.default_rng(0)))
        seen = []
        for b in batches:
            seen.extend(b.pair_indices.tolist())
        assert sorted(seen) == list(range(d.graph.num_pairs))
        assert len(seen) == len(set(seen))

    def test_short_tail_dropped(self):
        d = small_corpus()
        per = d.graph.num_pairs - 1
        batches = list(data.epoch_batches(d.graph, per, False,
                                          np.random.default_rng(1)))
        assert len(batches) == 1
        assert batches[0].pair_indices.shape == (per,)

    def test_deterministic(self):
        d = small_corpus()
        a = [b.pair_indices for b in
             data.epoch_batches(d.graph, 16, False, np.random.default_rng(2))]
        b = [b.pair_indices for b in
             data.epoch_batches(d.graph, 16, False, np.random.default_rng(2))]
        assert len(a) == len(b)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)


class TestGenSynthetic:
    def test_counts(self):
        d = data.gen_synthetic(32, 1, 5, 16, 12, 0.05, seed=0)
        assert d.x.n == 32
        assert d.y.n == 160
        assert d.graph.num_pairs == 160

    def test_zero_noise_collapses_clusters(self):
        d = data.gen_synthetic(2, 3, 1, 8, 8, 0.0, seed=1)
        for c in range(2):
            rows = np.where(d.x_labels == c)[0]
            base = d.x.features[rows[0]]
            for r in rows[1:]:
                assert np.array_equal(d.x.features[r], base)

    def test_deterministic(self):
        a = data.gen_synthetic(4, 2, 3, 8, 6, 0.05, seed=5)
        b = data.gen_synthetic(4, 2, 3, 8, 6, 0.05, seed=5)
        assert np.array_equal(a.x.features, b.x.features)
        assert np.array_equal(a.y.features, b.y.features)
        assert a.x.ids == b.x.ids
        c = data.gen_synthetic(4, 2, 3, 8, 6, 0.05, seed=6)
        assert not np.array_equal(a.x.features, c.x.features)

    def test_nearest_centroid_classification(self):
        d = data.gen_synthetic(16, 4, 3, 32, 24, 0.05, seed=2)
        for feats, mapping, labels in ((d.x.features, d.map_x, d.x_labels),
                                       (d.y.features, d.map_y, d.y_labels)):
            centroids = d.latents @ mapping
            dist = np.linalg.norm(
                feats[:, None, :] - centroids[None, :, :], axis=2)
            pred = np.argmin(dist, axis=1)
            assert np.mean(pred == labels) >= 0.99

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            data.gen_synthetic(0, 1, 1, 4, 4, 0.05, seed=0)
        with pytest.raises(ConfigError):
            data.gen_synthetic(1, 1, 1, 4, 4, -0.1, seed=0)


class TestGenLocalization:
    def setup_method(self):
        self.d = data.gen_localization(4, 2, 12, 10, seed=3)

    def test_counts(self):
        per_image = 1 + 2 + 6
        assert self.d.regions.n == 4 * 2 * per_image
        assert self.d.phrases.n == 4
        assert len(self.d.pairs) == 8
        assert len(self.d.corpus_rows) == 4 * 2 * (per_image + 1)

    def test_labels(self):
        labels = self.d.region_labels
        ids = self.d.regions.ids
        for rid, lab in zip(ids, labels):
            if rid.rsplit("_", 1)[-1].startswith("b"):
                assert lab == -1
            else:
                assert lab == int(rid.split("_")[1])

    def test_gt_listed_as_annotation_and_proposal(self):
        by_image = {}
        for row in self.d.corpus_rows:
            by_image.setdefault(row[0], []).append(row)
        for image_id, rows in by_image.items():
            g_rows = [r for r in rows if r[1] == "G"]
            assert len(g_rows) == 1
            g = g_rows[0]
            twins = [r for r in rows if r[1] == "P" and r[3:8] == g[3:8]]
            assert len(twins) == 1

    def test_jitter_overlaps_gt(self):
        by_image = {}
        for row in self.d.corpus_rows:
            by_image.setdefault(row[0], []).append(row)
        for rows in by_image.values():
            gt_box = [r[3:7] for r in rows if r[1] == "G"][0]
            for r in rows:
                if r[1] != "P":
                    continue
                rid = self.d.regions.ids[r[7]]
                if rid.rsplit("_", 1)[-1].startswith("j"):
                    assert oracles.naive_iou(r[3:7], gt_box) > 0.5
                elif rid.endswith("_gt"):
                    assert oracles.naive_iou(r[3:7], gt_box) == 1.0
                else:
                    assert oracles.naive_iou(r[3:7], gt_box) < 0.3

    def test_boxes_valid(self):
        for row in self.d.corpus_rows:
            x1, y1, x2, y2 = row[3:7]
            assert 0.0 <= x1 < x2 <= 100.0
            assert 0.0 <= y1 < y2 <= 100.0

    def test_deterministic(self):
        again = data.gen_localization(4, 2, 12, 10, seed=3)
        assert np.array_equal(again.regions.features, self.d.regions.features)
        assert np.array_equal(again.phrases.features, self.d.phrases.features)
        assert again.corpus_rows == self.d.corpus_rows

    def test_pairs_are_gt_regions(self):
        for rid, pid in self.d.pairs:
            assert rid.endswith("_gt")
            assert pid.startswith("phrase_")
            assert rid.split("_")[1] == pid.split("_")[1]

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            data.gen_localization(0, 1, 4, 4, seed=0)
