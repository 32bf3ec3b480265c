"""Tests for feature files, pair files, graphs, batching, generators."""

import errno
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

import oracles
from twobranch import data, evaluation, hard_negatives
from twobranch.errors import (ConfigError, ConsistencyError, DimensionError,
                              FormatError)


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

    @pytest.mark.parametrize("dtype, kept", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float16, np.float64), (np.int64, np.float64),
        (np.uint8, np.float64), (bool, np.float64)])
    def test_keeps_float32_and_float64_widens_others(self, dtype, kept):
        given = np.asfortranarray(np.arange(6).reshape(2, 3).astype(dtype))
        fs = data.FeatureSet(ids=["a", "b"], features=given)
        assert fs.features.dtype == kept
        assert fs.features.flags.c_contiguous
        assert np.array_equal(fs.features, given)

    @pytest.mark.parametrize("bad", [7, "c\nd", "c\r", "", "  \t"])
    def test_id_not_one_line_string(self, bad):
        # an .ids file holds one id per line and skips blank lines, so
        # none of these could be saved and read back
        with pytest.raises(ConsistencyError, match="feature id"):
            data.FeatureSet(ids=["c", bad], features=np.zeros((2, 3)))


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

    def test_bad_id_keeps_old_files(self, tmp_path):
        path = str(tmp_path / "feat.bin")
        data.save_feature_file(
            data.FeatureSet(ids=["a", "b"], features=np.ones((2, 3))), path)
        before = [open(p, "rb").read() for p in (path, path + ".ids")]
        fs = data.FeatureSet(ids=["c", "d"], features=np.zeros((2, 3)))
        fs.ids[1] = 7
        with pytest.raises(ConsistencyError):
            data.save_feature_file(fs, path)
        assert [open(p, "rb").read() for p in (path, path + ".ids")] \
            == before
        assert sorted(os.listdir(tmp_path)) == ["feat.bin", "feat.bin.ids"]

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

    def test_load_memory_bounded(self, tmp_path):
        # the payload is read straight into the FeatureSet's float32
        # array; the parent widened it into a float64 array, 2x the file
        fs = make_features(np.random.default_rng(6), 500, 6000)
        path = str(tmp_path / "feat.bin")
        data.save_feature_file(fs, path)
        payload = fs.n * fs.dim * 4
        tracemalloc.start()
        try:
            back = data.load_feature_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * payload
        assert back.ids == fs.ids
        assert back.features.dtype == np.float32
        assert back.features.tobytes() == fs.features.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_save_memory_bounded(self, tmp_path, dtype):
        # the payload is converted and written one row chunk at a time;
        # the bytes are the header and the whole array as float32
        fs = data.FeatureSet(
            ids=[f"row_{i:03d}" for i in range(500)],
            features=np.random.default_rng(10).normal(
                size=(500, 6000)).astype(dtype))
        path = tmp_path / "feat.bin"
        payload = fs.n * fs.dim * 4
        tracemalloc.start()
        try:
            data.save_feature_file(fs, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * payload
        assert path.read_bytes() == data.FEATURE_MAGIC + struct.pack(
            "<IQQ", data.FEATURE_VERSION, fs.n, fs.dim) \
            + fs.features.astype("<f4").tobytes()

    def test_read_in_ragged_chunks(self, tmp_path, monkeypatch):
        # 35 floats read in chunks of 12 end on a chunk of 11, and 7
        # rows written 2 at a time end on one row; a non-finite value
        # in the last chunk is still found
        monkeypatch.setattr(data, "IO_FLOATS", 12)
        fs = make_features(np.random.default_rng(9), 7, 5)
        path = str(tmp_path / "feat.bin")
        data.save_feature_file(fs, path)
        back = data.load_feature_file(path)
        assert back.features.dtype == np.float32
        assert back.features.tobytes() == fs.features.tobytes()
        fs.features[6, 4] = np.nan
        data.save_feature_file(fs, path)
        with pytest.raises(DimensionError, match="non-finite"):
            data.load_feature_file(path)

    def test_missing_id_file_reported_before_payload_read(self, tmp_path):
        fs = make_features(np.random.default_rng(7), 200, 300)
        fs.features[5, 7] = np.nan
        path = str(tmp_path / "feat.bin")
        data.save_feature_file(fs, path)
        (tmp_path / "feat.bin.ids").unlink()
        tracemalloc.start()
        try:
            with pytest.raises(ConsistencyError, match="id file missing"):
                data.load_feature_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < fs.n * fs.dim * 4

    @pytest.mark.parametrize("fault, message", [
        ("short_header", "{path}: too short for a feature file header"),
        ("magic", "{path}: bad magic b'XXXX'"),
        ("version", "{path}: unsupported version 2"),
        ("short_payload",
         "{path}: payload holds 43 bytes, header promises 48"),
        ("long_payload",
         "{path}: payload holds 51 bytes, header promises 48"),
        ("missing_ids", "{path}.ids: id file missing"),
        ("non_finite", "{path} contains non-finite values"),
    ])
    def test_fault_messages(self, tmp_path, fault, message):
        fs = make_features(np.random.default_rng(8), 4, 3)
        if fault == "non_finite":
            fs.features[3, 2] = np.inf
        path = str(tmp_path / "feat.bin")
        data.save_feature_file(fs, path)
        blob = bytearray(open(path, "rb").read())
        if fault == "short_header":
            blob = blob[:19]
        elif fault == "magic":
            blob[:4] = b"XXXX"
        elif fault == "version":
            blob[4:8] = struct.pack("<I", 2)
        elif fault == "short_payload":
            blob = blob[:-5]
        elif fault == "long_payload":
            blob += b"\0\0\0"
        elif fault == "missing_ids":
            os.remove(path + ".ids")
        open(path, "wb").write(bytes(blob))
        with pytest.raises((ConsistencyError, DimensionError, FormatError),
                           match="^" + re.escape(message.format(path=path))
                           + "$"):
            data.load_feature_file(path)


class TestPairFile:
    def test_round_trip(self, tmp_path):
        pairs = [("img_0", "sent_0"), ("img_0", "sent_1"), ("img_1", "sent_2")]
        path = str(tmp_path / "pairs.tsv")
        data.save_pair_file(pairs, path)
        assert data.load_pair_file(path) == pairs

    def test_round_trip_keeps_spaces_and_refuses_comment_rows(self,
                                                               tmp_path):
        path = tmp_path / "pairs.tsv"
        pairs = [(" b", "y 1 "), ("a#", "#y")]
        data.save_pair_file(pairs, str(path))
        assert data.load_pair_file(str(path)) == pairs
        with pytest.raises(ConsistencyError, match="'#a'"):
            data.save_pair_file(pairs + [("#a", "y1")], str(path))
        assert data.load_pair_file(str(path)) == pairs

    @pytest.mark.parametrize("bad", [
        ("a\tb", "y1"), ("a", "y\n1"), ("a\r", "y1"), (" ", " ")])
    def test_round_trip_refuses_rows_that_would_not_read_back(
            self, tmp_path, bad):
        # a tab adds a column, a line break (text mode counts \r) ends
        # the line, and a blank row is skipped
        path = tmp_path / "pairs.tsv"
        pairs = [("a", "y1"), ("b", "y2")]
        data.save_pair_file(pairs, str(path))
        with pytest.raises(ConsistencyError, match="would not read back"):
            data.save_pair_file(pairs + [bad], str(path))
        assert data.load_pair_file(str(path)) == pairs
        assert os.listdir(tmp_path) == ["pairs.tsv"]

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

    @pytest.mark.parametrize("load, good, widths", [
        (data.load_pair_file, "a\tb", "2"),
        (evaluation.load_corpus_rows, "im\tP\tph\t0\t0\t1\t1\t0", "7 or 8"),
        (hard_negatives.load_hard_negatives, "ph\t3\t0.5", "3"),
    ])
    def test_tsv_loaders_name_the_line(self, tmp_path, load, good, widths):
        # every TSV loader reads through read_tsv: comments and blank
        # lines are skipped but counted, and the message names the line
        path = tmp_path / "in.tsv"
        path.write_text(f"# comment\n{good}\n\n{good}\tx\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:4: expected {widths} tab-separated columns, got")):
            load(str(path))


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

    def test_link_replaces_target_or_keeps_it(self, tmp_path, monkeypatch):
        src, dst = tmp_path / "src.bin", tmp_path / "dst.bin"
        src.write_bytes(b"new")
        dst.write_bytes(b"old")

        def refused(tmp, path):
            raise PermissionError(errno.EACCES, "refused", str(path))

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", refused)
            with pytest.raises(PermissionError):
                data.atomic_link(src, dst)
        assert dst.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["dst.bin", "src.bin"]
        data.atomic_link(src, dst)
        assert os.path.samefile(src, dst)
        # already one file: linking again would leave the temporary name
        data.atomic_link(src, dst)
        data.atomic_link(src, tmp_path / "." / "src.bin")
        assert sorted(os.listdir(tmp_path)) == ["dst.bin", "src.bin"]
        assert src.read_bytes() == b"new"

    @pytest.mark.parametrize("save, good, bad", [
        (data.save_pair_file, [("a", "b")], [("c", "d"), ("e",)]),
        (evaluation.save_corpus_file,
         [("im", "P", "ph", 0.0, 0.0, 1.0, 1.0, 0)],
         [("im", "G", "ph", 0.0, 0.0, 1.0, 1.0, None),
          ("im", "P", "ph", "left", 0.0, 1.0, 1.0, 0)]),
    ])
    def test_generated_file_keeps_old_bytes_on_failed_write(
            self, tmp_path, save, good, bad):
        path = tmp_path / "out.tsv"
        save(good, str(path))
        before = path.read_bytes()
        # the second row cannot be written, after the first was
        with pytest.raises(ValueError):
            save(bad, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.tsv"]

    def test_missing_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with data.atomic_write(tmp_path / "absent" / "out.txt") as fh:
                fh.write("x")
        assert os.listdir(tmp_path) == []


def whole_batch(graph):
    """The batch of every pair of ``graph``, without augmentation."""
    return data._build_batch(graph, np.arange(graph.num_pairs), False,
                             np.random.default_rng(0))


class TestBuildGraph:
    def test_one_image_five_sentences(self):
        x_ids = ["img_0"]
        y_ids = [f"sent_{i}" for i in range(5)]
        pairs = [("img_0", s) for s in y_ids]
        batch = whole_batch(data.build_graph(pairs, x_ids, y_ids))
        assert batch.y_nb.all() and batch.y_nb.shape == (5, 5)
        assert batch.x_nb.tolist() == [[True]]

    def test_disjoint_images(self):
        pairs = [("img_0", "sent_0"), ("img_1", "sent_1")]
        g = data.build_graph(pairs, ["img_0", "img_1"], ["sent_0", "sent_1"])
        batch = whole_batch(g)
        assert np.array_equal(batch.x_nb, np.eye(2, dtype=bool))
        assert np.array_equal(batch.y_nb, np.eye(2, dtype=bool))

    def test_regions_sharing_phrase(self):
        pairs = [("reg_0", "phr_0"), ("reg_1", "phr_0")]
        g = data.build_graph(pairs, ["reg_0", "reg_1"], ["phr_0"])
        assert whole_batch(g).x_nb.all()

    def test_unknown_ids(self):
        with pytest.raises(ConsistencyError):
            data.build_graph([("ghost", "sent_0")], ["img_0"], ["sent_0"])
        with pytest.raises(ConsistencyError):
            data.build_graph([("img_0", "ghost")], ["img_0"], ["sent_0"])

    def test_dedupe(self):
        pairs = [("img_0", "sent_0"), ("img_0", "sent_0")]
        g = data.build_graph(pairs, ["img_0"], ["sent_0"])
        assert g.num_pairs == 1

    def test_max_x_per_y_keeps_first(self):
        x_ids = ["reg_0", "reg_1", "reg_2"]
        pairs = [("reg_2", "phr_0"), ("reg_0", "phr_0"), ("reg_1", "phr_0")]
        g = data.build_graph(pairs, x_ids, ["phr_0"], max_x_per_y=2)
        assert g.pos_pairs.tolist() == [[2, 0], [0, 0]]
        assert g.x_of_y.of(0).tolist() == [0, 2]

    def test_max_x_per_y_validation(self):
        with pytest.raises(ConfigError):
            data.build_graph([], ["img_0"], ["sent_0"], max_x_per_y=0)

    def test_empty_graph(self):
        g = data.build_graph([], ["img_0"], ["sent_0", "sent_1"])
        assert g.pos_pairs.shape == (0, 2)
        assert g.y_of_x.offsets.tolist() == [0, 0]
        assert g.x_of_y.offsets.tolist() == [0, 0, 0]

    def test_matches_loop_oracle(self):
        # repeated pairs, per-y caps and unknown ids, in random order
        for case in range(300):
            rng = np.random.default_rng(case)
            nx, ny = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            x_ids = [f"x{i}" for i in range(nx)]
            y_ids = [f"y{j}" for j in range(ny)]
            pairs = [(x_ids[int(rng.integers(nx))],
                      y_ids[int(rng.integers(ny))])
                     for _ in range(int(rng.integers(0, 3 * (nx + ny))))]
            pairs += [pairs[int(rng.integers(len(pairs)))]
                      for _ in range(int(rng.integers(4)) if pairs else 0)]
            if case % 5 == 0 and pairs:
                at = int(rng.integers(len(pairs)))
                pairs[at] = (("ghost", pairs[at][1]), (pairs[at][0], "ghost"),
                             ("ghost_x", "ghost_y"))[case % 3]
            pairs = [pairs[i] for i in rng.permutation(len(pairs))]
            cap = None if case % 2 else int(rng.integers(1, 4))
            try:
                want = oracles.build_graph(pairs, x_ids, y_ids, cap)
            except ConsistencyError as exc:
                with pytest.raises(ConsistencyError) as got:
                    data.build_graph(pairs, x_ids, y_ids, cap)
                assert str(got.value) == str(exc)
                continue
            g = data.build_graph(pairs, x_ids, y_ids, cap)
            pos_pairs, y_of_x, x_of_y = want
            assert g.pos_pairs.dtype == np.int64
            assert g.pos_pairs.reshape(-1, 2).tolist() == \
                [list(p) for p in pos_pairs]
            for adj, lists in ((g.y_of_x, y_of_x), (g.x_of_y, x_of_y)):
                assert adj.offsets.dtype == adj.partners.dtype == np.int64
                assert adj.offsets.shape == (len(lists) + 1,)
                assert [adj.of(r).tolist() for r in range(len(lists))] \
                    == lists

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
            if not pairs:
                continue
            batch = whole_batch(data.build_graph(pairs, x_ids, y_ids))
            for mask in (batch.x_nb, batch.y_nb):
                assert mask.diagonal().all()
                assert np.array_equal(mask, mask.T)


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
            assert batch.pos[i].sum() >= 2
        assert batch.num_y == 6 + len(batch.augmented_y_rows)

    def test_fixed_seed_reproduces_composition(self):
        d = small_corpus()
        a = oracles.sample_minibatch(d.graph, 8, True,
                                     np.random.default_rng(9))
        b = oracles.sample_minibatch(d.graph, 8, True,
                                     np.random.default_rng(9))
        assert np.array_equal(a.x_rows, b.x_rows)
        assert np.array_equal(a.y_rows, b.y_rows)
        for name in ("pos", "x_nb", "y_nb", "owner"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_batch_positives_match_graph(self):
        d = small_corpus()
        rng = np.random.default_rng(4)
        batch = oracles.sample_minibatch(d.graph, 8, True, rng)
        for i, xr in enumerate(batch.x_rows):
            for j, yr in enumerate(batch.y_rows):
                linked = int(yr) in d.graph.y_of_x.of(int(xr))
                assert batch.pos[i, j] == linked

    def test_oversized_batch_rejected(self):
        d = small_corpus()
        with pytest.raises(ConfigError):
            oracles.sample_minibatch(d.graph, d.graph.num_pairs + 1, False,
                                     np.random.default_rng(0))
        with pytest.raises(ConfigError):
            oracles.sample_minibatch(d.graph, 0, False,
                                     np.random.default_rng(0))


class TestBuildBatch:
    def test_masks_match_graph_oracle(self):
        # random graphs with shared partners, some with repeated pairs
        # or a per-y cap, batches with augmentation on and off, and
        # reserved hard-negative rows that may also be dataset neighbors
        # or positives of batch rows
        batches = reserved = augmented = 0
        for case in range(200):
            rng = np.random.default_rng(case)
            nx, ny = int(rng.integers(2, 12)), int(rng.integers(2, 20))
            x_ids = [f"x{i}" for i in range(nx)]
            y_ids = [f"y{j}" for j in range(ny)]
            pairs = [(x_ids[int(rng.integers(nx))], y_ids[j])
                     for j in range(ny)]
            pairs += [(x_ids[int(rng.integers(nx))],
                       y_ids[int(rng.integers(ny))])
                      for _ in range(int(rng.integers(ny)))]
            if case % 4 == 1:
                pairs += [pairs[int(rng.integers(len(pairs)))]
                          for _ in range(int(rng.integers(1, 5)))]
                pairs = [pairs[i] for i in rng.permutation(len(pairs))]
            cap = int(rng.integers(1, 3)) if case % 4 == 2 else None
            graph = data.build_graph(pairs, x_ids, y_ids, max_x_per_y=cap)
            extra = None
            if case % 3:
                extra = {j: rng.integers(nx, size=int(rng.integers(6)))
                         .tolist() for j in range(ny) if rng.random() < 0.6}
            for augment in (False, True):
                for per_anchor in (1, 3):
                    size = int(rng.integers(2, graph.num_pairs + 1))
                    for batch in data.epoch_batches(
                            graph, size, augment, rng,
                            extra_negatives=extra,
                            negatives_per_anchor=per_anchor):
                        want = oracles.batch_graph_masks(batch, graph, extra)
                        for name, mask in zip(("pos", "x_nb", "y_nb"), want):
                            got = getattr(batch, name)
                            assert got.dtype == bool, name
                            assert np.array_equal(got, mask), name
                        assert batch.owner.dtype == np.int64
                        batches += 1
                        reserved += int((batch.owner >= 0).sum())
                        augmented += len(batch.augmented_y_rows)
        assert batches > 2000 and reserved > 1000 and augmented > 1000


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
        args = {"num_phrases": 2, "images_per_phrase": 1,
                "feat_dim_region": 4, "feat_dim_phrase": 4, "seed": 0}
        for name, bad in (("num_phrases", 0), ("images_per_phrase", 0),
                          ("feat_dim_region", 0), ("feat_dim_phrase", 0),
                          ("jitter_per_gt", -1),
                          ("background_per_image", -1),
                          ("noise_sigma", -0.5)):
            with pytest.raises(ConfigError, match=name):
                data.gen_localization(**{**args, name: bad})

    def test_zero_jitter_and_background(self):
        d = data.gen_localization(2, 1, 4, 4, seed=0, jitter_per_gt=0,
                                  background_per_image=0)
        assert len(d.corpus_rows) == 2 * 2
