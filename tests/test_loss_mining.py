"""Triplet mining and hinge loss tests against brute-force enumeration."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twobranch import data
from twobranch import loss_mining as lm
from twobranch import tensor_core as tc
from twobranch.errors import ConfigError, DimensionError


def with_reserved_x_row(batch, anchor):
    """``batch`` plus one x row, reserved as a negative for y row
    ``anchor``, the way batches carry mined hard negatives."""
    nx, ny = batch.pos.shape
    x_nb = np.eye(nx + 1, dtype=bool)
    x_nb[:nx, :nx] = batch.x_nb
    pos = np.vstack([batch.pos, np.zeros((1, ny), dtype=bool)])
    return SimpleNamespace(pos=pos, x_nb=x_nb, y_nb=batch.y_nb,
                           owner=np.append(batch.owner, anchor))


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def array_relative_error(got, want):
    """Largest absolute difference over the largest reference entry."""
    return np.abs(got - want).max() / np.abs(want).max()


class TestLossConfig:
    def test_defaults(self):
        cfg = lm.LossConfig()
        assert cfg.margin == 0.1
        assert cfg.lambda1 == 2.0
        assert cfg.lambda2 == 0.0
        assert cfg.lambda3 == 0.2
        assert cfg.top_k == 50

    def test_validation(self):
        with pytest.raises(ConfigError):
            lm.LossConfig(margin=0.0)
        with pytest.raises(ConfigError):
            lm.LossConfig(lambda1=-1.0)
        with pytest.raises(ConfigError):
            lm.LossConfig(top_k=0)

    @pytest.mark.parametrize("name", ["margin", "lambda1", "lambda2",
                                      "lambda3"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, name, value):
        # a NaN weight would drop its family without a word
        with pytest.raises(ConfigError, match=name):
            lm.LossConfig(**{name: value})

    def test_family_weights(self):
        w = lm.LossConfig(lambda1=2.0, lambda2=0.3,
                          lambda3=0.2).family_weights()
        assert w == {"image_to_sentence": 1.0, "sentence_to_image": 2.0,
                     "image_structure": 0.3, "sentence_structure": 0.2}


class TestMineTriplets:
    def make_two_pair_batch(self, d_other):
        # x0 pairs with y0 at distance 0.2; y1 (x1's partner) sits at
        # d_other from x0.  x1 is placed far away on its own axis.
        emb_x = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        emb_y = np.array([[0.2, 0.0, 0.0], [d_other, 0.0, 0.0]])
        graph = oracles.batch_masks([(0, 0), (1, 1)], 2, 2)
        return emb_x, emb_y, graph

    def test_close_negative_is_mined(self):
        emb_x, emb_y, graph = self.make_two_pair_batch(0.25)
        cfg = lm.LossConfig(margin=0.1, top_k=50)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
        assert [0, 0, 1] in trip.image_to_sentence.tolist()

    def test_far_negative_not_mined(self):
        emb_x, emb_y, graph = self.make_two_pair_batch(0.5)
        cfg = lm.LossConfig(margin=0.1, top_k=50)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
        assert [0, 0, 1] not in trip.image_to_sentence.tolist()

    def test_violation_value_of_mined_example(self):
        emb_x, emb_y, graph = self.make_two_pair_batch(0.25)
        cfg = lm.LossConfig(margin=0.1, top_k=50)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
        only = lm.TripletSet(image_to_sentence=np.array([[0, 0, 1]]))
        res = lm.hinge_loss(emb_x, emb_y, lm.view_distances(emb_x, emb_y, cfg),
                            only, cfg)
        assert abs(res.loss - 0.05) < 1e-12

    def test_neighborhood_never_negative(self):
        # y0 and y1 describe the same image x0, so y1 may not serve as
        # a negative for (x0, y0) even though it is the closest row.
        emb_x = np.array([[0.0, 0.0]])
        emb_y = np.array([[0.3, 0.0], [0.31, 0.0], [0.35, 0.0]])
        graph = oracles.batch_masks([(0, 0), (0, 1)], 1, 3,
                                    y_neighbors=[{0, 1}, {0, 1}, {2}])
        cfg = lm.LossConfig(margin=0.1, top_k=50)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
        negatives = set(trip.image_to_sentence[:, 2].tolist())
        assert 1 not in negatives
        assert 0 not in negatives
        assert negatives == {2}

    @staticmethod
    def assert_matches_enumerator(emb_x, emb_y, graph, cfg, tag):
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
        fam = oracles.enumerate_family_triplets(emb_x, emb_y, graph,
                                                cfg.margin, cfg.top_k)
        for name in lm.FAMILY_NAMES:
            want = [(a, p, n) for (a, p, n, _) in fam[name]]
            got = [tuple(r) for r in getattr(trip, name).tolist()]
            assert got == want, f"{tag} family {name}"

    # (integer embeddings, reserved x row, top_k); integer coordinates
    # make many distances tie exactly, in the miner and the oracle
    # alike, and at margin 1 make some violations exactly zero
    ENUMERATOR_CASES = [
        (False, False, 50),
        (True, False, 50),
        (False, True, 50),
        (True, True, 1),
        (True, True, 3),
        (True, True, 50),
    ]

    def test_matches_enumerator_on_random_batches(self):
        for tied, reserved, top_k in self.ENUMERATOR_CASES:
            cfg = lm.LossConfig(margin=1.0 if tied else 0.1, lambda1=2.0,
                                lambda2=0.3, lambda3=0.2, top_k=top_k)
            for seed in range(10):
                rng = np.random.default_rng(seed)
                graph = oracles.random_graph(rng, 12, 14)
                emb_x = unit_rows(rng, 12, 5)
                emb_y = unit_rows(rng, 14, 5)
                if tied:
                    emb_x = np.round(3.0 * emb_x)
                    emb_y = np.round(3.0 * emb_y)
                if reserved:
                    emb_x = np.vstack([emb_x, emb_x[int(rng.integers(12))]])
                    graph = with_reserved_x_row(graph, int(rng.integers(14)))
                self.assert_matches_enumerator(
                    emb_x, emb_y, graph, cfg,
                    f"tied={tied} reserved={reserved} top_k={top_k} "
                    f"seed {seed}")

    def test_matches_enumerator_on_fine_tune_batches(self):
        # augmented batches with reserved hard-negative rows, as
        # hard_negatives.fine_tune samples them
        rng = np.random.default_rng(21)
        x_ids = [f"im{i}" for i in range(12)]
        y_ids = [f"s{j}" for j in range(36)]
        pairs = [(f"im{j // 3}", f"s{j}") for j in range(36)]
        pairs += [(f"im{(j // 3 + 1) % 12}", f"s{j}") for j in (0, 7, 20)]
        graph = data.build_graph(pairs, x_ids, y_ids)
        extra = {j: [(j // 3 + k) % 12 for k in (2, 5, 8)]
                 for j in range(0, 36, 2)}
        cfg = lm.LossConfig(margin=0.2, lambda1=2.0, lambda2=0.3,
                            lambda3=0.2, top_k=4)
        batches = list(data.epoch_batches(graph, 10, True, rng,
                                          extra_negatives=extra,
                                          negatives_per_anchor=2))
        assert any((b.owner >= 0).any() for b in batches)
        assert any(b.augmented_y_rows for b in batches)
        for i, batch in enumerate(batches):
            emb_x = unit_rows(rng, batch.num_x, 5)
            emb_y = unit_rows(rng, batch.num_y, 5)
            self.assert_matches_enumerator(emb_x, emb_y, batch, cfg,
                                           f"batch {i}")

    def test_mined_in_blocks(self, monkeypatch):
        # a block bound of 40 violations mines 2-3 rows per block
        monkeypatch.setattr(lm, "DIRECT_CHUNK_FLOATS", 40)
        cfg = lm.LossConfig(margin=0.1, lambda1=2.0, lambda2=0.3,
                            lambda3=0.2, top_k=3)
        rng = np.random.default_rng(22)
        graph = oracles.random_graph(rng, 12, 14)
        emb_x = np.round(3.0 * unit_rows(rng, 12, 5))
        emb_y = np.round(3.0 * unit_rows(rng, 14, 5))
        self.assert_matches_enumerator(emb_x, emb_y, graph, cfg, "blocks")

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_enumerator_in_row_slabs(self, monkeypatch, workers):
        # every family's pair rows split over the workers, and blocks of
        # 40 violations (2-3 rows) inside each slab
        monkeypatch.setattr(tc, "SLAB_MIN_FLOATS", 0)
        monkeypatch.setattr(tc, "SLAB_WORKERS", workers)
        monkeypatch.setattr(lm, "DIRECT_CHUNK_FLOATS", 40)
        for tied, reserved, top_k in self.ENUMERATOR_CASES:
            cfg = lm.LossConfig(margin=1.0 if tied else 0.1, lambda1=2.0,
                                lambda2=0.3, lambda3=0.2, top_k=top_k)
            for seed in range(3):
                rng = np.random.default_rng(seed)
                graph = oracles.random_graph(rng, 11, 13)
                emb_x = unit_rows(rng, 11, 5)
                emb_y = unit_rows(rng, 13, 5)
                if tied:
                    emb_x = np.round(3.0 * emb_x)
                    emb_y = np.round(3.0 * emb_y)
                if reserved:
                    emb_x = np.vstack([emb_x, emb_x[int(rng.integers(11))]])
                    graph = with_reserved_x_row(graph, int(rng.integers(13)))
                self.assert_matches_enumerator(
                    emb_x, emb_y, graph, cfg,
                    f"workers={workers} tied={tied} reserved={reserved} "
                    f"top_k={top_k} seed {seed}")

    def test_top_k_truncates_to_largest(self):
        cfg_two = lm.LossConfig(margin=0.1, lambda2=0.5, top_k=2)
        rng = np.random.default_rng(3)
        graph = oracles.random_graph(rng, 10, 12)
        emb_x = unit_rows(rng, 10, 4)
        emb_y = unit_rows(rng, 12, 4)
        full = oracles.enumerate_family_triplets(emb_x, emb_y, graph,
                                                 0.1, 10 ** 6)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg_two)
        for name in lm.FAMILY_NAMES:
            got = [tuple(r) for r in getattr(trip, name).tolist()]
            by_pair = {}
            for a, p, n, v in full[name]:
                by_pair.setdefault((a, p), []).append((a, p, n, v))
            want = []
            for key in sorted(by_pair):
                ranked = sorted(by_pair[key], key=lambda t: (-t[3], t[2]))
                want.extend((a, p, n) for a, p, n, _ in ranked[:2])
            assert sorted(got) == sorted(want)
            counts = {}
            for a, p, n in got:
                counts[(a, p)] = counts.get((a, p), 0) + 1
            assert all(c <= 2 for c in counts.values())

    def test_zero_weight_families_skipped(self):
        rng = np.random.default_rng(4)
        graph = oracles.random_graph(rng, 8, 8)
        emb_x = unit_rows(rng, 8, 4)
        emb_y = unit_rows(rng, 8, 4)
        cfg = lm.LossConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
        assert trip.sentence_to_image.shape[0] == 0
        assert trip.image_structure.shape[0] == 0
        assert trip.sentence_structure.shape[0] == 0

    def test_reserved_rows_serve_single_anchor(self):
        # x2 is a reserved negative for y0: family 2 may use it only
        # with anchor y0 and the structure families never see it.
        emb_x = np.array([[0.0, 0.0], [1.0, 0.0], [0.05, 0.0]])
        emb_y = np.array([[0.1, 0.0], [1.1, 0.0]])
        graph = oracles.batch_masks([(0, 0), (1, 1)], 3, 2,
                                    x_neighbors=[{0, 1}, {0, 1}, {2}],
                                    owner={2: 0})
        cfg = lm.LossConfig(margin=0.5, lambda2=0.3, top_k=50)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
        f2 = [tuple(r) for r in trip.sentence_to_image.tolist()]
        anchors_of_reserved = [a for (a, p, n) in f2 if n == 2]
        assert anchors_of_reserved == [0]
        f3 = trip.image_structure.tolist()
        assert all(2 not in row for row in f3)

    @pytest.mark.parametrize("field, value", [
        ("pos", np.zeros((2, 4), dtype=bool)),
        ("pos", np.zeros((2, 3), dtype=np.int64)),
        ("x_nb", np.eye(2, 3, dtype=bool)),
        ("x_nb", np.array([[True, True], [True, False]])),
        ("y_nb", np.eye(2, dtype=bool)),
        ("y_nb", np.eye(3, 4, dtype=bool)),
        ("owner", np.array([-1, -1, -1])),
        ("owner", np.array([-1.0, -1.0])),
        ("owner", np.array([-1, 3])),
        ("owner", np.array([-2, -1])),
    ])
    def test_mask_not_fitting_batch(self, field, value):
        graph = oracles.batch_masks([(0, 0), (1, 1)], 2, 3)
        setattr(graph, field, value)
        with pytest.raises(DimensionError):
            lm.mine_triplets(np.eye(2, 3), np.eye(3), graph,
                             lm.LossConfig(lambda2=0.3))

    def test_family3_empty_without_shared_sentences(self):
        # Image-sentence data where no two images share a sentence.
        rng = np.random.default_rng(5)
        pairs = [(i, 2 * i) for i in range(5)] + [(i, 2 * i + 1)
                                                  for i in range(5)]
        y_nb = [{2 * (j // 2), 2 * (j // 2) + 1} for j in range(10)]
        graph = oracles.batch_masks(pairs, 5, 10, y_neighbors=y_nb)
        emb_x = unit_rows(rng, 5, 4)
        emb_y = unit_rows(rng, 10, 4)
        cfg = lm.LossConfig(lambda2=0.3, lambda3=0.2)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
        assert trip.image_structure.shape[0] == 0
        assert trip.sentence_structure.shape[0] > 0


class TestHingeLoss:
    def test_empty_triplets(self):
        emb_x = np.ones((3, 4))
        emb_y = np.ones((5, 4))
        res = lm.hinge_loss(emb_x, emb_y, {}, lm.TripletSet(),
                            lm.LossConfig())
        assert res.loss == 0.0
        assert np.array_equal(res.grad_x, np.zeros_like(emb_x))
        assert np.array_equal(res.grad_y, np.zeros_like(emb_y))

    def test_single_sentence_to_image_triplet_weighted(self):
        # Violation 0.05 under margin 0.1; lambda1=2 doubles it.
        emb_y = np.array([[0.0, 0.0]])
        emb_x = np.array([[0.2, 0.0], [0.25, 0.0]])
        trip = lm.TripletSet(sentence_to_image=np.array([[0, 0, 1]]))
        cfg = lm.LossConfig(margin=0.1, lambda1=2.0)
        res = lm.hinge_loss(emb_x, emb_y, lm.view_distances(emb_x, emb_y, cfg),
                            trip, cfg)
        assert abs(res.loss - 0.10) < 1e-12

    def test_loss_matches_enumerated_sums(self):
        cfg = lm.LossConfig(margin=0.15, lambda1=2.0, lambda2=0.4,
                            lambda3=0.2, top_k=50)
        rng = np.random.default_rng(6)
        graph = oracles.random_graph(rng, 10, 12)
        emb_x = unit_rows(rng, 10, 5)
        emb_y = unit_rows(rng, 12, 5)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
        res = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, cfg)
        fam = oracles.enumerate_family_triplets(emb_x, emb_y, graph,
                                                cfg.margin, cfg.top_k)
        want = oracles.loss_of_families(fam, cfg.family_weights())
        assert abs(res.loss - want) < 1e-9 * max(1.0, want)

    def test_family_sums_decompose_loss(self):
        cfg = lm.LossConfig(margin=0.1, lambda1=2.0, lambda2=0.3,
                            lambda3=0.2)
        rng = np.random.default_rng(7)
        graph = oracles.random_graph(rng, 9, 11)
        emb_x = unit_rows(rng, 9, 4)
        emb_y = unit_rows(rng, 11, 4)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
        res = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, cfg)
        recombined = sum(cfg.family_weights()[n] * res.family_sums[n]
                         for n in lm.FAMILY_NAMES)
        assert abs(res.loss - recombined) < 1e-12

    def test_lambda1_scales_only_family2(self):
        rng = np.random.default_rng(8)
        graph = oracles.random_graph(rng, 9, 11)
        emb_x = unit_rows(rng, 9, 4)
        emb_y = unit_rows(rng, 11, 4)
        cfg_a = lm.LossConfig(margin=0.1, lambda1=2.0, lambda2=0.3,
                              lambda3=0.2)
        cfg_b = lm.LossConfig(margin=0.1, lambda1=4.0, lambda2=0.3,
                              lambda3=0.2)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg_a)
        res_a = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, cfg_a)
        res_b = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, cfg_b)
        for name in lm.FAMILY_NAMES:
            assert res_a.family_sums[name] == res_b.family_sums[name]
        assert abs((res_b.loss - res_a.loss)
                   - 2.0 * res_a.family_sums["sentence_to_image"]) < 1e-12

    def test_structure_terms_never_decrease_loss(self):
        rng = np.random.default_rng(9)
        graph = oracles.random_graph(rng, 10, 10)
        emb_x = unit_rows(rng, 10, 4)
        emb_y = unit_rows(rng, 10, 4)
        with_structure = lm.LossConfig(margin=0.1, lambda2=0.3, lambda3=0.2)
        without = lm.LossConfig(margin=0.1, lambda2=0.0, lambda3=0.0)
        trip = lm.mine_triplets(emb_x, emb_y, graph, with_structure)
        loss_with = lm.hinge_loss(emb_x, emb_y, trip.dists, trip,
                                  with_structure).loss
        trip0 = lm.mine_triplets(emb_x, emb_y, graph, without)
        loss_without = lm.hinge_loss(emb_x, emb_y, trip0.dists, trip0,
                                     without).loss
        assert loss_with >= loss_without

    def test_gradient_sparsity(self):
        emb_x = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
        emb_y = np.array([[0.2, 0.0], [0.0, 0.25], [7.0, 7.0]])
        trip = lm.TripletSet(image_to_sentence=np.array([[0, 0, 1]]))
        cfg = lm.LossConfig()
        res = lm.hinge_loss(emb_x, emb_y, lm.view_distances(emb_x, emb_y, cfg),
                            trip, cfg)
        assert np.array_equal(res.grad_x[1], np.zeros(2))
        assert np.array_equal(res.grad_x[2], np.zeros(2))
        assert np.array_equal(res.grad_y[2], np.zeros(2))
        assert not np.array_equal(res.grad_x[0], np.zeros(2))

    def test_gradient_vs_finite_differences(self):
        from twobranch.gradcheck import central_difference, \
            max_relative_error

        cfg = lm.LossConfig(margin=0.2, lambda1=2.0, lambda2=0.3,
                            lambda3=0.2, top_k=50)
        rng = np.random.default_rng(10)
        graph = oracles.random_graph(rng, 8, 9)
        emb_x = unit_rows(rng, 8, 4)
        emb_y = unit_rows(rng, 9, 4)
        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
        res = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, cfg)

        def loss():
            # the distances of the perturbed embeddings
            return lm.hinge_loss(emb_x, emb_y,
                                 lm.view_distances(emb_x, emb_y, cfg), trip,
                                 cfg).loss

        assert max_relative_error(
            res.grad_x, central_difference(loss, emb_x)) < 1e-5
        assert max_relative_error(
            res.grad_y, central_difference(loss, emb_y)) < 1e-5


class TestViewPairSlabs:
    """hinge_loss runs its view pairs beside one another and must give
    the bits of working them one after another."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bits_match_serial_pairs(self, monkeypatch, workers):
        monkeypatch.setattr(tc, "SLAB_MIN_FLOATS", 0)
        monkeypatch.setattr(tc, "SLAB_WORKERS", workers)
        cfg = lm.LossConfig(margin=0.2, lambda1=2.0, lambda2=0.3,
                            lambda3=0.2, top_k=5)
        for seed in range(6):
            rng = np.random.default_rng(200 + seed)
            graph = oracles.random_graph(rng, 11, 13)
            emb_x = unit_rows(rng, 11, 6)
            emb_y = unit_rows(rng, 13, 6)
            trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
            if seed % 2:
                # no x-x pair, and one family scaled
                trip.image_structure = trip.image_structure[:0]
            scales = {name: 1.0 / (n + 1)
                      for name, n in trip.counts().items()}
            res = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, cfg,
                                scales=scales)
            loss, gx, gy = oracles.serial_hinge_loss(emb_x, emb_y, trip, cfg,
                                                     scales=scales)
            assert res.loss == loss, seed
            assert res.grad_x.tobytes() == gx.tobytes(), seed
            assert res.grad_y.tobytes() == gy.tobytes(), seed


class TestAgainstGatheredOracle:
    def test_matches_on_random_batches(self):
        cfg = lm.LossConfig(margin=0.2, lambda1=2.0, lambda2=0.3,
                            lambda3=0.2, top_k=50)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            graph = oracles.random_graph(rng, 12, 14)
            emb_x = unit_rows(rng, 12, 6)
            emb_y = unit_rows(rng, 14, 6)
            trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
            assert all(c > 0 for c in trip.counts().values())
            res = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, cfg)
            loss, gx, gy = oracles.gathered_hinge_loss(emb_x, emb_y, trip,
                                                       cfg)
            assert abs(res.loss - loss) <= 1e-12 * abs(loss)
            assert np.abs(res.grad_x - gx).max() < 1e-10
            assert np.abs(res.grad_y - gy).max() < 1e-10

    # at 1e-12 the backward's weight 1/d ~ 1e12 leaves rounding noise of
    # about 1e-4 in w a - w b, so only finiteness is asked for
    @pytest.mark.parametrize("gap, tol", [(0.0, 1e-5), (1e-9, 1e-5),
                                          (1e-7, 1e-5), (1e-12, np.inf)])
    def test_positive_on_top_of_anchor(self, gap, tol):
        # x0's positive y0 sits `gap` from it, so the hinge reads a
        # distance whose expansion form has lost all its digits.
        rng = np.random.default_rng(18)
        emb_x = unit_rows(rng, 3, 5)
        emb_y = unit_rows(rng, 4, 5)
        emb_y[0] = emb_x[0]
        emb_y[0, 1] += gap
        emb_y[1] = emb_x[0] + 0.02 * unit_rows(rng, 1, 5)[0]
        trip = lm.TripletSet(
            image_to_sentence=np.array([[0, 0, 1], [0, 0, 2], [1, 1, 3]]),
            sentence_to_image=np.array([[0, 0, 1], [0, 0, 2]]))
        cfg = lm.LossConfig(margin=0.5)
        res = lm.hinge_loss(emb_x, emb_y, lm.view_distances(emb_x, emb_y, cfg),
                            trip, cfg)
        loss, gx, gy = oracles.gathered_hinge_loss(emb_x, emb_y, trip, cfg)
        assert abs(res.loss - loss) < 1e-12
        assert np.isfinite(res.grad_x).all() and np.isfinite(res.grad_y).all()
        assert np.abs(res.grad_x - gx).max() < tol
        assert np.abs(res.grad_y - gy).max() < tol


class TestAgainstPerFamilyOracle:
    CFG = lm.LossConfig(margin=0.2, lambda1=2.0, lambda2=0.3, lambda3=0.2,
                        top_k=50)

    def mined_batch(self, seed):
        rng = np.random.default_rng(200 + seed)
        graph = oracles.random_graph(rng, 12, 14)
        emb_x = unit_rows(rng, 12, 6)
        emb_y = unit_rows(rng, 14, 6)
        trip = lm.mine_triplets(emb_x, emb_y, graph, self.CFG)
        assert all(c > 0 for c in trip.counts().values())
        return emb_x, emb_y, trip

    def test_count_scales_match_per_family_loop(self):
        for seed in range(12):
            emb_x, emb_y, trip = self.mined_batch(seed)
            scales = {name: 1.0 / n for name, n in trip.counts().items()}
            res = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, self.CFG,
                                scales=scales)
            loss, gx, gy = oracles.per_family_hinge_loss(emb_x, emb_y, trip,
                                                         self.CFG)
            assert abs(res.loss - loss) <= 1e-12 * abs(loss)
            assert array_relative_error(res.grad_x, gx) <= 1e-12
            assert array_relative_error(res.grad_y, gy) <= 1e-12

    def test_unnamed_families_keep_unit_scale(self):
        emb_x, emb_y, trip = self.mined_batch(0)
        plain = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, self.CFG)
        for scales in ({}, dict.fromkeys(lm.FAMILY_NAMES, 1.0),
                       {"image_structure": 1.0}):
            res = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, self.CFG,
                                scales=scales)
            assert res.loss == plain.loss
            assert np.array_equal(res.grad_x, plain.grad_x)
            assert np.array_equal(res.grad_y, plain.grad_y)

    def test_scale_multiplies_one_family(self):
        emb_x, emb_y, trip = self.mined_batch(1)
        plain = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, self.CFG)
        res = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, self.CFG,
                            scales={"sentence_structure": 3.0})
        assert res.family_sums == plain.family_sums
        extra = 2.0 * self.CFG.lambda3 * plain.family_sums[
            "sentence_structure"]
        assert abs(res.loss - (plain.loss + extra)) <= 1e-12 * res.loss


class TestBruteForce:
    def test_equals_mined_loss(self):
        cfg = lm.LossConfig(margin=0.1, lambda1=2.0, lambda2=0.3,
                            lambda3=0.2, top_k=10 ** 6)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            graph = oracles.random_graph(rng, 11, 13)
            emb_x = unit_rows(rng, 11, 5)
            emb_y = unit_rows(rng, 13, 5)
            trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
            mined = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, cfg).loss
            brute = oracles.brute_force_loss(emb_x, emb_y, graph, cfg)
            assert abs(mined - brute) <= 1e-9 * max(1.0, brute)

    def test_lambda_zero_drops_structure_terms(self):
        rng = np.random.default_rng(11)
        graph = oracles.random_graph(rng, 8, 8)
        emb_x = unit_rows(rng, 8, 4)
        emb_y = unit_rows(rng, 8, 4)
        bi_only = oracles.brute_force_loss(
            emb_x, emb_y, graph,
            lm.LossConfig(margin=0.1, lambda2=0.0, lambda3=0.0))
        fam = oracles.enumerate_family_triplets(emb_x, emb_y, graph,
                                                0.1, 10 ** 6)
        want = (sum(v for *_, v in fam["image_to_sentence"])
                + 2.0 * sum(v for *_, v in fam["sentence_to_image"]))
        assert abs(bi_only - want) < 1e-9

    def test_separated_clusters_zero_loss(self):
        # Two tight, far-apart pair clusters; margin tiny.
        emb_x = np.array([[0.0, 0.0], [100.0, 0.0]])
        emb_y = np.array([[0.01, 0.0], [100.01, 0.0]])
        graph = oracles.batch_masks([(0, 0), (1, 1)], 2, 2)
        cfg = lm.LossConfig(margin=1e-9)
        assert oracles.brute_force_loss(emb_x, emb_y, graph, cfg) == 0.0

    def test_batch_size_guard(self):
        rng = np.random.default_rng(12)
        graph = oracles.random_graph(rng, 31, 10)
        emb_x = unit_rows(rng, 31, 4)
        emb_y = unit_rows(rng, 10, 4)
        with pytest.raises(ConfigError):
            oracles.brute_force_loss(emb_x, emb_y, graph, lm.LossConfig())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10),
       st.integers(min_value=2, max_value=10),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_mining_invariants(nx, ny, top_k, seed):
    rng = np.random.default_rng(seed)
    graph = oracles.random_graph(rng, nx, ny)
    emb_x = unit_rows(rng, nx, 4)
    emb_y = unit_rows(rng, ny, 4)
    cfg = lm.LossConfig(margin=0.1, lambda1=2.0, lambda2=0.3, lambda3=0.2,
                        top_k=top_k)
    trip = lm.mine_triplets(emb_x, emb_y, graph, cfg)
    from twobranch.tensor_core import pairwise_distances
    dists = {
        "image_to_sentence": pairwise_distances(emb_x, emb_y),
        "sentence_to_image": pairwise_distances(emb_y, emb_x),
        "image_structure": pairwise_distances(emb_x, emb_x),
        "sentence_structure": pairwise_distances(emb_y, emb_y),
    }
    for name in lm.FAMILY_NAMES:
        d = dists[name]
        per_pair = {}
        for a, p, n in getattr(trip, name).tolist():
            assert cfg.margin + d[a, p] - d[a, n] > 0
            per_pair[(a, p)] = per_pair.get((a, p), 0) + 1
        assert all(c <= top_k for c in per_pair.values())
