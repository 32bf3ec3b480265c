"""Tests for the epoch loop and single training steps."""

import copy

import numpy as np
import pytest

import oracles
from twobranch import data, network as nw, training
from twobranch.errors import DivergenceError
from twobranch.loss_mining import FAMILY_NAMES, LossConfig, TripletSet, \
    hinge_loss, mine_triplets


def setup_problem(seed=0, dropout=0.5):
    d = data.gen_synthetic(6, 1, 5, 20, 16, 0.05, seed=seed)
    params = nw.init_params(nw.BranchSpec(20, 24, 12, dropout),
                            nw.BranchSpec(16, 24, 12, dropout),
                            seed=seed)
    opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                            weight_decay=0.0005)
    return d, params, opt


def run(seed, epochs=8):
    d, params, opt = setup_problem(seed)
    history = training.train(params, opt, d.graph, d.x, d.y, LossConfig(),
                             epochs, 6, True, np.random.default_rng(seed))
    return d, params, history


class TestTrain:
    def test_loss_decreases(self):
        _, _, history = run(0, epochs=20)
        first = history[0].mean_loss
        last = history[-1].mean_loss
        assert first > 0.0
        assert last < 0.5 * first

    def test_bitwise_deterministic(self):
        _, params_a, hist_a = run(3)
        _, params_b, hist_b = run(3)
        names = ("w1", "b1", "w2", "b2", "gamma", "beta",
                 "running_mean", "running_var")
        for branch in ("x", "y"):
            pa = getattr(params_a, branch)
            pb = getattr(params_b, branch)
            for name in names:
                assert np.array_equal(getattr(pa, name),
                                      getattr(pb, name)), name
        assert [h.mean_loss for h in hist_a] == [h.mean_loss for h in hist_b]
        assert [h.family_counts for h in hist_a] == \
            [h.family_counts for h in hist_b]

    def test_lr_follows_schedule(self):
        d, params, opt = setup_problem(1)
        history = training.train(params, opt, d.graph, d.x, d.y,
                                 LossConfig(), 25, 6, False,
                                 np.random.default_rng(1))
        assert [h.epoch for h in history] == list(range(25))
        for h in history:
            assert h.lr == nw.learning_rate(h.epoch, 0.1)
        assert history[0].lr == 0.1
        assert history[10].lr == 0.1 * 0.1 ** 1
        assert history[24].lr == 0.1 * 0.1 ** 2
        assert abs(history[10].lr - 0.01) < 1e-12
        assert abs(history[24].lr - 0.001) < 1e-12

    def test_epoch_counter_spans_calls(self):
        d, params, opt = setup_problem(2)
        first = training.train(params, opt, d.graph, d.x, d.y, LossConfig(),
                               5, 6, False, np.random.default_rng(2))
        second = training.train(params, opt, d.graph, d.x, d.y, LossConfig(),
                                5, 6, False, np.random.default_rng(3))
        assert [h.epoch for h in first] == [0, 1, 2, 3, 4]
        assert [h.epoch for h in second] == [5, 6, 7, 8, 9]

    def test_single_image_batches_skipped(self):
        d = data.gen_synthetic(1, 1, 5, 8, 8, 0.05, seed=4)
        params = nw.init_params(nw.BranchSpec(8, 8, 4, 0.0),
                                nw.BranchSpec(8, 8, 4, 0.0), seed=4)
        opt = nw.OptimizerState()
        history = training.train(params, opt, d.graph, d.x, d.y,
                                 LossConfig(), 1, 5, False,
                                 np.random.default_rng(4))
        assert history[0].skipped_batches == 1
        assert history[0].batches == 0
        assert history[0].mean_loss == 0.0

    def test_family_counts_reported(self):
        _, _, history = run(5)
        total = {name: 0 for name in FAMILY_NAMES}
        for h in history:
            for name in FAMILY_NAMES:
                total[name] += h.family_counts[name]
        assert total["image_to_sentence"] > 0
        assert total["sentence_to_image"] > 0
        assert total["image_structure"] == 0

    def test_on_epoch_callback(self):
        d, params, opt = setup_problem(6)
        seen = []
        training.train(params, opt, d.graph, d.x, d.y, LossConfig(), 3, 6,
                       False, np.random.default_rng(6),
                       on_epoch=seen.append)
        assert [s.epoch for s in seen] == [0, 1, 2]


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exploding_step_names_epoch_and_step(self):
        d, params, opt = setup_problem(10)
        opt.lr0 = 1e200
        seen = []
        with pytest.raises(DivergenceError,
                           match=r"^epoch 0 step [1-9]\d*: non-finite "):
            training.train(params, opt, d.graph, d.x, d.y, LossConfig(), 3,
                           6, True, np.random.default_rng(10),
                           on_epoch=seen.append)
        assert seen == []

    def test_non_finite_state_fails_at_epoch_end(self):
        # batch statistics normalize in train mode, so the embeddings
        # stay finite; the running variance does not
        d, params, opt = setup_problem(11)
        params.x.running_var[0] = np.inf
        seen = []
        with pytest.raises(DivergenceError,
                           match=r"^epoch 0: non-finite x\.running_var$"):
            training.train(params, opt, d.graph, d.x, d.y, LossConfig(), 1,
                           6, True, np.random.default_rng(11),
                           on_epoch=seen.append)
        assert seen == []


class TestTrainStep:
    def test_loss_is_weighted_family_mean(self):
        d, params, opt = setup_problem(7, dropout=0.0)
        cfg = LossConfig(lambda2=0.5)
        batch = oracles.sample_minibatch(d.graph, 5, True,
                                         np.random.default_rng(7))
        mirror = copy.deepcopy(params)
        got_loss, counts = training.train_step(
            params, opt, batch, d.x, d.y, cfg, np.random.default_rng(8))

        emb_x, _ = nw.forward_branch(mirror, "x",
                                     d.x.features[batch.x_rows], "train",
                                     rng=np.random.default_rng(8))
        emb_y, _ = nw.forward_branch(mirror, "y",
                                     d.y.features[batch.y_rows], "train",
                                     rng=np.random.default_rng(8))
        trip = mine_triplets(emb_x, emb_y, batch, cfg)
        assert trip.counts() == counts
        want = 0.0
        for name in FAMILY_NAMES:
            mined = getattr(trip, name)
            if mined.shape[0] == 0:
                continue
            only = TripletSet()
            setattr(only, name, mined)
            part = hinge_loss(emb_x, emb_y, only, cfg)
            want += part.loss / mined.shape[0]
        assert abs(got_loss - want) < 1e-12

    def test_parameters_change(self):
        d, params, opt = setup_problem(9)
        before = copy.deepcopy(params)
        batch = oracles.sample_minibatch(d.graph, 5, True,
                                         np.random.default_rng(9))
        loss, _ = training.train_step(params, opt, batch, d.x, d.y,
                                      LossConfig(), np.random.default_rng(9))
        assert loss > 0.0
        changed = any(
            not np.array_equal(getattr(getattr(params, b), n),
                               getattr(getattr(before, b), n))
            for b in ("x", "y") for n in ("w1", "b1", "w2", "b2")
        )
        assert changed
        for b in ("x", "y"):
            assert not np.array_equal(getattr(params, b).running_mean,
                                      getattr(before, b).running_mean)
