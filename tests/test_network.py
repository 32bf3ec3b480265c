"""Two-branch model, optimizer, schedule, and checkpoint tests."""

import hashlib
import os
import re
import struct
import sys
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from twobranch import network as nw
from twobranch import tensor_core as tc
from twobranch.errors import (ChecksumError, ConfigError,
                              ContractViolationError, DimensionError,
                              FormatError)


def small_params(seed=0, dropout=0.0):
    return nw.init_params(nw.BranchSpec(6, 5, 4, dropout),
                          nw.BranchSpec(7, 5, 4, dropout), seed=seed)


def big_state():
    """About 5 MB of checkpoint: the weights and velocities dominate."""
    p = nw.init_params(nw.BranchSpec(300, 400, 64),
                       nw.BranchSpec(350, 400, 64), seed=6)
    opt = nw.OptimizerState()
    nw.sgd_step(p, opt, {name: np.ones_like(t)
                         for name, t in nw._learned_tensors(p)})
    return p, opt


def same_bits(a, b):
    """Equal dtype, shape and bytes: unlike ==, tells -0.0 from 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestInit:
    def test_same_seed_bit_identical(self):
        a = small_params(seed=3)
        b = small_params(seed=3)
        assert np.array_equal(a.x.w1, b.x.w1)
        assert np.array_equal(a.y.w2, b.y.w2)
        assert np.array_equal(a.x.gamma, b.x.gamma)

    def test_different_seed_differs(self):
        assert not np.array_equal(small_params(0).x.w1,
                                  small_params(1).x.w1)

    def test_gamma_ones_beta_zeros(self):
        p = small_params()
        for br in (p.x, p.y):
            assert np.array_equal(br.gamma, np.ones(4))
            assert np.array_equal(br.beta, np.zeros(4))
            assert np.array_equal(br.running_mean, np.zeros(4))
            assert np.array_equal(br.running_var, np.ones(4))

    def test_biases_zero(self):
        p = small_params()
        assert np.array_equal(p.x.b1, np.zeros(5))
        assert np.array_equal(p.y.b2, np.zeros(4))

    def test_weights_within_glorot_bound(self):
        p = small_params(seed=11)
        for w, fan_in, fan_out in ((p.x.w1, 6, 5), (p.x.w2, 5, 4),
                                   (p.y.w1, 7, 5), (p.y.w2, 5, 4)):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w).max() <= bound
            # A uniform draw this size should get close to the bound.
            assert np.abs(w).max() > 0.5 * bound

    def test_embed_dim_must_match(self):
        with pytest.raises(ConfigError):
            nw.init_params(nw.BranchSpec(6, 5, 4, 0.0),
                           nw.BranchSpec(7, 5, 3, 0.0))

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            nw.BranchSpec(0, 5, 4, 0.0)
        with pytest.raises(ConfigError):
            nw.BranchSpec(6, 5, 4, 1.0)
        with pytest.raises(ConfigError):
            nw.BranchSpec(6, 5, 4, -0.1)


class TestForward:
    def test_eval_rows_unit_norm(self):
        p = small_params(seed=5)
        x = np.random.default_rng(0).normal(size=(9, 6))
        emb, tape = nw.forward_branch(p, "x", x, "eval")
        assert np.abs(np.linalg.norm(emb, axis=1) - 1.0).max() < 1e-12
        assert tape is None

    def test_identical_rows_identical_embeddings(self):
        p = small_params(seed=6)
        row = np.random.default_rng(1).normal(size=6)
        emb, _ = nw.forward_branch(p, "x", np.stack([row, row]), "eval")
        assert np.array_equal(emb[0], emb[1])

    def test_distances_bounded_by_sphere_diameter(self):
        p = small_params(seed=7)
        x = np.random.default_rng(2).normal(size=(20, 6)) * 10
        emb, _ = nw.forward_branch(p, "x", x, "eval")
        from twobranch.tensor_core import pairwise_distances
        assert pairwise_distances(emb, emb).max() <= 2.0 + 1e-12

    def test_input_dim_checked(self):
        p = small_params()
        with pytest.raises(DimensionError):
            nw.forward_branch(p, "x", np.ones((3, 7)), "eval")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_inputs_must_be_matrix(self, mode):
        p = small_params()
        with pytest.raises(DimensionError, match="2-D"):
            nw.forward_branch(p, "x", np.ones(6), mode,
                              rng=np.random.default_rng(0))

    def test_train_needs_two_rows(self):
        p = small_params()
        from twobranch.errors import BatchTooSmallError
        with pytest.raises(BatchTooSmallError):
            nw.forward_branch(p, "x", np.ones((1, 6)), "train",
                              rng=np.random.default_rng(0))

    def test_unknown_branch(self):
        p = small_params()
        with pytest.raises(ConfigError):
            nw.forward_branch(p, "z", np.ones((2, 6)), "eval")

    def test_train_updates_running_stats(self):
        p = small_params(seed=8)
        before = p.x.running_mean.copy()
        nw.forward_branch(p, "x", np.random.default_rng(3).normal(
            size=(8, 6)) + 4.0, "train", rng=np.random.default_rng(4))
        assert not np.array_equal(p.x.running_mean, before)

    def test_eval_leaves_running_stats(self):
        p = small_params(seed=9)
        before = p.x.running_mean.copy()
        nw.forward_branch(p, "x", np.random.default_rng(5).normal(
            size=(8, 6)), "eval")
        assert np.array_equal(p.x.running_mean, before)


class TestEvalSlabs:
    """forward_branch runs eval mode in row slabs of _row_slabs and must
    give the bits of one float64 pass over all rows.  That holds while
    every eval layer is row-local and a product over a slab of 2 or more
    rows has the bits of the same rows of the whole product; a BLAS
    that breaks this fails here first."""

    @pytest.fixture(scope="class")
    def paper(self):
        """Paper-shape parameters with non-trivial biases, batch-norm
        affine terms and running statistics."""
        p = nw.init_params(nw.BranchSpec(4096, 2048, 512),
                           nw.BranchSpec(6000, 2048, 512), seed=4)
        rng = np.random.default_rng(12)
        for bp in (p.x, p.y):
            for name in ("b1", "b2", "beta", "running_mean"):
                v = getattr(bp, name)
                v[...] = rng.normal(scale=0.1, size=v.shape)
            bp.gamma[...] = rng.uniform(0.5, 1.5, size=bp.gamma.shape)
            bp.running_var[...] = rng.uniform(0.5, 2.0,
                                              size=bp.running_var.shape)
        return p

    @staticmethod
    def assert_matches_whole(monkeypatch, params, branch, inputs):
        got, tapes = nw.forward_branch(params, branch, inputs, "eval")
        assert tapes is None and got.dtype == np.float64
        with monkeypatch.context() as m:
            m.setattr(nw, "GRAD_SLAB_FLOATS", 1 << 62)
            whole, _ = nw.forward_branch(
                params, branch, inputs.astype(np.float64), "eval")
        assert got.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("branch, n", [
        ("y", 1), ("y", 2), ("y", 3), ("y", 513), ("y", 700), ("x", 513)])
    def test_paper_shape(self, paper, monkeypatch, dtype, branch, n):
        # slabs hold 512 rows at 2048 hidden units: 513 rows fold a
        # one-row tail into the slab before, and 700 end on a ragged
        # slab of 188
        d_in = paper.spec_x.input_dim if branch == "x" \
            else paper.spec_y.input_dim
        inputs = np.random.default_rng(n).normal(size=(n, d_in)) \
            .astype(dtype)
        self.assert_matches_whole(monkeypatch, paper, branch, inputs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("height, n", [(2, 5), (4, 13)])
    def test_forced_one_row_tail(self, paper, monkeypatch, dtype, height,
                                 n):
        monkeypatch.setattr(nw, "GRAD_SLAB_FLOATS", height * 2048)
        assert list(nw._row_slabs(n, 2048))[-1] == (n - height - 1, n)
        inputs = np.random.default_rng(n).normal(size=(n, 6000)) \
            .astype(dtype)
        self.assert_matches_whole(monkeypatch, paper, "y", inputs)

    def test_never_holds_widened_inputs(self, monkeypatch):
        # slabs of 100 rows: a widened copy of all inputs would be 2x
        # their float32 bytes, one slab's is a twentieth of them
        monkeypatch.setattr(nw, "GRAD_SLAB_FLOATS", 100 * 64)
        p = nw.init_params(nw.BranchSpec(600, 64, 16),
                           nw.BranchSpec(600, 64, 16), seed=2)
        inputs = np.random.default_rng(2).normal(size=(4000, 600)) \
            .astype(np.float32)
        tracemalloc.start()
        try:
            emb, _ = nw.forward_branch(p, "y", inputs, "eval")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emb.shape == (4000, 16)
        assert peak < 0.25 * inputs.nbytes


class TestSchedule:
    def test_stated_points(self):
        assert nw.learning_rate(0) == 0.1
        assert nw.learning_rate(10) == pytest.approx(0.01)
        assert nw.learning_rate(25) == pytest.approx(0.001)

    def test_piecewise_constant(self):
        assert nw.learning_rate(9) == nw.learning_rate(0)
        assert nw.learning_rate(19) == nw.learning_rate(10)

    def test_custom_base(self):
        assert nw.learning_rate(10, lr0=1.0) == pytest.approx(0.1)

    def test_negative_epoch(self):
        with pytest.raises(ConfigError):
            nw.learning_rate(-1)


class TestSgdStep:
    @staticmethod
    def zero_grads(p):
        return {name: np.zeros_like(t)
                for name, t in nw._learned_tensors(p)}

    def test_single_step_hand_example(self):
        # theta=1, grad=0.5, v=0, lr=0.1, momentum=0.9, wd=0.0005 on a
        # decayed tensor: v -> 0.5005, theta -> 0.94995.
        p = small_params()
        p.x.w1[:] = 1.0
        opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                weight_decay=0.0005)
        grads = self.zero_grads(p)
        grads["x.w1"] = np.full_like(p.x.w1, 0.5)
        nw.sgd_step(p, opt, grads)
        assert np.allclose(opt.velocity["x.w1"], 0.5005, atol=1e-15)
        assert np.allclose(p.x.w1, 0.94995, atol=1e-15)

    def test_zero_grad_shrinks_decayed_only(self):
        p = small_params(seed=10)
        w_before = p.x.w1.copy()
        b_before = p.x.b1.copy()
        gamma_before = p.x.gamma.copy()
        opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                weight_decay=0.0005)
        nw.sgd_step(p, opt, self.zero_grads(p))
        assert np.allclose(p.x.w1, w_before * (1 - 0.1 * 0.0005),
                           atol=1e-15)
        assert np.array_equal(p.x.b1, b_before)
        assert np.array_equal(p.x.gamma, gamma_before)

    def test_two_step_recurrence(self):
        # Two manual steps of v <- m v + (g + wd t); t <- t - lr v on a
        # scalar, tracked exactly.
        p = small_params()
        p.x.w1[:] = 2.0
        opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                weight_decay=0.01)
        theta, v = 2.0, 0.0
        for g in (0.3, -0.2):
            grads = self.zero_grads(p)
            grads["x.w1"] = np.full_like(p.x.w1, g)
            nw.sgd_step(p, opt, grads)
            v = 0.9 * v + (g + 0.01 * theta)
            theta = theta - 0.1 * v
            assert np.allclose(p.x.w1, theta, atol=1e-15)
            assert np.allclose(opt.velocity["x.w1"], v, atol=1e-15)

    def test_incomplete_grad_dict_rejected(self):
        p = small_params()
        opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                weight_decay=0.0)
        with pytest.raises(ConfigError):
            nw.sgd_step(p, opt, {"x.w1": np.zeros((6, 5))})

    def test_unknown_tensor_name_rejected(self):
        p = small_params()
        opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                weight_decay=0.0)
        grads = self.zero_grads(p)
        grads["x.w9"] = np.zeros((6, 5))
        with pytest.raises(ConfigError):
            nw.sgd_step(p, opt, grads)

    def test_matches_out_of_place_oracle_bitwise(self):
        self.assert_matches_oracle()

    def test_matches_oracle_in_ragged_blocks(self, monkeypatch):
        # every tensor of 5 floats or more spans blocks; x.w1 (30) ends
        # on a block of 2
        monkeypatch.setattr(nw, "SGD_BLOCK", 7)
        self.assert_matches_oracle()

    @staticmethod
    def assert_matches_oracle():
        # weights are decayed, biases and batch-norm scales are not;
        # signed zeros in theta and grad check the zero first velocity
        got, want = small_params(seed=15), small_params(seed=15)
        for p in (got, want):
            p.x.b1[:2] = -0.0
        opt_got = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                    weight_decay=0.0005)
        opt_want = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                     weight_decay=0.0005)
        rng = np.random.default_rng(15)
        for _ in range(5):
            grads = {name: rng.normal(size=t.shape)
                     for name, t in nw._learned_tensors(got)}
            for g in grads.values():
                g.flat[:3] = (0.0, -0.0, -0.0)
            kept = {name: g.copy() for name, g in grads.items()}
            nw.sgd_step(got, opt_got, grads)
            oracles.out_of_place_sgd_step(want, opt_want, kept)
            for name, g in grads.items():
                assert same_bits(g, kept[name]), name
            for (name, a), (_, b) in zip(nw._learned_tensors(got),
                                         nw._learned_tensors(want)):
                assert same_bits(a, b), name
                assert same_bits(opt_got.velocity[name],
                                 opt_want.velocity[name]), name

    def test_warm_step_memory_bounded(self):
        # velocities exist, so only the blocked update's scratch remains
        p, opt = big_state()
        grads = {name: np.ones_like(t) for name, t in nw._learned_tensors(p)}
        assert p.y.w1.nbytes > 4 * nw.SGD_BLOCK * 8
        tracemalloc.start()
        try:
            nw.sgd_step(p, opt, grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * nw.SGD_BLOCK * 8

    def test_warm_backward_and_step_memory_bounded(self, monkeypatch):
        # the first-layer weight gradients are formed one slab of 10
        # rows at a time, never whole; the parent formed both whole
        monkeypatch.setattr(nw, "GRAD_SLAB_FLOATS", 4000, raising=False)
        p, opt = big_state()
        rng = np.random.default_rng(6)
        ex, tx = nw.forward_branch(p, "x", rng.normal(size=(8, 300)),
                                   "train", rng=rng)
        ey, ty = nw.forward_branch(p, "y", rng.normal(size=(8, 350)),
                                   "train", rng=rng)
        gx, gy = rng.normal(size=ex.shape), rng.normal(size=ey.shape)
        tracemalloc.start()
        try:
            nw.backward_and_step(p, opt, tx, ty, gx, gy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p.y.w1.nbytes

    def test_non_contiguous_parameter_rejected(self):
        # a flat view of it would be a copy, and the update would be lost
        p = small_params()
        p.x.w1 = np.asfortranarray(p.x.w1)
        opt = nw.OptimizerState()
        with pytest.raises(ContractViolationError, match="x.w1"):
            nw.sgd_step(p, opt, self.zero_grads(p))

    @pytest.mark.parametrize("fault", [
        "grad_shape", "lazy_grad_shape", "velocity_shape",
        "param_layout", "velocity_layout"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_rejected_step_writes_nothing(self, fault, warm):
        # every fault sits on the last tensors of y, after the 11 others
        # a check inside the update loop would already have stepped
        p = small_params(seed=17)
        opt = nw.OptimizerState()
        if warm:
            nw.sgd_step(p, opt, {name: np.full_like(t, 0.5) for name, t
                                 in nw._learned_tensors(p)})
            del opt.velocity["y.beta"], opt.velocity["y.w2"]
        grads = {name: np.ones_like(t) for name, t in nw._learned_tensors(p)}
        error = DimensionError
        if fault == "grad_shape":
            grads["y.beta"] = np.ones(3)
        elif fault == "lazy_grad_shape":
            grads["y.w2"] = tc.WeightGrad(np.ones((4, 6)), np.ones((4, 4)))
        elif fault == "velocity_shape":
            opt.velocity["y.beta"] = np.zeros(3)
        elif fault == "param_layout":
            p.y.w2 = np.asfortranarray(p.y.w2)
            error = ContractViolationError
        else:
            opt.velocity["y.w2"] = np.asfortranarray(np.zeros((5, 4)))
            error = ContractViolationError
        params = {name: t.copy() for name, t in nw._learned_tensors(p)}
        velocity = {name: v.copy() for name, v in opt.velocity.items()}
        with pytest.raises(error, match="y"):
            nw.sgd_step(p, opt, grads)
        for name, t in nw._learned_tensors(p):
            assert same_bits(t, params[name]), name
        assert opt.velocity.keys() == velocity.keys()
        for name, v in opt.velocity.items():
            assert same_bits(v, velocity[name]), name

    def test_matches_oracle_in_row_slabs(self, monkeypatch):
        # slabs of 2 rows of 5 floats: x.w1 (6 rows) ends on a full
        # slab, y.w1 (7 rows) folds its one-row tail into a slab of 3;
        # the vectors fit one slab of 10
        monkeypatch.setattr(nw, "GRAD_SLAB_FLOATS", 10)
        monkeypatch.setattr(nw, "SGD_BLOCK", 7)
        self.assert_matches_oracle()


class TestBackward:
    def test_tape_single_use(self):
        p = small_params(seed=12)
        x = np.random.default_rng(6).normal(size=(4, 6))
        emb, tapes = nw.forward_branch(p, "x", x, "train",
                                       rng=np.random.default_rng(7))
        nw.backward_branch(tapes, np.ones_like(emb))
        with pytest.raises(ContractViolationError):
            nw.backward_branch(tapes, np.ones_like(emb))

    def test_gradients_match_affine_backward_oracle(self):
        # two forward passes on one seed give two equal sets of tapes
        p = small_params(seed=16, dropout=0.3)
        x = np.random.default_rng(16).normal(size=(9, 6))
        emb, tapes = nw.forward_branch(p, "x", x, "train",
                                       rng=np.random.default_rng(17))
        _, twin = nw.forward_branch(p, "x", x, "train",
                                    rng=np.random.default_rng(17))
        grad_emb = np.random.default_rng(18).normal(size=emb.shape)
        got = nw.backward_branch(tapes, grad_emb)
        want = oracles.full_backward_branch(twin, grad_emb)
        assert got.keys() == want.keys()
        for name, g in want.items():
            assert same_bits(np.asarray(got[name]), g), name

    def test_eval_tape_unusable(self):
        p = small_params(seed=13)
        emb, tapes = nw.forward_branch(
            p, "x", np.random.default_rng(8).normal(size=(4, 6)), "eval")
        with pytest.raises(ConfigError):
            nw.backward_branch(tapes, np.ones_like(emb))

    @staticmethod
    def twin_step(seed, grad_x_row=None):
        """backward_and_step's report for a seeded two-branch batch, and
        the oracle gradients of the same tapes, keyed alike."""
        p = small_params(seed=seed, dropout=0.3)
        opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                weight_decay=0.0005)
        rng = np.random.default_rng(seed)
        inp_x, inp_y = rng.normal(size=(7, 6)), rng.normal(size=(7, 7))
        tapes = []
        for _ in range(2):
            dropout = np.random.default_rng(seed + 1)
            tapes.append([
                nw.forward_branch(p, "x", inp_x, "train", rng=dropout)[1],
                nw.forward_branch(p, "y", inp_y, "train", rng=dropout)[1]])
        gx, gy = rng.normal(size=(7, 4)), rng.normal(size=(7, 4))
        if grad_x_row is not None:
            gx[2] = grad_x_row
        want = {f"{view}.{k}": g for view, tape, grad in
                (("x", tapes[1][0], gx), ("y", tapes[1][1], gy))
                for k, g in oracles.full_backward_branch(tape, grad).items()}
        return nw.backward_and_step(p, opt, *tapes[0], gx, gy), want

    def test_backward_and_step_reports_norms(self, monkeypatch):
        # small slabs and blocks, so that each norm sums many of them
        monkeypatch.setattr(nw, "GRAD_SLAB_FLOATS", 10)
        monkeypatch.setattr(nw, "SGD_BLOCK", 3)
        report, want = self.twin_step(19)
        assert report.keys() == want.keys()
        for name, g in want.items():
            norm = np.linalg.norm(g)
            assert abs(report[name] - norm) <= 1e-12 * norm, name
        # a NaN row of one branch's grad_emb reaches every gradient of
        # that branch, and train_step's divergence check names them
        report, _ = self.twin_step(20, grad_x_row=np.nan)
        bad = {name for name, norm in report.items()
               if not np.isfinite(norm)}
        assert bad == {name for name in report if name.startswith("x.")}


class TestCheckpoint:
    def trained_state(self, seed=0):
        p = small_params(seed=seed, dropout=0.3)
        opt = nw.OptimizerState(lr0=0.1, lr=0.05, momentum=0.9,
                                weight_decay=0.0005, epoch=7)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            ex, tx = nw.forward_branch(p, "x", rng.normal(size=(6, 6)),
                                       "train", rng=rng)
            ey, ty = nw.forward_branch(p, "y", rng.normal(size=(6, 7)),
                                       "train", rng=rng)
            nw.backward_and_step(p, opt, tx, ty, rng.normal(size=ex.shape),
                                 rng.normal(size=ey.shape))
        return p, opt

    def test_round_trip_bit_exact(self, tmp_path):
        p, opt = self.trained_state()
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(p, opt, path)
        p2, opt2 = nw.load_checkpoint(path)
        assert np.array_equal(p.x.w1, p2.x.w1)
        assert np.array_equal(p.y.running_var, p2.y.running_var)
        assert p2.spec_x == p.spec_x and p2.spec_y == p.spec_y
        assert opt2.lr == opt.lr and opt2.epoch == opt.epoch
        for name, v in opt.velocity.items():
            assert np.array_equal(v, opt2.velocity[name])

    def test_save_load_save_byte_identical(self, tmp_path):
        p, opt = self.trained_state(seed=1)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        nw.save_checkpoint(p, opt, a)
        p2, opt2 = nw.load_checkpoint(a)
        nw.save_checkpoint(p2, opt2, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_match_joined_oracle(self, tmp_path):
        fresh = small_params(seed=5)
        states = [(fresh, nw.OptimizerState()), self.trained_state(seed=5)]
        for i, (p, opt) in enumerate(states):
            path = tmp_path / f"{i}.ckpt"
            nw.save_checkpoint(p, opt, path)
            assert path.read_bytes() == oracles.joined_checkpoint_bytes(p, opt)

    def test_save_and_load_memory_bounded(self, tmp_path):
        p, opt = big_state()
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            nw.save_checkpoint(p, opt, path)
            _, save_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            p2, _ = nw.load_checkpoint(path)
            _, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert 4e6 < size < 6e6
        # streamed: no copy of the file while saving; loading reads
        # each tensor straight into its own array
        assert save_peak < 0.1 * size
        assert load_peak - before < 1.1 * size
        assert np.array_equal(p2.y.w1, p.y.w1)
        assert p2.y.w1.flags.writeable and p2.y.w1.flags.aligned

    @pytest.mark.parametrize("field, value", [
        ("name length", 2**32 - 1), ("rows", 2**40), ("rows", 2**20)])
    def test_oversized_header_fails_checksum_unallocated(
            self, tmp_path, field, value):
        # the first record, "meta.bn_eps", claims more bytes than the
        # file holds (8 MB of data, 2**20 rows, could be allocated);
        # the bytes after the header are unchanged, so the checksum no
        # longer matches
        p, opt = big_state()
        path = tmp_path / "big.ckpt"
        nw.save_checkpoint(p, opt, path)
        raw = bytearray(path.read_bytes())
        if field == "name length":
            raw[8:12] = struct.pack("<I", value)
        else:
            at = 12 + len("meta.bn_eps")
            raw[at:at + 8] = struct.pack("<Q", value)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(ChecksumError, match="checksum mismatch"):
                nw.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(raw)

    @pytest.mark.parametrize("at, patch", [
        (12, b"\xff"), (23, struct.pack("<QQ", 0, 2**64 - 1))],
        ids=["name", "shape"])
    def test_undecodable_header_fails_checksum(self, tmp_path, at, patch):
        # a name byte that is not UTF-8, or a shape numpy cannot make,
        # in the first record ("meta.bn_eps") of a corrupted file
        p, opt = self.trained_state(seed=10)
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(p, opt, path)
        raw = bytearray(path.read_bytes())
        raw[at:at + len(patch)] = patch
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            nw.load_checkpoint(path)

    def test_hashing_keeps_order_under_fast_thread_switching(self, tmp_path):
        # the worker thread hashes while the caller writes and reads; a
        # buffer hashed out of order or twice would change the bytes
        states = [self.trained_state(seed=11), big_state()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i, (p, opt) in enumerate(states * 2):
                path = tmp_path / f"{i}.ckpt"
                nw.save_checkpoint(p, opt, path)
                assert path.read_bytes() == \
                    oracles.joined_checkpoint_bytes(p, opt)
                p2, _ = nw.load_checkpoint(path)
                assert np.array_equal(p2.y.w1, p.y.w1)
        finally:
            sys.setswitchinterval(interval)

    def test_trailing_bytes_are_format_error(self, tmp_path):
        p, opt = self.trained_state(seed=9)
        payload = oracles.joined_checkpoint_bytes(p, opt)[:-8] + b"\0\0\0"
        path = tmp_path / "model.ckpt"
        path.write_bytes(payload + hashlib.sha256(payload).digest()[:8])
        with pytest.raises(FormatError,
                           match="truncated while reading name length"):
            nw.load_checkpoint(path)

    def test_blocked_steps_bytes_match_oracle(self, tmp_path, monkeypatch):
        # trained_state's three steps, taken in blocks of 7 floats, and
        # a mirror stepped out of place on the same gradients
        monkeypatch.setattr(nw, "SGD_BLOCK", 7)
        states = []
        for blocked in (True, False):
            p = small_params(seed=0, dropout=0.3)
            opt = nw.OptimizerState(lr0=0.1, lr=0.05, momentum=0.9,
                                    weight_decay=0.0005, epoch=7)
            rng = np.random.default_rng(0)
            for _ in range(3):
                ex, tx = nw.forward_branch(p, "x", rng.normal(size=(6, 6)),
                                           "train", rng=rng)
                ey, ty = nw.forward_branch(p, "y", rng.normal(size=(6, 7)),
                                           "train", rng=rng)
                gx, gy = rng.normal(size=ex.shape), rng.normal(size=ey.shape)
                if blocked:
                    nw.backward_and_step(p, opt, tx, ty, gx, gy)
                    continue
                grads = {f"x.{k}": g
                         for k, g in nw.backward_branch(tx, gx).items()}
                grads.update({f"y.{k}": g
                              for k, g in nw.backward_branch(ty, gy).items()})
                oracles.out_of_place_sgd_step(p, opt, grads)
            states.append((p, opt))
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(*states[0], path)
        assert path.read_bytes() == oracles.joined_checkpoint_bytes(*states[1])

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        p, opt = self.trained_state()
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(p, opt, path)
        before = path.read_bytes()

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def write(self, blob):
                self.fh.write(blob[:len(blob) // 2])
                raise OSError("disk full")

        real = nw.atomic_write

        @contextmanager
        def failing(target, mode="w"):
            with real(target, mode) as fh:
                yield HalfWriter(fh)

        monkeypatch.setattr(nw, "atomic_write", failing)
        p2, opt2 = self.trained_state(seed=1)
        with pytest.raises(OSError):
            nw.save_checkpoint(p2, opt2, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_truncated_file_fails_checksum(self, tmp_path):
        p, opt = self.trained_state(seed=2)
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(p, opt, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ChecksumError):
            nw.load_checkpoint(path)

    def test_flipped_byte_fails_checksum(self, tmp_path):
        p, opt = self.trained_state(seed=3)
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(p, opt, path)
        raw = bytearray(path.read_bytes())
        raw[37] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            nw.load_checkpoint(path)

    def test_wrong_magic_is_format_error(self, tmp_path):
        body = b"XXXX" + b"\x00" * 16
        digest = hashlib.sha256(body).digest()[:8]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(body + digest)
        with pytest.raises(FormatError):
            nw.load_checkpoint(path)

    def test_eval_identical_after_reload(self, tmp_path):
        p, opt = self.trained_state(seed=4)
        x = np.random.default_rng(20).normal(size=(10, 6))
        before, _ = nw.forward_branch(p, "x", x, "eval")
        path = tmp_path / "model.ckpt"
        nw.save_checkpoint(p, opt, path)
        p2, _ = nw.load_checkpoint(path)
        after, _ = nw.forward_branch(p2, "x", x, "eval")
        assert np.array_equal(before, after)


class TestCheckpointRecordFaults:
    """Each malformed record set, with a valid checksum, is a FormatError."""

    def records(self):
        p, opt = TestCheckpoint().trained_state(seed=8)
        return oracles.checkpoint_records(p, opt)

    def assert_rejected(self, tmp_path, records, match):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(oracles.records_checkpoint_bytes(records))
        with pytest.raises(FormatError, match=re.escape(match)):
            nw.load_checkpoint(path)

    def test_valid_records_load(self, tmp_path):
        path = tmp_path / "good.ckpt"
        path.write_bytes(oracles.records_checkpoint_bytes(self.records()))
        p, opt = nw.load_checkpoint(path)
        assert p.spec_x == nw.BranchSpec(6, 5, 4, 0.3)
        assert opt.epoch == 7 and len(opt.velocity) == 12

    @pytest.mark.parametrize("name", [
        "x.w1", "x.w2", "y.b1", "y.gamma", "x.running_var", "x.dropout_p",
        "meta.seed", "meta.bn_eps", "opt.lr", "opt.epoch"])
    def test_missing_record(self, tmp_path, name):
        records = self.records()
        del records[name]
        self.assert_rejected(tmp_path, records, "missing record")

    @pytest.mark.parametrize("name, shape", [
        ("x.b1", (1, 6)), ("x.b1", (5, 1)), ("y.w2", (4, 4)),
        ("y.beta", (1, 3)), ("x.running_mean", (2, 2)),
        ("meta.bn_momentum", (1, 2)), ("opt.lr0", (2, 1)),
        ("v.x.w2", (5, 3)), ("v.x.gamma", (1, 5))])
    def test_record_of_wrong_shape(self, tmp_path, name, shape):
        records = self.records()
        records[name] = np.zeros(shape)
        self.assert_rejected(tmp_path, records, name.removeprefix("v."))

    @pytest.mark.parametrize("name", ["v.x.running_mean", "v.z.w1",
                                      "v.y.w3"])
    def test_velocity_for_unknown_tensor(self, tmp_path, name):
        records = self.records()
        records[name] = np.zeros((1, 4))
        self.assert_rejected(tmp_path, records, "velocity for unknown")

    @pytest.mark.parametrize("name, value", [
        ("meta.bn_eps", -5.0), ("meta.bn_eps", 0.0),
        ("meta.bn_momentum", 1.5), ("meta.bn_momentum", -0.1),
        ("opt.lr0", -1.0), ("opt.lr0", 0.0), ("opt.momentum", 5.0),
        ("opt.momentum", 1.0), ("opt.weight_decay", -1.0),
        ("opt.epoch", -2.0)])
    def test_setting_out_of_range(self, tmp_path, name, value):
        records = self.records()
        records[name] = np.full((1, 1), value)
        self.assert_rejected(tmp_path, records, name.split(".")[1])

    def test_unrecognized_record(self, tmp_path):
        records = self.records()
        records["x.w3"] = np.zeros((1, 1))
        self.assert_rejected(tmp_path, records, "unrecognized records")

    def test_branch_embed_dims_differ(self, tmp_path):
        records = self.records()
        narrow = nw.init_params(nw.BranchSpec(6, 5, 3),
                                nw.BranchSpec(7, 5, 3), seed=9)
        for name, mat in oracles.checkpoint_records(
                narrow, nw.OptimizerState()).items():
            if name.startswith("y."):
                records[name] = mat
        for name in [n for n in records if n.startswith("v.")]:
            del records[name]
        self.assert_rejected(tmp_path, records, "embed dims differ")
