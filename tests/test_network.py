"""Two-branch model, optimizer, schedule, and checkpoint tests."""

import os
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from twobranch import network as nw
from twobranch.errors import (ChecksumError, ConfigError,
                              ContractViolationError, DimensionError,
                              FormatError)


def small_params(seed=0, dropout=0.0):
    return nw.init_params(nw.BranchSpec(6, 5, 4, dropout),
                          nw.BranchSpec(7, 5, 4, dropout), seed=seed)


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
            assert same_bits(got[name], g), name

    def test_eval_tape_unusable(self):
        p = small_params(seed=13)
        emb, tapes = nw.forward_branch(
            p, "x", np.random.default_rng(8).normal(size=(4, 6)), "eval")
        with pytest.raises(ConfigError):
            nw.backward_branch(tapes, np.ones_like(emb))

    def test_backward_and_step_reports_norms(self):
        p = small_params(seed=14)
        opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                weight_decay=0.0)
        rng = np.random.default_rng(9)
        ex, tx = nw.forward_branch(p, "x", rng.normal(size=(5, 6)),
                                   "train", rng=rng)
        ey, ty = nw.forward_branch(p, "y", rng.normal(size=(5, 7)),
                                   "train", rng=rng)
        report = nw.backward_and_step(p, opt, tx, ty,
                                      np.ones_like(ex), np.ones_like(ey))
        assert "x.w1" in report and "y.w2" in report
        assert all(v >= 0 for v in report.values())


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
        # about 5 MB: the weights and their velocities dominate
        p = nw.init_params(nw.BranchSpec(300, 400, 64),
                           nw.BranchSpec(350, 400, 64), seed=6)
        opt = nw.OptimizerState()
        nw.sgd_step(p, opt, {name: np.ones_like(t)
                             for name, t in nw._learned_tensors(p)})
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
        # streamed: no copy of the file while saving; loading holds the
        # file once and each tensor once
        assert save_peak < 0.1 * size
        assert load_peak - before < 2.1 * size
        assert np.array_equal(p2.y.w1, p.y.w1)
        assert p2.y.w1.flags.writeable and p2.y.w1.flags.aligned

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
        import hashlib
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
