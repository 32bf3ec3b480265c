"""Layer primitive tests against naive oracles and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twobranch import network as nw
from twobranch import tensor_core as tc
from twobranch.errors import (BatchTooSmallError, ConfigError,
                              ContractViolationError, DimensionError)
from twobranch.gradcheck import central_difference, max_relative_error


def naive_matmul_bias(inp, weight, bias):
    """Triple-loop affine oracle."""
    n, d_in = inp.shape
    d_out = weight.shape[1]
    out = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            acc = bias[j]
            for k in range(d_in):
                acc += inp[i, k] * weight[k, j]
            out[i, j] = acc
    return out


def naive_distances(a, b):
    """Per-pair loop oracle for the distance matrix."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i, j] = np.sqrt(((a[i] - b[j]) ** 2).sum())
    return out


def distance_backward(a, b, dist, grad_dist):
    """pairwise_distances' backward as the hinge loss runs it: the
    weights, then each input's side."""
    w = tc.distance_weights(dist, grad_dist)
    return (tc.distance_side_grad(w, a, b, "a"),
            tc.distance_side_grad(w, a, b, "b"))


def assert_out_keeps_bits(run, x, in_place=False):
    """run(x, out), a layer forward's output with its other inputs
    bound, is a given C-contiguous float64 ``out`` holding the bits of
    out=None; with ``in_place`` also when ``out`` is (a float64 copy of)
    x."""
    want = run(x, None)
    buf = np.full(want.shape, np.nan)
    got = run(x, buf)
    assert got is buf and buf.tobytes() == want.tobytes()
    if in_place:
        x = np.array(x, dtype=np.float64)
        got = run(x, x)
        assert got is x and x.tobytes() == want.tobytes()


FORWARDS = {
    "affine": lambda x, out: tc.affine_forward(x, np.ones((3, 2)),
                                               np.zeros(2), out=out),
    "relu": lambda x, out: tc.relu_forward(x, out=out),
    "dropout": lambda x, out: tc.dropout_forward(
        x, 0.5, "train", out=out,
        draws=np.random.default_rng(0).random(np.shape(x))),
    "batchnorm": lambda x, out: tc.batchnorm_forward(
        x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), "eval",
        out=out)[0],
    "l2": lambda x, out: tc.l2_normalize_rows(x, out=out)[0],
}


@pytest.mark.parametrize("forward", FORWARDS)
@pytest.mark.parametrize("bad", ["float32", "shape", "fortran"])
def test_forward_rejects_unusable_out(forward, bad):
    x = np.random.default_rng(22).normal(size=(4, 3))
    want = FORWARDS[forward](x, None)
    out = {"float32": np.empty(want.shape, np.float32),
           "shape": np.empty((want.shape[0] + 1, want.shape[1])),
           "fortran": np.empty(want.shape, order="F")}[bad]
    with pytest.raises(ContractViolationError):
        FORWARDS[forward](x, out)


class TestAffine:
    def test_identity_weight(self):
        out = tc.affine_forward(np.array([[1.0, 2.0]]),
                                np.eye(2), np.zeros(2))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_hand_example(self):
        out = tc.affine_forward(np.array([[1.0, 2.0]]),
                                np.array([[3.0], [4.0]]),
                                np.array([1.0]))
        assert np.array_equal(out, [[12.0]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        inp = rng.normal(size=(5, 7))
        w = rng.normal(size=(7, 3))
        b = rng.normal(size=3)
        out = tc.affine_forward(inp, w, b)
        assert np.allclose(out, naive_matmul_bias(inp, w, b), atol=1e-12)
        for x in (inp, inp.astype(np.float32)):
            assert_out_keeps_bits(
                lambda x, out: tc.affine_forward(x, w, b, out=out), x)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            tc.affine_forward(np.ones((2, 3)), np.ones((4, 2)), np.zeros(2))
        with pytest.raises(DimensionError):
            tc.affine_forward(np.ones((2, 3)), np.ones((3, 2)), np.zeros(5))

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        inp = rng.normal(size=(4, 5))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        g = rng.normal(size=(4, 3))

        gw, gb = tc.affine_param_backward(g, inp)
        gw = np.asarray(gw)
        gi = tc.affine_input_backward(g, w)

        def loss():
            return float((tc.affine_forward(inp, w, b) * g).sum())

        assert max_relative_error(gw, central_difference(loss, w)) < 1e-6
        assert max_relative_error(gi, central_difference(loss, inp)) < 1e-6
        assert max_relative_error(gb, central_difference(loss, b)) < 1e-6

    def test_input_gradient_by_rows(self):
        # affine_input_backward forms the rows of the whole grad_x for
        # any rows of grad_out, into a given buffer
        rng = np.random.default_rng(14)
        w, g = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        want = tc.affine_input_backward(g, w)
        got = np.empty((7, 5))
        for start, stop in ((0, 2), (2, 5), (5, 7)):
            tc.affine_input_backward(g[start:stop], w, out=got[start:stop])
        assert got.tobytes() == want.tobytes()

    def test_param_backward_shape_mismatch(self):
        with pytest.raises(DimensionError):
            tc.affine_param_backward(np.ones((3, 2)), np.ones((2, 3)))


class TestWeightGradSlabs:
    """network.sgd_step forms a weight gradient in row slabs of two or
    more rows, and its bits match the whole product's only while every
    such slab has the bits of the whole product's rows.  A float32 x
    reaches a WeightGrad only through affine_param_backward, which
    widens it once: the bits must be those of the product over the
    widened x.  A BLAS that breaks these assumptions fails here first."""

    @staticmethod
    def assert_slabs_match(n, d_in, d_out, heights, starts=None,
                           dtype=np.float64):
        """rows() of every slab of 2 or more rows of
        affine_param_backward's WeightGrad, in slabs of each height from
        row 0 on, equals those rows of x.T @ g over float64 bitwise,
        also when formed into a given buffer; the slabs checked may be
        limited to those whose start is in ``starts``."""
        rng = np.random.default_rng(d_in)
        x = rng.normal(size=(n, d_in)).astype(dtype)
        g = rng.normal(size=(n, d_out))
        lazy, _ = tc.affine_param_backward(g, x)
        assert lazy.x.dtype == np.float64
        whole = x.astype(np.float64).T @ g
        assert lazy.shape == whole.shape
        assert np.asarray(lazy).tobytes() == whole.tobytes()
        for height in heights:
            for start in range(0, d_in, height):
                stop = min(start + height, d_in)
                if stop - start < 2 or (starts is not None
                                        and start not in starts):
                    continue
                assert lazy.rows(start, stop).tobytes() == \
                    whole[start:stop].tobytes(), (height, start)
                # sgd_step forms slabs into buffers of its own
                out = np.empty((stop - start, d_out))
                assert lazy.rows(start, stop, out=out) is out
                assert out.tobytes() == whole[start:stop].tobytes()

    TEST_SHAPES = [(7, 6, 5), (7, 7, 5), (6, 20, 24), (6, 16, 24),
                   (8, 300, 400), (8, 350, 400)]

    @pytest.mark.parametrize("n, d_in, d_out", TEST_SHAPES)
    def test_every_height_at_test_shapes(self, n, d_in, d_out):
        self.assert_slabs_match(n, d_in, d_out, range(2, d_in + 1))

    @pytest.mark.parametrize("n, d_in, d_out", TEST_SHAPES)
    def test_every_height_of_float32_input(self, n, d_in, d_out):
        self.assert_slabs_match(n, d_in, d_out, range(2, d_in + 1),
                                dtype=np.float32)

    @staticmethod
    def assert_paper_shape_slabs_match(dtype):
        # 689 rows: a 500-pair batch with augmentation; 512 rows is the
        # update's slab height at 2048 columns, 5998 leaves a tail of 2;
        # the small heights are checked on their first slabs and tail
        d_in = 6000
        TestWeightGradSlabs.assert_slabs_match(
            689, d_in, 2048, (512, 513, 5998), dtype=dtype)
        TestWeightGradSlabs.assert_slabs_match(
            689, d_in, 2048, (2, 3, 7),
            starts=set(range(64)) | set(range(d_in - 9, d_in)),
            dtype=dtype)

    def test_paper_shape(self):
        self.assert_paper_shape_slabs_match(np.float64)

    def test_paper_shape_of_float32_input(self):
        self.assert_paper_shape_slabs_match(np.float32)

    def test_second_layer_paper_shape(self):
        # the second layer's gradient, a float64 hidden layer's
        self.assert_slabs_match(680, 2048, 512, (1024, 2048, 1000))
        self.assert_slabs_match(190, 2048, 512, (2, 3),
                                starts={0, 2, 3, 2044, 2045, 2046})

    @pytest.mark.parametrize("slab_floats, dims", [
        (15, (6, 7, 5)), (25, (6, 7, 5)), (256, (1025, 513, 64))])
    def test_one_row_remainder_matches_oracle(self, monkeypatch,
                                              slab_floats, dims):
        # a branch whose d_in leaves one row after its last full slab
        # folds that row into the slab before; two steps by
        # backward_and_step match the out-of-place oracle bit for bit
        d_in_x, d_in_y, hidden = dims
        height = slab_floats // hidden
        assert 1 in (d_in_x % height, d_in_y % height)
        monkeypatch.setattr(nw, "GRAD_SLAB_FLOATS", slab_floats)
        states = []
        for slabbed in (True, False):
            p = nw.init_params(nw.BranchSpec(d_in_x, hidden, 4, 0.3),
                               nw.BranchSpec(d_in_y, hidden, 4, 0.3), seed=3)
            opt = nw.OptimizerState()
            rng = np.random.default_rng(3)
            for _ in range(2):
                ex, tx = nw.forward_branch(
                    p, "x", rng.normal(size=(6, d_in_x)), "train", rng=rng)
                ey, ty = nw.forward_branch(
                    p, "y", rng.normal(size=(6, d_in_y)), "train", rng=rng)
                gx, gy = rng.normal(size=ex.shape), rng.normal(size=ey.shape)
                if slabbed:
                    nw.backward_and_step(p, opt, tx, ty, gx, gy)
                    continue
                grads = {f"x.{k}": g
                         for k, g in nw.backward_branch(tx, gx).items()}
                grads.update({f"y.{k}": g
                              for k, g in nw.backward_branch(ty, gy).items()})
                oracles.out_of_place_sgd_step(p, opt, grads)
            states.append((p, opt))
        (got, got_opt), (want, want_opt) = states
        for (name, a), (_, b) in zip(nw._learned_tensors(got),
                                     nw._learned_tensors(want)):
            assert a.tobytes() == b.tobytes(), name
            assert got_opt.velocity[name].tobytes() == \
                want_opt.velocity[name].tobytes(), name


class TestRelu:
    def test_hand_example(self):
        out = tc.relu_forward(np.array([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_keeps_bits(self, dtype):
        x = np.random.default_rng(23).normal(size=(6, 5)).astype(dtype)
        x[0, :2] = 0.0, -0.0
        assert_out_keeps_bits(lambda x, out: tc.relu_forward(x, out=out),
                              x, in_place=True)

    def test_all_negative(self):
        out = tc.relu_forward(-np.ones((3, 3)))
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_backward_mask_and_zero_at_kink(self):
        inp = np.array([[-1.0, 0.0, 2.0]])
        mask = np.empty(inp.shape, dtype=bool)
        tc.relu_forward(inp, mask=mask)
        g = tc.relu_backward(np.array([[5.0, 7.0, 9.0]]), mask)
        assert np.array_equal(g, [[0.0, 0.0, 9.0]])

    def test_given_mask_and_out_keep_bits(self):
        # the mask forms in a given array a row slab at a time, and the
        # backward runs in place over each slab of grad_out with the
        # same rows of the mask, with the bits of one call over all rows
        rng = np.random.default_rng(24)
        x, g = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        want_mask = np.empty(x.shape, dtype=bool)
        want = tc.relu_forward(x, mask=want_mask)
        assert np.array_equal(want_mask, x > 0.0)
        mask = np.empty(x.shape, dtype=bool)
        got = x.copy()
        for start, stop in ((0, 2), (2, 6)):
            rows = got[start:stop]
            assert tc.relu_forward(rows, out=rows,
                                   mask=mask[start:stop]) is rows
        assert got.tobytes() == want.tobytes()
        assert mask.tobytes() == want_mask.tobytes()
        want_g = tc.relu_backward(g, want_mask)
        for start, stop in ((0, 2), (2, 6)):
            rows = g[start:stop]
            assert tc.relu_backward(rows, mask[start:stop], out=rows) is rows
        assert g.tobytes() == want_g.tobytes()
        with pytest.raises(DimensionError):
            tc.relu_backward(g[:2], mask)


class TestBatchNorm:
    def test_two_point_column(self):
        x = np.array([[1.0], [3.0]])
        out, _ = tc.batchnorm_forward(x, np.ones(1), np.zeros(1),
                                      np.zeros(1), np.ones(1), "train",
                                      0.1, 1e-5)
        assert np.abs(out - np.array([[-1.0], [1.0]])).max() < 1e-2

    def test_gamma_zero_gives_beta(self):
        x = np.random.default_rng(2).normal(size=(6, 3))
        beta = np.array([1.0, -2.0, 0.5])
        out, _ = tc.batchnorm_forward(x, np.zeros(3), beta, np.zeros(3),
                                      np.ones(3), "train", 0.1, 1e-5)
        assert np.allclose(out, np.broadcast_to(beta, out.shape))

    def test_train_standardizes_columns(self):
        x = np.random.default_rng(3).normal(loc=5.0, scale=3.0, size=(64, 4))
        out, _ = tc.batchnorm_forward(x, np.ones(4), np.zeros(4),
                                      np.zeros(4), np.ones(4), "train",
                                      0.1, 1e-5)
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_out_keeps_bits(self, mode):
        rng = np.random.default_rng(24)
        x = rng.normal(loc=2.0, scale=3.0, size=(9, 4))
        gamma, beta, r_mean = (rng.normal(size=4) for _ in range(3))
        r_var = rng.uniform(0.5, 2.0, size=4)
        stats = []

        def run(x, out):
            # each call updates fresh copies of the running statistics
            m, v = r_mean.copy(), r_var.copy()
            stats.append((m, v))
            return tc.batchnorm_forward(x, gamma, beta, m, v, mode, 0.1,
                                        1e-5, out=out)[0]

        assert_out_keeps_bits(run, x, in_place=True)
        for m, v in stats[1:]:
            assert m.tobytes() == stats[0][0].tobytes()
            assert v.tobytes() == stats[0][1].tobytes()

    def test_running_stats_update_rule(self):
        x = np.random.default_rng(4).normal(size=(8, 2))
        r_mean = np.array([1.0, -1.0])
        r_var = np.array([2.0, 0.5])
        got_mean, got_var = r_mean.copy(), r_var.copy()
        tc.batchnorm_forward(x, np.ones(2), np.zeros(2), got_mean, got_var,
                             "train", 0.1, 1e-5)
        want_mean = 0.9 * r_mean + 0.1 * x.mean(axis=0)
        want_var = 0.9 * r_var + 0.1 * x.var(axis=0)
        assert np.allclose(got_mean, want_mean, atol=1e-15)
        assert np.allclose(got_var, want_var, atol=1e-15)

    def test_eval_uses_running_stats(self):
        x = np.array([[2.0, 4.0]])
        out, tape = tc.batchnorm_forward(x, np.ones(2), np.zeros(2),
                                         np.array([1.0, 1.0]),
                                         np.array([4.0, 9.0]), "eval",
                                         0.1, 0.0)
        assert np.allclose(out, [[0.5, 1.0]])
        assert tape is None

    def test_train_needs_two_rows(self):
        with pytest.raises(BatchTooSmallError):
            tc.batchnorm_forward(np.ones((1, 2)), np.ones(2), np.zeros(2),
                                 np.zeros(2), np.ones(2), "train", 0.1, 1e-5)

    def test_unknown_mode(self):
        with pytest.raises(ContractViolationError):
            tc.batchnorm_forward(np.ones((2, 2)), np.ones(2), np.zeros(2),
                                 np.zeros(2), np.ones(2), "predict",
                                 0.1, 1e-5)

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 4))
        gamma = rng.normal(size=4)
        beta = rng.normal(size=4)
        g = rng.normal(size=(8, 4))

        _, tape = tc.batchnorm_forward(x, gamma, beta, np.zeros(4),
                                       np.ones(4), "train", 0.1, 1e-5)
        gx, ggamma, gbeta = tc.batchnorm_backward(g, tape)

        def loss():
            o, _ = tc.batchnorm_forward(x, gamma, beta, np.zeros(4),
                                        np.ones(4), "train", 0.1, 1e-5)
            return float((o * g).sum())

        assert max_relative_error(gx, central_difference(loss, x)) < 1e-6
        assert max_relative_error(
            ggamma, central_difference(loss, gamma)) < 1e-6
        assert max_relative_error(
            gbeta, central_difference(loss, beta)) < 1e-6

    def test_backward_once_per_tape(self):
        _, tape = tc.batchnorm_forward(np.eye(3), np.ones(3), np.zeros(3),
                                       np.zeros(3), np.ones(3), "train")
        tc.batchnorm_backward(np.ones((3, 3)), tape)
        with pytest.raises(ContractViolationError, match="BatchNormTape"):
            tc.batchnorm_backward(np.ones((3, 3)), tape)


def uniform_draws(shape, seed):
    return np.random.default_rng(seed).random(shape)


class TestDropout:
    def test_p_zero_identity(self):
        x = np.random.default_rng(6).normal(size=(4, 4))
        out = tc.dropout_forward(x, 0.0, "train",
                                 draws=np.full(x.shape, np.nan))
        assert np.array_equal(out, x)

    def test_eval_identity(self):
        x = np.random.default_rng(7).normal(size=(4, 4))
        out = tc.dropout_forward(x, 0.9, "eval")
        assert np.array_equal(out, x)

    def test_invalid_p(self):
        with pytest.raises(ConfigError):
            tc.dropout_forward(np.ones((2, 2)), 1.0, "train",
                               draws=uniform_draws((2, 2), 0))

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_train_requires_usable_draws(self, p):
        x = np.ones((3, 2))
        for draws in (None, np.full((2, 3), 0.5), np.full((3, 2), 0.5, "f4"),
                      np.full((3, 2), 0.5, order="F")):
            with pytest.raises(ContractViolationError):
                tc.dropout_forward(x, p, "train", draws=draws)

    def test_monte_carlo_expectation(self):
        x = np.ones((2000, 50))
        out = tc.dropout_forward(x, 0.5, "train",
                                 draws=uniform_draws(x.shape, 8))
        assert abs(out.mean() - x.mean()) / abs(x.mean()) < 0.05

    def test_survivors_scaled(self):
        x = np.ones((10, 10))
        out = tc.dropout_forward(x, 0.5, "train",
                                 draws=uniform_draws(x.shape, 9))
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_given_draws_keep_bits(self, p):
        # a mask drawn whole and applied a row slab at a time, in place,
        # has the bits of one call over all rows, forward and backward,
        # the backward reading each slab's rows of the scaled mask
        rng = np.random.default_rng(12)
        x, g = rng.normal(size=(7, 4)), rng.normal(size=(7, 4))
        want_mask = uniform_draws(x.shape, 13)
        want = tc.dropout_forward(x, p, "train", draws=want_mask)
        draws = uniform_draws(x.shape, 13) if p else np.empty(x.shape)
        got = x.copy()
        for start, stop in ((0, 3), (3, 7)):
            rows = got[start:stop]
            assert tc.dropout_forward(rows, p, "train", out=rows,
                                      draws=draws[start:stop]) is rows
        assert got.tobytes() == want.tobytes()
        assert draws.tobytes() == want_mask.tobytes()
        want_g = tc.dropout_backward(g, want_mask)
        for start, stop in ((0, 3), (3, 7)):
            rows = g[start:stop]
            assert tc.dropout_backward(rows, draws[start:stop],
                                       out=rows) is rows
        assert g.tobytes() == want_g.tobytes()

    def test_backward_uses_same_mask(self):
        x = np.random.default_rng(10).normal(size=(5, 5))
        scaled_mask = uniform_draws(x.shape, 11)
        out = tc.dropout_forward(x, 0.5, "train", draws=scaled_mask)
        mask = out != 0
        g = np.ones_like(x)
        gx = tc.dropout_backward(g, scaled_mask)
        assert np.array_equal(gx != 0, mask)
        assert np.allclose(gx[mask], 2.0)


class TestL2Normalize:
    def test_three_four_row(self):
        out, _ = tc.l2_normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_backward_hand_example(self):
        v = np.array([[3.0, 4.0]])
        _, tape = tc.l2_normalize_rows(v)
        g = tc.l2_normalize_rows_backward(np.array([[1.0, 0.0]]), tape)
        assert np.allclose(g, [[0.128, -0.096]], atol=1e-12)

    def test_out_keeps_bits(self):
        v = np.random.default_rng(25).normal(size=(7, 5))
        v[3] = 0.0
        assert_out_keeps_bits(
            lambda x, out: tc.l2_normalize_rows(x, out=out)[0], v)
        assert_out_keeps_bits(
            lambda x, out: tc.l2_normalize_rows(x, out=out)[0],
            v.astype(np.float32))

    def test_out_overlapping_x_rejected(self):
        # the squares would overwrite x before the norms read it
        block = np.random.default_rng(26).normal(size=(5, 3))
        before = block.copy()
        for x, out in ((block, block), (block[:4], block[1:])):
            with pytest.raises(ContractViolationError):
                tc.l2_normalize_rows(x, out=out)
        assert block.tobytes() == before.tobytes()

    def test_unit_row_unchanged(self):
        v = np.array([[0.6, 0.8]])
        out, _ = tc.l2_normalize_rows(v)
        assert np.allclose(out, v, atol=1e-15)

    def test_gradient_orthogonal_to_row(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=(6, 5)) + 0.5
        out, tape = tc.l2_normalize_rows(v)
        g = tc.l2_normalize_rows_backward(rng.normal(size=(6, 5)), tape)
        dots = (g * v).sum(axis=1)
        assert np.abs(dots).max() < 1e-10

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=(5, 4)) + 0.3
        g = rng.normal(size=(5, 4))
        _, tape = tc.l2_normalize_rows(v)
        gx = tc.l2_normalize_rows_backward(g, tape)

        def loss():
            return float((tc.l2_normalize_rows(v)[0] * g).sum())

        assert max_relative_error(gx, central_difference(loss, v)) < 1e-6

    def test_backward_once_per_tape(self):
        _, tape = tc.l2_normalize_rows(np.eye(3))
        tc.l2_normalize_rows_backward(np.ones((3, 3)), tape)
        with pytest.raises(ContractViolationError, match="L2NormTape"):
            tc.l2_normalize_rows_backward(np.ones((3, 3)), tape)


class TestPairwiseDistances:
    def test_single_identical_point(self):
        a = np.array([[1.0, 2.0]])
        assert np.array_equal(tc.pairwise_distances(a, a), [[0.0]])

    def test_three_four_five(self):
        d = tc.pairwise_distances(np.array([[0.0, 0.0]]),
                                  np.array([[3.0, 4.0]]))
        assert np.allclose(d, [[5.0]], atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(10, 6))
        b = rng.normal(size=(12, 6))
        d = tc.pairwise_distances(a, b)
        assert np.abs(d - naive_distances(a, b)).max() < 1e-9

    def test_self_distance_zero_diag_symmetric(self):
        a = np.random.default_rng(15).normal(size=(9, 4))
        d = tc.pairwise_distances(a, a)
        assert np.array_equal(np.diag(d), np.zeros(9))
        assert np.array_equal(d, d.T)

    def test_nonnegative_under_near_duplicates(self):
        a = np.ones((50, 8)) + 1e-9 * np.random.default_rng(16).normal(
            size=(50, 8))
        d = tc.pairwise_distances(a, a)
        assert (d >= 0).all()

    def test_small_entries_equal_direct_norm(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(6, 5))
        b = rng.normal(size=(7, 5))
        for j, gap in enumerate([0.0, 1e-12, 1e-9, 1e-7, 1e-4]):
            b[j] = a[j] + gap * rng.normal(size=5)
        d = tc.pairwise_distances(a, b)
        direct = naive_distances(a, b)
        small = direct < 1e-2
        assert small.sum() == 5
        assert np.array_equal(d[small], direct[small])

    def test_near_duplicates_zero_diag_symmetric(self, monkeypatch):
        # every entry is small; a tiny chunk recomputes them in 50 pieces
        monkeypatch.setattr(tc, "DIRECT_CHUNK_FLOATS", 64)
        a = np.ones((20, 8)) + 1e-9 * np.random.default_rng(20).normal(
            size=(20, 8))
        a[5] = a[3]
        d = tc.pairwise_distances(a, a)
        assert np.array_equal(np.diag(d), np.zeros(20))
        assert np.array_equal(d, d.T)
        assert d[3, 5] == 0.0
        assert np.array_equal(d, naive_distances(a, a))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            tc.pairwise_distances(np.ones((2, 3)), np.ones((2, 4)))

    def test_backward_single_pair_unit_vector(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([[4.0, 5.0]])
        d = tc.pairwise_distances(a, b)
        ga, gb = distance_backward(a, b, d, np.array([[1.0]]))
        assert np.allclose(ga, (a - b) / 5.0, atol=1e-12)
        assert np.allclose(gb, (b - a) / 5.0, atol=1e-12)

    def test_backward_identical_points_zero_gradient(self):
        a = np.array([[2.0, 3.0]])
        d = tc.pairwise_distances(a, a.copy())
        ga, gb = distance_backward(a, a.copy(), d, np.array([[1.0]]))
        assert np.array_equal(ga, np.zeros_like(a))
        assert np.array_equal(gb, np.zeros_like(a))

    def test_backward_ignores_coincident_pair_among_others(self):
        # A coincident pair contributes nothing, so adding one must not
        # move the gradient the other pairs produce.
        rng = np.random.default_rng(21)
        a = rng.normal(size=(2, 4))
        b = rng.normal(size=(3, 4))
        b[0] = a[0]
        g = rng.normal(size=(2, 3))
        d = tc.pairwise_distances(a, b)
        ga, gb = distance_backward(a, b, d, g)
        g_without = g.copy()
        g_without[0, 0] = 0.0
        ga0, gb0 = distance_backward(a, b, d, g_without)
        assert np.abs(ga - ga0).max() < 1e-12
        assert np.abs(gb - gb0).max() < 1e-12

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(6, 3)) + 2.0
        g = rng.normal(size=(5, 6))
        d = tc.pairwise_distances(a, b)
        ga, gb = distance_backward(a, b, d, g)

        def loss():
            return float((tc.pairwise_distances(a, b) * g).sum())

        assert max_relative_error(ga, central_difference(loss, a)) < 1e-6
        assert max_relative_error(gb, central_difference(loss, b)) < 1e-6


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_distance_matrix_properties(n, m, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d))
    b = rng.normal(size=(m, d))
    dist = tc.pairwise_distances(a, b)
    assert dist.shape == (n, m)
    assert (dist >= 0).all()
    assert np.abs(dist - naive_distances(a, b)).max() < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_l2_normalize_row_norm_property(n, d, seed):
    rows = np.random.default_rng(seed).normal(size=(n, d)) * 3.0
    out, _ = tc.l2_normalize_rows(rows)
    assert_out_keeps_bits(
        lambda x, out: tc.l2_normalize_rows(x, out=out)[0], rows)
    norms = np.linalg.norm(out, axis=1)
    big = np.linalg.norm(rows, axis=1) > 1e-12
    assert np.allclose(norms[big], 1.0, atol=1e-12)
