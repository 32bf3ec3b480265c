"""Central-difference gradient checking.

Used by the test suite and exposed through the command line so a
trained setup can be spot-checked.  All checks run in float64; the
probe step PROBE_STEP balances truncation against round-off for the
unit-scale values used here.
"""

import numpy as np

# Relative error uses a small absolute floor so entries whose true
# gradient is exactly zero are judged against round-off noise instead
# of dividing by zero.
REL_FLOOR = 1e-6

PROBE_STEP = 1e-5

# run_full_loss_check drops mined triplets that violate by less than
# this, so that no hinge kink sits within reach of the probes.
KINK_MARGIN = 1e-3


def central_difference(f, x):
    """Numerically estimate df/dx at x for scalar-valued f.

    f is called with no arguments and must read x's current contents;
    entries of x are perturbed in place and restored afterwards.

    Args:
        f: callable returning a float.
        x: float64 array, perturbed in place.

    Returns:
        array of x's shape holding (f(x+h) - f(x-h)) / (2h) per entry,
        for h = PROBE_STEP.
    """
    h = PROBE_STEP
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        f_plus = f()
        flat_x[i] = orig - h
        f_minus = f()
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric):
    """Largest elementwise relative error between two gradient arrays."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ValueError(
            f"gradient shapes differ: {analytic.shape} vs {numeric.shape}"
        )
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                       REL_FLOOR)
    return float((np.abs(analytic - numeric) / denom).max())


def check_gradient(f, x, analytic_grad):
    """Convenience wrapper: central difference then max relative error."""
    numeric = central_difference(f, x)
    return max_relative_error(analytic_grad, numeric)


# ---------------------------------------------------------------------------
# check suite
#
# Layer-by-layer and end-to-end checks used by both the test suite and
# the grad-check command.  Inputs are drawn away from the kinks (ReLU
# corners, hinge boundaries) so the central difference is trustworthy.


def _weighted_sum(out, weights):
    return float((out * weights).sum())


def run_layer_checks(seed):
    """Finite-difference every layer primitive once, through the
    backward forms that training runs.

    Returns:
        dict mapping check name to max relative error.
    """
    from . import tensor_core as tc

    rng = np.random.default_rng(seed)
    results = {}
    n, d_in, d_out = 4, 6, 3

    x = rng.normal(size=(n, d_in))
    w = rng.normal(size=(d_in, d_out)) * 0.5
    b = rng.normal(size=d_out) * 0.1
    weights = rng.normal(size=(n, d_out))

    def affine_value():
        return _weighted_sum(tc.affine_forward(x, w, b), weights)

    gw, gb = tc.affine_param_backward(weights.copy(), x)
    gx = tc.affine_input_backward(weights, w)
    results["affine/x"] = check_gradient(affine_value, x, gx)
    results["affine/w"] = check_gradient(affine_value, w, np.asarray(gw))
    results["affine/b"] = check_gradient(affine_value, b, gb)

    # keep entries away from the ReLU corner
    x = rng.normal(size=(n, d_in))
    x += np.sign(x) * 0.2
    weights = rng.normal(size=x.shape)
    mask = np.empty(x.shape, dtype=bool)
    tc.relu_forward(x, mask=mask)
    g = tc.relu_backward(weights, mask)
    results["relu/x"] = check_gradient(
        lambda: _weighted_sum(tc.relu_forward(x), weights), x, g)

    x = rng.normal(size=(5, d_in))
    gamma = rng.uniform(0.5, 1.5, size=d_in)
    beta = rng.normal(size=d_in) * 0.1
    weights = rng.normal(size=x.shape)

    def bn_value():
        out, _ = tc.batchnorm_forward(
            x, gamma, beta, np.zeros(d_in), np.ones(d_in), "train")
        return _weighted_sum(out, weights)

    _, tape = tc.batchnorm_forward(
        x, gamma, beta, np.zeros(d_in), np.ones(d_in), "train")
    gx, ggamma, gbeta = tc.batchnorm_backward(weights.copy(), tape)
    results["batchnorm/x"] = check_gradient(bn_value, x, gx)
    results["batchnorm/gamma"] = check_gradient(bn_value, gamma, ggamma)
    results["batchnorm/beta"] = check_gradient(bn_value, beta, gbeta)

    # draws from a fixed generator seed pin the mask, making dropout
    # deterministic
    x = rng.normal(size=(n, d_in))
    weights = rng.normal(size=x.shape)
    mask_seed = int(rng.integers(1 << 31))

    def draws():
        return np.random.default_rng(mask_seed).random(x.shape)

    scaled_mask = draws()
    tc.dropout_forward(x, 0.5, "train", draws=scaled_mask)
    g = tc.dropout_backward(weights, scaled_mask)
    results["dropout/x"] = check_gradient(
        lambda: _weighted_sum(
            tc.dropout_forward(x, 0.5, "train", draws=draws()), weights),
        x, g)

    x = rng.normal(size=(n, d_in)) + 1.0
    weights = rng.normal(size=x.shape)
    _, tape = tc.l2_normalize_rows(x)
    g = tc.l2_normalize_rows_backward(weights.copy(), tape)
    results["l2norm/x"] = check_gradient(
        lambda: _weighted_sum(tc.l2_normalize_rows(x)[0], weights), x, g)

    a = rng.normal(size=(n, d_in))
    bb = rng.normal(size=(n + 1, d_in)) + 2.0
    weights = rng.normal(size=(n, n + 1))

    def dist_value():
        return _weighted_sum(tc.pairwise_distances(a, bb), weights)

    wd = tc.distance_weights(tc.pairwise_distances(a, bb), weights)
    results["pairwise/a"] = check_gradient(
        dist_value, a, tc.distance_side_grad(wd, a, bb, "a"))
    results["pairwise/b"] = check_gradient(
        dist_value, bb, tc.distance_side_grad(wd, a, bb, "b"))
    return results


def _loss_fixture(seed):
    """A frozen tiny batch: params, inputs, batch masks, config, dropout
    seed."""
    from types import SimpleNamespace

    from .loss_mining import LossConfig
    from .network import BranchSpec, init_params

    rng = np.random.default_rng(seed)
    nx, ny = 5, 7
    spec_x = BranchSpec(input_dim=6, hidden_dim=5, embed_dim=4,
                        dropout_p=0.5)
    spec_y = BranchSpec(input_dim=8, hidden_dim=5, embed_dim=4,
                        dropout_p=0.5)
    params = init_params(spec_x, spec_y, seed=seed)
    inp_x = rng.normal(size=(nx, 6))
    inp_y = rng.normal(size=(ny, 8))
    # x row i pairs with y row i; x0 and x1 each have a second sentence,
    # y5 and y6, which makes {y0, y5} and {y1, y6} neighborhoods
    pos = np.eye(nx, ny, dtype=bool)
    pos[[0, 1], [5, 6]] = True
    batch = SimpleNamespace(pos=pos, x_nb=np.eye(nx, dtype=bool),
                            y_nb=pos.T @ pos,
                            owner=np.full(nx, -1, dtype=np.int64))
    cfg = LossConfig(margin=0.2, lambda1=2.0, lambda2=0.4, lambda3=0.2,
                     top_k=50)
    dropout_seed = int(rng.integers(1 << 31))
    return params, inp_x, inp_y, batch, cfg, dropout_seed


def run_full_loss_check(seed):
    """Check d(loss)/d(params) through both branches end to end.

    Triplets are mined once at the starting point and frozen, dropout
    masks are pinned by a fixed generator seed, and mined triplets
    violating by less than KINK_MARGIN are dropped.  The loss at each
    perturbed point reads its own view_distances.

    Returns:
        dict mapping parameter name to max relative error.
    """
    from . import loss_mining as lm
    from .network import backward_branch, forward_branch

    params, inp_x, inp_y, batch, cfg, dropout_seed = _loss_fixture(seed)

    def forward():
        rng = np.random.default_rng(dropout_seed)
        emb_x, tapes_x = forward_branch(params, "x", inp_x, "train", rng=rng)
        emb_y, tapes_y = forward_branch(params, "y", inp_y, "train", rng=rng)
        return emb_x, emb_y, tapes_x, tapes_y

    emb_x, emb_y, tapes_x, tapes_y = forward()
    triplets = lm.mine_triplets(emb_x, emb_y, batch, cfg)
    for name, viol in lm.triplet_violations(triplets.dists, triplets,
                                            cfg.margin).items():
        setattr(triplets, name, getattr(triplets, name)[viol > KINK_MARGIN])

    # Checking the per-triplet mean keeps the value near unit scale, so
    # the round-off in the central difference stays far below the
    # tolerance even for parameters whose true gradient is zero (the
    # second bias: batch norm cancels any constant column shift).
    scale = 1.0 / max(1, triplets.total)

    def loss_value():
        ex, ey, _, _ = forward()
        return lm.hinge_loss(ex, ey, lm.view_distances(ex, ey, cfg),
                             triplets, cfg).loss * scale

    result = lm.hinge_loss(emb_x, emb_y, triplets.dists, triplets, cfg)
    grads_x = backward_branch(tapes_x, result.grad_x * scale)
    grads_y = backward_branch(tapes_y, result.grad_y * scale)

    errors = {}
    for branch, grads, bp in (("x", grads_x, params.x),
                              ("y", grads_y, params.y)):
        for attr, grad in grads.items():
            errors[f"loss/{branch}.{attr}"] = check_gradient(
                loss_value, getattr(bp, attr), grad)
    return errors
