"""Central-difference gradient checking.

Used by the test suite and exposed through the command line so a
trained setup can be spot-checked.  All checks run in float64; the
probe step defaults to 1e-5, which balances truncation against
round-off for the unit-scale values used here.
"""

import numpy as np

# Relative error uses a small absolute floor so entries whose true
# gradient is exactly zero are judged against round-off noise instead
# of dividing by zero.
REL_FLOOR = 1e-6


def central_difference(f, x, h=1e-5):
    """Numerically estimate df/dx at x for scalar-valued f.

    f is called with no arguments and must read x's current contents;
    entries of x are perturbed in place and restored afterwards.

    Args:
        f: callable returning a float.
        x: float64 array, perturbed in place.
        h: probe step.

    Returns:
        array of x's shape holding (f(x+h) - f(x-h)) / (2h) per entry.
    """
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


def check_gradient(f, x, analytic_grad, h=1e-5):
    """Convenience wrapper: central difference then max relative error."""
    numeric = central_difference(f, x, h=h)
    return max_relative_error(analytic_grad, numeric)


# ---------------------------------------------------------------------------
# check suite
#
# Layer-by-layer and end-to-end checks used by both the test suite and
# the grad-check command.  Inputs are drawn away from the kinks (ReLU
# corners, hinge boundaries) so the central difference is trustworthy.


def _weighted_sum(out, weights):
    return float((out * weights).sum())


def run_layer_checks(seed, h=1e-5):
    """Finite-difference every layer primitive once.

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
    out, tape = tc.affine_forward(x, w, b)
    gx, gw, gb = tc.affine_backward(weights.copy(), tape)
    results["affine/x"] = check_gradient(
        lambda: _weighted_sum(tc.affine_forward(x, w, b)[0], weights),
        x, gx, h)
    results["affine/w"] = check_gradient(
        lambda: _weighted_sum(tc.affine_forward(x, w, b)[0], weights),
        w, gw, h)
    results["affine/b"] = check_gradient(
        lambda: _weighted_sum(tc.affine_forward(x, w, b)[0], weights),
        b, gb, h)

    # keep entries away from the ReLU corner
    x = rng.normal(size=(n, d_in))
    x += np.sign(x) * 0.2
    weights = rng.normal(size=x.shape)
    _, tape = tc.relu_forward(x)
    g = tc.relu_backward(weights.copy(), tape)
    results["relu/x"] = check_gradient(
        lambda: _weighted_sum(tc.relu_forward(x)[0], weights), x, g, h)

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
    results["batchnorm/x"] = check_gradient(bn_value, x, gx, h)
    results["batchnorm/gamma"] = check_gradient(bn_value, gamma, ggamma, h)
    results["batchnorm/beta"] = check_gradient(bn_value, beta, gbeta, h)

    # a fixed generator seed pins the mask, making dropout deterministic
    x = rng.normal(size=(n, d_in))
    weights = rng.normal(size=x.shape)
    mask_seed = int(rng.integers(1 << 31))

    def dropout_value():
        out, _ = tc.dropout_forward(
            x, 0.5, "train", rng=np.random.default_rng(mask_seed))
        return _weighted_sum(out, weights)

    _, tape = tc.dropout_forward(
        x, 0.5, "train", rng=np.random.default_rng(mask_seed))
    g = tc.dropout_backward(weights.copy(), tape)
    results["dropout/x"] = check_gradient(dropout_value, x, g, h)

    x = rng.normal(size=(n, d_in)) + 1.0
    weights = rng.normal(size=x.shape)
    _, tape = tc.l2_normalize_rows(x)
    g = tc.l2_normalize_rows_backward(weights.copy(), tape)
    results["l2norm/x"] = check_gradient(
        lambda: _weighted_sum(tc.l2_normalize_rows(x)[0], weights),
        x, g, h)

    a = rng.normal(size=(n, d_in))
    bb = rng.normal(size=(n + 1, d_in)) + 2.0
    weights = rng.normal(size=(n, n + 1))

    def dist_value():
        return _weighted_sum(tc.pairwise_distances(a, bb), weights)

    dist = tc.pairwise_distances(a, bb)
    ga, gb2 = tc.pairwise_distance_backward(a, bb, dist, weights)
    results["pairwise/a"] = check_gradient(dist_value, a, ga, h)
    results["pairwise/b"] = check_gradient(dist_value, bb, gb2, h)
    return results


def _loss_fixture(seed):
    """A frozen tiny batch: params, inputs, graph, config, dropout seed."""
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
    pairs = [(i, i) for i in range(nx)] + [(0, 5), (1, 6)]
    y_nb = [set() for _ in range(ny)]
    for grouped in ([0, 5], [1, 6]):
        for a in grouped:
            y_nb[a].update(grouped)
    graph = SimpleNamespace(
        pos_pairs=np.array(pairs, dtype=np.int64),
        x_neighbors=[{i} for i in range(nx)],
        y_neighbors=[s | {j} for j, s in enumerate(y_nb)],
    )
    cfg = LossConfig(margin=0.2, lambda1=2.0, lambda2=0.4, lambda3=0.2,
                     top_k=50)
    dropout_seed = int(rng.integers(1 << 31))
    return params, inp_x, inp_y, graph, cfg, dropout_seed


def run_full_loss_check(seed, h=1e-5, kink_margin=1e-3):
    """Check d(loss)/d(params) through both branches end to end.

    Triplets are mined once at the starting point and frozen, dropout
    masks are pinned by a fixed generator seed, and mined triplets
    violating by less than kink_margin are dropped so no hinge kink
    sits within reach of the probes.

    Returns:
        dict mapping parameter name to max relative error.
    """
    from .loss_mining import hinge_loss, mine_triplets, triplet_violations
    from .network import backward_branch, forward_branch

    params, inp_x, inp_y, graph, cfg, dropout_seed = _loss_fixture(seed)

    def forward():
        rng = np.random.default_rng(dropout_seed)
        emb_x, tapes_x = forward_branch(params, "x", inp_x, "train", rng=rng)
        emb_y, tapes_y = forward_branch(params, "y", inp_y, "train", rng=rng)
        return emb_x, emb_y, tapes_x, tapes_y

    emb_x, emb_y, tapes_x, tapes_y = forward()
    triplets = mine_triplets(emb_x, emb_y, graph, cfg)
    _, viols = triplet_violations(emb_x, emb_y, triplets, cfg.margin)
    for name, viol in viols.items():
        setattr(triplets, name, getattr(triplets, name)[viol > kink_margin])

    # Checking the per-triplet mean keeps the value near unit scale, so
    # the round-off in the central difference stays far below the
    # tolerance even for parameters whose true gradient is zero (the
    # second bias: batch norm cancels any constant column shift).
    scale = 1.0 / max(1, triplets.total)

    def loss_value():
        ex, ey, _, _ = forward()
        return hinge_loss(ex, ey, triplets, cfg).loss * scale

    result = hinge_loss(emb_x, emb_y, triplets, cfg)
    grads_x = backward_branch(tapes_x, result.grad_x * scale)
    grads_y = backward_branch(tapes_y, result.grad_y * scale)

    errors = {}
    for branch, grads, bp in (("x", grads_x, params.x),
                              ("y", grads_y, params.y)):
        for attr in ("w1", "b1", "w2", "b2", "gamma", "beta"):
            theta = getattr(bp, attr)
            errors[f"loss/{branch}.{attr}"] = check_gradient(
                loss_value, theta, grads[attr], h)
    return errors
