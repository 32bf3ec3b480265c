"""Dense float64 tensor ops with hand-derived backward passes.

Every differentiable op follows the same shape:

    out, tape = op_forward(...)
    grads     = op_backward(grad_out, tape)

A tape caches exactly what the backward pass needs and may be consumed
once; a second backward call on the same tape raises
ContractViolationError.  Matrix inputs may be float32 (feature files
load as float32): ``as_matrix`` widens them to C-contiguous float64,
which is exact, and every op returns C-contiguous float64 results.
The affine, ReLU, batch-norm and row L2 forwards take an optional
``out``, a C-contiguous float64 array of the result's shape that they
fill and return with the bits of ``out=None``; only the L2 norm's must
not overlap its input.
affine_param_backward returns its weight gradient as a WeightGrad,
formed from two such arrays when it is read.  All results are
deterministic for fixed inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BatchTooSmallError,
    ConfigError,
    ContractViolationError,
    DimensionError,
)

# Clamp floors.  EPS_NORM keeps row normalization defined at the origin;
# EPS_DIST bounds the distance backward's weight for pairs that nearly
# coincide.
EPS_NORM = 1e-12
EPS_DIST = 1e-12

# The expansion ||u||^2 + ||v||^2 - 2 u.v carries an absolute error of a
# few ulps of ||u||^2 + ||v||^2, which swamps a small squared distance.
# Squared entries below this share of the largest ||u||^2 + ||v||^2 are
# recomputed directly by row_distances, at most DIRECT_CHUNK_FLOATS
# gathered floats at a time so that a collapsed embedding cannot gather
# n * m rows at once.  Localization sizes its padded blocks by it too.
SMALL_DIST_SHARE = 1e-4
DIRECT_CHUNK_FLOATS = 1 << 21

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def as_matrix(x, name="array"):
    """Validate and return ``x`` as a 2-D C-contiguous float64 array.

    A float32 input is widened, which is exact, so an op sees the same
    values whether its caller held float32 or float64.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def check_finite(x, name="array"):
    """Raise DimensionError if ``x`` contains NaN or infinity."""
    if not np.all(np.isfinite(x)):
        raise DimensionError(f"{name} contains non-finite values")
    return x


def _check_out(out, shape):
    if out is not None and (out.shape != shape or out.dtype != np.float64
                            or not out.flags.c_contiguous):
        raise ContractViolationError(
            f"out must be a C-contiguous float64 array of shape {shape}")


def _grad_out(grad_out, tape, shape, op):
    """Consume ``tape`` and return ``grad_out`` as a float64 matrix of
    ``shape``, the shape of the forward's output."""
    if tape.used:
        raise ContractViolationError(
            f"{type(tape).__name__} already consumed by a backward pass")
    tape.used = True
    grad_out = as_matrix(grad_out, "grad_out")
    if grad_out.shape != shape:
        raise DimensionError(
            f"{op} backward: grad_out shape {grad_out.shape} does not match "
            f"output shape {shape}")
    return grad_out


# ---------------------------------------------------------------------------
# affine


@dataclass
class AffineTape:
    x: np.ndarray
    w: np.ndarray
    used: bool = False


def affine_forward(x, w, b, out=None):
    """Compute out = x @ w + b.

    Args:
        x: input, shape (n, d_in).
        w: weights, shape (d_in, d_out).
        b: bias, shape (d_out,).
        out: optional output array, shape (n, d_out).

    Returns:
        (out, tape) with out of shape (n, d_out).
    """
    x = as_matrix(x, "x")
    w = as_matrix(w, "w")
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise DimensionError(f"b must be 1-D, got shape {b.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(
            f"affine: x has {x.shape[1]} columns but w has {w.shape[0]} rows"
        )
    if b.shape[0] != w.shape[1]:
        raise DimensionError(
            f"affine: b has length {b.shape[0]} but w has {w.shape[1]} columns"
        )
    _check_out(out, (x.shape[0], w.shape[1]))
    out = np.matmul(x, w, out=out)
    out += b
    return out, AffineTape(x=x, w=w)


def _affine_grad_out(grad_out, tape):
    return _grad_out(grad_out, tape, (tape.x.shape[0], tape.w.shape[1]),
                     "affine")


def affine_backward(grad_out, tape):
    """Backward for affine_forward.

    Returns:
        (grad_x, grad_w, grad_b).
    """
    grad_out = _affine_grad_out(grad_out, tape)
    grad_x = grad_out @ tape.w.T
    grad_w = tape.x.T @ grad_out
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


class WeightGrad:
    """The weight gradient x.T @ grad_out of an affine layer, unformed.

    ``rows(start, stop)`` forms rows start:stop of it, into ``out``
    when given, so a consumer that walks it in slabs never holds the
    whole (d_in, d_out) matrix; ``np.asarray`` forms all of it.  A slab
    of two or more rows has the bits of the same rows of the whole
    product (a one-row operand takes numpy's matrix-vector path, whose
    bits can differ).
    """

    def __init__(self, x, grad_out):
        self.x = x
        self.grad_out = grad_out

    @property
    def shape(self):
        return (self.x.shape[1], self.grad_out.shape[1])

    def rows(self, start, stop, out=None):
        return np.matmul(self.x[:, start:stop].T, self.grad_out, out=out)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.x.T @ self.grad_out, dtype=dtype)


def affine_param_backward(grad_out, tape):
    """affine_backward without grad_x, for a layer whose input is data.

    Skips the (n, d_in) product grad_out @ w.T.  grad_w is returned as
    a WeightGrad, which np.asarray forms with affine_backward's
    expression, and grad_b is affine_backward's, so the same bits.

    Returns:
        (grad_w, grad_b).
    """
    grad_out = _affine_grad_out(grad_out, tape)
    return WeightGrad(tape.x, grad_out), grad_out.sum(axis=0)


# ---------------------------------------------------------------------------
# relu


@dataclass
class ReluTape:
    mask: np.ndarray
    used: bool = False


def relu_forward(x, out=None):
    """Elementwise max(x, 0), into ``out`` when given (which may be x)."""
    x = as_matrix(x, "x")
    _check_out(out, x.shape)
    mask = x > 0.0
    return np.multiply(x, mask, out=out), ReluTape(mask=mask)


def relu_backward(grad_out, tape):
    grad_out = _grad_out(grad_out, tape, tape.mask.shape, "relu")
    return grad_out * tape.mask


# ---------------------------------------------------------------------------
# batch normalization


@dataclass
class BatchNormTape:
    x_hat: np.ndarray
    inv_std: np.ndarray
    gamma: np.ndarray
    used: bool = False


def batchnorm_forward(x, gamma, beta, running_mean, running_var,
                      mode, momentum=BN_MOMENTUM, eps=BN_EPS, out=None):
    """Per-column batch normalization.

    In "train" mode the batch mean and biased (1/n) variance normalize x
    and the running statistics are updated in place:

        running <- (1 - momentum) * running + momentum * batch_stat

    In "eval" mode the running statistics normalize x and nothing is
    updated.  Backward is only defined for tapes produced in train mode.

    Args:
        x: input, shape (n, d).
        gamma, beta: per-column scale and shift, shape (d,).
        running_mean, running_var: running statistics, shape (d,),
            updated in place in train mode.
        mode: "train" or "eval".
        out: optional output array, shape (n, d); may be x.

    Returns:
        (out, tape); tape is None in eval mode.
    """
    x = as_matrix(x, "x")
    _check_out(out, x.shape)
    n, d = x.shape
    for name, v in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean),
                    ("running_var", running_var)):
        if v.shape != (d,):
            raise DimensionError(
                f"batchnorm: {name} has shape {v.shape}, expected ({d},)"
            )
    if mode == "train":
        if n < 2:
            raise BatchTooSmallError(
                f"batchnorm train mode needs at least 2 rows, got {n}"
            )
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mean) * inv_std
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        out = np.multiply(gamma, x_hat, out=out)
        out += beta
        return out, BatchNormTape(x_hat=x_hat, inv_std=inv_std, gamma=gamma)
    if mode == "eval":
        # x_hat forms in out, and gamma * x_hat is x_hat * gamma
        out = np.subtract(x, running_mean, out=out)
        out /= np.sqrt(running_var + eps)
        out *= gamma
        out += beta
        return out, None
    raise ContractViolationError(f"unknown batchnorm mode {mode!r}")


def batchnorm_backward(grad_out, tape):
    """Backward for train-mode batchnorm_forward.

    Returns:
        (grad_x, grad_gamma, grad_beta).
    """
    if tape is None:
        raise ContractViolationError(
            "batchnorm backward requires a train-mode tape"
        )
    grad_out = _grad_out(grad_out, tape, tape.x_hat.shape, "batchnorm")
    n = grad_out.shape[0]
    x_hat = tape.x_hat
    grad_gamma = (grad_out * x_hat).sum(axis=0)
    grad_beta = grad_out.sum(axis=0)
    grad_x_hat = grad_out * tape.gamma
    grad_x = (tape.inv_std / n) * (
        n * grad_x_hat
        - grad_x_hat.sum(axis=0)
        - x_hat * (grad_x_hat * x_hat).sum(axis=0)
    )
    return grad_x, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# dropout


@dataclass
class DropoutTape:
    scaled_mask: np.ndarray
    used: bool = False


def dropout_forward(x, p, mode, rng=None):
    """Inverted dropout.

    Train mode zeroes each entry independently with probability p and
    scales survivors by 1 / (1 - p) so the expectation matches eval
    mode, which is the identity.

    Args:
        x: input, shape (n, d).
        p: drop probability in [0, 1).
        mode: "train" or "eval".
        rng: numpy Generator, required in train mode when p > 0.

    Returns:
        (out, tape); tape is None in eval mode.
    """
    x = as_matrix(x, "x")
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout requires 0 <= p < 1, got {p}")
    if mode == "eval":
        return x, None
    if mode != "train":
        raise ContractViolationError(f"unknown dropout mode {mode!r}")
    if p == 0.0:
        scaled_mask = np.ones_like(x)
    else:
        if rng is None:
            raise ContractViolationError(
                "dropout train mode with p > 0 requires an rng"
            )
        keep = rng.random(x.shape) >= p
        scaled_mask = keep / (1.0 - p)
    return x * scaled_mask, DropoutTape(scaled_mask=scaled_mask)


def dropout_backward(grad_out, tape):
    if tape is None:
        raise ContractViolationError(
            "dropout backward requires a train-mode tape"
        )
    grad_out = _grad_out(grad_out, tape, tape.scaled_mask.shape, "dropout")
    return grad_out * tape.scaled_mask


# ---------------------------------------------------------------------------
# row-wise L2 normalization


@dataclass
class L2NormTape:
    out: np.ndarray
    norms: np.ndarray
    clamped: np.ndarray
    used: bool = False


def l2_normalize_rows(x, out=None):
    """Scale every row of x to unit Euclidean norm.

    Rows with norm <= EPS_NORM are divided by EPS_NORM instead, so the
    map stays defined (and differentiable as a pure scaling) at the
    origin.  The squared entries form in ``out`` and the quotient then
    overwrites them, so a given ``out`` must not overlap ``x``.

    Returns:
        (out, tape).
    """
    x = as_matrix(x, "x")
    _check_out(out, x.shape)
    if out is not None and np.shares_memory(out, x):
        raise ContractViolationError(
            "l2_normalize_rows: out must not overlap x")
    sq = np.multiply(x, x, out=out)
    norms = np.sqrt(sq.sum(axis=1))
    clamped = norms <= EPS_NORM
    safe = np.maximum(norms, EPS_NORM)
    out = np.divide(x, safe[:, None], out=sq)
    return out, L2NormTape(out=out, norms=safe, clamped=clamped)


def l2_normalize_rows_backward(grad_out, tape):
    """Backward for l2_normalize_rows.

    For a row v with norm n > EPS_NORM and unit output u = v / n the
    gradient is (g - (g . u) u) / n: the component of g along u does
    not change the output, so it is projected away.  Clamped rows are a
    constant scaling and pass the gradient through divided by EPS_NORM.
    """
    grad_out = _grad_out(grad_out, tape, tape.out.shape, "l2 normalize")
    dots = (grad_out * tape.out).sum(axis=1)
    grad_x = (grad_out - tape.out * dots[:, None]) / tape.norms[:, None]
    if np.any(tape.clamped):
        grad_x[tape.clamped] = grad_out[tape.clamped] / EPS_NORM
    return grad_x


# ---------------------------------------------------------------------------
# pairwise Euclidean distances


def pairwise_distances(a, b):
    """Euclidean distance between every row of a and every row of b.

    Uses the expansion ||u - v||^2 = ||u||^2 + ||v||^2 - 2 u.v with the
    squared form clamped at zero before the square root.  Entries whose
    squared form is below SMALL_DIST_SHARE of the largest ||u||^2 +
    ||v||^2 may have lost their low digits to cancellation and are
    recomputed as the direct ||u - v||, so coinciding rows come out
    exactly zero.  When ``b is a`` the Gram-matrix form guarantees an
    exactly zero diagonal and an exactly symmetric result.

    Args:
        a: shape (n, d).
        b: shape (m, d).

    Returns:
        distances, shape (n, m).
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"pairwise distances: a has {a.shape[1]} columns, b has "
            f"{b.shape[1]}"
        )
    if b is a:
        gram = a @ a.T
        sq_a = sq_b = np.diagonal(gram).copy()
        sq = sq_a[:, None] + sq_b[None, :] - (gram + gram.T)
    else:
        sq_a = (a * a).sum(axis=1)
        sq_b = (b * b).sum(axis=1)
        sq = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
    scale = sq_a.max(initial=0.0) + sq_b.max(initial=0.0)
    rows, cols = np.nonzero(sq < SMALL_DIST_SHARE * scale)
    np.maximum(sq, 0.0, out=sq)
    dist = np.sqrt(sq, out=sq)
    dist[rows, cols] = row_distances(a, rows, b, cols)
    return dist


def row_distances(a, rows_a, b, rows_b):
    """(k,) direct distances ||a[rows_a[i]] - b[rows_b[i]]|| of float64
    matrices, gathered DIRECT_CHUNK_FLOATS floats at a time; a pair's
    bits do not depend on the pairs that share its chunk."""
    out = np.empty(len(rows_a))
    chunk = max(1, DIRECT_CHUNK_FLOATS // max(1, a.shape[1]))
    for start in range(0, out.size, chunk):
        diff = (a[rows_a[start:start + chunk]]
                - b[rows_b[start:start + chunk]])
        out[start:start + chunk] = np.sqrt((diff * diff).sum(axis=1))
    return out


def pairwise_distance_backward(a, b, dist, grad_dist):
    """Backward for pairwise_distances.

    d(i,j) = ||a_i - b_j||, so dd/da_i = (a_i - b_j) / d(i,j) and the
    contributions are accumulated over j (and symmetrically for b).
    Pairs at distance exactly zero coincide and contribute nothing;
    other distances below EPS_DIST are clamped in the denominator.

    Args:
        a, b: the forward inputs.
        dist: the forward output, shape (n, m).
        grad_dist: upstream gradient, shape (n, m).

    Returns:
        (grad_a, grad_b).
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    dist = as_matrix(dist, "dist")
    grad_dist = as_matrix(grad_dist, "grad_dist")
    if dist.shape != (a.shape[0], b.shape[0]) or grad_dist.shape != dist.shape:
        raise DimensionError(
            "pairwise distance backward: shapes do not agree "
            f"(a {a.shape}, b {b.shape}, dist {dist.shape}, "
            f"grad {grad_dist.shape})"
        )
    # a coincident pair's weight would multiply a_i - b_j = 0, but the
    # products below form it as w a_i - w b_j, where a weight of
    # 1/EPS_DIST leaves rounding noise of 1e-4 instead of zero
    w = np.divide(grad_dist, np.maximum(dist, EPS_DIST),
                  out=np.zeros_like(grad_dist), where=dist > 0.0)
    grad_a = w.sum(axis=1)[:, None] * a - w @ b
    grad_b = w.sum(axis=0)[:, None] * b - w.T @ a
    return grad_a, grad_b
