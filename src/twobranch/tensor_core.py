"""Dense float64 tensor ops with hand-derived backward passes.

Each op has one form, the one that training and evaluation run.  The
row-local layers' backwards take the arrays their caller already
holds: affine_param_backward the layer's input, relu_backward the mask
that relu_forward forms in the caller's ``mask`` and dropout_backward
the scaled mask that dropout_forward forms in the caller's ``draws``,
so a caller that runs a backward in row slabs hands each slab a slice
of them.  Only batch norm and the row L2 norm compute values that their
backward needs, so only they keep a tape:

    out, tape = op_forward(...)
    grads     = op_backward(grad_out, tape)

A tape may be consumed once; a second backward call on the same tape
raises ContractViolationError.  The affine layer's backward comes in
two parts: affine_param_backward returns the weight gradient as a
WeightGrad, formed when it is read, and affine_input_backward needs
only the weights.  pairwise_distances keeps no tape: its backward is
distance_weights, then distance_side_grad for each input.  Dropout in
train mode applies uniform draws that its caller makes.  Matrix inputs
may be float32 (feature files load as float32): ``as_matrix`` widens
them to C-contiguous float64, which is exact, and every op returns
C-contiguous float64 results.  It is the one cast point: the
network's train forward widens a batch once, and its first layer's
WeightGrad reads that copy.  The affine, ReLU, dropout, batch-norm and
row L2 forwards, and the ReLU, dropout and affine input-gradient
backwards, take an optional ``out``, a C-contiguous float64 array of
the result's shape that they fill and return with the bits of
``out=None``; only the L2 norm's must not overlap its input.  All
results are deterministic for fixed inputs.

The package's one thread pool lives here too: ``map_slabs`` runs
independent row slabs of a stage on SLAB_WORKERS threads, and
``worker_slabs`` splits a stage's rows over them when its result is
large enough to repay the hand-off.
"""

import functools
import os
import queue
from concurrent.futures import ThreadPoolExecutor, wait
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

# Floats of a split's result below which ``worker_slabs`` keeps all of
# its rows in one slab, on the calling thread: below it, handing slabs
# to the workers costs more than they save (a y-branch train forward of
# a criterion-4 toy batch, 160 x 48 -> 32, took about 630 us on two
# workers against 160-240 us inline).  Every split stage spends at least
# a few nanoseconds per result float: a Glorot draw, a mined violation,
# a hidden unit of a dense layer.  At the paper shape the x branch's
# 190 x 2048 hidden layer holds 1.5 times this; no result of a
# criterion-4 toy step holds a twentieth of it.
SLAB_MIN_FLOATS = 1 << 18

# BLAS libraries read their thread count from the first of these that
# holds a positive integer.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def _slab_workers(environ):
    """Threads for independent row slabs: the CPUs this process may use
    divided by the BLAS thread count named in ``environ``, at least 1.

    With no BLAS thread count named, BLAS already splits each product
    over every CPU, so the slabs run on the calling thread alone.
    """
    for var in _BLAS_THREAD_VARS:
        try:
            blas_threads = int(environ.get(var, ""))
        except ValueError:
            continue
        if blas_threads >= 1:
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:
                cpus = os.cpu_count() or 1
            return max(1, cpus // blas_threads)
    return 1


SLAB_WORKERS = _slab_workers(os.environ)


def as_matrix(x, name="array"):
    """Validate and return ``x`` as a 2-D C-contiguous float64 array.

    A float32 input is widened, which is exact, so an op sees the same
    values whether its caller held float32 or float64.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# row slabs on the CPUs a single-threaded BLAS leaves idle


def slabs_of_height(rows, height):
    """(start, stop) row ranges of ``height`` rows, the last one ragged.

    A slab has at least two rows unless the tensor has one: a one-row
    tail joins the slab before it, since a product with a one-row
    operand takes numpy's matrix-vector path, whose bits can differ from
    the same row of the whole product.
    """
    height = max(2, height)
    bounds = list(range(0, rows, height)) + [rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def worth_splitting(floats):
    """Whether a split whose result holds ``floats`` floats goes to the
    slab workers (see SLAB_MIN_FLOATS)."""
    return SLAB_WORKERS > 1 and floats >= SLAB_MIN_FLOATS


def worker_slabs(rows, floats):
    """(start, stop) row ranges of a split whose result holds ``floats``
    floats: one per slab worker, of equal heights (see slabs_of_height),
    when it is worth splitting, else all rows in one (also when there
    are none)."""
    if rows < 2 or not worth_splitting(floats):
        return [(0, rows)]
    return slabs_of_height(rows, -(-rows // SLAB_WORKERS))


@functools.cache
def _slab_pool(workers):
    return ThreadPoolExecutor(max_workers=workers,
                              thread_name_prefix="twobranch-slab")


def map_slabs(fn, slabs, scratch_floats, inline=False):
    """[fn(*slab, scratch) for each slab], in slab order, run on up to
    SLAB_WORKERS threads.

    A slab is a tuple, usually a (start, stop) row range.  A scratch is
    a list of flat float64 arrays, one of each size in
    ``scratch_floats``, and a queue hands each worker's scratch from one
    running slab to the next.  The calling thread allocates all of them
    as one block, so the workers allocate no slab-sized array of their
    own (glibc keeps what a thread frees in that thread's arena), and
    at the paper shape the block is large enough for malloc to map it
    from the system and unmap it when the call ends, rather than leave
    holes in the heap that later, larger arrays cannot reuse.  No slab
    is still running when this returns or raises; the first exception
    in slab order propagates.

    A call with one slab, with one worker or with ``inline`` set runs
    its slabs on the calling thread on one scratch, with no queue and
    no pool: a toy-shape training step makes a dozen such calls, and
    each takes about 3 us against 13 us through the queue.  The pool's
    hand-off costs more still, which is why worker_slabs does not split
    a small result at all.
    """
    slabs = list(slabs)
    workers = 1 if inline else min(SLAB_WORKERS, len(slabs))
    block = np.empty(sum(scratch_floats) * workers)
    views, at = [], 0
    for floats in tuple(scratch_floats) * workers:
        views.append(block[at:at + floats])
        at += floats
    if workers <= 1:
        return [fn(*slab, views) for slab in slabs]
    parts = len(scratch_floats)
    free = queue.SimpleQueue()
    for w in range(workers):
        free.put(views[w * parts:(w + 1) * parts])

    def run(slab):
        scratch = free.get()
        try:
            return fn(*slab, scratch)
        finally:
            free.put(scratch)

    jobs = [_slab_pool(SLAB_WORKERS).submit(run, slab) for slab in slabs]
    wait(jobs)
    return [job.result() for job in jobs]


def check_finite(x, name="array"):
    """Raise DimensionError if ``x`` contains NaN or infinity."""
    if not np.all(np.isfinite(x)):
        raise DimensionError(f"{name} contains non-finite values")
    return x


def _check_out(out, shape, name="out"):
    if out is not None and (out.shape != shape or out.dtype != np.float64
                            or not out.flags.c_contiguous):
        raise ContractViolationError(
            f"{name} must be a C-contiguous float64 array of shape {shape}")


def _grad_out(grad_out, shape, op, tape=None):
    """``grad_out`` as a float64 matrix of ``shape``, the shape of the
    forward's output.  A given ``tape`` is consumed first: a second
    backward over it raises."""
    if tape is not None:
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


def affine_forward(x, w, b, out=None):
    """Compute out = x @ w + b.

    Args:
        x: input, shape (n, d_in).
        w: weights, shape (d_in, d_out).
        b: bias, shape (d_out,).
        out: optional output array, shape (n, d_out).

    Returns:
        out, of shape (n, d_out).
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
    return out


def affine_input_backward(grad_out, w, out=None):
    """grad_out @ w.T, the input gradient of an affine layer of weights
    ``w``, into ``out`` when given, for any rows of grad_out."""
    grad_out = as_matrix(grad_out, "grad_out")
    _check_out(out, (grad_out.shape[0], w.shape[0]))
    return np.matmul(grad_out, w.T, out=out)


class WeightGrad:
    """An affine layer's weight gradient x.T @ grad_out, unformed, of
    float64 matrices.

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


def affine_param_backward(grad_out, x):
    """Backward for the parameters of an affine layer whose input was
    ``x``, which as_matrix widens.

    The input gradient, which a layer whose input is data does not need,
    is affine_input_backward's.

    Returns:
        (grad_w, grad_b): grad_w is the WeightGrad of x.T @ grad_out,
        which np.asarray forms whole, and grad_b is grad_out.sum(axis=0).
    """
    grad_out = as_matrix(grad_out, "grad_out")
    x = as_matrix(x, "x")
    if grad_out.shape[0] != x.shape[0]:
        raise DimensionError(
            f"affine backward: grad_out shape {grad_out.shape} does not "
            f"match input shape {x.shape}")
    return WeightGrad(x, grad_out), grad_out.sum(axis=0)


# ---------------------------------------------------------------------------
# relu


def relu_forward(x, out=None, mask=None):
    """Elementwise max(x, 0), into ``out`` when given (which may be x);
    the mask x > 0 that relu_backward reads forms in ``mask`` when
    given, a C-contiguous bool array of x's shape."""
    x = as_matrix(x, "x")
    _check_out(out, x.shape)
    mask = np.greater(x, 0.0, out=mask)
    return np.multiply(x, mask, out=out)


def relu_backward(grad_out, mask, out=None):
    """grad_out times relu_forward's ``mask``, into ``out`` when given
    (which may be grad_out)."""
    grad_out = _grad_out(grad_out, mask.shape, "relu")
    return np.multiply(grad_out, mask, out=out)


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
    grad_out = _grad_out(grad_out, tape.x_hat.shape, "batchnorm", tape)
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


def dropout_forward(x, p, mode, out=None, draws=None):
    """Inverted dropout.

    Train mode zeroes each entry independently with probability p and
    scales survivors by 1 / (1 - p) so the expectation matches eval
    mode, which is the identity.  An entry is kept where its uniform
    draw is at least p.

    Args:
        x: input, shape (n, d).
        p: drop probability in [0, 1).
        mode: "train" or "eval".
        out: optional output array of x's shape; may be x.
        draws: required in train mode: a C-contiguous float64 array of
            x's shape in which the scaled mask that dropout_backward
            reads forms.  When p > 0 it holds on entry the uniform
            [0, 1) draws to use, so a caller can draw a whole batch's
            mask with one rng call and apply it a row slab at a time;
            when p is 0 its contents are not read.

    Returns:
        out.
    """
    x = as_matrix(x, "x")
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout requires 0 <= p < 1, got {p}")
    _check_out(out, x.shape)
    if mode == "eval":
        if out is None or out is x:
            return x
        np.copyto(out, x)
        return out
    if mode != "train":
        raise ContractViolationError(f"unknown dropout mode {mode!r}")
    if draws is None:
        raise ContractViolationError("dropout train mode requires draws")
    _check_out(draws, x.shape, "draws")
    if p == 0.0:
        draws.fill(1.0)
    else:
        # 1.0 where kept, then scaled: the bits of (draws >= p) / (1 - p)
        np.greater_equal(draws, p, out=draws)
        draws /= 1.0 - p
    return np.multiply(x, draws, out=out)


def dropout_backward(grad_out, scaled_mask, out=None):
    """grad_out times dropout_forward's scaled mask (its ``draws`` after
    a train-mode call), into ``out`` when given (which may be
    grad_out)."""
    grad_out = _grad_out(grad_out, scaled_mask.shape, "dropout")
    return np.multiply(grad_out, scaled_mask, out=out)


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
    grad_out = _grad_out(grad_out, tape.out.shape, "l2 normalize", tape)
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


def distance_weights(dist, grad_dist):
    """First half of pairwise_distances' backward: the weights
    grad_dist / dist of float64 (n, m) matrices.

    d(i,j) = ||a_i - b_j||, so dd/da_i = (a_i - b_j) / d(i,j), and
    distance_side_grad accumulates the weighted differences over j (and
    symmetrically for b).  Pairs at distance exactly zero coincide and
    weigh 0; other distances below EPS_DIST are clamped in the
    denominator.
    """
    # a coincident pair's weight would multiply a_i - b_j = 0, but the
    # side gradients form it as w a_i - w b_j, where a weight of
    # 1/EPS_DIST leaves rounding noise of 1e-4 instead of zero
    return np.divide(grad_dist, np.maximum(dist, EPS_DIST),
                     out=np.zeros_like(grad_dist), where=dist > 0.0)


def distance_side_grad(w, a, b, side):
    """Second half of pairwise_distances' backward: the gradient of the
    input ``side``, "a" or "b", from distance_weights' w; the two sides
    are independent."""
    if side == "a":
        return w.sum(axis=1)[:, None] * a - w @ b
    return w.sum(axis=0)[:, None] * b - w.T @ a
