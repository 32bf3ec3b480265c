"""Two-branch embedding network.

Each branch maps one view (image features or text features) through

    affine -> ReLU -> dropout -> affine -> batch norm -> row L2 norm

into a shared embedding space where Euclidean distance compares items
across views.  Both forward modes run one chain of the tensor_core
layer forwards, and the backward pass chains their backwards in
reverse.  Parameters live in plain dataclasses of float64 arrays.
Checkpoints serialize every tensor, the running batch-norm statistics
and the optimizer state to a single binary file.

The dense products of an eval forward pass, of a train forward's first
affine layer and of the SGD step's first-layer weight gradients run
over independent row slabs, which ``_map_slabs`` spreads over
SLAB_WORKERS threads.  That is more than one only when the BLAS thread
count is pinned below the CPUs this process may use, so the slabs fill
the CPUs a single-threaded BLAS leaves idle; with BLAS left to use every
CPU, the slabs run one after another on the calling thread.  A train
forward's first product smaller than TRAIN_SLAB_MIN_MACS runs whole on
the calling thread, since handing it to the workers costs more than it
saves.  The bits never depend on the worker count: each slab writes
only its own rows, and a product over a slab of two or more rows has
the bits of the same rows of the whole product.  The calling thread
allocates every slab-sized buffer, which the layers fill through their
``out`` arrays, so that freed temporaries do not pile up in the
workers' own malloc arenas.
"""

import functools
import hashlib
import os
import queue
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from math import prod, sqrt

import numpy as np

from .errors import (ChecksumError, ConfigError, ContractViolationError,
                     DimensionError, FormatError)
from . import tensor_core as tc
from .data import atomic_write

CHECKPOINT_MAGIC = b"DSPE"
CHECKPOINT_VERSION = 1

# Parameter names ending in these suffixes are affine weight matrices;
# weight decay applies to them only.
_DECAYED_SUFFIXES = (".w1", ".w2")

# A branch's checkpoint records, one per BranchParams field; the first
# six are the tensors the optimizer updates.
_BRANCH_RECORDS = ("w1", "b1", "w2", "b2", "gamma", "beta",
                   "running_mean", "running_var")
_LEARNED_RECORDS = _BRANCH_RECORDS[:6]

# Floats per block of the SGD update: a block of each of theta, grad,
# velocity and the scratch (256 KB apiece) stays in cache from the
# first of the update's six passes to the last.
SGD_BLOCK = 1 << 15

# Floats per row slab of the SGD update: the update forms a first-layer
# weight gradient one slab at a time (512 rows at 2048 columns), each
# running slab into its own buffer.  These bounds do not depend on the
# worker count, since the returned norms sum per-block partial sums in
# slab order.  An eval forward pass runs its layer chain in row slabs of
# about GRAD_SLAB_FLOATS / SLAB_WORKERS hidden-layer floats (512 rows at
# the paper shape on one worker, 256 on two), into buffers the calling
# thread allocates, so the slabs in flight hold about one slab's worth
# whatever the worker count; its bits do not depend on the bounds.  Each
# slab's first product packs the whole first-layer weight again, and
# slabs sized by 6000 input floats (174 rows) made the one-worker
# forward pass about 3% slower.  A train forward's first product is not
# sized by these floats: it runs one slab per worker, of equal heights,
# into one hidden array the calling thread allocates (the batch norm
# after it needs every row anyway); sized like an eval pass, the paper
# shape's 680 y rows split 256/256/168 and its 190 x rows not at all.
GRAD_SLAB_FLOATS = 1 << 20

# Multiply-adds (rows x input_dim x hidden_dim) below which a train
# forward's first product runs whole on the calling thread: below it,
# handing slabs to the workers costs more than the product (a y-branch
# forward of a criterion-4 toy batch, 160 x 48 -> 32, took about 630 us
# on two workers against 160-240 us inline).  A paper-shape batch's
# products are 24 (x) and 125 (y) times the threshold.
TRAIN_SLAB_MIN_MACS = 1 << 26

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


@dataclass(frozen=True)
class BranchSpec:
    """Layer sizes and dropout rate for one branch."""

    input_dim: int
    hidden_dim: int
    embed_dim: int
    dropout_p: float = 0.5

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "embed_dim"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(
                f"dropout_p must lie in [0, 1), got {self.dropout_p}"
            )


@dataclass
class BranchParams:
    """Learned tensors and batch-norm running statistics of one branch."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class NetworkParams:
    spec_x: BranchSpec
    spec_y: BranchSpec
    x: BranchParams
    y: BranchParams
    seed: int
    bn_momentum: float = tc.BN_MOMENTUM
    bn_eps: float = tc.BN_EPS

    def __post_init__(self):
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ConfigError(
                f"bn_momentum must lie in [0, 1], got {self.bn_momentum}")
        if not self.bn_eps > 0.0:
            raise ConfigError(f"bn_eps must be > 0, got {self.bn_eps}")


@dataclass
class OptimizerState:
    """SGD with momentum and decoupled-from-biases weight decay.

    The velocity update is

        v <- momentum * v + (grad + weight_decay * theta)
        theta <- theta - lr * v

    where the decay term is added only for affine weight matrices.
    """

    lr0: float = 0.1
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epoch: int = 0
    velocity: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.lr0 > 0.0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(
                f"momentum must lie in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0.0:
            raise ConfigError(
                f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epoch < 0:
            raise ConfigError(f"epoch must be >= 0, got {self.epoch}")


def learning_rate(epoch, lr0=0.1):
    """Step schedule: divide by 10 every 10 epochs."""
    if epoch < 0:
        raise ConfigError(f"epoch must be non-negative, got {epoch}")
    return lr0 * 0.1 ** (epoch // 10)


def _glorot_uniform(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _init_branch(rng, spec):
    return BranchParams(
        w1=_glorot_uniform(rng, spec.input_dim, spec.hidden_dim),
        b1=np.zeros(spec.hidden_dim),
        w2=_glorot_uniform(rng, spec.hidden_dim, spec.embed_dim),
        b2=np.zeros(spec.embed_dim),
        gamma=np.ones(spec.embed_dim),
        beta=np.zeros(spec.embed_dim),
        running_mean=np.zeros(spec.embed_dim),
        running_var=np.ones(spec.embed_dim),
    )


def init_params(spec_x, spec_y, seed=0, bn_momentum=tc.BN_MOMENTUM,
                bn_eps=tc.BN_EPS):
    """Initialize both branches from one seed.

    Weights are Glorot-uniform with bound sqrt(6 / (fan_in + fan_out)),
    biases and batch-norm shifts start at zero, scales at one.  Draw
    order is fixed (x.w1, x.w2, y.w1, y.w2) so a seed pins every value.
    """
    if spec_x.embed_dim != spec_y.embed_dim:
        raise ConfigError(
            f"branches must share embed_dim, got {spec_x.embed_dim} and "
            f"{spec_y.embed_dim}"
        )
    rng = np.random.default_rng(seed)
    return NetworkParams(
        spec_x=spec_x,
        spec_y=spec_y,
        x=_init_branch(rng, spec_x),
        y=_init_branch(rng, spec_y),
        seed=seed,
        bn_momentum=bn_momentum,
        bn_eps=bn_eps,
    )


@dataclass
class BranchTapes:
    affine1: tc.AffineTape
    relu: tc.ReluTape
    dropout: tc.DropoutTape
    affine2: tc.AffineTape
    batchnorm: tc.BatchNormTape
    l2norm: tc.L2NormTape


def forward_branch(params, branch, inputs, mode, rng=None):
    """Run one branch.

    Inputs may be float32 or float64; ``tc.as_matrix`` widens them.  Both
    modes run one chain of the tc layers.  In train mode the calling
    thread widens the inputs once, and the first affine layer's product
    runs in one row slab per worker (``_train_slabs``) into the rows of
    one (n, hidden_dim) array; one AffineTape over all the widened
    inputs records it.  A product of fewer than TRAIN_SLAB_MIN_MACS
    multiply-adds runs whole on the calling thread instead, where a toy
    batch's forward costs less than handing it to the workers.  The rest
    of the chain runs once over all rows, each layer allocating its
    result: batch norm needs every row, and dropout draws its mask for
    the whole batch with one ``rng.random`` call, so the RNG stream is
    the same at any worker count.  In eval mode the chain
    runs on each row slab of ``_row_slabs`` (about GRAD_SLAB_FLOATS /
    SLAB_WORKERS hidden-layer floats) on up to SLAB_WORKERS threads, and
    the layers write through ``out`` into a widened-input, a hidden and
    a pre-norm buffer and into the slab's rows of one (n, embed_dim)
    output.  The calling thread allocates those buffers, so the workers
    free no slab-sized temporaries into their own malloc arenas, and the
    pass never holds a widened copy of all inputs or their whole hidden
    layer.  The bits are those of one pass over all rows, whatever the
    worker count and slab bounds: every eval layer is row-local, a layer
    given ``out`` runs the operations of its ``out=None`` form, and a
    slab has at least 2 rows unless the input has 1, so no slab's
    product takes numpy's one-row matrix-vector path where the whole
    product would not.

    Args:
        params: NetworkParams.
        branch: "x" or "y".
        inputs: feature rows, shape (n, input_dim).
        mode: "train" (stochastic dropout, batch statistics, running
            stats updated) or "eval" (deterministic).
        rng: numpy Generator for dropout; required in train mode when
            the branch's dropout_p > 0.

    Returns:
        (embeddings, tapes); embeddings rows have unit L2 norm, tapes
        is None in eval mode.
    """
    if branch == "x":
        spec, p = params.spec_x, params.x
    elif branch == "y":
        spec, p = params.spec_y, params.y
    else:
        raise ConfigError(f"branch must be 'x' or 'y', got {branch!r}")
    inputs = np.asarray(inputs)
    if inputs.ndim != 2:
        raise DimensionError(f"inputs must be 2-D, got shape {inputs.shape}")
    if inputs.shape[1] != spec.input_dim:
        raise DimensionError(
            f"branch {branch}: inputs have {inputs.shape[1]} columns, "
            f"expected {spec.input_dim}"
        )
    if mode != "eval":
        x = tc.as_matrix(inputs, "inputs")
        return _layer_chain(params, spec, p, _train_affine1(p, x), mode, rng)
    n = inputs.shape[0]
    slabs = list(_row_slabs(n, spec.hidden_dim, SLAB_WORKERS))
    rows = max((stop - start for start, stop in slabs), default=0)
    # columns of the widened input, the hidden layer and the pre-norm one
    widths = (spec.input_dim, spec.hidden_dim, spec.embed_dim)
    emb = np.empty((n, spec.embed_dim))

    def slab(start, stop, scratch):
        x_buf, h_buf, o_buf = (
            buf[:(stop - start) * cols].reshape(stop - start, cols)
            for buf, cols in zip(scratch, widths))
        np.copyto(x_buf, inputs[start:stop])
        _layer_chain(params, spec, p,
                     tc.affine_forward(x_buf, p.w1, p.b1, out=h_buf), mode,
                     hidden=h_buf, pre_norm=o_buf, out=emb[start:stop])

    _map_slabs(slab, slabs, [rows * cols for cols in widths])
    return emb, None


def _train_affine1(p, x):
    """tc.affine_forward(x, p.w1, p.b1) of widened inputs x, run in
    ``_train_slabs`` row slabs into one array when the product is at
    least TRAIN_SLAB_MIN_MACS multiply-adds."""
    w = tc.as_matrix(p.w1, "w")
    (n, d_in), d_out = x.shape, w.shape[1]
    if n * d_in * d_out < TRAIN_SLAB_MIN_MACS:
        return tc.affine_forward(x, w, p.b1)
    hidden = np.empty((n, d_out))
    _map_slabs(lambda start, stop, _: tc.affine_forward(
        x[start:stop], w, p.b1, out=hidden[start:stop]),
        _train_slabs(n), ())
    return hidden, tc.AffineTape(x=x, w=w)


def _layer_chain(params, spec, p, affine1, mode, rng=None, hidden=None,
                 pre_norm=None, out=None):
    """(embeddings, tapes) of a branch's tc layers after the first affine
    layer, whose (result, tape) is ``affine1``; ``hidden`` takes the
    ReLU, ``pre_norm`` the second affine layer and batch norm, ``out``
    the embeddings (None: allocated)."""
    h, t_aff1 = affine1
    h, t_relu = tc.relu_forward(h, out=hidden)
    h, t_drop = tc.dropout_forward(h, spec.dropout_p, mode, rng=rng)
    h, t_aff2 = tc.affine_forward(h, p.w2, p.b2, out=pre_norm)
    h, t_bn = tc.batchnorm_forward(
        h, p.gamma, p.beta, p.running_mean, p.running_var, mode,
        momentum=params.bn_momentum, eps=params.bn_eps, out=pre_norm,
    )
    emb, t_norm = tc.l2_normalize_rows(h, out=out)
    return emb, BranchTapes(t_aff1, t_relu, t_drop, t_aff2, t_bn, t_norm)


def backward_branch(tapes, grad_emb):
    """Chain the layer backwards; returns dict of parameter gradients.

    The inputs are data, so no gradient flows into them.
    """
    if tapes is None:
        raise ConfigError("backward requires train-mode tapes")
    g = tc.l2_normalize_rows_backward(grad_emb, tapes.l2norm)
    g, g_gamma, g_beta = tc.batchnorm_backward(g, tapes.batchnorm)
    g, g_w2, g_b2 = tc.affine_backward(g, tapes.affine2)
    g = tc.dropout_backward(g, tapes.dropout)
    g = tc.relu_backward(g, tapes.relu)
    g_w1, g_b1 = tc.affine_param_backward(g, tapes.affine1)
    return {
        "w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2,
        "gamma": g_gamma, "beta": g_beta,
    }


def _learned_tensors(params):
    """Yield (name, array) for every tensor the optimizer updates."""
    for prefix, bp in (("x", params.x), ("y", params.y)):
        for attr in _LEARNED_RECORDS:
            yield f"{prefix}.{attr}", getattr(bp, attr)


def _row_slabs(rows, row_floats, workers=1):
    """(start, stop) row ranges of about GRAD_SLAB_FLOATS / workers
    floats (see _slabs_of_height)."""
    return _slabs_of_height(rows, GRAD_SLAB_FLOATS // (row_floats * workers))


def _train_slabs(rows):
    """(start, stop) row ranges, one per slab worker, of equal heights
    (see _slabs_of_height)."""
    return _slabs_of_height(rows, -(-rows // SLAB_WORKERS))


def _slabs_of_height(rows, height):
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
    return zip(bounds[:-1], bounds[1:])


@functools.cache
def _slab_pool(workers):
    return ThreadPoolExecutor(max_workers=workers,
                              thread_name_prefix="twobranch-slab")


def _map_slabs(fn, slabs, scratch_floats):
    """[fn(start, stop, scratch) for each slab], in slab order, run on up
    to SLAB_WORKERS threads.

    A scratch is a list of flat float64 arrays, one of each size in
    ``scratch_floats``, and a queue hands each worker's scratch from one
    running slab to the next.  The calling thread allocates all of them
    as one block, so the workers allocate no slab-sized array of their
    own (glibc keeps what a thread frees in that thread's arena), and
    at the paper shape the block is large enough for malloc to map it
    from the system and unmap it when the call ends, rather than leave
    holes in the heap that later, larger arrays cannot reuse.  No slab
    is still running when this returns or raises; the first exception
    in slab order propagates.

    A call with one slab, or with one worker, runs its slabs inline on
    one scratch, with no queue and no pool: a toy-shape training step
    makes a dozen such calls, one per tensor, and each takes about 3 us
    so against 13 us through the queue.  The pool's hand-off costs more
    still (a toy-batch train forward whose first product went to it in
    two slabs took about 630 us against 160-240 us inline), which is why
    a train forward's first product below TRAIN_SLAB_MIN_MACS is not
    split at all.
    """
    slabs = list(slabs)
    workers = min(SLAB_WORKERS, len(slabs))
    block = np.empty(sum(scratch_floats) * workers)
    views, at = [], 0
    for floats in tuple(scratch_floats) * workers:
        views.append(block[at:at + floats])
        at += floats
    if workers <= 1:
        return [fn(start, stop, views) for start, stop in slabs]
    parts = len(scratch_floats)
    free = queue.SimpleQueue()
    for w in range(workers):
        free.put(views[w * parts:(w + 1) * parts])

    def run(start, stop):
        scratch = free.get()
        try:
            return fn(start, stop, scratch)
        finally:
            free.put(scratch)

    jobs = [_slab_pool(SLAB_WORKERS).submit(run, start, stop)
            for start, stop in slabs]
    wait(jobs)
    return [job.result() for job in jobs]


def sgd_step(params, opt, grads):
    """Apply one momentum-SGD update in place.

    Each tensor is walked in row slabs of about GRAD_SLAB_FLOATS floats,
    on up to SLAB_WORKERS threads, and each slab in contiguous flat
    blocks of SGD_BLOCK floats through a small scratch, so the update
    streams through memory once instead of once per operation.  A
    slab's gradient is a view of an array gradient or one product of a
    tc.WeightGrad, formed into a buffer the calling thread allocated for
    its worker, so beyond the parameters and velocities the step holds
    one slab of a first-layer gradient per worker (8 MB), never the
    whole matrix (98 MB for y.w1 at the paper shape).  Every element
    sees the formula's operations in the formula's order, a slab writes
    only its own rows of theta and velocity, and a WeightGrad slab has
    the bits of the whole product's rows, so the bits depend on neither
    size nor on the worker count.  The slab bounds do not depend on
    the worker count either, and each slab returns its per-block sums,
    which are added in block order, so the norms keep their bits too.

    Every shape and contiguity is checked before the first write: a
    rejected call leaves the parameters and velocities as they were and
    creates no velocity.

    Args:
        params: NetworkParams, updated in place; every learned tensor
            must be C-contiguous.
        opt: OptimizerState; velocities are created lazily and updated
            in place.
        grads: dict mapping tensor name (e.g. "x.w1") to gradient, an
            array or a tc.WeightGrad; must cover every learned tensor
            exactly.  Left unmodified.

    Returns:
        dict mapping tensor name to the L2 norm of its gradient, summed
        from the blocks as the update reads them, for logging and
        divergence checks.
    """
    expected = {name for name, _ in _learned_tensors(params)}
    if set(grads) != expected:
        missing = sorted(expected - set(grads))
        extra = sorted(set(grads) - expected)
        raise ConfigError(
            f"gradient dict mismatch: missing {missing}, unknown {extra}"
        )
    for name, theta in _learned_tensors(params):
        # a velocity not yet made will be zeros_like(theta)
        vel = opt.velocity.get(name, theta)
        for what, arr in (("gradient", grads[name]), ("velocity", vel)):
            if arr.shape != theta.shape:
                raise DimensionError(
                    f"{what} for {name} has shape {arr.shape}, parameter "
                    f"has {theta.shape}"
                )
        if not (theta.flags.c_contiguous and vel.flags.c_contiguous):
            raise ContractViolationError(
                f"{name}: SGD updates C-contiguous tensors in place")
    norms = {}
    for name, theta in _learned_tensors(params):
        vel = opt.velocity.get(name)
        if vel is None:
            # a zero start, not a copy of grad: 0 + -0.0 is +0.0
            vel = opt.velocity[name] = np.zeros_like(theta)
        sq = 0.0
        for sums in _step_slabs(theta, grads[name], vel, opt,
                                name.endswith(_DECAYED_SUFFIXES)):
            for block_sq in sums:
                sq += float(block_sq)
        norms[name] = sqrt(sq)
    return norms


def _step_slabs(theta, grad, vel, opt, decayed):
    """Update one tensor's row slabs in place, on up to SLAB_WORKERS
    threads; returns each slab's list of per-block sums of squared
    gradient entries, in slab order."""
    cols = prod(theta.shape[1:])
    slabs = list(_row_slabs(theta.shape[0], cols))
    floats = max((stop - start) * cols for start, stop in slabs)
    formed = isinstance(grad, tc.WeightGrad)

    def slab(start, stop, scratch):
        rows_buf, block_buf = scratch
        if formed:
            rows = grad.rows(start, stop, out=rows_buf[:(stop - start) * cols]
                             .reshape(stop - start, cols))
        else:
            rows = grad[start:stop]
        t, g, v = (a.reshape(-1) for a in (theta[start:stop], rows,
                                           vel[start:stop]))
        sums = []
        for block in range(0, t.size, SGD_BLOCK):
            tb, gb, vb = (a[block:block + SGD_BLOCK] for a in (t, g, v))
            sums.append(np.dot(gb, gb))
            # the scratch holds the decay term, then lr * vel
            sb = block_buf[:tb.size]
            vb *= opt.momentum
            if decayed:
                np.multiply(opt.weight_decay, tb, out=sb)
                sb += gb
                vb += sb
            else:
                vb += gb
            np.multiply(opt.lr, vb, out=sb)
            tb -= sb
        return sums

    return _map_slabs(slab, slabs, (floats if formed else 0,
                                    min(floats, SGD_BLOCK)))


def backward_and_step(params, opt, tapes_x, tapes_y, grad_emb_x, grad_emb_y):
    """Backprop both branches and take one optimizer step.

    The first layers' weight gradients stay unformed WeightGrads, which
    sgd_step forms one row slab at a time.

    Returns:
        sgd_step's dict mapping tensor name to the L2 norm of its
        gradient, for logging and divergence checks.
    """
    bx = backward_branch(tapes_x, grad_emb_x)
    by = backward_branch(tapes_y, grad_emb_y)
    grads = {f"x.{k}": v for k, v in bx.items()}
    grads.update({f"y.{k}": v for k, v in by.items()})
    return sgd_step(params, opt, grads)


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout (all little endian):
#   magic "DSPE" | u32 version | records | 8-byte checksum
# where each record is
#   u32 name length | name utf-8 | u64 rows | u64 cols | rows*cols f64
# records are sorted by name, and the checksum is the first 8 bytes of
# SHA-256 over everything before it.  The record "opt.epoch" counts the
# epochs completed, in a best-epoch checkpoint as in a final one, so a
# training run resumed from either starts at the next epoch.  A save
# replaces its file atomically and never edits it in place, so a path
# that is a hard link of another checkpoint (the command line links the
# final checkpoint to the best-epoch one when they hold the same state)
# is rewritten without touching the other.  Both directions stream: a save
# writes each header and each array as it is, and a load reads the
# records one at a time, each array straight into its own memory, so
# neither holds a second copy of the payload.  One worker thread hashes
# the same buffers in order while the caller does the file I/O, and a
# load compares the checksum before it returns or reports a format
# fault.

# Bytes read at a time while hashing the rest of a file whose records
# failed to parse.
_DRAIN_BYTES = 1 << 20


class _Checksum:
    """The checkpoint checksum of the buffers passed to update(), in order.

    Hashing runs on one worker thread (hashlib releases the GIL for
    large buffers), so it overlaps the caller's file I/O; each buffer
    must stay unchanged until wait() returns.
    """

    def __init__(self):
        self._digest = hashlib.sha256()
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._queued = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._pool.shutdown()

    def update(self, buf):
        self._queued.append(self._pool.submit(self._digest.update, buf))

    def wait(self):
        for job in self._queued:
            job.result()
        self._queued.clear()

    def value(self):
        self.wait()
        return self._digest.digest()[:8]


def _record_shapes(spec):
    """In-memory shape of each of a branch's records, by field name."""
    hidden, embed = spec.hidden_dim, spec.embed_dim
    return {
        "w1": (spec.input_dim, hidden), "b1": (hidden,),
        "w2": (hidden, embed), "b2": (embed,),
        "gamma": (embed,), "beta": (embed,),
        "running_mean": (embed,), "running_var": (embed,),
    }


def _stored_shape(shape):
    """A record's on-disk (rows, cols): scalars are 1x1, vectors rows."""
    return (1,) * (2 - len(shape)) + tuple(shape)


def _named_tensors(params, opt):
    out = {}
    for prefix, bp in (("x", params.x), ("y", params.y)):
        for attr in _BRANCH_RECORDS:
            out[f"{prefix}.{attr}"] = getattr(bp, attr)
    for name, vel in opt.velocity.items():
        out[f"v.{name}"] = vel
    scalars = {
        "meta.seed": float(params.seed),
        "meta.bn_momentum": params.bn_momentum,
        "meta.bn_eps": params.bn_eps,
        "x.dropout_p": params.spec_x.dropout_p,
        "y.dropout_p": params.spec_y.dropout_p,
        "opt.lr0": opt.lr0,
        "opt.lr": opt.lr,
        "opt.momentum": opt.momentum,
        "opt.weight_decay": opt.weight_decay,
        "opt.epoch": float(opt.epoch),
    }
    for name, value in scalars.items():
        out[name] = np.array([[value]], dtype=np.float64)
    return out


def non_finite_tensors(params, opt):
    """Names of the checkpoint records that hold NaN or infinity."""
    return [name for name, arr in _named_tensors(params, opt).items()
            if not np.all(np.isfinite(arr))]


def _as_record_matrix(arr):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim > 2:
        raise FormatError(f"cannot serialize array of ndim {arr.ndim}")
    return arr.reshape(_stored_shape(arr.shape))


def save_checkpoint(params, opt, path):
    """Write params + optimizer state to ``path`` (see layout above)."""
    tensors = _named_tensors(params, opt)
    with _Checksum() as checksum, atomic_write(path, "wb") as fh:

        def put(buf):
            checksum.update(buf)
            fh.write(buf)

        put(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION))
        for name in sorted(tensors):
            mat = np.ascontiguousarray(_as_record_matrix(tensors[name]))
            raw_name = name.encode("utf-8")
            put(struct.pack("<I", len(raw_name)) + raw_name
                + struct.pack("<QQ", mat.shape[0], mat.shape[1]))
            put(mat)
        fh.write(checksum.value())


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint.

    Records are read one at a time, each array straight into its own
    memory, while one worker thread hashes the same bytes, so the peak
    is about one file size.  The checksum is verified before anything
    is returned and before any format fault is reported: a truncated or
    corrupted file raises ChecksumError, and a header that claims more
    bytes than the file has left is never allocated.

    Returns:
        (params, opt).
    """
    with open(path, "rb") as fh, _Checksum() as checksum:
        end = os.fstat(fh.fileno()).st_size - 8
        if end < len(CHECKPOINT_MAGIC) + 4:
            raise ChecksumError(f"{path}: file too short to be a checkpoint")

        def read(count, what, shape=None):
            """The next ``count`` payload bytes, queued for hashing: a
            bytearray, or a float64 array of ``shape``."""
            if count > end - fh.tell():
                raise FormatError(f"checkpoint truncated while reading {what}")
            buf = bytearray(count) if shape is None else np.empty(shape, "<f8")
            if fh.readinto(buf) != count:
                raise FormatError(f"checkpoint truncated while reading {what}")
            checksum.update(buf)
            return buf

        tensors, fault = {}, None
        try:
            head = read(8, "header")
            if head[:4] != CHECKPOINT_MAGIC:
                raise FormatError(f"{path}: bad magic {bytes(head[:4])!r}")
            (version,) = struct.unpack("<I", head[4:])
            if version != CHECKPOINT_VERSION:
                raise FormatError(f"{path}: unsupported version {version}")
            while fh.tell() < end:
                (name_len,) = struct.unpack("<I", read(4, "name length"))
                name = read(name_len, "name").decode("utf-8")
                rows, cols = struct.unpack("<QQ", read(16, f"{name} shape"))
                mat = read(rows * cols * 8, f"{name} data", (rows, cols))
                if name in tensors:
                    raise FormatError(f"{path}: duplicate record {name}")
                tensors[name] = mat
        except (FormatError, ValueError) as exc:
            # a corrupt header can also fail to decode as UTF-8 or claim
            # a shape numpy rejects; the checksum decides the report
            fault = exc
            while chunk := fh.read(min(end - fh.tell(), _DRAIN_BYTES)):
                checksum.update(chunk)
                checksum.wait()
        if checksum.value() != fh.read(8):
            raise ChecksumError(f"{path}: checksum mismatch")
    if fault is not None:
        raise fault
    if list(tensors) != sorted(tensors):
        raise FormatError(f"{path}: records not sorted by name")
    try:
        return _rebuild(tensors, path)
    except ConfigError as exc:
        # a size or setting out of its range
        raise FormatError(f"{path}: {exc}") from exc


def _rebuild(tensors, path):
    def take(name, shape):
        """Pop record ``name`` as an array of in-memory ``shape``."""
        try:
            mat = tensors.pop(name)
        except KeyError:
            raise FormatError(f"{path}: missing record {name}") from None
        if mat.shape != _stored_shape(shape):
            raise FormatError(
                f"{path}: record {name} has shape {mat.shape}, expected "
                f"{_stored_shape(shape)}"
            )
        return mat.reshape(shape)

    specs, branches = {}, {}
    for prefix in ("x", "y"):
        # the two weight matrices size the branch; take() checks the rest
        try:
            (input_dim, hidden_dim), (_, embed_dim) = (
                tensors[f"{prefix}.{attr}"].shape for attr in ("w1", "w2"))
        except KeyError as exc:
            raise FormatError(
                f"{path}: missing record {exc.args[0]}") from None
        specs[prefix] = BranchSpec(
            input_dim, hidden_dim, embed_dim,
            dropout_p=float(take(f"{prefix}.dropout_p", ())))
        shapes = _record_shapes(specs[prefix])
        branches[prefix] = BranchParams(**{
            attr: take(f"{prefix}.{attr}", shapes[attr])
            for attr in _BRANCH_RECORDS})
    if specs["x"].embed_dim != specs["y"].embed_dim:
        raise FormatError(f"{path}: branch embed dims differ")
    params = NetworkParams(
        spec_x=specs["x"], spec_y=specs["y"],
        x=branches["x"], y=branches["y"],
        seed=int(take("meta.seed", ())),
        bn_momentum=float(take("meta.bn_momentum", ())),
        bn_eps=float(take("meta.bn_eps", ())),
    )
    opt = OptimizerState(
        lr0=float(take("opt.lr0", ())),
        lr=float(take("opt.lr", ())),
        momentum=float(take("opt.momentum", ())),
        weight_decay=float(take("opt.weight_decay", ())),
        epoch=int(take("opt.epoch", ())),
    )
    learned = dict(_learned_tensors(params))
    for name in [n for n in tensors if n.startswith("v.")]:
        ref = learned.get(name[2:])
        if ref is None:
            raise FormatError(f"{path}: velocity for unknown {name[2:]}")
        opt.velocity[name[2:]] = take(name, ref.shape)
    if tensors:
        raise FormatError(
            f"{path}: unrecognized records {sorted(tensors)[:3]}"
        )
    return params, opt
