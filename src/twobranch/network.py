"""Two-branch embedding network.

Each branch maps one view (image features or text features) through

    affine -> ReLU -> dropout -> affine -> batch norm -> row L2 norm

into a shared embedding space where Euclidean distance compares items
across views.  Both forward modes run one chain of the tensor_core
layer forwards, and the backward pass chains their backwards in
reverse, reading what a train forward keeps in a BranchTapes.
Parameters live in plain dataclasses of float64 arrays.  A train
forward widens its batch to float64 once, the one cast point of a
training step, and every later stage reads that copy.
Checkpoints serialize every tensor, the running batch-norm statistics
and the optimizer state to a single binary file.

Every stage of a training step whose result is large enough, and the
Glorot draws of ``init_params``, run over independent row slabs, which
``tc.map_slabs`` spreads over tc.SLAB_WORKERS threads: the whole dense
part of both forward modes (both affine layers, the ReLU and dropout),
the second affine layer's input gradient with the dropout and ReLU
backwards, and the SGD step, which forms both layers' weight gradients
one slab at a time.  SLAB_WORKERS is more than one only when the BLAS
thread count is pinned below the CPUs this process may use, so the
slabs fill the CPUs a single-threaded BLAS leaves idle; with BLAS left
to use every CPU, the slabs run one after another on the calling
thread.  A train-mode split whose result holds fewer than
tc.SLAB_MIN_FLOATS floats stays on the calling thread, since handing
it to the workers costs more than it saves.  Batch norm and the L2
norm, which need every row or are cheap, run once over all rows.  The
bits never depend on the worker count: each slab writes only its own
rows, and a product over a slab of two or more rows has the bits of the
same rows of the whole product.  The calling thread allocates every
slab-sized buffer, which the layers fill through their ``out`` arrays,
so that freed temporaries do not pile up in the workers' own malloc
arenas.
"""

import hashlib
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import inf, prod, sqrt

import numpy as np

from .errors import (ChecksumError, ConfigError, ContractViolationError,
                     DimensionError, FormatError)
from . import tensor_core as tc
from .data import atomic_write

CHECKPOINT_MAGIC = b"DSPE"
CHECKPOINT_VERSION = 1

# The checkpoint record table, the one list of the records a network's
# state is saved as (see the layout under "checkpoints").  Each branch
# record is named "x.<field>" and "y.<field>", for one BranchParams
# field: (its shape, as BranchSpec sizes; its initial value, a Glorot
# draw or a constant; what SGD does with it: "decay" learns it with
# weight decay, "learn" without, None leaves it alone).  The velocity
# of a learned tensor, once SGD has made it, is the record "v.<name>".
_BRANCH_TABLE = {
    "w1": (("input_dim", "hidden_dim"), "glorot", "decay"),
    "b1": (("hidden_dim",), 0.0, "learn"),
    "w2": (("hidden_dim", "embed_dim"), "glorot", "decay"),
    "b2": (("embed_dim",), 0.0, "learn"),
    "gamma": (("embed_dim",), 1.0, "learn"),
    "beta": (("embed_dim",), 0.0, "learn"),
    "running_mean": (("embed_dim",), 0.0, None),
    "running_var": (("embed_dim",), 1.0, None),
}
# Each scalar record: (its owner, its attribute, its kind).  A "finite"
# one is a finite float; a "whole" one is an integer in [0, MAX_SEED],
# all that a float64 record holds exactly.
_SCALAR_TABLE = {
    "meta.seed": ("params", "seed", "whole"),
    "meta.bn_momentum": ("params", "bn_momentum", "finite"),
    "meta.bn_eps": ("params", "bn_eps", "finite"),
    "x.dropout_p": ("spec_x", "dropout_p", "finite"),
    "y.dropout_p": ("spec_y", "dropout_p", "finite"),
    "opt.lr0": ("opt", "lr0", "finite"),
    "opt.lr": ("opt", "lr", "finite"),
    "opt.momentum": ("opt", "momentum", "finite"),
    "opt.weight_decay": ("opt", "weight_decay", "finite"),
    "opt.epoch": ("opt", "epoch", "whole"),
}

# Floats per block of the SGD update: a block of each of theta, grad,
# velocity and the scratch (256 KB apiece) stays in cache from the
# first of the update's six passes to the last.
SGD_BLOCK = 1 << 15

# Floats per row slab of the SGD update: the update forms a weight
# gradient one slab at a time (512 rows of a first-layer weight at 2048
# columns, all 2048 rows of a second-layer one at 512), each running
# slab into its own buffer.  These bounds do not depend on the worker
# count, since the returned norms sum per-block partial sums in slab
# order.  An eval forward pass runs its layer chain in row slabs of
# about GRAD_SLAB_FLOATS / SLAB_WORKERS hidden-layer floats (512 rows at
# the paper shape on one worker, 256 on two), into buffers the calling
# thread allocates, so the slabs in flight hold about one slab's worth
# whatever the worker count; its bits do not depend on the bounds.  Each
# slab's first product packs the whole first-layer weight again, and
# slabs sized by 6000 input floats (174 rows) made the one-worker
# forward pass about 3% slower.  A train forward is not sized by these
# floats: it runs one slab per worker, of equal heights, into hidden and
# pre-norm arrays the calling thread allocates (the batch norm after
# them needs every row anyway); sized like an eval pass, the paper
# shape's 680 y rows split 256/256/168 and its 190 x rows not at all.
GRAD_SLAB_FLOATS = 1 << 20

# A checkpoint stores the seed as a float64 record, which holds every
# integer up to 2^53 exactly; numpy's generators take no negative seed.
MAX_SEED = 1 << 53


def check_seed(seed):
    """Raise ConfigError unless ``seed`` lies in [0, MAX_SEED]."""
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"seed must lie in [0, 2^53], got {seed}")


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
        check_seed(self.seed)
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
    lr: float = lr0
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epoch: int = 0
    velocity: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.lr0 < inf:
            raise ConfigError(f"lr0 must be > 0 and finite, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(
                f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got "
                              f"{self.weight_decay}")
        if self.epoch < 0:
            raise ConfigError(f"epoch must be >= 0, got {self.epoch}")


def learning_rate(epoch, lr0=OptimizerState.lr0):
    """Step schedule: divide by 10 every 10 epochs."""
    if epoch < 0:
        raise ConfigError(f"epoch must be non-negative, got {epoch}")
    return lr0 * 0.1 ** (epoch // 10)


def _glorot_uniform(rng, fan_in, fan_out):
    """rng.uniform(-bound, bound, size=(fan_in, fan_out)), drawn in
    tc.worker_slabs row slabs.

    Each slab draws from a copy of rng's PCG64 moved with advance() to
    the slab's offset in the one stream (a float64 draw takes one step)
    and scales in place as Generator.uniform does, low + (high - low) *
    u; rng then advances past the whole matrix.  So the bits and the
    stream after are those of the one uniform call.
    """
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    low, high = -bound, bound
    w = np.empty((fan_in, fan_out))
    state = rng.bit_generator.state

    def slab(start, stop, _):
        bits = np.random.PCG64()
        bits.state = state
        bits.advance(start * fan_out)
        rows = np.random.Generator(bits).random(out=w[start:stop])
        rows *= high - low
        rows += low

    tc.map_slabs(slab, tc.worker_slabs(fan_in, w.size), ())
    rng.bit_generator.advance(w.size)
    return w


def _init_branch(rng, spec):
    """A branch's fields as the record table starts them."""
    arrays = {}
    for attr, (dims, init, _) in _BRANCH_TABLE.items():
        shape = tuple(getattr(spec, dim) for dim in dims)
        arrays[attr] = (_glorot_uniform(rng, *shape) if init == "glorot"
                        else np.full(shape, init))
    return BranchParams(**arrays)


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
    check_seed(seed)
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
    """What backward_branch reads of a train forward: the arrays the
    affine, ReLU and dropout backwards take (``inputs``, the batch
    widened to float64, the masks and ``hidden``, dropout's output) and
    the batch-norm and L2 tapes.  backward_branch drops both masks once
    read; the L2 tape refuses a second backward."""

    inputs: np.ndarray
    relu_mask: np.ndarray
    drop_mask: np.ndarray
    hidden: np.ndarray
    w2: np.ndarray
    batchnorm: tc.BatchNormTape
    l2norm: tc.L2NormTape


def forward_branch(params, branch, inputs, mode, rng=None):
    """Run one branch.

    Inputs may be float32 or float64.  A train pass widens them once,
    with tc.as_matrix, and its slabs and tapes read that float64 copy;
    an eval pass widens each row slab into a buffer.  Both modes run one
    chain of the tc layers, whose dense part (``_dense_layers``: affine,
    ReLU, dropout, affine) runs on row slabs on up to tc.SLAB_WORKERS
    threads, into buffers the calling thread allocates, so the workers
    free no slab-sized temporaries into their own malloc arenas.

    In train mode there is one slab per worker, of equal heights
    (``tc.worker_slabs``; one slab of all rows when the hidden layer
    holds fewer than tc.SLAB_MIN_FLOATS floats, where a toy batch's
    forward costs less than handing it to the workers).  Each slab runs
    the first affine layer into its rows of one (n, hidden_dim) array,
    the ReLU and dropout in place over them and the second affine layer
    into its rows of one (n, embed_dim) array.  Dropout applies a mask
    drawn on the calling thread with the branch's one ``rng.random``
    call, so the RNG stream is the same at any worker count.  Batch norm
    and the L2 norm then run once over all rows, since batch norm needs
    every row.

    In eval mode the chain runs on each row slab of ``_row_slabs``
    (about GRAD_SLAB_FLOATS / SLAB_WORKERS hidden-layer floats), through
    ``out`` into a widened-input, a hidden and a pre-norm buffer, with
    the ReLU mask in the bytes of a fourth, and into the slab's rows of
    one (n, embed_dim) output, so the pass never holds a widened copy of
    all inputs or their whole hidden layer.

    The bits are those of one pass over all rows, whatever the worker
    count and slab bounds: every slabbed layer is row-local, a layer
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
    if mode == "train":
        return _train_forward(params, spec, p, inputs, rng)
    if mode != "eval":
        raise ContractViolationError(f"unknown forward mode {mode!r}")
    n = inputs.shape[0]
    slabs = _row_slabs(n, spec.hidden_dim, tc.SLAB_WORKERS)
    rows = max((stop - start for start, stop in slabs), default=0)
    # columns of the widened input, the hidden layer and the pre-norm one
    widths = (spec.input_dim, spec.hidden_dim, spec.embed_dim)
    emb = np.empty((n, spec.embed_dim))

    def slab(start, stop, scratch):
        x_buf, h_buf, o_buf = (
            buf[:(stop - start) * cols].reshape(stop - start, cols)
            for buf, cols in zip(scratch, widths))
        mask = scratch[3].view(bool)[:h_buf.size].reshape(h_buf.shape)
        np.copyto(x_buf, inputs[start:stop])
        _dense_layers(p, spec, x_buf, "eval", h_buf, o_buf, relu_mask=mask)
        h, _ = tc.batchnorm_forward(
            o_buf, p.gamma, p.beta, p.running_mean, p.running_var, "eval",
            momentum=params.bn_momentum, eps=params.bn_eps, out=o_buf)
        tc.l2_normalize_rows(h, out=emb[start:stop])

    # and a float64 scratch whose bytes hold the slab's ReLU mask
    tc.map_slabs(slab, slabs, [rows * cols for cols in widths]
                 + [-(-rows * spec.hidden_dim // 8)])
    return emb, None


def _train_forward(params, spec, p, inputs, rng):
    """forward_branch's train mode (see there): (embeddings, tapes)."""
    x = tc.as_matrix(inputs, "inputs")
    n, hidden = x.shape[0], spec.hidden_dim
    h = np.empty((n, hidden))
    relu_mask = np.empty((n, hidden), dtype=bool)
    if spec.dropout_p == 0.0:
        # dropout fills it with ones and draws nothing
        drop_mask = np.empty((n, hidden))
    elif rng is None:
        raise ContractViolationError(
            "train mode with dropout_p > 0 requires an rng")
    else:
        drop_mask = rng.random((n, hidden))
    pre = np.empty((n, spec.embed_dim))

    def slab(start, stop, _):
        part = slice(start, stop)
        _dense_layers(p, spec, x[part], "train", h[part], pre[part],
                      relu_mask=relu_mask[part], drop_mask=drop_mask[part])

    tc.map_slabs(slab, tc.worker_slabs(n, h.size), ())
    out, t_bn = tc.batchnorm_forward(
        pre, p.gamma, p.beta, p.running_mean, p.running_var, "train",
        momentum=params.bn_momentum, eps=params.bn_eps, out=pre)
    emb, t_norm = tc.l2_normalize_rows(out)
    return emb, BranchTapes(x, relu_mask, drop_mask, h, p.w2, t_bn, t_norm)


def _dense_layers(p, spec, x, mode, hidden, pre, relu_mask=None,
                  drop_mask=None):
    """A branch's tc layers from the first affine one through the second,
    over float64 rows ``x``: the first affine layer, the ReLU and dropout
    write ``hidden`` in place, the second affine layer ``pre``.
    ``relu_mask`` and ``drop_mask`` take the ReLU mask and dropout's
    scaled mask (see tc.dropout_forward's ``draws``)."""
    h = tc.affine_forward(x, p.w1, p.b1, out=hidden)
    tc.relu_forward(h, out=h, mask=relu_mask)
    tc.dropout_forward(h, spec.dropout_p, mode, out=h, draws=drop_mask)
    tc.affine_forward(h, p.w2, p.b2, out=pre)


def backward_branch(tapes, grad_emb):
    """Chain the layer backwards; returns dict of parameter gradients.

    The L2 norm and batch norm run once over all rows.  Then each of
    tc.worker_slabs' row slabs forms the second affine layer's input
    gradient and runs the dropout and ReLU backwards in place over it,
    with its rows of the masks, into its rows of one (n, hidden_dim)
    array; the bits are those of one pass, as in forward_branch.  The
    masks then leave ``tapes``, before the SGD step.  Both weight
    gradients are returned as unformed tc.WeightGrads, which sgd_step
    forms in row slabs.  The inputs are data, so no gradient flows into
    them.
    """
    if tapes is None:
        raise ConfigError("backward requires train-mode tapes")
    g = tc.l2_normalize_rows_backward(grad_emb, tapes.l2norm)
    g, g_gamma, g_beta = tc.batchnorm_backward(g, tapes.batchnorm)
    g_w2, g_b2 = tc.affine_param_backward(g, tapes.hidden)
    grad_h = np.empty(tapes.hidden.shape)

    def slab(start, stop, _):
        gh = tc.affine_input_backward(g[start:stop], tapes.w2,
                                      out=grad_h[start:stop])
        tc.dropout_backward(gh, tapes.drop_mask[start:stop], out=gh)
        tc.relu_backward(gh, tapes.relu_mask[start:stop], out=gh)

    tc.map_slabs(slab, tc.worker_slabs(len(grad_h), grad_h.size), ())
    # let the masks go before the SGD step forms the WeightGrads
    tapes.drop_mask = tapes.relu_mask = None
    g_w1, g_b1 = tc.affine_param_backward(grad_h, tapes.inputs)
    return {
        "w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2,
        "gamma": g_gamma, "beta": g_beta,
    }


def _learned_tensors(params):
    """Yield (name, array) for every tensor the optimizer updates."""
    for prefix, bp in (("x", params.x), ("y", params.y)):
        for attr, (_, _, sgd) in _BRANCH_TABLE.items():
            if sgd:
                yield f"{prefix}.{attr}", getattr(bp, attr)


def _row_slabs(rows, row_floats, workers=1):
    """(start, stop) row ranges of about GRAD_SLAB_FLOATS / workers
    floats (see tc.slabs_of_height)."""
    return tc.slabs_of_height(
        rows, GRAD_SLAB_FLOATS // (row_floats * workers))


def sgd_step(params, opt, grads):
    """Apply one momentum-SGD update in place.

    Each tensor is walked in row slabs of about GRAD_SLAB_FLOATS floats,
    each slab in flat blocks of SGD_BLOCK floats through a small
    scratch, so the update streams through memory once rather than once
    per operation.  The slabs of all tensors run in one tc.map_slabs
    call, so a second-layer weight's one slab runs beside another
    tensor's slabs (on the calling thread when the tensors hold fewer
    than tc.SLAB_MIN_FLOATS floats in all).  A slab of a tc.WeightGrad
    (a first layer's reads the float64 batch its train forward widened)
    forms in a buffer the calling thread allocated for its worker, so
    the step holds one slab of a weight gradient per worker (8 MB),
    never the whole matrix (98 MB for y.w1 at the paper shape).  Every
    element sees the formula's operations in the formula's order, a slab
    writes only its own rows and a WeightGrad slab has the bits of the
    whole product's rows, so neither the slab bounds, which do not
    depend on the worker count, nor the worker count change a bit; each
    slab returns its per-block sums, added in block order, so the norms
    keep their bits too.

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
    tensors = dict(_learned_tensors(params))
    if set(grads) != set(tensors):
        missing = sorted(set(tensors) - set(grads))
        extra = sorted(set(grads) - set(tensors))
        raise ConfigError(
            f"gradient dict mismatch: missing {missing}, unknown {extra}"
        )
    for name, theta in tensors.items():
        # a velocity not yet made will be zeros of theta's shape
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
    # slab -> its work: the floats it updates, times the rows of its
    # product when it forms a WeightGrad
    work, formed, block = {}, 0, 0
    for name, theta in tensors.items():
        if name not in opt.velocity:
            # a zero start, not a copy of grad: 0 + -0.0 is +0.0; the
            # kernel zeroes its pages as the slab workers first write
            # them, where zeros_like would memset them on this thread
            opt.velocity[name] = np.zeros(theta.shape)
        grad, cols = grads[name], prod(theta.shape[1:])
        for start, stop in _row_slabs(theta.shape[0], cols):
            floats = (stop - start) * cols
            block = max(block, min(floats, SGD_BLOCK))
            work[name, start, stop] = floats
            if isinstance(grad, tc.WeightGrad):
                work[name, start, stop] *= 1 + grad.x.shape[0]
                formed = max(formed, floats)

    def slab(name, start, stop, scratch):
        _, _, sgd = _BRANCH_TABLE[name[2:]]
        return _step_slab(tensors[name], grads[name], opt.velocity[name],
                          opt, sgd == "decay", start, stop, scratch)

    # the largest slabs first, so that none runs alone at the end
    order = sorted(work, key=work.get, reverse=True)
    sums = dict(zip(order, tc.map_slabs(
        slab, order, (formed, block),
        inline=not tc.worth_splitting(sum(t.size for t in tensors.values())))))
    sq = dict.fromkeys(tensors, 0.0)
    for key in work:
        # each tensor's blocks in row order
        for block_sq in sums[key]:
            sq[key[0]] += float(block_sq)
    return {name: sqrt(value) for name, value in sq.items()}


def _step_slab(theta, grad, vel, opt, decayed, start, stop, scratch):
    """Update rows start:stop of one tensor in place; returns the slab's
    list of per-block sums of squared gradient entries."""
    formed_buf, block_buf = scratch
    if isinstance(grad, tc.WeightGrad):
        cols = theta.shape[1]
        rows = grad.rows(start, stop, out=formed_buf[
            :(stop - start) * cols].reshape(stop - start, cols))
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
# SHA-256 over everything before it.  The record table at the top of this
# module (_BRANCH_TABLE and _SCALAR_TABLE) is the one list of the records,
# their shapes and their kinds; a scalar is stored as a 1x1 record and a
# vector as one row.  The optimizer's epoch record counts the epochs
# completed, in a best-epoch checkpoint as in a final one, so a training
# run resumed from either starts at the next epoch.  A save
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


def _stored_shape(shape):
    """A record's on-disk (rows, cols): scalars are 1x1, vectors rows."""
    return (1,) * (2 - len(shape)) + tuple(shape)


def _named_tensors(params, opt):
    """Every checkpoint record of (params, opt): name -> array."""
    out = {f"{prefix}.{attr}": getattr(bp, attr)
           for prefix, bp in (("x", params.x), ("y", params.y))
           for attr in _BRANCH_TABLE}
    for name, vel in opt.velocity.items():
        out[f"v.{name}"] = vel
    owners = {"params": params, "spec_x": params.spec_x,
              "spec_y": params.spec_y, "opt": opt}
    for name, (owner, attr, _) in _SCALAR_TABLE.items():
        out[name] = np.array([[float(getattr(owners[owner], attr))]])
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


def _check_record(path, name, mat):
    """FormatError naming record ``name`` of ``path`` if it holds NaN or
    infinity: training never saves one, so ``save_checkpoint`` refuses
    to write such a record and ``load_checkpoint`` to read one."""
    if not np.isfinite(mat).all():
        raise FormatError(f"{path}: record {name} holds "
                          f"{mat[~np.isfinite(mat)][0]}")


def save_checkpoint(params, opt, path):
    """Write params + optimizer state to ``path`` (see layout above).

    Each record is checked as ``load_checkpoint`` checks it, while the
    worker hashes it: one holding NaN or infinity raises FormatError
    naming it, and the old file keeps its bytes.
    """
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
            _check_record(path, name, mat)
        fh.write(checksum.value())


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint.

    Records are read one at a time, each array straight into its own
    memory, while one worker thread hashes the same bytes, so the peak
    is about one file size.  The checksum is verified before anything
    is returned and before any format fault is reported: a truncated or
    corrupted file raises ChecksumError, and a header that claims more
    bytes than the file has left is never allocated.  A record holding
    NaN or infinity is a FormatError, as training never saves one; each
    is checked while the worker hashes it.

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
                _check_record(path, name, mat)
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
        if name not in tensors:
            raise FormatError(f"{path}: missing record {name}")
        mat = tensors.pop(name)
        if mat.shape != _stored_shape(shape):
            raise FormatError(f"{path}: record {name} has shape {mat.shape}, "
                              f"expected {_stored_shape(shape)}")
        return mat.reshape(shape)

    # each scalar, checked for its kind, as a keyword of its owner
    scalars = {owner: {} for owner, _, _ in _SCALAR_TABLE.values()}
    for name, (owner, attr, kind) in _SCALAR_TABLE.items():
        # every record is finite by now
        value = float(take(name, ()))
        if kind == "whole" and not (value.is_integer()
                                    and 0 <= value <= MAX_SEED):
            raise FormatError(f"{path}: record {name} holds {value}, "
                              "expected a whole number in [0, 2^53]")
        scalars[owner][attr] = value if kind == "finite" else int(value)
    specs, branches = {}, {}
    for prefix in ("x", "y"):
        # take() checks each record against the branch sizes its table
        # entry names; a size not yet known is read from the record that
        # first holds it, which in table order is a matrix
        sizes, arrays = {}, {}
        for attr, (dims, _, _) in _BRANCH_TABLE.items():
            name = f"{prefix}.{attr}"
            held = (tensors[name].shape[2 - len(dims):] if name in tensors
                    else ())
            arrays[attr] = take(name, tuple(
                sizes.setdefault(dim, size) for dim, size in zip(dims, held)))
        specs[prefix] = BranchSpec(**sizes, **scalars[f"spec_{prefix}"])
        branches[prefix] = BranchParams(**arrays)
    if specs["x"].embed_dim != specs["y"].embed_dim:
        raise FormatError(f"{path}: branch embed dims differ")
    params = NetworkParams(spec_x=specs["x"], spec_y=specs["y"],
                           x=branches["x"], y=branches["y"],
                           **scalars["params"])
    opt = OptimizerState(**scalars["opt"])
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
