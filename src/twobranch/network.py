"""Two-branch embedding network.

Each branch maps one view (image features or text features) through

    affine -> ReLU -> dropout -> affine -> batch norm -> row L2 norm

into a shared embedding space where Euclidean distance compares items
across views.  Parameters live in plain dataclasses of float64 arrays;
the backward pass is hand-derived by chaining the tensor_core layer
backwards in reverse.  Checkpoints serialize every tensor, the running
batch-norm statistics and the optimizer state to a single binary file.
"""

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ChecksumError, ConfigError, DimensionError, FormatError
from . import tensor_core as tc
from .data import atomic_write

CHECKPOINT_MAGIC = b"DSPE"
CHECKPOINT_VERSION = 1

# Parameter names ending in these suffixes are affine weight matrices;
# weight decay applies to them only.
_DECAYED_SUFFIXES = (".w1", ".w2")


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
    inputs = tc.as_matrix(inputs, "inputs")
    if inputs.shape[1] != spec.input_dim:
        raise DimensionError(
            f"branch {branch}: inputs have {inputs.shape[1]} columns, "
            f"expected {spec.input_dim}"
        )
    h, t_aff1 = tc.affine_forward(inputs, p.w1, p.b1)
    h, t_relu = tc.relu_forward(h)
    h, t_drop = tc.dropout_forward(h, spec.dropout_p, mode, rng=rng)
    h, t_aff2 = tc.affine_forward(h, p.w2, p.b2)
    h, t_bn = tc.batchnorm_forward(
        h, p.gamma, p.beta, p.running_mean, p.running_var, mode,
        momentum=params.bn_momentum, eps=params.bn_eps,
    )
    emb, t_norm = tc.l2_normalize_rows(h)
    if mode == "eval":
        return emb, None
    return emb, BranchTapes(t_aff1, t_relu, t_drop, t_aff2, t_bn, t_norm)


def backward_branch(tapes, grad_emb):
    """Chain the layer backwards; returns dict of parameter gradients."""
    if tapes is None:
        raise ConfigError("backward requires train-mode tapes")
    g = tc.l2_normalize_rows_backward(grad_emb, tapes.l2norm)
    g, g_gamma, g_beta = tc.batchnorm_backward(g, tapes.batchnorm)
    g, g_w2, g_b2 = tc.affine_backward(g, tapes.affine2)
    g = tc.dropout_backward(g, tapes.dropout)
    g = tc.relu_backward(g, tapes.relu)
    g, g_w1, g_b1 = tc.affine_backward(g, tapes.affine1)
    return {
        "w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2,
        "gamma": g_gamma, "beta": g_beta,
    }, g


def _learned_tensors(params):
    """Yield (name, array) for every tensor the optimizer updates."""
    for prefix, bp in (("x", params.x), ("y", params.y)):
        for attr in ("w1", "b1", "w2", "b2", "gamma", "beta"):
            yield f"{prefix}.{attr}", getattr(bp, attr)


def sgd_step(params, opt, grads):
    """Apply one momentum-SGD update in place.

    Args:
        params: NetworkParams, updated in place.
        opt: OptimizerState; velocities are created lazily and updated
            in place.
        grads: dict mapping tensor name (e.g. "x.w1") to gradient; must
            cover every learned tensor exactly.
    """
    expected = {name for name, _ in _learned_tensors(params)}
    if set(grads) != expected:
        missing = sorted(expected - set(grads))
        extra = sorted(set(grads) - expected)
        raise ConfigError(
            f"gradient dict mismatch: missing {missing}, unknown {extra}"
        )
    for name, theta in _learned_tensors(params):
        grad = grads[name]
        if grad.shape != theta.shape:
            raise DimensionError(
                f"gradient for {name} has shape {grad.shape}, parameter "
                f"has {theta.shape}"
            )
        if name.endswith(_DECAYED_SUFFIXES):
            grad = grad + opt.weight_decay * theta
        vel = opt.velocity.get(name)
        if vel is None:
            vel = np.zeros_like(theta)
        vel = opt.momentum * vel + grad
        opt.velocity[name] = vel
        theta -= opt.lr * vel


def backward_and_step(params, opt, tapes_x, tapes_y, grad_emb_x, grad_emb_y):
    """Backprop both branches and take one optimizer step.

    Returns:
        dict mapping tensor name to the L2 norm of its gradient, for
        logging and divergence checks.
    """
    bx, _ = backward_branch(tapes_x, grad_emb_x)
    by, _ = backward_branch(tapes_y, grad_emb_y)
    grads = {f"x.{k}": v for k, v in bx.items()}
    grads.update({f"y.{k}": v for k, v in by.items()})
    report = {name: float(np.linalg.norm(g)) for name, g in grads.items()}
    sgd_step(params, opt, grads)
    return report


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout (all little endian):
#   magic "DSPE" | u32 version | records | 8-byte checksum
# where each record is
#   u32 name length | name utf-8 | u64 rows | u64 cols | rows*cols f64
# records are sorted by name, and the checksum is the first 8 bytes of
# SHA-256 over everything before it.


def _named_tensors(params, opt):
    out = {}
    for prefix, bp in (("x", params.x), ("y", params.y)):
        for attr in ("w1", "b1", "w2", "b2", "gamma", "beta",
                     "running_mean", "running_var"):
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


def _as_record_matrix(arr):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    if arr.ndim == 2:
        return arr
    raise FormatError(f"cannot serialize array of ndim {arr.ndim}")


def save_checkpoint(params, opt, path):
    """Write params + optimizer state to ``path`` (see layout above)."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    tensors = _named_tensors(params, opt)
    for name in sorted(tensors):
        mat = np.ascontiguousarray(_as_record_matrix(tensors[name]))
        raw_name = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw_name)))
        chunks.append(raw_name)
        chunks.append(struct.pack("<QQ", mat.shape[0], mat.shape[1]))
        chunks.append(mat.tobytes())
    payload = b"".join(chunks)
    digest = hashlib.sha256(payload).digest()[:8]
    with atomic_write(path, "wb") as fh:
        fh.write(payload)
        fh.write(digest)


def _read_exact(buf, pos, count, what):
    end = pos + count
    if end > len(buf):
        raise FormatError(f"checkpoint truncated while reading {what}")
    return buf[pos:end], end


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint.

    The trailing checksum is verified before anything is parsed, so a
    truncated or corrupted file fails loudly.

    Returns:
        (params, opt).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 4 + 8:
        raise ChecksumError(f"{path}: file too short to be a checkpoint")
    payload, stored = blob[:-8], blob[-8:]
    if hashlib.sha256(payload).digest()[:8] != stored:
        raise ChecksumError(f"{path}: checksum mismatch")
    if payload[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {payload[:4]!r}")
    (version,) = struct.unpack("<I", payload[4:8])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    pos = 8
    tensors = {}
    order = []
    while pos < len(payload):
        raw, pos = _read_exact(payload, pos, 4, "name length")
        (name_len,) = struct.unpack("<I", raw)
        raw, pos = _read_exact(payload, pos, name_len, "name")
        name = raw.decode("utf-8")
        raw, pos = _read_exact(payload, pos, 16, f"{name} shape")
        rows, cols = struct.unpack("<QQ", raw)
        raw, pos = _read_exact(payload, pos, rows * cols * 8, f"{name} data")
        if name in tensors:
            raise FormatError(f"{path}: duplicate record {name}")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
        order.append(name)
    if order != sorted(order):
        raise FormatError(f"{path}: records not sorted by name")
    return _rebuild(tensors, path)


def _scalar(tensors, name, path):
    try:
        mat = tensors.pop(name)
    except KeyError:
        raise FormatError(f"{path}: missing record {name}") from None
    if mat.shape != (1, 1):
        raise FormatError(f"{path}: record {name} is not a scalar")
    return float(mat[0, 0])


def _vector(tensors, name, path):
    try:
        mat = tensors.pop(name)
    except KeyError:
        raise FormatError(f"{path}: missing record {name}") from None
    if mat.shape[0] != 1:
        raise FormatError(f"{path}: record {name} is not a row vector")
    return mat.reshape(-1)


def _matrix(tensors, name, path):
    try:
        return tensors.pop(name)
    except KeyError:
        raise FormatError(f"{path}: missing record {name}") from None


def _rebuild(tensors, path):
    seed = int(_scalar(tensors, "meta.seed", path))
    bn_momentum = _scalar(tensors, "meta.bn_momentum", path)
    bn_eps = _scalar(tensors, "meta.bn_eps", path)
    branches = {}
    for prefix in ("x", "y"):
        bp = BranchParams(
            w1=_matrix(tensors, f"{prefix}.w1", path),
            b1=_vector(tensors, f"{prefix}.b1", path),
            w2=_matrix(tensors, f"{prefix}.w2", path),
            b2=_vector(tensors, f"{prefix}.b2", path),
            gamma=_vector(tensors, f"{prefix}.gamma", path),
            beta=_vector(tensors, f"{prefix}.beta", path),
            running_mean=_vector(tensors, f"{prefix}.running_mean", path),
            running_var=_vector(tensors, f"{prefix}.running_var", path),
        )
        dropout_p = _scalar(tensors, f"{prefix}.dropout_p", path)
        try:
            spec = BranchSpec(
                input_dim=bp.w1.shape[0],
                hidden_dim=bp.w1.shape[1],
                embed_dim=bp.w2.shape[1],
                dropout_p=dropout_p,
            )
        except ConfigError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        expected = {
            "w2": (spec.hidden_dim, spec.embed_dim),
            "b1": (spec.hidden_dim,),
            "b2": (spec.embed_dim,),
            "gamma": (spec.embed_dim,),
            "beta": (spec.embed_dim,),
            "running_mean": (spec.embed_dim,),
            "running_var": (spec.embed_dim,),
        }
        for attr, shape in expected.items():
            if getattr(bp, attr).shape != shape:
                raise FormatError(
                    f"{path}: {prefix}.{attr} has shape "
                    f"{getattr(bp, attr).shape}, expected {shape}"
                )
        branches[prefix] = (spec, bp)
    opt = OptimizerState(
        lr0=_scalar(tensors, "opt.lr0", path),
        lr=_scalar(tensors, "opt.lr", path),
        momentum=_scalar(tensors, "opt.momentum", path),
        weight_decay=_scalar(tensors, "opt.weight_decay", path),
        epoch=int(_scalar(tensors, "opt.epoch", path)),
    )
    params = NetworkParams(
        spec_x=branches["x"][0],
        spec_y=branches["y"][0],
        x=branches["x"][1],
        y=branches["y"][1],
        seed=seed,
        bn_momentum=bn_momentum,
        bn_eps=bn_eps,
    )
    if params.spec_x.embed_dim != params.spec_y.embed_dim:
        raise FormatError(f"{path}: branch embed dims differ")
    for name in list(tensors):
        if name.startswith("v."):
            tensor_name = name[2:]
            ref = dict(_learned_tensors(params)).get(tensor_name)
            if ref is None:
                raise FormatError(f"{path}: velocity for unknown {tensor_name}")
            vel = tensors.pop(name)
            if tensor_name.split(".")[1] in ("b1", "b2", "gamma", "beta"):
                vel = vel.reshape(-1)
            if vel.shape != ref.shape:
                raise FormatError(
                    f"{path}: velocity {tensor_name} has shape {vel.shape}, "
                    f"parameter has {ref.shape}"
                )
            opt.velocity[tensor_name] = vel
    if tensors:
        raise FormatError(
            f"{path}: unrecognized records {sorted(tensors)[:3]}"
        )
    return params, opt
