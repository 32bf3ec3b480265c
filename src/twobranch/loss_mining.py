"""Triplet construction and the structure-preserving hinge loss.

Four constraint families are mined inside every mini-batch:

    1. image -> sentence   d(x_i, y_j) + m < d(x_i, y_k)   j positive, k not
    2. sentence -> image   d(y_j, x_i) + m < d(y_j, x_k)
    3. image structure     d(x_i, x_j) + m < d(x_i, x_k)   j in N(x_i), k not
    4. sentence structure  d(y_i, y_j) + m < d(y_i, y_k)

and the total loss weights them as

    L = sum_1 h + lambda1 * sum_2 h + lambda2 * sum_3 h + lambda3 * sum_4 h

with h = max(0, m + d(a, p) - d(a, n)).  Mining keeps, per (anchor,
positive) pair, only the top_k most violated negatives.  Neighborhood
members are never negatives: an item that shares a positive partner
with the anchor (or with one of the anchor's positives, for the
cross-view families) is treated as semantically positive.

A batch carries its correspondence graph as the four arrays that
``data._build_batch`` makes once per batch (see ``data.MiniBatch``):
the positive incidence P (x by y), the reflexive neighbor masks Nx and
Ny, and ``owner``, each reserved x row's one y anchor or -1.  Mining
reads them as they are, after one check of their shapes and values.
The (anchor, positive) pairs are the nonzeros of P, P^T, Nx - I and
Ny - I in row-major order.  The rows of P @ Ny and P^T @ Nx exclude
candidates of the cross-view families, an anchor's own neighbor row
those of the structure families.  A reserved x row is a candidate only
for its own sentence -> image anchor, never in image structure.  Each
pair keeps its top_k candidates with positive violation, largest
first, ties by lower candidate index; a pair with more than top_k
candidates is partitioned to its top_k-th largest violation, so only
top_k entries are sorted.

Every hinge is a difference of two entries of one pairwise distance
matrix per view pair, and its gradient flows back through
pairwise_distance_backward.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor_core import (DIRECT_CHUNK_FLOATS, as_matrix,
                          pairwise_distance_backward, pairwise_distances)

FAMILY_NAMES = (
    "image_to_sentence",
    "sentence_to_image",
    "image_structure",
    "sentence_structure",
)

# family -> (anchor view, positive/negative view)
FAMILY_VIEWS = {
    "image_to_sentence": ("x", "y"),
    "sentence_to_image": ("y", "x"),
    "image_structure": ("x", "x"),
    "sentence_structure": ("y", "y"),
}


@dataclass(frozen=True)
class LossConfig:
    """Margin, family weights and the per-pair mining budget."""

    margin: float = 0.1
    lambda1: float = 2.0
    lambda2: float = 0.0
    lambda3: float = 0.2
    top_k: int = 50

    def __post_init__(self):
        if not self.margin > 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")
        for name in ("lambda1", "lambda2", "lambda3"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be nonnegative, got {getattr(self, name)}"
                )
        if not isinstance(self.top_k, int) or self.top_k < 1:
            raise ConfigError(f"top_k must be a positive int, got {self.top_k}")

    def family_weights(self):
        return {
            "image_to_sentence": 1.0,
            "sentence_to_image": self.lambda1,
            "image_structure": self.lambda2,
            "sentence_structure": self.lambda3,
        }


_EMPTY = np.zeros((0, 3), dtype=np.int64)


@dataclass
class TripletSet:
    """Mined (anchor, positive, negative) index triples per family.

    Index spaces: families 1 and 3 anchor in the x view; families 2 and
    4 anchor in the y view.  Positive/negative columns live in the y
    view for family 1, the x view for family 2, and the anchor's own
    view for families 3 and 4.
    """

    image_to_sentence: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    sentence_to_image: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    image_structure: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    sentence_structure: np.ndarray = field(default_factory=lambda: _EMPTY.copy())

    def counts(self):
        return {name: int(getattr(self, name).shape[0])
                for name in FAMILY_NAMES}

    @property
    def total(self):
        return sum(self.counts().values())


def _checked_masks(batch, nx, ny):
    """A batch's (pos, x_nb, y_nb, owner), checked against embeddings of
    nx and ny rows."""
    pos, x_nb, y_nb, owner = (np.asarray(a) for a in (
        batch.pos, batch.x_nb, batch.y_nb, batch.owner))
    for name, mask, shape in (("pos", pos, (nx, ny)),
                              ("x_nb", x_nb, (nx, nx)),
                              ("y_nb", y_nb, (ny, ny))):
        if mask.dtype != bool or mask.shape != shape:
            raise DimensionError(
                f"{name} is {mask.dtype} {mask.shape}, expected bool {shape}")
    if not (x_nb.diagonal().all() and y_nb.diagonal().all()):
        raise DimensionError(
            "a neighbor mask leaves a row out of its own neighborhood")
    if owner.dtype.kind != "i" or owner.shape != (nx,) \
            or ((owner < -1) | (owner >= ny)).any():
        raise DimensionError(f"owner must be {nx} ints in [-1, {ny})")
    return pos, x_nb, y_nb, owner


def _partitioned_top(keys, top_k):
    """Columns of each row's top_k smallest keys, smallest first.

    Equal keys come in column order.  Each row must hold more than top_k
    finite keys.
    """
    cut = np.partition(keys, top_k - 1, axis=1)[:, top_k - 1, None]
    # all keys below the cut, then the lowest-column ties at it
    below = keys < cut
    ties = keys == cut
    ties &= (np.cumsum(ties, axis=1, dtype=np.int32)
             <= top_k - below.sum(axis=1, keepdims=True))
    cols = np.nonzero(below | ties)[1].reshape(-1, top_k)
    order = np.argsort(np.take_along_axis(keys, cols, axis=1), axis=1,
                       kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _top_violations(dist, anchors, positives, allowed, margin, top_k):
    """Top_k strictly violated negatives per (anchor, positive) pair.

    Row r's violations are margin + dist[a, p] - dist[a, :] with
    a = anchors[r] and p = positives[r]; candidates outside
    ``allowed[a]`` or not above zero are dropped.  Rows are worked in
    blocks of at most DIRECT_CHUNK_FLOATS violations.

    Returns:
        (k, 3) int64 triplets, pair by pair in input order, violation
        descending within a pair, ties by lower negative index.
    """
    m = dist.shape[1]
    block = max(1, DIRECT_CHUNK_FLOATS // max(1, m))
    parts = [_EMPTY]
    for start in range(0, anchors.size, block):
        a = anchors[start:start + block]
        p = positives[start:start + block]
        d = dist[a]
        # minus the violation, exactly: x - y is -(y - x) in floating
        # point, so an ascending sort puts the largest violation first
        neg = d - (margin + d[np.arange(a.size), p])[:, None]
        ok = allowed[a] & (neg < 0.0)
        neg[~ok] = np.inf
        # A row with more than top_k candidates is partitioned before it
        # is sorted; a row of mostly dropped ones sorts fast as it is,
        # and a stable sort keeps equal violations in candidate order.
        big = ok.sum(axis=1) > top_k
        cand = np.empty((a.size, min(top_k, m)), dtype=np.int64)
        cand[~big] = np.argsort(neg[~big], axis=1, kind="stable")[:, :top_k]
        if big.any():
            cand[big] = _partitioned_top(neg[big], top_k)
        keep = np.take_along_axis(neg, cand, axis=1) < np.inf
        rows = np.nonzero(keep)[0]
        parts.append(np.column_stack((a[rows], p[rows], cand[keep])))
    return np.concatenate(parts)


def _excluded(pos, opp_nb):
    """Candidates in the neighborhood of any of an anchor's positives."""
    # a float product runs on BLAS; an integer one does not
    return pos.astype(np.float64) @ opp_nb.astype(np.float64) > 0.0


def mine_triplets(emb_x, emb_y, batch, cfg):
    """Enumerate the top_k most violated triplets of every family.

    Args:
        emb_x, emb_y: embeddings, rows aligned with the batch's x and
            y rows.
        batch: a ``data.MiniBatch``, or any object with its four
            arrays: ``pos`` (nx, ny) bool positive incidence, ``x_nb``
            (nx, nx) and ``y_nb`` (ny, ny) bool neighbor masks with
            every diagonal entry set, and ``owner`` (nx,) ints, the y
            anchor each reserved x row may serve as a negative for, or
            -1.
        cfg: LossConfig.

    Families whose weight in ``cfg`` is exactly zero are skipped and
    come back empty; they would contribute neither loss nor gradient.

    Raises:
        DimensionError: a mask not bool or not sized to the
            embeddings' rows, a neighbor mask with an unset diagonal
            entry, or an ``owner`` of the wrong shape, not integer, or
            with an entry outside [-1, ny).

    Returns:
        TripletSet.
    """
    emb_x = as_matrix(emb_x, "emb_x")
    emb_y = as_matrix(emb_y, "emb_y")
    nx, ny = emb_x.shape[0], emb_y.shape[0]
    pos, x_nb, y_nb, owner = _checked_masks(batch, nx, ny)
    reserved = owner >= 0

    def mine(dist, pairs, allowed):
        return _top_violations(dist, *np.nonzero(pairs), allowed,
                               cfg.margin, cfg.top_k)

    d_xy = pairwise_distances(emb_x, emb_y)
    out = TripletSet()
    out.image_to_sentence = mine(d_xy, pos, ~_excluded(pos, y_nb))
    if cfg.lambda1 > 0:
        own = ~reserved | (owner == np.arange(ny)[:, None])
        out.sentence_to_image = mine(d_xy.T, pos.T,
                                     ~_excluded(pos.T, x_nb) & own)
    if cfg.lambda2 > 0:
        d_xx = pairwise_distances(emb_x, emb_x)
        out.image_structure = mine(d_xx, x_nb & ~np.eye(nx, dtype=bool),
                                   ~x_nb & ~reserved)
    if cfg.lambda3 > 0:
        d_yy = pairwise_distances(emb_y, emb_y)
        out.sentence_structure = mine(d_yy, y_nb & ~np.eye(ny, dtype=bool),
                                      ~y_nb)
    return out


# ---------------------------------------------------------------------------
# loss


@dataclass
class LossResult:
    """Loss value, embedding gradients and per-family hinge sums.

    ``family_sums`` holds each family's hinge sum, neither weighted nor
    scaled.
    """

    loss: float
    grad_x: np.ndarray
    grad_y: np.ndarray
    family_sums: dict


def _oriented(by_pair, name):
    """A family's anchor-by-candidate view of a per-view-pair matrix.

    Sentence -> image reads the transpose of the x-y matrix.
    """
    anchor, cand = FAMILY_VIEWS[name]
    if anchor <= cand:
        return by_pair[anchor, cand]
    return by_pair[cand, anchor].T


def triplet_violations(emb_x, emb_y, triplets, margin):
    """Hinge arguments m + d(a, p) - d(a, n) of every mined triplet.

    One pairwise_distances matrix is computed per view pair that a
    family with mined triplets uses.

    Returns:
        (dists, viols): ``dists`` maps a view pair ("x", "y"),
        ("x", "x") or ("y", "y") to its distance matrix, ``viols`` maps
        each family with mined triplets to one value per triplet.
    """
    emb = {"x": as_matrix(emb_x, "emb_x"), "y": as_matrix(emb_y, "emb_y")}
    dists = {}
    viols = {}
    for name in FAMILY_NAMES:
        t = getattr(triplets, name)
        if t.shape[0] == 0:
            continue
        pair = tuple(sorted(FAMILY_VIEWS[name]))
        if pair not in dists:
            dists[pair] = pairwise_distances(emb[pair[0]], emb[pair[1]])
        d = _oriented(dists, name)
        a, p, n = t[:, 0], t[:, 1], t[:, 2]
        viols[name] = margin + d[a, p] - d[a, n]
    return dists, viols


def _entry_counts(shape, rows, cols):
    flat = np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1])
    return flat.reshape(shape)


def hinge_loss(emb_x, emb_y, triplets, cfg, scales=None):
    """Weighted hinge loss over a TripletSet, with embedding gradients.

    The loss's derivative with respect to the distances gathers +c at
    (a, p) and -c at (a, n) for every active triplet, in one
    coefficient matrix per view pair; pairwise_distance_backward turns
    each into embedding gradients.

    Args:
        scales: optional family name -> factor s_f.  Family f adds
            w_f * s_f times its hinge sum to the loss, so c = w_f * s_f;
            a family not named has s_f = 1.

    Returns:
        LossResult.
    """
    scales = scales or {}
    emb = {"x": as_matrix(emb_x, "emb_x"), "y": as_matrix(emb_y, "emb_y")}
    dists, viols = triplet_violations(emb["x"], emb["y"], triplets,
                                      cfg.margin)
    coeffs = {pair: np.zeros_like(d) for pair, d in dists.items()}
    weights = cfg.family_weights()
    sums = dict.fromkeys(FAMILY_NAMES, 0.0)
    loss = 0.0
    for name, h in viols.items():
        active = h > 0.0
        fam_sum = float(h[active].sum())
        sums[name] = fam_sum
        c = weights[name] * scales.get(name, 1.0)
        loss += c * fam_sum
        if c != 0.0 and active.any():
            a, p, n = getattr(triplets, name)[active].T
            coeff = _oriented(coeffs, name)
            coeff += c * (_entry_counts(coeff.shape, a, p)
                          - _entry_counts(coeff.shape, a, n))
    grads = {"x": np.zeros_like(emb["x"]), "y": np.zeros_like(emb["y"])}
    for (va, vb), coeff in coeffs.items():
        if not coeff.any():
            continue
        ga, gb = pairwise_distance_backward(emb[va], emb[vb], dists[va, vb],
                                            coeff)
        grads[va] += ga
        grads[vb] += gb
    return LossResult(
        loss=loss,
        grad_x=grads["x"],
        grad_y=grads["y"],
        family_sums=sums,
    )
