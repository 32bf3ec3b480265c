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

Mining and the loss read the same distances: view_distances forms one
pairwise distance matrix per view pair that a weighted family reads,
mine_triplets hands them on in its TripletSet, and every hinge is a
difference of two entries of one of them.  Its gradient flows back
through that matrix's backward: tensor_core.distance_weights, then
tensor_core.distance_side_grad for each of the pair's two views.

At the paper shape the heavy stages run on the CPUs a single-threaded
BLAS leaves idle (see tensor_core.map_slabs): view_distances forms its
matrices beside one another, mining splits every family's pair rows
into row slabs, and the hinge forms the side gradients of its view
pairs beside one another, largest first.  The hinge's coefficients and
distance weights run on the calling thread.  Results are combined in
one fixed order, so their bits do not depend on the worker count.
"""

from dataclasses import dataclass, field
from math import inf

import numpy as np

from . import tensor_core as tc
from .errors import ConfigError, DimensionError
from .tensor_core import DIRECT_CHUNK_FLOATS, as_matrix, pairwise_distances

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
        # a NaN weight would silently drop its family, an infinite one
        # would only fail once the loss is not finite
        if not 0 < self.margin < inf:
            raise ConfigError(
                f"margin must be positive and finite, got {self.margin}")
        for name in ("lambda1", "lambda2", "lambda3"):
            if not 0 <= getattr(self, name) < inf:
                raise ConfigError(f"{name} must be nonnegative and finite, "
                                  f"got {getattr(self, name)}")
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

    ``dists`` holds the matrices the triplets were mined on, as
    view_distances returns them; a set built by hand holds none.
    """

    image_to_sentence: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    sentence_to_image: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    image_structure: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    sentence_structure: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    dists: dict = field(default_factory=dict)

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


def _top_violations(families, margin, top_k):
    """Top_k strictly violated negatives per (anchor, positive) pair, for
    each of ``families``, a list of (dist, anchors, positives, allowed).

    Row r's violations are margin + dist[a, p] - dist[a, :] with
    a = anchors[r] and p = positives[r]; candidates outside
    ``allowed[a]`` or not above zero are dropped.  Each family's rows
    run in tc.worker_slabs row slabs, the slabs of all families in one
    tc.map_slabs call (on the calling thread when their violations hold
    fewer than tc.SLAB_MIN_FLOATS floats in all), each slab worked in
    blocks of at most DIRECT_CHUNK_FLOATS violations gathered into a
    buffer the calling thread allocated.  A row's triplets depend on no
    other row, so the bounds do not change them.

    Returns:
        per family, (k, 3) int64 triplets, pair by pair in input order,
        violation descending within a pair, ties by lower negative
        index.
    """
    # rows per block of each family, and the largest block's floats
    heights = [max(1, DIRECT_CHUNK_FLOATS // max(1, dist.shape[1]))
               for dist, *_ in families]
    slabs, floats, buf_floats = [], 0, 0
    for f, (dist, anchors, _, _) in enumerate(families):
        m = dist.shape[1]
        for start, stop in tc.worker_slabs(anchors.size, anchors.size * m):
            slabs.append((f, start, stop))
            buf_floats = max(buf_floats, min(heights[f], stop - start) * m)
        floats += anchors.size * m

    def slab(f, start, stop, scratch):
        dist, anchors, positives, allowed = families[f]
        out = []
        for lo in range(start, stop, heights[f]):
            rows = slice(lo, min(lo + heights[f], stop))
            out.append(_block_violations(dist, anchors[rows],
                                         positives[rows], allowed, margin,
                                         top_k, scratch[0]))
        return out

    parts = [[_EMPTY] for _ in families]
    for (f, _, _), blocks in zip(slabs, tc.map_slabs(
            slab, slabs, (buf_floats,),
            inline=not tc.worth_splitting(floats))):
        parts[f] += blocks
    return [np.concatenate(p) for p in parts]


def _block_violations(dist, a, p, allowed, margin, top_k, buf):
    """_top_violations of one block of pairs, gathering into ``buf``."""
    m = dist.shape[1]
    neg = np.take(dist, a, axis=0, out=buf[:a.size * m].reshape(a.size, m))
    # minus the violation, exactly: x - y is -(y - x) in floating
    # point, so an ascending sort puts the largest violation first
    neg -= (margin + neg[np.arange(a.size), p])[:, None]
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
    return np.column_stack((a[rows], p[rows], cand[keep]))


def _excluded(pos, opp_nb):
    """Candidates in the neighborhood of any of an anchor's positives."""
    # a float product runs on BLAS; an integer one does not
    return pos.astype(np.float64) @ opp_nb.astype(np.float64) > 0.0


def view_distances(emb_x, emb_y, cfg):
    """View pair ("x", "y"), ("x", "x") or ("y", "y") -> its
    pairwise_distances matrix, for each pair that a family weighted in
    ``cfg`` reads, formed beside one another unless small."""
    weights = cfg.family_weights()
    emb = {"x": as_matrix(emb_x, "emb_x"), "y": as_matrix(emb_y, "emb_y")}
    pairs = list(dict.fromkeys(_view_pair(name) for name in FAMILY_NAMES
                               if weights[name] > 0))
    return dict(zip(pairs, tc.map_slabs(
        lambda va, vb, _: pairwise_distances(emb[va], emb[vb]), pairs, (),
        inline=not tc.worth_splitting(sum(len(emb[va]) * len(emb[vb])
                                          for va, vb in pairs)))))


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
        TripletSet, whose ``dists`` are the view_distances it was mined
        on.
    """
    emb_x = as_matrix(emb_x, "emb_x")
    emb_y = as_matrix(emb_y, "emb_y")
    nx, ny = emb_x.shape[0], emb_y.shape[0]
    pos, x_nb, y_nb, owner = _checked_masks(batch, nx, ny)
    reserved = owner >= 0
    dists = view_distances(emb_x, emb_y, cfg)
    # each weighted family's (anchor, positive) pairs and allowed
    # candidates, in family order
    masks = {"image_to_sentence": (pos, ~_excluded(pos, y_nb))}
    if cfg.lambda1 > 0:
        own = ~reserved | (owner == np.arange(ny)[:, None])
        masks["sentence_to_image"] = (pos.T, ~_excluded(pos.T, x_nb) & own)
    if cfg.lambda2 > 0:
        masks["image_structure"] = (x_nb & ~np.eye(nx, dtype=bool),
                                    ~x_nb & ~reserved)
    if cfg.lambda3 > 0:
        masks["sentence_structure"] = (y_nb & ~np.eye(ny, dtype=bool),
                                       ~y_nb)
    mined = _top_violations(
        [(_oriented(dists[_view_pair(name)], name), *np.nonzero(pairs),
          allowed) for name, (pairs, allowed) in masks.items()],
        cfg.margin, cfg.top_k)
    return TripletSet(**dict(zip(masks, mined)), dists=dists)


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


def _oriented(dist, name):
    """A family's anchor-by-candidate view of its view pair's matrix.

    Sentence -> image reads the transpose of the x-y matrix.
    """
    anchor, cand = FAMILY_VIEWS[name]
    return dist if anchor <= cand else dist.T


def _view_pair(name):
    """The view pair, ("x", "y"), ("x", "x") or ("y", "y"), whose
    distances a family reads."""
    return tuple(sorted(FAMILY_VIEWS[name]))


def triplet_violations(dists, triplets, margin):
    """Hinge arguments m + d(a, p) - d(a, n) of every mined triplet,
    read from ``dists``, view pair -> distance matrix (see
    view_distances).

    Returns:
        family -> one value per triplet, for each family with mined
        triplets, in family order.
    """
    viols = {}
    for name in FAMILY_NAMES:
        mined = getattr(triplets, name)
        if mined.shape[0]:
            d = _oriented(dists[_view_pair(name)], name)
            a, p, n = mined.T
            viols[name] = margin + d[a, p] - d[a, n]
    return viols


def _entry_counts(shape, rows, cols):
    flat = np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1])
    return flat.reshape(shape)


def hinge_loss(emb_x, emb_y, dists, triplets, cfg, scales=None):
    """Weighted hinge loss over a TripletSet, with embedding gradients.

    Every hinge reads its two distances from ``dists``, which the loss
    never forms itself.  The loss's derivative with respect to the
    distances gathers +c at (a, p) and -c at (a, n) for every active
    triplet, in one coefficient matrix per view pair, which
    tc.distance_weights turns into weights on the calling thread.  The
    two tc.distance_side_grad sides of every view pair then run beside
    one another, the largest first, unless the weights hold fewer than
    tc.SLAB_MIN_FLOATS floats in all.  The results combine in one order
    at any worker count: the loss in family order, each view's gradient
    x-y pair first.

    Args:
        dists: view pair -> distance matrix of these embeddings, as
            view_distances returns it, for each pair the triplets read.
        scales: optional family name -> factor s_f.  Family f adds
            w_f * s_f times its hinge sum to the loss, so c = w_f * s_f;
            a family not named has s_f = 1.

    Raises:
        DimensionError: a matrix not sized to the embeddings' rows.

    Returns:
        LossResult.
    """
    scales = scales or {}
    emb = {"x": as_matrix(emb_x, "emb_x"), "y": as_matrix(emb_y, "emb_y")}
    for (va, vb), dist in dists.items():
        if dist.shape != (len(emb[va]), len(emb[vb])):
            raise DimensionError(f"{va}-{vb} distances of shape {dist.shape}"
                                 f" for {len(emb[va])} x {len(emb[vb])} rows")
    weights = cfg.family_weights()
    sums = dict.fromkeys(FAMILY_NAMES, 0.0)
    loss = 0.0
    coeffs = {pair: np.zeros_like(dist) for pair, dist in dists.items()}
    for name, h in triplet_violations(dists, triplets, cfg.margin).items():
        active = h > 0.0
        c = weights[name] * scales.get(name, 1.0)
        sums[name] = float(h[active].sum())
        loss += c * sums[name]
        if c != 0.0 and active.any():
            a, p, n = getattr(triplets, name)[active].T
            oriented = _oriented(coeffs[_view_pair(name)], name)
            oriented += c * (_entry_counts(oriented.shape, a, p)
                             - _entry_counts(oriented.shape, a, n))
    # a pair may have no active triplet, or coefficients that cancel
    dist_weights = {pair: tc.distance_weights(dists[pair], coeff)
                    for pair, coeff in coeffs.items() if coeff.any()}
    sides = sorted(((va, vb, side) for va, vb in dist_weights
                    for side in "ab"),
                   key=lambda job: -len(emb[job[0]]) * len(emb[job[1]]))
    side_grads = dict(zip(sides, tc.map_slabs(
        lambda va, vb, side, _: tc.distance_side_grad(
            dist_weights[va, vb], emb[va], emb[vb], side),
        sides, (), inline=not tc.worth_splitting(
            sum(w.size for w in dist_weights.values())))))
    grads = {"x": np.zeros_like(emb["x"]), "y": np.zeros_like(emb["y"])}
    for va, vb in dist_weights:
        grads[va] += side_grads[va, vb, "a"]
        grads[vb] += side_grads[va, vb, "b"]
    return LossResult(loss, grads["x"], grads["y"], sums)
