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

Every hinge is a difference of two entries of one pairwise distance
matrix per view pair, and its gradient flows back through
pairwise_distance_backward.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor_core import (as_matrix, pairwise_distance_backward,
                          pairwise_distances)

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


def _neighbor_sets(graph, view, n_items):
    """Neighborhoods as list-of-sets, reflexivity enforced."""
    attr = getattr(graph, f"{view}_neighbors", None)
    out = [set() for _ in range(n_items)]
    if attr is not None:
        if len(attr) != n_items:
            raise DimensionError(
                f"{view}_neighbors has {len(attr)} entries for {n_items} rows"
            )
        for i, members in enumerate(attr):
            out[i] = set(members)
    for i in range(n_items):
        out[i].add(i)
    return out


def _positive_maps(pos_pairs, nx, ny):
    pos_y_by_x = [[] for _ in range(nx)]
    pos_x_by_y = [[] for _ in range(ny)]
    seen = set()
    for xi, yi in pos_pairs:
        xi, yi = int(xi), int(yi)
        if not (0 <= xi < nx and 0 <= yi < ny):
            raise DimensionError(
                f"positive pair ({xi}, {yi}) outside batch of {nx}x{ny}"
            )
        if (xi, yi) in seen:
            continue
        seen.add((xi, yi))
        pos_y_by_x[xi].append(yi)
        pos_x_by_y[yi].append(xi)
    for lst in pos_y_by_x:
        lst.sort()
    for lst in pos_x_by_y:
        lst.sort()
    return pos_y_by_x, pos_x_by_y


def _select_top(anchor, pos, cand, viol, top_k):
    """Strictly violated candidates, largest first, ties by lower index."""
    mask = viol > 0.0
    if not mask.any():
        return []
    cand_m = cand[mask]
    viol_m = viol[mask]
    order = np.lexsort((cand_m, -viol_m))[:top_k]
    return [(anchor, pos, int(cand_m[o])) for o in order]


def _mine_cross(dist, pos_by_anchor, opp_neighbors, opp_negative_only,
                n_opp, margin, top_k):
    """Families 1 and 2: anchor one view, positive/negative the other.

    The exclusion pool of an anchor is the union of its positives'
    same-view neighborhoods (a superset of the positives themselves).
    Rows listed in ``opp_negative_only`` are reserved hard negatives:
    they qualify only for the anchor they were mined for.
    """
    rows = []
    for anchor, positives in enumerate(pos_by_anchor):
        if not positives:
            continue
        excluded = set()
        for p in positives:
            excluded |= opp_neighbors[p]
        cand = np.array(
            [c for c in range(n_opp)
             if c not in excluded
             and opp_negative_only.get(c, anchor) == anchor],
            dtype=np.int64,
        )
        if cand.size == 0:
            continue
        d_anchor = dist[anchor]
        d_cand = d_anchor[cand]
        for p in positives:
            viol = margin + d_anchor[p] - d_cand
            rows.extend(_select_top(anchor, p, cand, viol, top_k))
    return _as_triplet_array(rows)


def _mine_structure(dist, neighbors, negative_only, n_items, margin, top_k):
    """Families 3 and 4: anchor, positive and negative share one view.

    Positives are the anchor's neighbors other than itself (ordered
    pairs, so (i, j) and (j, i) are mined separately).  Negatives are
    rows outside N(anchor); reserved hard-negative rows never appear.
    """
    rows = []
    blocked = set(negative_only)
    for anchor in range(n_items):
        positives = sorted(neighbors[anchor] - {anchor})
        if not positives:
            continue
        excluded = neighbors[anchor] | blocked
        cand = np.array(
            [c for c in range(n_items) if c not in excluded],
            dtype=np.int64,
        )
        if cand.size == 0:
            continue
        d_anchor = dist[anchor]
        d_cand = d_anchor[cand]
        for p in positives:
            viol = margin + d_anchor[p] - d_cand
            rows.extend(_select_top(anchor, p, cand, viol, top_k))
    return _as_triplet_array(rows)


def _as_triplet_array(rows):
    if not rows:
        return _EMPTY.copy()
    return np.array(rows, dtype=np.int64)


def mine_triplets(emb_x, emb_y, graph, cfg):
    """Enumerate the top_k most violated triplets of every family.

    Args:
        emb_x, emb_y: embeddings, rows aligned with the batch index
            space of ``graph``.
        graph: object exposing ``pos_pairs`` ((k, 2) array of (x, y)
            row indices), ``x_neighbors``/``y_neighbors`` (per-row
            same-view neighbor collections) and optionally
            ``x_negative_only``/``y_negative_only`` (dict mapping a
            reserved row to the single opposite-view anchor it may
            serve as negative for).
        cfg: LossConfig.

    Families whose weight in ``cfg`` is exactly zero are skipped and
    come back empty; they would contribute neither loss nor gradient.

    Returns:
        TripletSet.
    """
    emb_x = as_matrix(emb_x, "emb_x")
    emb_y = as_matrix(emb_y, "emb_y")
    nx, ny = emb_x.shape[0], emb_y.shape[0]
    pos_y_by_x, pos_x_by_y = _positive_maps(graph.pos_pairs, nx, ny)
    x_neighbors = _neighbor_sets(graph, "x", nx)
    y_neighbors = _neighbor_sets(graph, "y", ny)
    x_negonly = dict(getattr(graph, "x_negative_only", None) or {})
    y_negonly = dict(getattr(graph, "y_negative_only", None) or {})

    d_xy = pairwise_distances(emb_x, emb_y)
    out = TripletSet()
    out.image_to_sentence = _mine_cross(
        d_xy, pos_y_by_x, y_neighbors, y_negonly, ny, cfg.margin, cfg.top_k)
    if cfg.lambda1 > 0:
        out.sentence_to_image = _mine_cross(
            d_xy.T, pos_x_by_y, x_neighbors, x_negonly, nx,
            cfg.margin, cfg.top_k)
    if cfg.lambda2 > 0:
        d_xx = pairwise_distances(emb_x, emb_x)
        out.image_structure = _mine_structure(
            d_xx, x_neighbors, x_negonly, nx, cfg.margin, cfg.top_k)
    if cfg.lambda3 > 0:
        d_yy = pairwise_distances(emb_y, emb_y)
        out.sentence_structure = _mine_structure(
            d_yy, y_neighbors, y_negonly, ny, cfg.margin, cfg.top_k)
    return out


# ---------------------------------------------------------------------------
# loss


@dataclass
class LossResult:
    """Loss value, embedding gradients and per-family diagnostics.

    ``family_sums`` holds the unweighted hinge sums and
    ``family_counts`` the mined triplet counts.
    """

    loss: float
    grad_x: np.ndarray
    grad_y: np.ndarray
    family_sums: dict
    family_counts: dict


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


def hinge_loss(emb_x, emb_y, triplets, cfg):
    """Weighted hinge loss over a TripletSet, with embedding gradients.

    The loss's derivative with respect to the distances gathers +w at
    (a, p) and -w at (a, n) for every active triplet, in one
    coefficient matrix per view pair; pairwise_distance_backward turns
    each into embedding gradients.

    Returns:
        LossResult.
    """
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
        w = weights[name]
        loss += w * fam_sum
        if w != 0.0 and active.any():
            a, p, n = getattr(triplets, name)[active].T
            coeff = _oriented(coeffs, name)
            coeff += w * (_entry_counts(coeff.shape, a, p)
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
        family_counts=triplets.counts(),
    )
