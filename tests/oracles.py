"""Naive reference implementations used only by the tests.

Everything here favors plain loops over vectorization so the reference
logic stays independent of the library code it checks.
"""

import copy
import hashlib
import math
import struct
from types import SimpleNamespace

import numpy as np

from twobranch import data
from twobranch import network as nw
from twobranch import tensor_core as tc
from twobranch.errors import ConfigError, ConsistencyError, EvaluationError
from twobranch.evaluation import box_iou
from twobranch.loss_mining import FAMILY_NAMES, TripletSet, hinge_loss
from twobranch.tensor_core import as_matrix, pairwise_distances


def dist(u, v):
    return float(np.sqrt(((u - v) ** 2).sum()))


def mask_sets(mask):
    """Row i's set of columns j with mask[i, j] set."""
    return [{j for j in range(mask.shape[1]) if mask[i, j]}
            for i in range(mask.shape[0])]


def batch_lists(batch):
    """A batch's masks as per-row collections.

    Returns:
        (pos_y_of_x, pos_x_of_y, x_nb, y_nb, x_negonly): sorted
        positive partners of every x and every y, neighbor sets, and
        reserved x row -> its y anchor.
    """
    pos_y_of_x = [sorted(s) for s in mask_sets(batch.pos)]
    pos_x_of_y = [sorted(s) for s in mask_sets(batch.pos.T)]
    x_negonly = {i: int(a) for i, a in enumerate(batch.owner) if a >= 0}
    return (pos_y_of_x, pos_x_of_y, mask_sets(batch.x_nb),
            mask_sets(batch.y_nb), x_negonly)


def enumerate_family_triplets(emb_x, emb_y, batch, margin, top_k):
    """All-loops enumeration of the four constraint families.

    Returns:
        dict family name -> list of (anchor, positive, negative,
        violation) sorted the way mining sorts: violation descending,
        ties by lower negative index, truncated to top_k per
        (anchor, positive).
    """
    nx, ny = emb_x.shape[0], emb_y.shape[0]
    pos_y_of_x, pos_x_of_y, x_nb, y_nb, x_negonly = batch_lists(batch)

    def top(per_pair):
        per_pair.sort(key=lambda t: (-t[3], t[2]))
        return per_pair[:top_k]

    fam = {"image_to_sentence": [], "sentence_to_image": [],
           "image_structure": [], "sentence_structure": []}

    for a in range(nx):
        banned = set()
        for p in pos_y_of_x[a]:
            banned |= y_nb[p]
        for p in pos_y_of_x[a]:
            cands = []
            for n in range(ny):
                if n in banned:
                    continue
                v = margin + dist(emb_x[a], emb_y[p]) - dist(emb_x[a],
                                                             emb_y[n])
                if v > 0:
                    cands.append((a, p, n, v))
            fam["image_to_sentence"].extend(top(cands))

    for a in range(ny):
        banned = set()
        for p in pos_x_of_y[a]:
            banned |= x_nb[p]
        for p in pos_x_of_y[a]:
            cands = []
            for n in range(nx):
                if n in banned:
                    continue
                if n in x_negonly and x_negonly[n] != a:
                    continue
                v = margin + dist(emb_y[a], emb_x[p]) - dist(emb_y[a],
                                                             emb_x[n])
                if v > 0:
                    cands.append((a, p, n, v))
            fam["sentence_to_image"].extend(top(cands))

    for a in range(nx):
        banned = x_nb[a] | set(x_negonly)
        for p in sorted(x_nb[a] - {a}):
            cands = []
            for n in range(nx):
                if n in banned:
                    continue
                v = margin + dist(emb_x[a], emb_x[p]) - dist(emb_x[a],
                                                             emb_x[n])
                if v > 0:
                    cands.append((a, p, n, v))
            fam["image_structure"].extend(top(cands))

    for a in range(ny):
        banned = y_nb[a]
        for p in sorted(y_nb[a] - {a}):
            cands = []
            for n in range(ny):
                if n in banned:
                    continue
                v = margin + dist(emb_y[a], emb_y[p]) - dist(emb_y[a],
                                                             emb_y[n])
                if v > 0:
                    cands.append((a, p, n, v))
            fam["sentence_structure"].extend(top(cands))

    return fam


def loss_of_families(fam, weights):
    total = 0.0
    for name, triples in fam.items():
        total += weights[name] * sum(v for (_, _, _, v) in triples)
    return total


def brute_force_loss(emb_x, emb_y, batch, cfg):
    """Exhaustive Eq.-5 loss by plain loops, for small batches only.

    No top-k truncation (every violated triplet contributes) and
    per-pair distances via np.linalg.norm.  Matches
    hinge_loss(mine_triplets(...)) whenever top_k exceeds every
    per-pair violation count.

    Args:
        emb_x, emb_y: embeddings, at most 30 rows per view.
        batch: the masks mine_triplets reads.
        cfg: LossConfig; top_k is ignored.

    Returns:
        float loss.
    """
    emb_x = np.asarray(emb_x, dtype=np.float64)
    emb_y = np.asarray(emb_y, dtype=np.float64)
    nx, ny = emb_x.shape[0], emb_y.shape[0]
    if nx > 30 or ny > 30:
        raise ConfigError(
            f"brute_force_loss is for batches of <= 30 items per view, "
            f"got {nx}x{ny}"
        )
    pos_y_by_x, pos_x_by_y, x_nb, y_nb, x_negonly = batch_lists(batch)

    def norm_dist(u, v):
        return float(np.linalg.norm(u - v))

    def hinge(d_pos, d_neg):
        return max(0.0, cfg.margin + d_pos - d_neg)

    total = 0.0
    # family 1: anchor image i, positive sentence j, negative sentence k
    for i in range(nx):
        if not pos_y_by_x[i]:
            continue
        excluded = set()
        for j in pos_y_by_x[i]:
            excluded |= y_nb[j]
        for j in pos_y_by_x[i]:
            for k in range(ny):
                if k in excluded:
                    continue
                total += hinge(norm_dist(emb_x[i], emb_y[j]),
                               norm_dist(emb_x[i], emb_y[k]))
    # family 2: anchor sentence j, positive image i, negative image k
    if cfg.lambda1 != 0.0:
        part = 0.0
        for j in range(ny):
            if not pos_x_by_y[j]:
                continue
            excluded = set()
            for i in pos_x_by_y[j]:
                excluded |= x_nb[i]
            for i in pos_x_by_y[j]:
                for k in range(nx):
                    if k in excluded:
                        continue
                    if k in x_negonly and x_negonly[k] != j:
                        continue
                    part += hinge(norm_dist(emb_y[j], emb_x[i]),
                                  norm_dist(emb_y[j], emb_x[k]))
        total += cfg.lambda1 * part
    # family 3: within the image view
    if cfg.lambda2 != 0.0:
        part = 0.0
        for i in range(nx):
            for j in sorted(x_nb[i] - {i}):
                for k in range(nx):
                    if k in x_nb[i] or k in x_negonly:
                        continue
                    part += hinge(norm_dist(emb_x[i], emb_x[j]),
                                  norm_dist(emb_x[i], emb_x[k]))
        total += cfg.lambda2 * part
    # family 4: within the sentence view
    if cfg.lambda3 != 0.0:
        part = 0.0
        for j in range(ny):
            for jj in sorted(y_nb[j] - {j}):
                for k in range(ny):
                    if k in y_nb[j]:
                        continue
                    part += hinge(norm_dist(emb_y[j], emb_y[jj]),
                                  norm_dist(emb_y[j], emb_y[k]))
        total += cfg.lambda3 * part
    return total


def gathered_hinge_loss(emb_x, emb_y, triplets, cfg):
    """Hinge loss and gradients computed triplet by triplet.

    Each distance is the direct ||A[a] - B[b]|| of a gathered row pair,
    and each active triplet's gradient is scattered back row by row.

    Returns:
        (loss, grad_x, grad_y).
    """
    grad_x = np.zeros_like(emb_x)
    grad_y = np.zeros_like(emb_y)
    views = {
        "image_to_sentence": (emb_x, emb_y, grad_x, grad_y),
        "sentence_to_image": (emb_y, emb_x, grad_y, grad_x),
        "image_structure": (emb_x, emb_x, grad_x, grad_x),
        "sentence_structure": (emb_y, emb_y, grad_y, grad_y),
    }

    def add_distance_grad(g_a, g_b, A, B, ai, bi, coeff):
        diff = A[ai] - B[bi]
        d = np.sqrt((diff * diff).sum(axis=1))
        contrib = diff * (coeff / np.maximum(d, 1e-12))[:, None]
        np.add.at(g_a, ai, contrib)
        np.add.at(g_b, bi, -contrib)

    weights = cfg.family_weights()
    loss = 0.0
    for name, (A, B, g_a, g_b) in views.items():
        t = getattr(triplets, name)
        if t.shape[0] == 0:
            continue
        a, p, n = t[:, 0], t[:, 1], t[:, 2]
        h = (cfg.margin + np.linalg.norm(A[a] - B[p], axis=1)
             - np.linalg.norm(A[a] - B[n], axis=1))
        active = h > 0.0
        loss += weights[name] * float(h[active].sum())
        if weights[name] != 0.0 and active.any():
            add_distance_grad(g_a, g_b, A, B, a[active], p[active],
                              weights[name])
            add_distance_grad(g_a, g_b, A, B, a[active], n[active],
                              -weights[name])
    return loss, grad_x, grad_y


def per_family_hinge_loss(emb_x, emb_y, triplets, cfg):
    """The weighted per-family mean loss, one hinge_loss call per family.

    Each family with mined triplets gets its own one-family TripletSet;
    its loss and gradients are divided by its triplet count and summed.

    Returns:
        (loss, grad_x, grad_y).
    """
    loss = 0.0
    grad_x = np.zeros_like(emb_x)
    grad_y = np.zeros_like(emb_y)
    for name in FAMILY_NAMES:
        mined = getattr(triplets, name)
        if mined.shape[0] == 0:
            continue
        only = TripletSet()
        setattr(only, name, mined)
        part = hinge_loss(emb_x, emb_y, only, cfg)
        scale = 1.0 / mined.shape[0]
        loss += part.loss * scale
        grad_x += part.grad_x * scale
        grad_y += part.grad_y * scale
    return loss, grad_x, grad_y


def batch_masks(pairs, nx, ny, x_neighbors=(), y_neighbors=(),
                owner=None):
    """The four arrays mine_triplets reads, filled in by loops.

    Args:
        pairs: (x row, y row) positives.
        x_neighbors, y_neighbors: per-row neighbor collections; every
            row is its own neighbor whether listed or not.
        owner: reserved x row -> its y anchor.
    """
    pos = np.zeros((nx, ny), dtype=bool)
    for xi, yi in pairs:
        pos[xi, yi] = True

    def neighbor_mask(members, n):
        mask = np.eye(n, dtype=bool)
        for i, row in enumerate(members):
            for j in row:
                mask[i, j] = True
        return mask

    owner_arr = np.full(nx, -1, dtype=np.int64)
    for row, anchor in (owner or {}).items():
        owner_arr[row] = anchor
    return SimpleNamespace(pos=pos, x_nb=neighbor_mask(x_neighbors, nx),
                           y_nb=neighbor_mask(y_neighbors, ny),
                           owner=owner_arr)


def random_graph(rng, nx, ny, extra_pair_rate=0.3):
    """Random batch masks over nx x-rows and ny y-rows.

    Every x gets one partner; extra pairs create shared-partner
    neighborhoods so all four families can fire.
    """
    pairs = [(i, int(rng.integers(ny))) for i in range(nx)]
    n_extra = int(extra_pair_rate * nx)
    for _ in range(n_extra):
        pairs.append((int(rng.integers(nx)), int(rng.integers(ny))))
    pairs = sorted(set(pairs))

    x_nb = [set([i]) for i in range(nx)]
    y_nb = [set([j]) for j in range(ny)]
    by_y = {}
    by_x = {}
    for xi, yi in pairs:
        by_y.setdefault(yi, set()).add(xi)
        by_x.setdefault(xi, set()).add(yi)
    for members in by_y.values():
        for i in members:
            x_nb[i] |= members
    for members in by_x.values():
        for j in members:
            y_nb[j] |= members
    return batch_masks(pairs, nx, ny, x_nb, y_nb)


def batch_graph_masks(batch, graph, extra_negatives=None):
    """A MiniBatch's pos, x_nb and y_nb rebuilt from its dataset graph.

    Cell (i, j) of ``pos`` is set when dataset rows x_rows[i] and
    y_rows[j] are a positive pair, and a neighbor cell when the rows are
    dataset neighbors or i == j.  A reserved x row (owner >= 0) has no
    positives and only itself as neighbor, though an unreserved row may
    list it.  Also asserts that the unreserved x rows are those of the
    sampled pairs, that the y rows are the sampled ones and then the
    augmented ones, and that every reserved row is in no sampled pair
    and is listed in its anchor's ``extra_negatives``.

    Returns:
        (pos, x_nb, y_nb) bool arrays.
    """
    x_rows = [int(r) for r in batch.x_rows]
    y_rows = [int(r) for r in batch.y_rows]
    reserved = [int(a) >= 0 for a in batch.owner]
    sampled_x, sampled_y = [], []
    for p in batch.pair_indices:
        xi, yi = (int(v) for v in graph.pos_pairs[p])
        if xi not in sampled_x:
            sampled_x.append(xi)
        if yi not in sampled_y:
            sampled_y.append(yi)
    assert [r for r, res in zip(x_rows, reserved) if not res] == sampled_x
    assert y_rows == sampled_y + list(batch.augmented_y_rows)
    for i, row in enumerate(x_rows):
        if reserved[i]:
            anchor = y_rows[int(batch.owner[i])]
            assert row not in sampled_x
            assert row in extra_negatives[anchor]
    nx, ny = len(x_rows), len(y_rows)
    pos = np.zeros((nx, ny), dtype=bool)
    x_nb = np.zeros((nx, nx), dtype=bool)
    y_nb = np.zeros((ny, ny), dtype=bool)
    for i in range(nx):
        for j in range(ny):
            pos[i, j] = (not reserved[i]
                         and y_rows[j] in graph.pos_y_by_x[x_rows[i]])
        for k in range(nx):
            x_nb[i, k] = i == k or (
                not reserved[i] and x_rows[k] in graph.x_neighbors[x_rows[i]])
    for j in range(ny):
        for k in range(ny):
            y_nb[j, k] = j == k or y_rows[k] in graph.y_neighbors[y_rows[j]]
    return pos, x_nb, y_nb


def naive_recall_at_k(dist_matrix, positives_of_query, k):
    """Recall@k by per-query full sort; ties by candidate index."""
    hits = 0
    total = 0
    for q in range(dist_matrix.shape[0]):
        pos = positives_of_query[q]
        if len(pos) == 0:
            continue
        total += 1
        order = sorted(range(dist_matrix.shape[1]),
                       key=lambda c: (dist_matrix[q, c], c))
        if any(c in set(pos) for c in order[:k]):
            hits += 1
    return 100.0 * hits / total if total else 0.0


def naive_iou(a, b):
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1)
             - inter)
    return inter / union


def naive_nms(boxes, scores, overlap):
    """Greedy keep-best suppression with stable score ordering."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if naive_iou(boxes[i], boxes[j]) > overlap:
                ok = False
                break
        if ok:
            kept.append(i)
    return kept


def naive_average_precision(flags):
    """AP of a ranked 0/1 relevance list: mean precision at each hit."""
    precisions = []
    hits = 0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            precisions.append(hits / rank)
    if not precisions:
        return 0.0
    return sum(precisions) / len(precisions)


def region_phrase_distance(phrase_emb_rows, region_emb_rows):
    """Mean over sentence phrases of the best-matching region distance.

    The per-cell fusion oracle.

    Args:
        phrase_emb_rows: (p, d) embedded phrases of one sentence.
        region_emb_rows: (r, d) embedded regions of one image.

    Returns:
        float, or None when the sentence has no phrases (callers fall
        back to the global distance).
    """
    phrase_emb_rows = np.asarray(phrase_emb_rows, dtype=np.float64)
    if phrase_emb_rows.size == 0:
        return None
    region_emb_rows = np.asarray(region_emb_rows, dtype=np.float64)
    if region_emb_rows.size == 0:
        raise EvaluationError("image has no regions to match phrases")
    d = pairwise_distances(as_matrix(phrase_emb_rows, "phrases"),
                           as_matrix(region_emb_rows, "regions"))
    return float(d.min(axis=1).mean())


def mean_neighborhood_distance(emb, neighbors):
    """Mean embedded distance over ordered within-neighborhood pairs.

    Pairs (i, j) with j in N(i), j != i.  Returns 0.0 when no such
    pair exists.
    """
    emb = as_matrix(emb, "emb")
    dists = []
    for i, members in enumerate(neighbors):
        for j in sorted(members):
            if j == i:
                continue
            dists.append(float(np.linalg.norm(emb[i] - emb[j])))
    if not dists:
        return 0.0
    return float(np.mean(dists))


def sample_minibatch(graph, batch_pairs, augment, rng, extra_negatives=None,
                     negatives_per_anchor=10):
    """Sample ``batch_pairs`` positive pairs without replacement.

    With ``augment`` on, each batch image gets one extra distinct
    positive sentence appended when the dataset has one, so batches
    vary in size.  ``extra_negatives`` (dataset y row -> dataset x
    rows) appends reserved hard-negative rows for in-batch anchors,
    at most ``negatives_per_anchor`` each.

    Returns:
        MiniBatch.
    """
    if graph.num_pairs == 0:
        raise ConfigError("cannot sample from a graph with no pairs")
    if batch_pairs < 1:
        raise ConfigError(f"batch_pairs must be >= 1, got {batch_pairs}")
    if batch_pairs > graph.num_pairs:
        raise ConfigError(
            f"batch_pairs={batch_pairs} exceeds dataset size "
            f"{graph.num_pairs}"
        )
    pair_rows = np.sort(rng.choice(graph.num_pairs, size=batch_pairs,
                                   replace=False))
    return data._build_batch(graph, pair_rows, augment, rng,
                             extra_negatives=extra_negatives,
                             negatives_per_anchor=negatives_per_anchor)


# ---------------------------------------------------------------------------
# localization: the per-query forms the columnar corpus replaced


def corpus_queries(rows, phrases, regions):
    """Group corpus rows into one namespace per (image, phrase) query.

    Queries come in order of first appearance, rows in file order within
    a query; the checks and their messages are the corpus's own.
    """
    grouped = {}
    order = []
    for row in rows:
        image_id, kind, phrase_id, x1, y1, x2, y2 = row[:7]
        feat = row[7] if len(row) > 7 else None
        if not all(map(math.isfinite, (x1, y1, x2, y2))):
            raise ConsistencyError(
                f"query ({image_id}, {phrase_id}): box "
                f"({x1}, {y1}, {x2}, {y2}) is not finite"
            )
        if not (x2 > x1 and y2 > y1):
            raise ConsistencyError(
                f"query ({image_id}, {phrase_id}): box "
                f"({x1}, {y1}, {x2}, {y2}) has no area"
            )
        key = (image_id, phrase_id)
        if key not in grouped:
            grouped[key] = {"P": [], "G": []}
            order.append(key)
        if kind == "P" and feat is None:
            raise ConsistencyError(
                f"query ({image_id}, {phrase_id}): proposal without a "
                f"feature row"
            )
        if feat is not None and not (0 <= feat < regions.n):
            raise ConsistencyError(
                f"query ({image_id}, {phrase_id}): feature row {feat} "
                f"outside region set of {regions.n} rows"
            )
        grouped[key][kind].append(((x1, y1, x2, y2), feat))
    queries = []
    for image_id, phrase_id in order:
        bucket = grouped[(image_id, phrase_id)]
        if not bucket["P"]:
            raise ConsistencyError(
                f"query ({image_id}, {phrase_id}) has no proposals"
            )
        if len(bucket["P"]) > 100:
            raise ConsistencyError(
                f"query ({image_id}, {phrase_id}) has "
                f"{len(bucket['P'])} proposals, limit is 100"
            )
        gts = bucket["G"]
        queries.append(SimpleNamespace(
            image_id=image_id,
            phrase_id=phrase_id,
            phrase_row=phrases.row_of(phrase_id),
            proposal_boxes=np.array([b for b, _ in bucket["P"]],
                                    dtype=np.float64),
            proposal_rows=np.array([f for _, f in bucket["P"]],
                                   dtype=np.int64),
            gt_boxes=np.array([b for b, _ in gts],
                              dtype=np.float64).reshape(-1, 4),
            gt_rows=np.array([-1 if f is None else f for _, f in gts],
                             dtype=np.int64),
        ))
    return queries


def random_localization_case(rng, num_regions=40, num_phrases=4):
    """Random corpus rows, their feature sets and embeddings.

    Boxes lie on an integer grid and embeddings hold small integers, so
    IoUs and distances tie often.  Queries may have no GT box, one
    proposal or 100; GT boxes may lack a feature row; a region row may
    serve several proposals.  The first query holds a proposal whose
    IoU with its two GT boxes is 0.8 for both.  Rows are shuffled, so
    queries interleave.

    Returns:
        (rows, phrases, regions, phrase_emb, region_emb).
    """
    def box():
        x1, y1 = (float(v) for v in rng.integers(0, 20, size=2))
        w, h = (float(v) for v in rng.integers(1, 12, size=2))
        return (x1, y1, x1 + w, y1 + h)

    def feat():
        return int(rng.integers(num_regions))

    phrase_ids = [f"p{i}" for i in range(num_phrases)]
    rows = [("im_t", "G", "p0", 0.0, 0.0, 10.0, 8.0, feat()),
            ("im_t", "G", "p0", 0.0, 2.0, 10.0, 10.0, None),
            ("im_t", "P", "p0", 0.0, 0.0, 10.0, 10.0, feat()),
            ("im_t", "P", "p0", 0.0, 0.0, 10.0, 5.0, feat())]
    for qi in range(int(rng.integers(3, 10))):
        # two queries share each image, with different phrases
        image = f"im_{qi // 2}"
        phrase = phrase_ids[qi % 2 + 2 * int(rng.integers(num_phrases // 2))]
        gts = [box() for _ in range(int(rng.choice([0, 0, 1, 2, 3])))]
        for g in gts:
            rows.append((image, "G", phrase) + g
                        + (feat() if rng.random() < 0.7 else None,))
        for _ in range(int(rng.choice([1, 100, int(rng.integers(2, 30))]))):
            if gts and rng.random() < 0.4:
                g = gts[int(rng.integers(len(gts)))]
                dx, dy = (float(v) for v in rng.integers(-1, 2, size=2))
                b = (g[0] + dx, g[1] + dy, g[2] + dx, g[3] + dy)
            else:
                b = box()
            rows.append((image, "P", phrase) + b + (feat(),))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    phrases = data.FeatureSet(ids=phrase_ids,
                              features=np.zeros((num_phrases, 2)))
    regions = data.FeatureSet(ids=[f"r{i}" for i in range(num_regions)],
                              features=np.zeros((num_regions, 2)))
    phrase_emb = rng.integers(-2, 3, size=(num_phrases, 3)).astype(float)
    region_emb = rng.integers(-2, 3, size=(num_regions, 3)).astype(float)
    return rows, phrases, regions, phrase_emb, region_emb


def unique_phrases(queries):
    """Phrase ids in order of first appearance."""
    return list(dict.fromkeys(q.phrase_id for q in queries))


def queries_of_phrase(queries, phrase_id):
    """The queries of one phrase, in corpus order."""
    return [q for q in queries if q.phrase_id == phrase_id]


def split_by_query(queries, values):
    """A per-proposal vector cut into one array per query."""
    cuts = np.cumsum([q.proposal_rows.shape[0] for q in queries])[:-1]
    return np.split(np.asarray(values), cuts)


def query_distances(queries, phrase_emb, region_emb):
    """Per-query distances phrase -> each proposal."""
    out = []
    for q in queries:
        diff = region_emb[q.proposal_rows] - phrase_emb[q.phrase_row]
        out.append(np.sqrt((diff * diff).sum(axis=1)))
    return out


def nms(boxes, scores, overlap_thresh):
    """Greedy NMS over one query's boxes by ascending distance.

    Returns:
        list of kept indices, best first; score ties break toward the
        lower index.
    """
    order = np.argsort(scores, kind="stable")
    suppresses = box_iou(boxes, boxes) > overlap_thresh
    kept = []
    alive = np.ones(boxes.shape[0], dtype=bool)
    for idx in order:
        if alive[idx]:
            kept.append(int(idx))
            alive &= ~suppresses[idx]
    return kept


def localization_recall_at_k(queries, distances, k, iou_thresh=0.5):
    """Percentage of queries whose k nearest proposals hit a GT box."""
    hits = 0
    for q, dist in zip(queries, distances):
        if q.gt_boxes.shape[0] == 0:
            continue
        top = np.argsort(dist, kind="stable")[:k]
        best = box_iou(q.proposal_boxes[top], q.gt_boxes).max(axis=1)
        if (best >= iou_thresh).any():
            hits += 1
    return 100.0 * hits / len(queries)


def phrase_map(queries, distances, nms_overlap=0.3, iou_thresh=0.5):
    """Per-query NMS, then a greedy walk down each phrase's pooled
    ranking; returns (mAP, {phrase_id: AP}, [skipped phrase ids])."""
    pooled = {}
    gt_count = {}
    ious = []
    for qi, (q, dist) in enumerate(zip(queries, distances)):
        ious.append(box_iou(q.proposal_boxes, q.gt_boxes))
        entries = pooled.setdefault(q.phrase_id, [])
        for p in nms(q.proposal_boxes, dist, nms_overlap):
            entries.append((float(dist[p]), qi, int(p)))
        gt_count[q.phrase_id] = (gt_count.get(q.phrase_id, 0)
                                 + q.gt_boxes.shape[0])
    per_phrase = {}
    skipped = []
    for phrase_id in unique_phrases(queries):
        if gt_count[phrase_id] == 0:
            skipped.append(phrase_id)
            continue
        consumed = {}
        precisions = []
        correct = 0
        for rank, (_, qi, p) in enumerate(sorted(pooled[phrase_id]),
                                          start=1):
            q = queries[qi]
            if q.gt_boxes.shape[0] == 0:
                continue
            used = consumed.setdefault(
                qi, np.zeros(q.gt_boxes.shape[0], dtype=bool))
            # the first unused GT box of highest positive IoU
            row = ious[qi][p]
            open_iou = np.where(~used & (row > 0.0), row, 0.0)
            best = int(np.argmax(open_iou))
            if open_iou[best] > 0.0 and open_iou[best] >= iou_thresh:
                used[best] = True
                correct += 1
                precisions.append(correct / rank)
        per_phrase[phrase_id] = (float(np.mean(precisions))
                                 if precisions else 0.0)
    map_value = float(np.mean([per_phrase[p] for p in per_phrase]))
    return map_value, per_phrase, skipped


def mine_hard_negatives(queries, phrase_emb, region_emb, cap,
                        iou_thresh=0.5):
    """Per phrase, the ``cap`` closest proposals nearer than its closest
    GT region that overlap no GT box of their query at iou_thresh;
    returns ({phrase_id: [(row, distance)]}, skipped phrase ids)."""
    by_phrase = {}
    for q, dists in zip(queries, query_distances(queries, phrase_emb,
                                                 region_emb)):
        by_phrase.setdefault(q.phrase_id, []).append((q, dists))
    out = {}
    skipped = []
    for phrase_id, members in by_phrase.items():
        gt_rows = sorted({
            int(r) for q, _ in members for r in q.gt_rows if int(r) >= 0
        })
        if not gt_rows:
            skipped.append(phrase_id)
            continue
        anchor = phrase_emb[members[0][0].phrase_row]
        gt_dists = np.linalg.norm(region_emb[gt_rows] - anchor, axis=1)
        threshold = float(gt_dists.min())
        candidates = {}
        for q, prop_dists in members:
            near = np.flatnonzero(~(prop_dists >= threshold))
            if near.size and q.gt_boxes.shape[0] > 0:
                overlap = box_iou(q.proposal_boxes[near], q.gt_boxes)
                near = near[~(overlap.max(axis=1) >= iou_thresh)]
            for row, d in zip(q.proposal_rows[near].tolist(),
                              prop_dists[near].tolist()):
                if row not in candidates or d < candidates[row]:
                    candidates[row] = d
        ranked = sorted((d, r) for r, d in candidates.items())[:cap]
        out[phrase_id] = [(r, d) for d, r in ranked]
    return out, skipped


# ---------------------------------------------------------------------------
# network: the copying forms that streamed checkpoints, the in-place SGD
# step and the first layer's parameter-only backward replaced


def checkpoint_records(params, opt):
    """The records a checkpoint of (params, opt) holds: name -> 2-D array."""
    return {name: nw._as_record_matrix(t)
            for name, t in nw._named_tensors(params, opt).items()}


def records_checkpoint_bytes(records):
    """A checkpoint file's bytes holding ``records`` in name order.

    The checksum is valid whatever the records hold, so a malformed
    record set reaches the loader's record checks.
    """
    chunks = [nw.CHECKPOINT_MAGIC, struct.pack("<I", nw.CHECKPOINT_VERSION)]
    for name in sorted(records):
        mat = np.ascontiguousarray(records[name], dtype="<f8")
        raw_name = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw_name)))
        chunks.append(raw_name)
        chunks.append(struct.pack("<QQ", mat.shape[0], mat.shape[1]))
        chunks.append(mat.tobytes())
    payload = b"".join(chunks)
    return payload + hashlib.sha256(payload).digest()[:8]


def joined_checkpoint_bytes(params, opt):
    """A checkpoint file's bytes, built as one joined payload."""
    return records_checkpoint_bytes(checkpoint_records(params, opt))


def deepcopy_best_train(train, path):
    """``train`` that also keeps the best epoch by copying it.

    Each epoch whose mean loss beats every earlier one (the first epoch
    always does) deep-copies the parameters and optimizer state before
    the caller's on_epoch runs; once training returns, the last copy is
    saved to ``path``.
    """
    def wrapped(params, opt, *args, on_epoch, **kwargs):
        best = {"loss": None, "state": None}

        def copy_then_call(stats):
            if best["loss"] is None or stats.mean_loss < best["loss"]:
                best["loss"] = stats.mean_loss
                best["state"] = copy.deepcopy((params, opt))
            on_epoch(stats)

        history = train(params, opt, *args, on_epoch=copy_then_call,
                        **kwargs)
        nw.save_checkpoint(*best["state"], path)
        return history

    return wrapped


def out_of_place_sgd_step(params, opt, grads):
    """v <- momentum * v + (grad + wd * theta); theta <- theta - lr * v.

    The decay term applies to affine weight matrices only; every
    operation makes a new array, and a WeightGrad is formed whole.
    """
    for name, theta in nw._learned_tensors(params):
        grad = np.asarray(grads[name])
        if name.endswith((".w1", ".w2")):
            grad = grad + opt.weight_decay * theta
        vel = opt.velocity.get(name)
        if vel is None:
            vel = np.zeros_like(theta)
        vel = opt.momentum * vel + grad
        opt.velocity[name] = vel
        theta -= opt.lr * vel


def full_backward_branch(tapes, grad_emb):
    """backward_branch through affine_backward, input gradient dropped."""
    g = tc.l2_normalize_rows_backward(grad_emb, tapes.l2norm)
    g, g_gamma, g_beta = tc.batchnorm_backward(g, tapes.batchnorm)
    g, g_w2, g_b2 = tc.affine_backward(g, tapes.affine2)
    g = tc.dropout_backward(g, tapes.dropout)
    g = tc.relu_backward(g, tapes.relu)
    _, g_w1, g_b1 = tc.affine_backward(g, tapes.affine1)
    return {
        "w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2,
        "gamma": g_gamma, "beta": g_beta,
    }
