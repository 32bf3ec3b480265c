"""Naive reference implementations used only by the tests.

Everything here favors plain loops over vectorization so the reference
logic stays independent of the library code it checks.
"""

import hashlib
import struct

import numpy as np

from twobranch import data
from twobranch import network as nw
from twobranch import tensor_core as tc
from twobranch.errors import ConfigError, EvaluationError
from twobranch.tensor_core import as_matrix, pairwise_distances


def dist(u, v):
    return float(np.sqrt(((u - v) ** 2).sum()))


def neighbor_sets(raw, n):
    """Copy neighborhoods into list-of-sets with reflexivity."""
    out = [set() for _ in range(n)]
    if raw is not None:
        for i, members in enumerate(raw):
            out[i] = set(members)
    for i in range(n):
        out[i].add(i)
    return out


def positive_lists(pos_pairs, nx, ny):
    """Sorted, de-duplicated positive partners of every x and every y."""
    pos_y_of_x = [[] for _ in range(nx)]
    pos_x_of_y = [[] for _ in range(ny)]
    seen = set()
    for xi, yi in np.asarray(pos_pairs):
        if (int(xi), int(yi)) in seen:
            continue
        seen.add((int(xi), int(yi)))
        pos_y_of_x[int(xi)].append(int(yi))
        pos_x_of_y[int(yi)].append(int(xi))
    return ([sorted(p) for p in pos_y_of_x],
            [sorted(p) for p in pos_x_of_y])


def enumerate_family_triplets(emb_x, emb_y, graph, margin, top_k):
    """All-loops enumeration of the four constraint families.

    Returns:
        dict family name -> list of (anchor, positive, negative,
        violation) sorted the way mining sorts: violation descending,
        ties by lower negative index, truncated to top_k per
        (anchor, positive).
    """
    nx, ny = emb_x.shape[0], emb_y.shape[0]
    x_nb = neighbor_sets(getattr(graph, "x_neighbors", None), nx)
    y_nb = neighbor_sets(getattr(graph, "y_neighbors", None), ny)
    x_negonly = dict(getattr(graph, "x_negative_only", None) or {})
    y_negonly = dict(getattr(graph, "y_negative_only", None) or {})

    pos_y_of_x, pos_x_of_y = positive_lists(graph.pos_pairs, nx, ny)

    def top(per_pair):
        per_pair.sort(key=lambda t: (-t[3], t[2]))
        return per_pair[:top_k]

    fam = {"image_to_sentence": [], "sentence_to_image": [],
           "image_structure": [], "sentence_structure": []}

    for a in range(nx):
        banned = set()
        for p in pos_y_of_x[a]:
            banned |= y_nb[p]
        for p in sorted(pos_y_of_x[a]):
            cands = []
            for n in range(ny):
                if n in banned:
                    continue
                if n in y_negonly and y_negonly[n] != a:
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
        for p in sorted(pos_x_of_y[a]):
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
        banned = y_nb[a] | set(y_negonly)
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


def brute_force_loss(emb_x, emb_y, graph, cfg):
    """Exhaustive Eq.-5 loss by plain loops, for small batches only.

    No top-k truncation (every violated triplet contributes) and
    per-pair distances via np.linalg.norm.  Matches
    hinge_loss(mine_triplets(...)) whenever top_k exceeds every
    per-pair violation count.

    Args:
        emb_x, emb_y: embeddings, at most 30 rows per view.
        graph: same protocol as mine_triplets.
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
    pos_y_by_x, pos_x_by_y = positive_lists(graph.pos_pairs, nx, ny)
    x_nb = neighbor_sets(getattr(graph, "x_neighbors", None), nx)
    y_nb = neighbor_sets(getattr(graph, "y_neighbors", None), ny)
    x_negonly = dict(getattr(graph, "x_negative_only", None) or {})
    y_negonly = dict(getattr(graph, "y_negative_only", None) or {})

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
                if k in y_negonly and y_negonly[k] != i:
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
                    if k in y_nb[j] or k in y_negonly:
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


def random_graph(rng, nx, ny, extra_pair_rate=0.3):
    """Random correspondence structure over nx x-rows and ny y-rows.

    Every x gets one partner; extra pairs create shared-partner
    neighborhoods so all four families can fire.
    """
    from types import SimpleNamespace

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

    return SimpleNamespace(pos_pairs=np.array(pairs, dtype=np.int64),
                           x_neighbors=x_nb, y_neighbors=y_nb)


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
# network: the copying forms that streamed checkpoints, the in-place SGD
# step and the first layer's parameter-only backward replaced


def joined_checkpoint_bytes(params, opt):
    """A checkpoint file's bytes, built as one joined payload."""
    chunks = [nw.CHECKPOINT_MAGIC, struct.pack("<I", nw.CHECKPOINT_VERSION)]
    tensors = nw._named_tensors(params, opt)
    for name in sorted(tensors):
        mat = np.ascontiguousarray(nw._as_record_matrix(tensors[name]))
        raw_name = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw_name)))
        chunks.append(raw_name)
        chunks.append(struct.pack("<QQ", mat.shape[0], mat.shape[1]))
        chunks.append(mat.tobytes())
    payload = b"".join(chunks)
    return payload + hashlib.sha256(payload).digest()[:8]


def out_of_place_sgd_step(params, opt, grads):
    """v <- momentum * v + (grad + wd * theta); theta <- theta - lr * v.

    The decay term applies to affine weight matrices only; every
    operation makes a new array.
    """
    for name, theta in nw._learned_tensors(params):
        grad = grads[name]
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
