"""Retrieval and phrase-localization metrics, plus distance fusion.

Rankings sort ascending distance with ties broken by candidate index,
so every metric is deterministic for fixed inputs.  Retrieval reads
each query's rank of its best positive, the positive with the lowest
(distance, index): its rank is the number of candidates closer than it
plus the number at the same distance with a lower index, and recall@k
counts the queries whose rank is below k.  Box overlaps all come from
``box_iou``.  The localization side consumes a proposal/GT corpus in
the TSV format documented at ``load_corpus_file`` and scores per-query
distances produced by a region-phrase model.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import atomic_write, tsv_line
from .errors import (
    ConfigError,
    ConsistencyError,
    EvaluationError,
    FormatError,
)
from .tensor_core import as_matrix, pairwise_distances

MAX_PROPOSALS_PER_QUERY = 100


# ---------------------------------------------------------------------------
# retrieval


def _best_positive_ranks(distances, positives):
    """Per query, the 0-based rank of its best positive.

    The best positive is the one with the lowest (distance, index);
    its rank is its position in a stable ascending sort of the row.
    """
    nq, nc = distances.shape
    if len(positives) != nq:
        raise ConsistencyError(
            f"{len(positives)} positive sets for {nq} queries"
        )
    counts = np.array([len(pos) for pos in positives], dtype=np.int64)
    if nq and counts.min() == 0:
        raise EvaluationError(
            f"query {int(np.argmin(counts))} has no positives")
    query = np.repeat(np.arange(nq), counts)
    cand = np.fromiter((int(c) for pos in positives for c in pos),
                       dtype=np.int64, count=int(counts.sum()))
    outside = (cand < 0) | (cand >= nc)
    if outside.any():
        first = int(np.argmax(outside))
        raise ConsistencyError(
            f"query {int(query[first])}: positive index {int(cand[first])} "
            f"outside [0, {nc})"
        )
    if np.isnan(distances).any():
        raise EvaluationError("distances contain NaN, which has no rank")
    dist = distances[query, cand]
    order = np.lexsort((cand, dist, query))
    first = np.cumsum(counts) - counts
    best = cand[order[first]][:, None]
    best_dist = dist[order[first]][:, None]
    ahead = (distances < best_dist) | (
        (distances == best_dist) & (np.arange(nc) < best))
    return np.count_nonzero(ahead, axis=1)


def _recall_from_ranks(ranks, k):
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return 100.0 * int(np.count_nonzero(ranks < k)) / ranks.shape[0]


def recall_at_k(distances, positives, k):
    """Percentage of queries with a positive among the k nearest.

    Args:
        distances: (num_queries, num_candidates) matrix.
        positives: per-query collection of correct candidate indices;
            every query must have at least one, each in
            [0, num_candidates).
        k: cutoff, >= 1.

    Returns:
        float percentage in [0, 100].
    """
    distances = as_matrix(distances, "distances")
    return _recall_from_ranks(_best_positive_ranks(distances, positives), k)


@dataclass(frozen=True)
class RetrievalReport:
    """Recall percentages keyed by k, one dict per direction."""

    image_to_sentence: dict
    sentence_to_image: dict

    def rows(self):
        out = []
        for direction, table in (
            ("image_to_sentence", self.image_to_sentence),
            ("sentence_to_image", self.sentence_to_image),
        ):
            for k in sorted(table):
                out.append(("recall", direction, k, table[k]))
        return out


def evaluate_retrieval(distances, pos_y_by_x, pos_x_by_y, ks=(1, 5, 10)):
    """Recall@k in both directions from one cross-view distance matrix.

    Each direction ranks its queries once and reads every k from those
    ranks.

    Args:
        distances: (num_x, num_y) matrix of image-sentence distances.
        pos_y_by_x: per-image list of positive sentence indices.
        pos_x_by_y: per-sentence list of positive image indices.
        ks: cutoffs.

    Returns:
        RetrievalReport.
    """
    distances = as_matrix(distances, "distances")
    i2s = _best_positive_ranks(distances, pos_y_by_x)
    s2i = _best_positive_ranks(distances.T, pos_x_by_y)
    return RetrievalReport(
        image_to_sentence={k: _recall_from_ranks(i2s, k) for k in ks},
        sentence_to_image={k: _recall_from_ranks(s2i, k) for k in ks},
    )


# ---------------------------------------------------------------------------
# boxes


def box_iou(a, b):
    """Intersection over union of every box in a with every box in b.

    Args:
        a: (n, 4) array of (x1, y1, x2, y2).
        b: (m, 4) array of (x1, y1, x2, y2).

    Returns:
        (n, m) matrix; 0 where the boxes are disjoint or only touch,
        and where the union is empty.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ix = (np.minimum(a[:, None, 2], b[None, :, 2])
          - np.maximum(a[:, None, 0], b[None, :, 0]))
    iy = (np.minimum(a[:, None, 3], b[None, :, 3])
          - np.maximum(a[:, None, 1], b[None, :, 1]))
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter),
                     where=union > 0.0)


def nms(boxes, scores, overlap_thresh):
    """Greedy non-maximum suppression.

    Repeatedly keeps the best-scoring remaining box and drops every
    remaining box whose IoU with it exceeds overlap_thresh.  Score
    ties break toward the lower index.

    Args:
        boxes: (n, 4) array of (x1, y1, x2, y2).
        scores: (n,) array of distances; the smallest is best.
        overlap_thresh: IoU above this suppresses.

    Returns:
        list of kept indices, best first.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if boxes.shape[0] != scores.shape[0]:
        raise ConsistencyError(
            f"{boxes.shape[0]} boxes for {scores.shape[0]} scores"
        )
    order = np.argsort(scores, kind="stable")
    suppresses = box_iou(boxes, boxes) > overlap_thresh
    kept = []
    alive = np.ones(boxes.shape[0], dtype=bool)
    for idx in order:
        if alive[idx]:
            kept.append(int(idx))
            alive &= ~suppresses[idx]
    return kept


# ---------------------------------------------------------------------------
# localization corpus


@dataclass
class LocalizationQuery:
    """One (image, phrase) evaluation unit."""

    image_id: str
    phrase_id: str
    phrase_row: int
    proposal_boxes: np.ndarray
    proposal_rows: np.ndarray
    gt_boxes: np.ndarray
    gt_rows: np.ndarray


@dataclass
class LocalizationCorpus:
    queries: list = field(default_factory=list)

    def unique_phrases(self):
        seen = []
        have = set()
        for q in self.queries:
            if q.phrase_id not in have:
                have.add(q.phrase_id)
                seen.append(q.phrase_id)
        return seen

    def region_rows_by_image(self):
        """Sorted unique proposal feature rows per image id."""
        out = {}
        for q in self.queries:
            out.setdefault(q.image_id, set()).update(
                int(r) for r in q.proposal_rows)
        return {k: sorted(v) for k, v in out.items()}


def save_corpus_file(rows, path):
    """Write proposal/GT rows as TSV.

    Row tuple: (image_id, kind "P"|"G", phrase_id, x1, y1, x2, y2,
    feature_row_index or None).
    """
    with atomic_write(path) as fh:
        for row in rows:
            image_id, kind, phrase_id, x1, y1, x2, y2 = row[:7]
            cols = [image_id, kind, phrase_id,
                    repr(float(x1)), repr(float(y1)),
                    repr(float(x2)), repr(float(y2))]
            if len(row) > 7 and row[7] is not None:
                cols.append(str(int(row[7])))
            fh.write(tsv_line(cols, path))


def load_corpus_rows(path):
    """Parse the proposal/GT TSV back into row tuples."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (7, 8):
                raise FormatError(
                    f"{path}:{lineno}: expected 7 or 8 columns, got "
                    f"{len(parts)}"
                )
            image_id, kind, phrase_id = parts[0], parts[1], parts[2]
            if kind not in ("P", "G"):
                raise FormatError(
                    f"{path}:{lineno}: kind must be P or G, got {kind!r}"
                )
            try:
                coords = tuple(float(v) for v in parts[3:7])
                feat = int(parts[7]) if len(parts) == 8 else None
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            rows.append((image_id, kind, phrase_id) + coords + (feat,))
    return rows


def corpus_from_rows(rows, phrases, regions):
    """Group TSV rows into per-(image, phrase) queries.

    Args:
        rows: tuples as produced by load_corpus_rows.
        phrases: FeatureSet of phrase features (resolves phrase ids).
        regions: FeatureSet of region features (bounds feature rows).

    Returns:
        LocalizationCorpus.
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
        if len(bucket["P"]) > MAX_PROPOSALS_PER_QUERY:
            raise ConsistencyError(
                f"query ({image_id}, {phrase_id}) has "
                f"{len(bucket['P'])} proposals, limit is "
                f"{MAX_PROPOSALS_PER_QUERY}"
            )
        p_boxes = np.array([b for b, _ in bucket["P"]], dtype=np.float64)
        p_rows = np.array([f for _, f in bucket["P"]], dtype=np.int64)
        if bucket["G"]:
            g_boxes = np.array([b for b, _ in bucket["G"]], dtype=np.float64)
            g_rows = np.array(
                [-1 if f is None else f for _, f in bucket["G"]],
                dtype=np.int64,
            )
        else:
            g_boxes = np.zeros((0, 4), dtype=np.float64)
            g_rows = np.zeros((0,), dtype=np.int64)
        queries.append(LocalizationQuery(
            image_id=image_id,
            phrase_id=phrase_id,
            phrase_row=phrases.row_of(phrase_id),
            proposal_boxes=p_boxes,
            proposal_rows=p_rows,
            gt_boxes=g_boxes,
            gt_rows=g_rows,
        ))
    return LocalizationCorpus(queries=queries)


def load_corpus_file(path, phrases, regions):
    return corpus_from_rows(load_corpus_rows(path), phrases, regions)


# ---------------------------------------------------------------------------
# localization metrics


def query_distances(corpus, phrase_emb, region_emb):
    """Per-query distances phrase -> each proposal.

    Args:
        corpus: LocalizationCorpus.
        phrase_emb: embedded phrase features, row-aligned with the
            phrase FeatureSet.
        region_emb: embedded region features, row-aligned with the
            region FeatureSet.

    Returns:
        list of (num_proposals,) arrays, one per query.
    """
    phrase_emb = as_matrix(phrase_emb, "phrase_emb")
    region_emb = as_matrix(region_emb, "region_emb")
    out = []
    for q in corpus.queries:
        diff = region_emb[q.proposal_rows] - phrase_emb[q.phrase_row]
        out.append(np.sqrt((diff * diff).sum(axis=1)))
    return out


def localization_recall_at_k(corpus, distances, k, iou_thresh=0.5):
    """Percentage of queries whose k nearest proposals hit a GT box.

    A proposal hits when its IoU with any of the query's GT boxes is
    at least iou_thresh.  Queries without GT boxes count as misses.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if len(distances) != len(corpus.queries):
        raise ConsistencyError(
            f"{len(distances)} distance vectors for "
            f"{len(corpus.queries)} queries"
        )
    hits = 0
    for q, dist in zip(corpus.queries, distances):
        if dist.shape[0] != q.proposal_boxes.shape[0]:
            raise ConsistencyError(
                f"query ({q.image_id}, {q.phrase_id}): {dist.shape[0]} "
                f"distances for {q.proposal_boxes.shape[0]} proposals"
            )
        if q.gt_boxes.shape[0] == 0:
            continue
        top = np.argsort(dist, kind="stable")[:k]
        best = box_iou(q.proposal_boxes[top], q.gt_boxes).max(axis=1)
        if (best >= iou_thresh).any():
            hits += 1
    if not corpus.queries:
        raise EvaluationError("corpus has no queries")
    return 100.0 * hits / len(corpus.queries)


def phrase_map(corpus, distances, nms_overlap=0.3, iou_thresh=0.5):
    """Average precision of box ranking per unique phrase, and mAP.

    Per query, proposals first pass greedy NMS at nms_overlap.  The
    survivors of all queries of a phrase are pooled and ranked by
    distance (ties by query order, then proposal index).  Walking down
    the ranking, a box is correct if its best-IoU unmatched GT box of
    its own query reaches iou_thresh; each GT box is consumed at most
    once.  AP is the mean of the precisions at the correct boxes, or 0
    with no correct box.  Phrases with no GT boxes anywhere are
    excluded and reported.

    Returns:
        (mAP, {phrase_id: AP}, [excluded phrase ids]).
    """
    if len(distances) != len(corpus.queries):
        raise ConsistencyError(
            f"{len(distances)} distance vectors for "
            f"{len(corpus.queries)} queries"
        )
    pooled = {}
    gt_count = {}
    ious = []
    for qi, (q, dist) in enumerate(zip(corpus.queries, distances)):
        ious.append(box_iou(q.proposal_boxes, q.gt_boxes))
        keep = nms(q.proposal_boxes, dist, nms_overlap)
        entries = pooled.setdefault(q.phrase_id, [])
        for p in keep:
            entries.append((float(dist[p]), qi, int(p)))
        gt_count[q.phrase_id] = (gt_count.get(q.phrase_id, 0)
                                 + q.gt_boxes.shape[0])
    per_phrase = {}
    skipped = []
    for phrase_id in corpus.unique_phrases():
        if gt_count.get(phrase_id, 0) == 0:
            skipped.append(phrase_id)
            continue
        ranked = sorted(pooled[phrase_id])
        consumed = {}
        precisions = []
        correct = 0
        for rank, (_, qi, p) in enumerate(ranked, start=1):
            q = corpus.queries[qi]
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
    if not per_phrase:
        raise EvaluationError("no phrase has ground-truth boxes")
    map_value = float(np.mean([per_phrase[p] for p in per_phrase]))
    return map_value, per_phrase, skipped


# ---------------------------------------------------------------------------
# weighted fusion


def weighted_distance(d_global, d_rp, alpha):
    """D = (1 - alpha) * global distance + alpha * region-phrase part."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    return (1.0 - alpha) * d_global + alpha * d_rp


def fused_distance_matrix(d_global, phrase_emb, region_emb,
                          region_rows_by_image, image_ids,
                          phrase_rows_by_sentence, alpha):
    """Weighted fusion over a whole retrieval grid.

    The region-phrase part of cell (image, sentence) is the mean over
    the sentence's phrases of the phrase's distance to its closest
    region of the image.  The per-(image, phrase) minima come from one
    ``pairwise_distances`` per image; each sentence's minima are then
    gathered and added left to right, one phrase position at a time,
    and divided by the sentence's phrase count.  That order equals
    numpy's ``mean`` bitwise for fewer than 8 phrases per sentence;
    from 8 up, ``mean`` sums pairwise and the two may differ by about
    one ulp.

    Args:
        d_global: (num_images, num_sentences) global distances.
        phrase_emb, region_emb: embedded phrase/region features.
        region_rows_by_image: image id -> region feature rows.
        image_ids: row-aligned ids of d_global's image axis.
        phrase_rows_by_sentence: per-sentence list of phrase feature
            rows (empty list -> global fallback for that sentence).
        alpha: fusion weight in [0, 1].

    Returns:
        (num_images, num_sentences) fused matrix.
    """
    d_global = as_matrix(d_global, "d_global")
    phrase_emb = as_matrix(phrase_emb, "phrase_emb")
    region_emb = as_matrix(region_emb, "region_emb")
    n_img, n_sent = d_global.shape
    if len(image_ids) != n_img:
        raise ConsistencyError(
            f"{len(image_ids)} image ids for {n_img} rows"
        )
    if len(phrase_rows_by_sentence) != n_sent:
        raise ConsistencyError(
            f"{len(phrase_rows_by_sentence)} phrase lists for "
            f"{n_sent} columns"
        )
    # (sentences x longest phrase list) phrase rows, padded with the
    # index of an all-zero column appended to the minima
    n_phrases = phrase_emb.shape[0]
    counts = np.array([len(rows) for rows in phrase_rows_by_sentence],
                      dtype=np.int64)
    listed = np.fromiter((int(r) for rows in phrase_rows_by_sentence
                          for r in rows), dtype=np.int64)
    if listed.size and (listed.min() < 0 or listed.max() >= n_phrases):
        raise ConsistencyError(
            f"a sentence names a phrase row outside [0, {n_phrases})"
        )
    index = np.full((n_sent, counts.max(initial=0)), n_phrases)
    index[np.arange(index.shape[1]) < counts[:, None]] = listed

    mins = np.zeros((n_img, n_phrases + 1))
    for i, image_id in enumerate(image_ids):
        rows = region_rows_by_image.get(image_id, [])
        if rows:
            d = pairwise_distances(phrase_emb, region_emb[np.asarray(rows)])
            mins[i, :n_phrases] = d.min(axis=1)
        elif index.shape[1]:
            raise EvaluationError(
                f"image {image_id!r} has no regions to match phrases"
            )
    total = np.zeros((n_img, n_sent))
    for position in range(index.shape[1]):
        total += mins[:, index[:, position]]
    d_rp = total / np.maximum(counts, 1)
    fused = weighted_distance(d_global, d_rp, alpha)
    return np.where(counts > 0, fused, d_global)


# ---------------------------------------------------------------------------
# reports


def write_report_csv(path, rows, config_lines=()):
    """CSV of (metric, direction, k, value) rows with a config echo.

    Floats are written with repr so re-runs are byte-comparable.
    """
    with atomic_write(path) as fh:
        for line in config_lines:
            fh.write(f"# {line}\n")
        fh.write("metric,direction,k,value\n")
        for metric, direction, k, value in rows:
            if isinstance(value, float):
                value = repr(value)
            fh.write(f"{metric},{direction},{k},{value}\n")
