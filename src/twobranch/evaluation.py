"""Retrieval and phrase-localization metrics, plus distance fusion.

Rankings sort ascending distance with ties broken by candidate index,
so every metric is deterministic for fixed inputs.  Retrieval reads
each query's rank of its best positive, the positive with the lowest
(distance, index): its rank is the number of candidates closer than it
plus the number at the same distance with a lower index, and recall@k
counts the queries whose rank is below k.  Box overlaps all come from
``box_iou``.  The localization side has one way into a
``LocalizationCorpus``: ``load_corpus_file`` reads a proposal/GT TSV,
the one that ``save_corpus_file`` writes, into its columns.  The
metrics score the (P,) proposal distances of a region-phrase model on
all queries at once.
"""

from dataclasses import dataclass

import numpy as np

from .data import atomic_write, read_tsv, tsv_line
from .errors import (
    ConfigError,
    ConsistencyError,
    EvaluationError,
    FormatError,
)
from .tensor_core import (DIRECT_CHUNK_FLOATS, as_matrix, pairwise_distances,
                          row_distances)

MAX_PROPOSALS_PER_QUERY = 100


# ---------------------------------------------------------------------------
# retrieval


def _best_positive_ranks(distances, positives):
    """Per query, the 0-based rank of its best positive.

    ``positives`` is a ``data.Adjacency`` with one row per query.  The
    best positive is the one with the lowest (distance, index); its
    rank is its position in a stable ascending sort of the row.
    """
    nq, nc = distances.shape
    first = positives.offsets[:-1]
    if first.shape[0] != nq:
        raise ConsistencyError(
            f"{first.shape[0]} positive sets for {nq} queries")
    counts = positives.offsets[1:] - first
    if nq and counts.min() == 0:
        raise EvaluationError(
            f"query {int(np.argmin(counts))} has no positives")
    query = np.repeat(np.arange(nq), counts)
    cand = positives.partners
    outside = (cand < 0) | (cand >= nc)
    if outside.any():
        at = int(np.argmax(outside))
        raise ConsistencyError(
            f"query {int(query[at])}: positive index {int(cand[at])} "
            f"outside [0, {nc})"
        )
    if np.isnan(distances).any():
        raise EvaluationError("distances contain NaN, which has no rank")
    dist = distances[query, cand]
    order = np.lexsort((cand, dist, query))
    best = cand[order[first]][:, None]
    best_dist = dist[order[first]][:, None]
    ahead = (distances < best_dist) | (
        (distances == best_dist) & (np.arange(nc) < best))
    return np.count_nonzero(ahead, axis=1)


def _recall_from_ranks(ranks, k):
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return 100.0 * int(np.count_nonzero(ranks < k)) / ranks.shape[0]


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


def evaluate_retrieval(distances, y_of_x, x_of_y, ks=(1, 5, 10)):
    """Recall@k in both directions from one cross-view distance matrix.

    Each direction ranks its queries once and reads every k from those
    ranks.

    Args:
        distances: (num_x, num_y) matrix of image-sentence distances.
        y_of_x, x_of_y: the ``data.Adjacency`` of each image's positive
            sentences and of each sentence's positive images.
        ks: cutoffs.

    Returns:
        RetrievalReport.
    """
    distances = as_matrix(distances, "distances")
    i2s = _best_positive_ranks(distances, y_of_x)
    s2i = _best_positive_ranks(distances.T, x_of_y)
    return RetrievalReport(
        image_to_sentence={k: _recall_from_ranks(i2s, k) for k in ks},
        sentence_to_image={k: _recall_from_ranks(s2i, k) for k in ks},
    )


# ---------------------------------------------------------------------------
# boxes


def check_unit_interval(name, value):
    """ConfigError unless ``value`` lies in [0, 1] (NaN does not)."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")


def box_iou(a, b):
    """Intersection over union of every box in a with every box in b.

    Args:
        a: (..., n, 4) array of (x1, y1, x2, y2); one box may be (4,).
        b: (..., m, 4) array of (x1, y1, x2, y2); the leading axes of a
            and b broadcast.

    Returns:
        (..., n, m) array; 0 where the boxes are disjoint or only touch,
        and where the union is empty.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))[..., :, None, :]
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))[..., None, :, :]
    ix = (np.minimum(a[..., 2], b[..., 2])
          - np.maximum(a[..., 0], b[..., 0]))
    iy = (np.minimum(a[..., 3], b[..., 3])
          - np.maximum(a[..., 1], b[..., 1]))
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(inter),
                     where=union > 0.0)


# ---------------------------------------------------------------------------
# localization corpus


def _padded(item_query, num_queries, items):
    """(queries, most items of a query) grid of ``items``, which come
    grouped by ``item_query``; -1 after a query's last item."""
    rank = np.arange(items.shape[0]) - np.searchsorted(item_query,
                                                       item_query)
    grid = np.full((num_queries, rank.max(initial=-1) + 1), -1)
    grid[item_query, rank] = items
    return grid


@dataclass(frozen=True)
class LocalizationCorpus:
    """(image, phrase) queries and their boxes, stored as columns.

    Queries are numbered in the order their (image, phrase) pair first
    appears in the rows.  Per query: ``image_ids`` (Q,) str,
    ``query_phrase`` (Q,) index into ``phrase_ids`` (the distinct
    phrase ids in order of first appearance) and ``phrase_rows`` (Q,)
    phrase feature rows.  Proposals are grouped by query, in row order
    within a query: ``proposal_boxes`` (P, 4) of (x1, y1, x2, y2),
    ``proposal_rows`` (P,) region feature rows and ``proposal_query``
    (P,).  GT boxes are laid out alike in ``gt_boxes``, ``gt_rows``
    (-1 for a box without a feature row) and ``gt_query``.
    """

    image_ids: np.ndarray
    phrase_ids: list
    query_phrase: np.ndarray
    phrase_rows: np.ndarray
    proposal_boxes: np.ndarray
    proposal_rows: np.ndarray
    proposal_query: np.ndarray
    gt_boxes: np.ndarray
    gt_rows: np.ndarray
    gt_query: np.ndarray

    @property
    def num_queries(self):
        return self.image_ids.shape[0]

    def region_rows_by_image(self):
        """Sorted unique proposal feature rows per image id."""
        names, image = np.unique(self.image_ids, return_inverse=True)
        stride = int(self.proposal_rows.max(initial=0)) + 1
        keys = np.unique(image[self.proposal_query] * stride
                         + self.proposal_rows)
        cuts = np.searchsorted(keys // stride, np.arange(1, names.size))
        return dict(zip(names.tolist(),
                        (r.tolist() for r in np.split(keys % stride, cuts))))

    def gt_iou(self, proposals):
        """(iou, valid) of proposal indices of any shape S with the GT
        boxes of their own query, both S + (most GT boxes of a query,):
        slot j holds the query's j-th GT box while valid, else 0."""
        gt = _padded(self.gt_query, self.num_queries,
                     np.arange(self.gt_query.shape[0]))
        gt = gt[self.proposal_query[proposals]]
        valid = gt >= 0
        iou = box_iou(self.proposal_boxes[proposals][..., None, :],
                      self.gt_boxes[np.where(valid, gt, 0)])
        return np.where(valid, iou[..., 0, :], 0.0), valid

    def hits_gt(self, proposals, iou_thresh):
        """Whether each proposal reaches iou_thresh with a GT box of its
        own query."""
        iou, valid = self.gt_iou(proposals)
        return (valid & (iou >= iou_thresh)).any(axis=-1)


def _corpus_row(parts):
    """The row tuple, as ``save_corpus_file`` takes one, of one corpus
    line's text fields; ValueError for a kind other than P or G or a
    field that is no number."""
    if parts[1] not in ("P", "G"):
        raise ValueError(f"kind must be P or G, got {parts[1]!r}")
    return (*parts[:3], *map(float, parts[3:7]),
            int(parts[7]) if len(parts) == 8 else None)


def _corpus(rows, phrases=None, regions=None):
    """The LocalizationCorpus of ``_corpus_row`` tuples, checked by the
    value rule of the corpus file; it raises the ConsistencyError that
    ``load_corpus_file`` names.  Without feature sets, as
    ``save_corpus_file`` applies it, the checks that need one are
    skipped, a negative feature row is refused on its own and every
    ``phrase_rows`` entry is -1."""
    image, kind, phrase, *coords, feats = list(zip(*rows)) or [()] * 8
    keys, codes = {}, {}
    query = np.array([keys.setdefault(key, len(keys))
                      for key in zip(image, phrase)], dtype=np.int64)
    phrase_code = np.array([codes.setdefault(p, len(codes))
                            for p in phrase], dtype=np.int64)
    is_proposal = np.array(kind, dtype=object) == "P"
    boxes = np.array(coords, dtype=np.float64).reshape(4, -1).T
    has_feat = np.array([f is not None for f in feats], dtype=bool)
    feat = np.array([-1 if f is None else f for f in feats], dtype=np.int64)

    finite = np.isfinite(boxes).all(axis=1)
    flat = ~((boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1]))
    unfed = is_proposal & ~has_feat
    limit = np.inf if regions is None else regions.n
    outside = has_feat & ~((feat >= 0) & (feat < limit))
    bad = ~finite | flat | unfed | outside
    if bad.any():
        i = int(np.argmax(bad))
        where = f"query ({image[i]}, {phrase[i]})"
        box = "box ({}, {}, {}, {})".format(*boxes[i].tolist())
        raise ConsistencyError(
            f"{where}: {box} is not finite" if not finite[i]
            else f"{where}: {box} has no area" if flat[i]
            else f"{where}: proposal without a feature row" if unfed[i]
            else f"{where}: feature row {feat[i]} is negative"
            if regions is None
            else f"{where}: feature row {feat[i]} outside region set "
                 f"of {regions.n} rows")

    first_row = np.unique(query, return_index=True)[1]
    image_ids = np.array(image, dtype=str)[first_row]
    query_phrase = phrase_code[first_row]
    phrase_ids = list(codes)
    known = {} if phrases is None else dict(zip(phrases.ids,
                                                range(phrases.n)))
    phrase_rows = np.array([known.get(p, -1) for p in phrase_ids],
                           dtype=np.int64)[query_phrase]
    count = np.bincount(query[is_proposal], minlength=len(keys))
    bad = (count == 0) | (count > MAX_PROPOSALS_PER_QUERY) | (
        (phrase_rows < 0) & (phrases is not None))
    if bad.any():
        q = int(np.argmax(bad))
        phrase_id = phrase_ids[query_phrase[q]]
        where = f"query ({image_ids[q]}, {phrase_id})"
        if count[q] == 0:
            raise ConsistencyError(f"{where} has no proposals")
        if count[q] > MAX_PROPOSALS_PER_QUERY:
            raise ConsistencyError(
                f"{where} has {count[q]} proposals, limit is "
                f"{MAX_PROPOSALS_PER_QUERY}")
        phrases.row_of(phrase_id)  # raises: the id is unknown

    props = np.flatnonzero(is_proposal)
    props = props[np.argsort(query[props], kind="stable")]
    gts = np.flatnonzero(~is_proposal)
    gts = gts[np.argsort(query[gts], kind="stable")]
    return LocalizationCorpus(
        image_ids=image_ids, phrase_ids=phrase_ids,
        query_phrase=query_phrase, phrase_rows=phrase_rows,
        proposal_boxes=boxes[props], proposal_rows=feat[props],
        proposal_query=query[props], gt_boxes=boxes[gts],
        gt_rows=feat[gts], gt_query=query[gts])


def save_corpus_file(rows, path):
    """Write proposal/GT rows as TSV in the ``load_corpus_file`` format.

    Row tuple: (image_id, kind "P"|"G", phrase_id, x1, y1, x2, y2), and
    optionally an eighth field, feature_row_index or None.  The writer
    refuses what the reader refuses, with ConsistencyError, and the old
    file keeps its bytes: a row of another width or kind, a field that
    ``tsv_line`` refuses, a line the reader's line rule refuses and rows
    its value rule refuses without feature sets, with its messages.
    """
    written = []
    with atomic_write(path) as fh:
        for row in rows:
            if len(row) not in (7, 8) or row[1] not in ("P", "G"):
                raise ConsistencyError(
                    f"{path}: corpus row {tuple(row)!r} would not read "
                    "back: it needs 7 or 8 fields and a kind of P or G")
            box = list(map(float, row[3:7]))
            parts = [str(row[0]), row[1], str(row[2]), *map(repr, box)]
            if len(row) > 7 and row[7] is not None:
                parts.append(str(row[7]))
            fh.write(tsv_line(parts, path))
            try:
                # a float's repr reads back as the float, so the line
                # rule takes the floats themselves
                written.append(_corpus_row([*parts[:3], *box, *parts[7:]]))
            except ValueError as exc:
                raise ConsistencyError(
                    f"{path}: corpus row {tuple(row)!r} would not read "
                    f"back: {exc}") from exc
        _corpus(written)


def load_corpus_file(path, phrases, regions):
    """Read a proposal/GT TSV into a LocalizationCorpus.

    This file is the one way into a LocalizationCorpus: rows written by
    ``save_corpus_file`` are read back here.  One line per box,
    tab-separated: image_id, kind (P for a proposal, G for a
    ground-truth box), phrase_id, x1, y1, x2, y2 and the box's row in
    the region feature file, which a GT box may leave out.  Blank lines
    and lines starting with # are skipped.  The lines of one (image_id,
    phrase_id) pair form a query.  One pass converts each line; the
    rows are then checked by the value rule ``save_corpus_file`` also
    applies, here with ``phrases`` and ``regions``.

    Raises:
        FormatError: naming the first line that does not parse.
        ConsistencyError: naming the query of the first line whose box
            is not finite or has no area, whose proposal has no feature
            row or whose feature row lies outside ``regions``; then the
            first query with no proposals, more than
            MAX_PROPOSALS_PER_QUERY or a phrase id not in ``phrases``.
    """
    rows = []
    for lineno, parts in read_tsv(path, (7, 8)):
        try:
            rows.append(_corpus_row(parts))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return _corpus(rows, phrases, regions)


# ---------------------------------------------------------------------------
# localization metrics


def query_distances(corpus, phrase_emb, region_emb):
    """Distance from each proposal to its query's phrase.

    Args:
        corpus: LocalizationCorpus.
        phrase_emb: embedded phrase features, row-aligned with the
            phrase FeatureSet.
        region_emb: embedded region features, row-aligned with the
            region FeatureSet.

    Returns:
        (P,) distances, one per proposal in corpus order.
    """
    phrase_emb = as_matrix(phrase_emb, "phrase_emb")
    region_emb = as_matrix(region_emb, "region_emb")
    return row_distances(region_emb, corpus.proposal_rows, phrase_emb,
                         corpus.phrase_rows[corpus.proposal_query])


def _proposal_distances(corpus, distances):
    distances = np.asarray(distances, dtype=np.float64)
    if distances.shape != corpus.proposal_query.shape:
        raise ConsistencyError(
            f"distances of shape {distances.shape} for "
            f"{corpus.proposal_query.shape[0]} proposals"
        )
    return distances


def _ranked(corpus, distances):
    """(queries, most proposals of a query) grid of each query's
    proposals by (distance, index); -1 after its last."""
    query = corpus.proposal_query
    order = np.lexsort((np.arange(query.shape[0]), distances, query))
    return _padded(query, corpus.num_queries, order)


def localization_recall_at_k(corpus, distances, k, iou_thresh=0.5):
    """Percentage of queries whose k nearest proposals hit a GT box.

    A proposal hits when its IoU with any of the query's GT boxes is
    at least iou_thresh.  Queries without GT boxes count as misses.
    ``distances`` is the (P,) vector of query_distances; ties rank by
    proposal index.  ``iou_thresh`` must lie in [0, 1].
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    check_unit_interval("iou_thresh", iou_thresh)
    distances = _proposal_distances(corpus, distances)
    if not corpus.num_queries:
        raise EvaluationError("corpus has no queries")
    top = _ranked(corpus, distances)[:, :k]
    top = top[top >= 0]
    hit_queries = np.unique(
        corpus.proposal_query[top[corpus.hits_gt(top, iou_thresh)]])
    return 100.0 * int(hit_queries.size) / corpus.num_queries


def _survivors(corpus, distances, nms_overlap, iou_thresh):
    """Greedy NMS and greedy GT matching of every query, as (P,) masks.

    A query's proposals are visited in rank order.  NMS keeps one that
    no kept one overlaps above nms_overlap.  A kept one is correct when
    the highest IoU among its query's GT boxes not yet taken is positive
    and reaches iou_thresh; it takes that box, the lower index on a tie.
    The walk steps through rank positions with a block of queries in
    lockstep; the padded (queries x positions x positions or GT boxes)
    tensors of a block hold about DIRECT_CHUNK_FLOATS floats.

    Returns:
        (kept, correct).
    """
    ranked = _ranked(corpus, distances)
    width = ranked.shape[1]
    depth = int(np.bincount(corpus.gt_query).max(initial=0))
    block = max(1, DIRECT_CHUNK_FLOATS // max(1, width * width,
                                              width * depth))
    kept = np.zeros(distances.shape[0], dtype=bool)
    correct = np.zeros(distances.shape[0], dtype=bool)
    for q0 in range(0, corpus.num_queries, block):
        valid = ranked[q0:q0 + block] >= 0
        props = np.where(valid, ranked[q0:q0 + block], 0)
        boxes = corpus.proposal_boxes[props]
        suppressed = box_iou(boxes, boxes) > nms_overlap
        iou, _ = corpus.gt_iou(props)
        alive = valid.copy()
        keep = np.zeros_like(valid)
        hit = np.zeros_like(valid)
        taken = np.zeros((iou.shape[0], iou.shape[2]), dtype=bool)
        for r in range(width):
            keep[:, r] = alive[:, r]
            alive &= ~(suppressed[:, r] & keep[:, r, None])
            open_iou = np.where(taken, 0.0, iou[:, r])
            best = open_iou.max(axis=1, initial=0.0)
            hit[:, r] = keep[:, r] & (best > 0.0) & (best >= iou_thresh)
            take = (open_iou == best[:, None]) & hit[:, r, None]
            taken |= take & (np.cumsum(take, axis=1) == 1)
        kept[props[keep]] = True
        correct[props[hit]] = True
    return kept, correct


def phrase_map(corpus, distances, nms_overlap=0.3, iou_thresh=0.5):
    """Average precision of box ranking per unique phrase, and mAP.

    Per query, proposals first pass greedy NMS at nms_overlap.  The
    survivors of all queries of a phrase are pooled and ranked by
    distance (ties by query order, then proposal index).  Walking down
    the ranking, a box is correct if its best-IoU unmatched GT box of
    its own query reaches iou_thresh; each GT box is consumed at most
    once.  AP is the mean of the precisions at the correct boxes, or 0
    with no correct box.  Phrases with no GT boxes anywhere are
    excluded and reported.  ``distances`` is the (P,) vector of
    query_distances; ``nms_overlap`` and ``iou_thresh`` must lie in
    [0, 1].

    Returns:
        (mAP, {phrase_id: AP}, [excluded phrase ids]).
    """
    check_unit_interval("nms_overlap", nms_overlap)
    check_unit_interval("iou_thresh", iou_thresh)
    distances = _proposal_distances(corpus, distances)
    num_phrases = len(corpus.phrase_ids)
    gt_count = np.bincount(corpus.query_phrase[corpus.gt_query],
                           minlength=num_phrases)
    if not gt_count.any():
        raise EvaluationError("no phrase has ground-truth boxes")
    kept, correct = _survivors(corpus, distances, nms_overlap, iou_thresh)
    # a survivor's match depends only on its own query, so one sort
    # pools them; ranks and correct counts accumulate along it
    pooled = np.flatnonzero(kept)
    phrase = corpus.query_phrase[corpus.proposal_query[pooled]]
    order = np.lexsort((pooled, distances[pooled], phrase))
    phrase, hit = phrase[order], correct[pooled[order]]
    start = np.searchsorted(phrase, phrase)
    rank = np.arange(1, phrase.shape[0] + 1) - start
    hits = np.cumsum(hit)
    precision = (hits - (hits - hit)[start])[hit] / rank[hit]
    cuts = np.searchsorted(phrase[hit], np.arange(1, num_phrases))
    per_phrase = {
        phrase_id: float(np.mean(p)) if p.size else 0.0
        for phrase_id, p, n_gt in zip(corpus.phrase_ids,
                                      np.split(precision, cuts), gt_count)
        if n_gt}
    skipped = [p for p, n_gt in zip(corpus.phrase_ids, gt_count) if not n_gt]
    map_value = float(np.mean(list(per_phrase.values())))
    return map_value, per_phrase, skipped


# ---------------------------------------------------------------------------
# weighted fusion


def weighted_distance(d_global, d_rp, alpha):
    """D = (1 - alpha) * global distance + alpha * region-phrase part."""
    check_unit_interval("alpha", alpha)
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
