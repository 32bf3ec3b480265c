"""Hard-negative mining over a localization corpus, and fine-tuning.

A proposal is a hard negative for a phrase when the model scores it
closer than the phrase's closest ground-truth region while it overlaps
no ground-truth box of its own image at the IoU threshold
(``evaluation.IOU_THRESH`` by default).  Mined negatives re-enter
training as reserved region rows: they may only serve as negatives for
the phrase they were mined for, and fine-tuning drops the
structure-preserving terms entirely.
"""

import math
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace

import numpy as np

from .data import NEGATIVES_PER_ANCHOR, atomic_write, read_tsv, tsv_line
from .errors import ConfigError, ConsistencyError, FormatError
from .evaluation import IOU_THRESH, check_unit_interval, query_distances
from .network import learning_rate
from .tensor_core import row_distances
from .training import check_epoch_plan, train

# The most negatives kept per phrase, by default.
CAP_PER_PHRASE = 50


@dataclass
class HardNegativeSet:
    """Per-phrase mined negatives: lists of (region_row, distance).

    Lists are sorted by (distance, row) ascending and hold at most
    ``cap`` entries each, the cap that mining or loading was given.
    """

    by_phrase: dict = field(default_factory=dict)

    @property
    def total(self):
        return sum(len(v) for v in self.by_phrase.values())


def _check_cap(cap):
    if cap < 1:
        raise ConfigError(f"hard-negative cap must be >= 1, got {cap}")


def mine_hard_negatives(corpus, phrase_emb, region_emb, cap=CAP_PER_PHRASE,
                        iou_thresh=IOU_THRESH):
    """Collect the closest qualifying proposals per unique phrase.

    Args:
        corpus: LocalizationCorpus.
        phrase_emb, region_emb: eval-mode embeddings of the phrase and
            region FeatureSets the corpus indexes into, from a trained
            first-stage model (x = regions, y = phrases).
        cap: keep at most this many negatives per phrase.
        iou_thresh: overlap at or above this disqualifies a proposal
            (it localizes some ground truth too well).

    Proposal distances are ``evaluation.query_distances``, the ones
    localization is scored on.  A phrase whose ground-truth boxes carry
    no feature rows has no distance reference and is skipped.  A region
    row proposed again for a phrase keeps its smallest distance.

    Returns:
        (HardNegativeSet, skipped phrase ids).

    Raises:
        ConfigError: ``cap`` below 1, or ``iou_thresh`` outside [0, 1].
    """
    _check_cap(cap)
    check_unit_interval("iou_thresh", iou_thresh)
    num_phrases = len(corpus.phrase_ids)
    dists = query_distances(corpus, phrase_emb, region_emb)
    phrase = corpus.query_phrase[corpus.proposal_query]
    # each phrase's threshold: its closest ground-truth region
    has_row = corpus.gt_rows >= 0
    gt_query = corpus.gt_query[has_row]
    gt_phrase = corpus.query_phrase[gt_query]
    anchored = np.bincount(gt_phrase, minlength=num_phrases) > 0
    threshold = np.full(num_phrases, np.inf)
    np.minimum.at(threshold, gt_phrase, row_distances(
        region_emb, corpus.gt_rows[has_row], phrase_emb,
        corpus.phrase_rows[gt_query]))
    near = np.flatnonzero(anchored[phrase] & ~(dists >= threshold[phrase]))
    near = near[~corpus.hits_gt(near, iou_thresh)]
    # per phrase closest first, ties by row; a region row proposed again
    # for the phrase keeps its first, smallest, distance
    order = np.lexsort((corpus.proposal_rows[near], dists[near],
                        phrase[near]))
    near = near[order]
    stride = int(corpus.proposal_rows.max(initial=0)) + 1
    key = phrase[near] * stride + corpus.proposal_rows[near]
    near = near[np.sort(np.unique(key, return_index=True)[1])]
    rank = np.arange(near.shape[0]) - np.searchsorted(phrase[near],
                                                      phrase[near])
    near = near[rank < cap]
    cuts = np.searchsorted(phrase[near], np.arange(1, num_phrases))
    out = {
        phrase_id: list(zip(corpus.proposal_rows[n].tolist(),
                            dists[n].tolist()))
        for phrase_id, n, ok in zip(corpus.phrase_ids, np.split(near, cuts),
                                    anchored)
        if ok}
    skipped = [p for p, ok in zip(corpus.phrase_ids, anchored) if not ok]
    return HardNegativeSet(by_phrase=out), skipped


def _entry(row, dist):
    """(region row, distance) of one line's row and distance fields, by
    the rule ``save_hard_negatives`` and ``load_hard_negatives`` both
    apply: ValueError unless the row is an integer and the distance a
    finite float."""
    row, value = int(row), float(dist)
    if not math.isfinite(value):
        raise ValueError(f"distance {dist!r} is not finite")
    return row, value


def save_hard_negatives(hn, path):
    """TSV: phrase_id, region row, distance; one line per negative.

    The writer refuses what ``load_hard_negatives`` refuses: each line's
    fields go through the reader's rule first, so a row that is no
    integer or a distance that is not finite raises ConsistencyError,
    as does a phrase id ``tsv_line`` refuses; the old file then keeps
    its bytes.
    """
    with atomic_write(path) as fh:
        for phrase_id in sorted(hn.by_phrase):
            for row, dist in hn.by_phrase[phrase_id]:
                fields = (phrase_id, str(row), repr(float(dist)))
                try:
                    _entry(*fields[1:])
                except ValueError as exc:
                    raise ConsistencyError(
                        f"{path}: negative {(row, dist)!r} of phrase "
                        f"{phrase_id!r} would not read back: {exc}") from exc
                fh.write(tsv_line(fields, path))


def load_hard_negatives(path, cap=CAP_PER_PHRASE):
    """Read a save_hard_negatives TSV, keeping each phrase's ``cap``
    closest entries by (distance, row); ``cap`` must be at least 1.
    A line whose row is no integer or whose distance is not finite
    raises FormatError naming ``path:lineno``."""
    _check_cap(cap)
    by_phrase = {}
    for lineno, parts in read_tsv(path, (3,)):
        try:
            entry = _entry(parts[1], parts[2])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        by_phrase.setdefault(parts[0], []).append(entry)
    return HardNegativeSet(by_phrase={
        phrase_id: [(r, d) for d, r in sorted(
            (d, r) for r, d in entries)[:cap]]
        for phrase_id, entries in by_phrase.items()})


def negatives_by_anchor_row(hn, phrase_features):
    """Map phrase feature rows to their mined region rows."""
    out = {}
    for phrase_id, entries in hn.by_phrase.items():
        out[phrase_features.row_of(phrase_id)] = [r for r, _ in entries]
    return out


def fine_tune(params, opt, graph, features_x, features_y, hn, loss_cfg,
              epochs, batch_pairs, augment, rng,
              negatives_per_anchor=NEGATIVES_PER_ANCHOR, on_epoch=None):
    """Continue training with ranking constraints only.

    Both structure weights of ``loss_cfg`` are set to zero, whatever
    the caller passed, and the learning-rate schedule restarts from
    epoch 0.  Mined negatives join batches as reserved rows for
    their phrase whenever that phrase is sampled.

    Raises, before ``opt`` restarts:
        ConfigError: ``epochs`` below 0, ``negatives_per_anchor`` below
            1 or ``batch_pairs`` below 2.
        ConsistencyError: a mined phrase id ``features_y`` lacks, or a
            mined region row outside ``features_x``.

    Returns:
        list of EpochStats.
    """
    check_epoch_plan(epochs, batch_pairs)
    if negatives_per_anchor < 1:
        raise ConfigError(f"negatives_per_anchor must be >= 1, got "
                          f"{negatives_per_anchor}")
    extra = negatives_by_anchor_row(hn, features_y)
    outside = [r for rows in extra.values() for r in rows
               if not 0 <= r < features_x.n]
    if outside:
        raise ConsistencyError(
            f"hard negative region row {outside[0]} outside feature set "
            f"of {features_x.n} rows")
    loss_cfg = dc_replace(loss_cfg, lambda2=0.0, lambda3=0.0)
    opt.epoch = 0
    opt.lr = learning_rate(0, opt.lr0)
    return train(params, opt, graph, features_x, features_y, loss_cfg,
                 epochs, batch_pairs, augment, rng,
                 extra_negatives=extra,
                 negatives_per_anchor=negatives_per_anchor,
                 on_epoch=on_epoch)
