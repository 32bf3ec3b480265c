"""Hard-negative mining over a localization corpus, and fine-tuning.

A proposal is a hard negative for a phrase when the model scores it
closer than the phrase's closest ground-truth region while it overlaps
no ground-truth box of its own image at IoU >= 0.5.  Mined negatives
re-enter training as reserved region rows: they may only serve as
negatives for the phrase they were mined for, and fine-tuning drops
the structure-preserving terms entirely.
"""

import logging
import math
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace

import numpy as np

from .data import atomic_write, tsv_line
from .errors import ConfigError, ConsistencyError, FormatError
from .evaluation import query_distances
from .network import learning_rate
from .tensor_core import row_distances
from .training import train

log = logging.getLogger("twobranch")


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


def mine_hard_negatives(corpus, phrase_emb, region_emb, cap=50,
                        iou_thresh=0.5):
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
        ConfigError: ``cap`` below 1.
    """
    _check_cap(cap)
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


def save_hard_negatives(hn, path):
    """TSV: phrase_id, region row, distance; one line per negative."""
    with atomic_write(path) as fh:
        for phrase_id in sorted(hn.by_phrase):
            for row, dist in hn.by_phrase[phrase_id]:
                fh.write(tsv_line((phrase_id, row, repr(float(dist))), path))


def load_hard_negatives(path, cap=50):
    """Read a save_hard_negatives TSV, keeping each phrase's ``cap``
    closest entries by (distance, row); ``cap`` must be at least 1."""
    _check_cap(cap)
    by_phrase = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(
                    f"{path}:{lineno}: expected 3 columns, got {len(parts)}"
                )
            try:
                row = int(parts[1])
                dist = float(parts[2])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(dist):
                raise FormatError(
                    f"{path}:{lineno}: distance {parts[2]!r} is not finite"
                )
            by_phrase.setdefault(parts[0], []).append((row, dist))
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
              epochs, batch_pairs, augment, rng, negatives_per_anchor=10,
              on_epoch=None):
    """Continue training with ranking constraints only.

    The structure weights are forced to zero (with a warning if the
    caller passed nonzero ones) and the learning-rate schedule restarts
    from epoch 0.  Mined negatives join batches as reserved rows for
    their phrase whenever that phrase is sampled.

    Raises:
        ConfigError: ``negatives_per_anchor`` below 1.

    Returns:
        list of EpochStats.
    """
    if negatives_per_anchor < 1:
        raise ConfigError(f"negatives_per_anchor must be >= 1, got "
                          f"{negatives_per_anchor}")
    if loss_cfg.lambda2 != 0.0 or loss_cfg.lambda3 != 0.0:
        log.warning(
            "fine-tuning forces lambda2/lambda3 to 0 (was %g/%g)",
            loss_cfg.lambda2, loss_cfg.lambda3,
        )
        loss_cfg = dc_replace(loss_cfg, lambda2=0.0, lambda3=0.0)
    opt.epoch = 0
    opt.lr = learning_rate(0, opt.lr0)
    extra = negatives_by_anchor_row(hn, features_y)
    for row, rows in extra.items():
        for r in rows:
            if not 0 <= r < features_x.n:
                raise ConsistencyError(
                    f"hard negative region row {r} outside feature set of "
                    f"{features_x.n} rows"
                )
    return train(params, opt, graph, features_x, features_y, loss_cfg,
                 epochs, batch_pairs, augment, rng,
                 extra_negatives=extra,
                 negatives_per_anchor=negatives_per_anchor,
                 on_epoch=on_epoch)
