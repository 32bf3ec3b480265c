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
from .evaluation import box_iou, query_distances
from .network import learning_rate
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


def _closest(candidates, cap):
    """The ``cap`` smallest (distance, row) of (row, distance) pairs."""
    return [(r, d) for d, r in sorted((d, r) for r, d in candidates)[:cap]]


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
    no feature rows has no distance reference and is skipped.

    Returns:
        (HardNegativeSet, skipped phrase ids).

    Raises:
        ConfigError: ``cap`` below 1.
    """
    _check_cap(cap)
    by_phrase = {}
    for q, dists in zip(corpus.queries,
                        query_distances(corpus, phrase_emb, region_emb)):
        by_phrase.setdefault(q.phrase_id, []).append((q, dists))
    out = {}
    skipped = []
    for phrase_id, queries in by_phrase.items():
        gt_rows = sorted({
            int(r) for q, _ in queries for r in q.gt_rows if int(r) >= 0
        })
        if not gt_rows:
            skipped.append(phrase_id)
            continue
        anchor = phrase_emb[queries[0][0].phrase_row]
        gt_dists = np.linalg.norm(region_emb[gt_rows] - anchor, axis=1)
        threshold = float(gt_dists.min())
        candidates = {}
        for q, prop_dists in queries:
            near = np.flatnonzero(~(prop_dists >= threshold))
            if near.size and q.gt_boxes.shape[0] > 0:
                overlap = box_iou(q.proposal_boxes[near], q.gt_boxes)
                near = near[~(overlap.max(axis=1) >= iou_thresh)]
            for row, dist in zip(q.proposal_rows[near].tolist(),
                                 prop_dists[near].tolist()):
                if row not in candidates or dist < candidates[row]:
                    candidates[row] = dist
        out[phrase_id] = _closest(candidates.items(), cap)
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
        phrase_id: _closest(entries, cap)
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
