"""Epoch-driven SGD training over a correspondence graph.

One training step runs a single train-mode forward per branch, mines
triplets on those embeddings, computes the hinge loss in one call on
mining's distance matrices, and applies one momentum-SGD update.  Each
constraint family is normalized by its own mined-triplet count, passed
to hinge_loss as the family's scale 1/count, so a family's force on the
parameters does not depend on how many triplets the other families
happened to yield; the recorded loss is the same weighted per-family
mean.

Training stops with DivergenceError, naming the epoch and step, as soon
as an embedding, the loss or a gradient norm is NaN or infinite, and at
the end of an epoch if any tensor a checkpoint would hold is.  The
epoch callback runs only after that end-of-epoch check and after
``opt.epoch`` has advanced past the epoch, so a checkpoint written from
it (the command line's best-epoch checkpoint) holds finite tensors and
counts the epochs completed in ``opt.epoch``, as a checkpoint written
once ``train`` returns does; a diverged run's state never reaches a
checkpoint.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .errors import ConfigError, DivergenceError
from .loss_mining import FAMILY_NAMES, hinge_loss, mine_triplets
from .network import (backward_and_step, forward_branch, learning_rate,
                      non_finite_tensors)

log = logging.getLogger("twobranch")


@dataclass
class EpochStats:
    epoch: int
    lr: float
    mean_loss: float
    family_counts: dict
    batches: int
    skipped_batches: int


def check_epoch_plan(epochs, batch_pairs):
    """Raise ConfigError for epochs below 0 or batch_pairs below 2."""
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    data_mod.check_batch_pairs(batch_pairs)


def train_step(params, opt, batch, features_x, features_y, loss_cfg, rng):
    """One forward/mine/loss/backward/update cycle, whose hinge loss
    reads the distance matrices that mining formed.

    Raises:
        DivergenceError: an embedding, the loss or a gradient norm is
            not finite.

    Returns:
        (weighted per-family mean loss, mined family counts) for the
        batch.
    """
    # each gather goes straight in: the forward widens it to the float64
    # batch its tapes keep, and a float32 gather is freed on return
    emb_x, tapes_x = forward_branch(params, "x", features_x.features[
        batch.x_rows], "train", rng=rng)
    emb_y, tapes_y = forward_branch(params, "y", features_y.features[
        batch.y_rows], "train", rng=rng)
    # NaN embeddings would mine no triplets and pass for a quiet batch
    for view, emb in (("x", emb_x), ("y", emb_y)):
        if not np.all(np.isfinite(emb)):
            raise DivergenceError(f"non-finite {view} embeddings")
    triplets = mine_triplets(emb_x, emb_y, batch, loss_cfg)
    counts = triplets.counts()
    # with nothing mined, momentum would still move the weights
    if triplets.total == 0:
        return 0.0, counts
    scales = {name: 1.0 / n for name, n in counts.items() if n}
    result = hinge_loss(emb_x, emb_y, triplets.dists, triplets, loss_cfg,
                        scales=scales)
    if not np.isfinite(result.loss):
        raise DivergenceError(f"loss is {result.loss}")
    norms = backward_and_step(params, opt, tapes_x, tapes_y, result.grad_x,
                              result.grad_y)
    bad = [name for name, norm in norms.items() if not np.isfinite(norm)]
    if bad:
        raise DivergenceError(f"non-finite gradient of {', '.join(bad)}")
    return result.loss, counts


def train(params, opt, graph, features_x, features_y, loss_cfg, epochs,
          batch_pairs, augment, rng, extra_negatives=None,
          negatives_per_anchor=data_mod.NEGATIVES_PER_ANCHOR,
          on_epoch=None):
    """Run ``epochs`` epochs, each a disjoint partition of the pairs.

    Batches that end up with fewer than 2 rows in either view are
    skipped (batch statistics need 2 rows).  The schedule drops the
    learning rate tenfold every 10 epochs of ``opt.epoch``, which
    keeps counting across calls unless the caller resets it.

    Args:
        on_epoch: optional callback receiving each EpochStats, called
            once the epoch's parameters are in place and checked finite
            and ``opt.epoch`` has advanced to count the epoch; a
            checkpoint saved there is this epoch's state, and resuming
            from it runs the next epoch (the command line saves its
            best-epoch checkpoint so).  Nothing moves the state between
            the last call and the return.

    Raises:
        ConfigError: ``epochs`` below 0 or ``batch_pairs`` below 2,
            before the first epoch.
        DivergenceError: a value went non-finite; the message names the
            epoch and, for a step's check, the step (both 0-based).

    Returns:
        list of EpochStats.
    """
    check_epoch_plan(epochs, batch_pairs)
    history = []
    for _ in range(epochs):
        opt.lr = learning_rate(opt.epoch, opt.lr0)
        losses = []
        counts = {name: 0 for name in FAMILY_NAMES}
        skipped = 0
        for batch in data_mod.epoch_batches(
                graph, batch_pairs, augment, rng,
                extra_negatives=extra_negatives,
                negatives_per_anchor=negatives_per_anchor):
            if batch.num_x < 2 or batch.num_y < 2:
                skipped += 1
                continue
            try:
                loss, fam = train_step(params, opt, batch, features_x,
                                       features_y, loss_cfg, rng)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"epoch {opt.epoch} step {len(losses)}: {exc}"
                ) from None
            losses.append(loss)
            for name in FAMILY_NAMES:
                counts[name] += fam[name]
        bad = non_finite_tensors(params, opt)
        if bad:
            raise DivergenceError(
                f"epoch {opt.epoch}: non-finite {', '.join(bad)}"
            )
        stats = EpochStats(
            epoch=opt.epoch,
            lr=opt.lr,
            mean_loss=float(np.mean(losses)) if losses else 0.0,
            family_counts=counts,
            batches=len(losses),
            skipped_batches=skipped,
        )
        history.append(stats)
        log.info(
            "epoch %d lr %.6g mean_loss %.6g triplets %s",
            stats.epoch, stats.lr, stats.mean_loss,
            {k: v for k, v in counts.items() if v},
        )
        opt.epoch += 1
        if on_epoch is not None:
            on_epoch(stats)
    return history
