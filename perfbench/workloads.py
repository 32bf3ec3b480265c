"""Workload inputs, the command sequence each workload runs, and output checks.

Each workload generates its inputs from the seed with the package's own
generators, writes them to files, and returns a ``Plan``: the
``twobranch`` command lines to run in order and the check that each
command's outputs are right.  The workloads are:

* ``train_paper``: ``train`` at the paper's shape (4096/6000 -> 2048 ->
  512, 500-pair batches, augmentation on, default loss), two batches per
  epoch.  Work per row dominates: the hinge loss, the dense layers and
  the checkpoint writes.
* ``eval_paper``: no gradients.  ``eval-retrieval`` on 1000 images x
  5000 sentences at paper dims, ``eval-localization`` and
  ``mine-negatives`` on 1000 queries of 11 proposals, and ``fuse`` on a
  200 x 1000 grid whose images are corpus images.

No workload trains at the tests' small shape, where per-call
interpreter work dominates: on a shared host of a few cores the time of
a fixed pure-Python loop moves by a quarter to a third from one run to
the next, more than the largest regression bound a metric may have.
So image-structure mining (``lambda2 > 0``) and the hard-negative
fine-tune are not measured here.
"""

import csv
import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from twobranch import data, evaluation, network

PAPER_DIMS = {"x": (4096, 2048, 512), "y": (6000, 2048, 512)}
RP_DIMS = {"x": (512, 256, 128), "y": (384, 256, 128)}

TRAIN_PAPER_IMAGES = 200       # x 5 sentences = 1000 pairs = 2 batches
TRAIN_PAPER_BATCH = 500
EVAL_IMAGES = 1000
EVAL_PHRASES = 100
EVAL_IMAGES_PER_PHRASE = 10
FUSE_IMAGES_PER_PHRASE = 2     # x 100 phrases = 200 grid images
HN_CAP = 50
RECALL_KS = (1, 5, 10)


@dataclass
class Checked:
    """What the check of one command found.

    ``steps`` and ``failed_steps`` count training steps; a step fails
    when its epoch's loss is not finite.  ``pairs`` counts the positive
    pairs the command trained on.
    """

    problems: list = field(default_factory=list)
    steps: int = 0
    failed_steps: int = 0
    pairs: int = 0


@dataclass
class Command:
    name: str
    argv: list
    check: object


@dataclass
class Plan:
    commands: list
    dims: dict


def _flags(**values):
    argv = []
    for key, value in values.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def _model_flags(dims):
    return _flags(x_hidden_dim=dims["x"][1], y_hidden_dim=dims["y"][1],
                  embed_dim=dims["x"][2])


def _write_features(fs, path):
    data.save_feature_file(fs, path)
    return path


def _write_synthetic(syn, work, prefix, x_ids=None):
    """Feature and pair files of a SyntheticData, optionally renaming x ids."""
    x_ids = x_ids or syn.x.ids
    fx = data.FeatureSet(ids=list(x_ids), features=syn.x.features)
    pairs = [(x_ids[xi], syn.y.ids[yi]) for xi, yi in syn.graph.pos_pairs]
    paths = {
        "x": _write_features(fx, os.path.join(work, prefix + "x.feat")),
        "y": _write_features(syn.y, os.path.join(work, prefix + "y.feat")),
        "pairs": os.path.join(work, prefix + "pairs.tsv"),
    }
    data.save_pair_file(pairs, paths["pairs"])
    return paths, pairs


def _write_localization(loc, work, prefix):
    paths = {
        "x": _write_features(loc.regions,
                             os.path.join(work, prefix + "regions.feat")),
        "y": _write_features(loc.phrases,
                             os.path.join(work, prefix + "phrases.feat")),
        "pairs": os.path.join(work, prefix + "pairs.tsv"),
        "corpus": os.path.join(work, prefix + "corpus.tsv"),
    }
    data.save_pair_file(loc.pairs, paths["pairs"])
    evaluation.save_corpus_file(loc.corpus_rows, paths["corpus"])
    return paths


def _write_initial_checkpoint(dims, seed, path):
    params = network.init_params(network.BranchSpec(*dims["x"]),
                                 network.BranchSpec(*dims["y"]), seed=seed)
    opt = network.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                 weight_decay=0.0005)
    network.save_checkpoint(params, opt, path)
    return path


# ---------------------------------------------------------------------------
# workloads


def setup_train_paper(work, seed):
    syn = data.gen_synthetic(TRAIN_PAPER_IMAGES, 1, 5, PAPER_DIMS["x"][0],
                             PAPER_DIMS["y"][0], 0.05, seed)
    files, pairs = _write_synthetic(syn, work, "")
    out = os.path.join(work, "model.ckpt")
    best = os.path.join(work, "best.ckpt")
    log = os.path.join(work, "train.csv")
    argv = ["train"] + _model_flags(PAPER_DIMS) + _flags(
        features_x=files["x"], features_y=files["y"], pairs=files["pairs"],
        batch_pairs=TRAIN_PAPER_BATCH, epochs=1, augment="true", seed=seed,
        checkpoint_out=out, best_checkpoint_out=best, train_csv=log)
    return Plan(
        commands=[Command("train", argv, lambda: check_train(
            log, [out, best], TRAIN_PAPER_BATCH, len(pairs)))],
        dims=PAPER_DIMS,
    )


def setup_eval_paper(work, seed):
    syn = data.gen_synthetic(EVAL_IMAGES, 1, 5, PAPER_DIMS["x"][0],
                             PAPER_DIMS["y"][0], 0.05, seed)
    glob, pairs = _write_synthetic(syn, work, "global_")
    del syn
    glob_ckpt = _write_initial_checkpoint(
        PAPER_DIMS, seed, os.path.join(work, "global.ckpt"))

    loc = data.gen_localization(EVAL_PHRASES, EVAL_IMAGES_PER_PHRASE,
                                RP_DIMS["x"][0], RP_DIMS["y"][0], seed,
                                jitter_per_gt=2, background_per_image=8)
    rp = _write_localization(loc, work, "rp_")
    rp_ckpt = _write_initial_checkpoint(
        RP_DIMS, seed + 1, os.path.join(work, "rp.ckpt"))

    # The fusion grid's images are corpus images, so each has regions;
    # each sentence holds its image's phrase and one other phrase.
    grid_images = [f"im_{p:03d}_{i:02d}" for p in range(EVAL_PHRASES)
                   for i in range(FUSE_IMAGES_PER_PHRASE)]
    fsyn = data.gen_synthetic(len(grid_images), 1, 5, PAPER_DIMS["x"][0],
                              PAPER_DIMS["y"][0], 0.05, seed + 2)
    fuse, fuse_pairs = _write_synthetic(fsyn, work, "fuse_", grid_images)
    rng = np.random.default_rng(seed + 3)
    membership = []
    for image_id, sent_id in fuse_pairs:
        own = int(image_id[3:6])
        other = (own + 1 + int(rng.integers(EVAL_PHRASES - 1))) % EVAL_PHRASES
        membership += [(sent_id, loc.phrases.ids[own]),
                       (sent_id, loc.phrases.ids[other])]
    membership_path = os.path.join(work, "membership.tsv")
    data.save_pair_file(membership, membership_path)

    reports = {name: os.path.join(work, name + ".csv")
               for name in ("retrieval", "localization", "fuse")}
    hn_path = os.path.join(work, "hard_negatives.tsv")
    rp_common = _flags(features_x=rp["x"], features_y=rp["y"],
                       corpus=rp["corpus"], checkpoint_in=rp_ckpt)
    recall = RecallCheck(glob, pairs, glob_ckpt, reports["retrieval"])
    # the checks keep counts, not the generated arrays, alive
    num_regions = loc.regions.n
    del loc
    return Plan(
        commands=[
            Command("eval-retrieval", ["eval-retrieval"] + _flags(
                features_x=glob["x"], features_y=glob["y"],
                pairs=glob["pairs"], checkpoint_in=glob_ckpt,
                report=reports["retrieval"]), recall),
            Command("eval-localization", ["eval-localization"] + rp_common
                    + _flags(report=reports["localization"]),
                    lambda: check_report(reports["localization"])),
            Command("mine-negatives", ["mine-negatives"] + rp_common
                    + _flags(hard_negatives=hn_path, hn_cap=HN_CAP),
                    lambda: check_hard_negatives(hn_path, num_regions,
                                                 HN_CAP)),
            Command("fuse", ["fuse"] + _flags(
                features_x=fuse["x"], features_y=fuse["y"],
                pairs=fuse["pairs"], checkpoint_in=glob_ckpt,
                rp_checkpoint=rp_ckpt, rp_features_x=rp["x"],
                rp_features_y=rp["y"], corpus=rp["corpus"],
                membership=membership_path, report=reports["fuse"]),
                lambda: check_report(reports["fuse"])),
        ],
        dims=PAPER_DIMS,
    )


WORKLOADS = {
    "train_paper": setup_train_paper,
    "eval_paper": setup_eval_paper,
}


# ---------------------------------------------------------------------------
# output checks


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)


def check_checkpoint(path):
    """Problems found reloading a checkpoint: it must hold only finite tensors."""
    try:
        state = network.load_checkpoint(path)
    except Exception as exc:  # any failure to reload is a wrong output
        return [f"{path}: does not reload: {type(exc).__name__}: {exc}"]
    tensors = list(_arrays(state))
    if not tensors:
        return [f"{path}: holds no tensors"]
    bad = sum(1 for t in tensors if not np.isfinite(t).all())
    return [f"{path}: {bad} tensors hold non-finite values"] if bad else []


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(
            line for line in fh if not line.startswith("#")))


def check_train(log_path, checkpoints, batch_pairs, num_pairs):
    """Every epoch loss finite, every checkpoint reloads finite.

    Every batch of the workloads' pair files holds ``batch_pairs``
    pairs, so the pairs trained are the batches run times that.
    """
    out = Checked()
    if num_pairs % batch_pairs:
        out.problems.append(f"{num_pairs} pairs do not fill whole batches")
    try:
        epochs = _read_csv(log_path)
    except OSError as exc:
        out.problems.append(f"{log_path}: {exc}")
        return out
    if not epochs:
        out.problems.append(f"{log_path}: no epochs logged")
    for row in epochs:
        batches = int(row["batches"])
        out.steps += batches + int(row["skipped_batches"])
        out.pairs += batches * batch_pairs
        if not math.isfinite(float(row["mean_loss"])):
            out.failed_steps += batches
            out.problems.append(f"epoch {row['epoch']}: loss "
                                f"{row['mean_loss']}")
    for path in checkpoints:
        out.problems += check_checkpoint(path)
    return out


# value ranges of the report metrics the commands write
REPORT_RANGES = {
    "recall": (0.0, 100.0),
    "localization_recall": (0.0, 100.0),
    "map": (0.0, 1.0),
    "skipped_phrases": (0.0, 0.0),
}


def read_report(path):
    """{(metric, direction, k): value} of a report CSV."""
    return {(r["metric"], r["direction"], int(r["k"])): float(r["value"])
            for r in _read_csv(path)}


def check_report(path):
    out = Checked()
    try:
        report = read_report(path)
    except (OSError, KeyError, ValueError) as exc:
        out.problems.append(f"{path}: unreadable report: {exc}")
        return out
    if not report:
        out.problems.append(f"{path}: empty report")
    for (metric, direction, k), value in report.items():
        lo, hi = REPORT_RANGES.get(metric, (-math.inf, math.inf))
        if not (math.isfinite(value) and lo <= value <= hi):
            out.problems.append(f"{path}: {metric} {direction} @{k} = "
                                f"{value} outside [{lo}, {hi}]")
    return out


def check_hard_negatives(path, num_regions, cap):
    """Rows index the region set, distances are finite, lists obey the cap."""
    out = Checked()
    per_phrase = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                phrase, row, dist = line.rstrip("\n").split("\t")
                per_phrase[phrase] = per_phrase.get(phrase, 0) + 1
                if not 0 <= int(row) < num_regions:
                    out.problems.append(f"{path}: region row {row} out of "
                                        f"range")
                if not (math.isfinite(float(dist)) and float(dist) >= 0):
                    out.problems.append(f"{path}: distance {dist}")
    except (OSError, ValueError) as exc:
        out.problems.append(f"{path}: {exc}")
        return out
    if not per_phrase:
        out.problems.append(f"{path}: no hard negatives mined")
    over = [p for p, n in per_phrase.items() if n > cap]
    if over:
        out.problems.append(f"{path}: {len(over)} phrases exceed cap {cap}")
    return out


def recall_by_sort(dist, positives, ks, tol=1e-9):
    """Recall@k per k by a full stable sort of each query's row.

    Returns {k: (recall, slack)}: ``slack`` is the share (in percent)
    of queries whose hit at k could flip under a change of the
    distances by ``tol``, i.e. where a negative lies within ``tol`` of
    the query's best positive.
    """
    nq = dist.shape[0]
    pos = np.zeros(dist.shape, dtype=bool)
    for q, cands in enumerate(positives):
        pos[q, cands] = True
    order = np.argsort(dist, axis=1, kind="stable")
    rank = np.take_along_axis(pos, order, axis=1).argmax(axis=1)
    best = np.where(pos, dist, np.inf).min(axis=1)[:, None]
    surely_before = ((dist < best - tol) & ~pos).sum(axis=1)
    maybe_before = ((dist <= best + tol) & ~pos).sum(axis=1)
    out = {}
    for k in ks:
        ambiguous = (surely_before < k) & (maybe_before >= k)
        out[k] = (100.0 * float((rank < k).sum()) / nq,
                  100.0 * float(ambiguous.sum()) / nq)
    return out


class RecallCheck:
    """Recomputes the eval-retrieval report outside the program's metric code.

    The embeddings come from the program's eval-mode forward; the
    distances, the sort and the recall are the bench's own.  The first
    report is checked against that; later reports must repeat it.
    """

    def __init__(self, files, pairs, checkpoint, report):
        self.files, self.pairs = files, pairs
        self.checkpoint, self.report = checkpoint, report
        self.verified = None
        self.exact = None

    def expected(self):
        fx = data.load_feature_file(self.files["x"])
        fy = data.load_feature_file(self.files["y"])
        params, _ = network.load_checkpoint(self.checkpoint)
        ex, _ = network.forward_branch(params, "x", fx.features, "eval")
        ey, _ = network.forward_branch(params, "y", fy.features, "eval")
        dist = np.sqrt(np.maximum(
            (ex * ex).sum(1)[:, None] + (ey * ey).sum(1)[None, :]
            - 2.0 * ex @ ey.T, 0.0))
        x_row = {fid: i for i, fid in enumerate(fx.ids)}
        y_row = {fid: i for i, fid in enumerate(fy.ids)}
        pos_y = [[] for _ in fx.ids]
        pos_x = [[] for _ in fy.ids]
        for x_id, y_id in self.pairs:
            pos_y[x_row[x_id]].append(y_row[y_id])
            pos_x[y_row[y_id]].append(x_row[x_id])
        out = {}
        for direction, d, positives in (("image_to_sentence", dist, pos_y),
                                        ("sentence_to_image", dist.T, pos_x)):
            for k, value in recall_by_sort(d, positives, RECALL_KS).items():
                out[("recall", direction, k)] = value
        return out

    def __call__(self):
        out = check_report(self.report)
        if out.problems:
            return out
        report = read_report(self.report)
        if self.verified is not None:
            if report != self.verified:
                out.problems.append("eval-retrieval report changed between "
                                    "runs of the same inputs")
            return out
        expected = self.expected()
        self.exact = True
        for key, (value, slack) in expected.items():
            got = report.get(key)
            if got is None:
                out.problems.append(f"report lacks {key}")
            elif abs(got - value) > slack + 1e-9:
                out.problems.append(f"{key}: report {got}, full sort {value}")
            self.exact = self.exact and got == value
        if not out.problems:
            self.verified = report
        return out
