"""Command-line entry point.

Subcommands: train, eval-retrieval, eval-localization, mine-negatives,
fuse, gen-synthetic, grad-check.  Configuration comes from defaults, an
optional flat ``key = value`` file, then command-line flags, in that
order.  ``COMMAND_KEYS`` names the keys each command reads, and
``TRAIN_PARTS`` those train adds for a fresh or a resumed run and for a
plain run or a fine-tune.  A flag the command does not read exits 1,
whatever its value, before any data file is read; a key in the config
file that it does not read is ignored, so one file can serve a
pipeline.  The ``#`` lines of a train CSV or a report echo the keys
read, with the values the run used.  Logs go to stderr; data goes to
the files named in the config.
Exit codes: 0 success, 1 validation failure, 2 runtime error.
"""

import argparse
import logging
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import data as data_mod
from . import evaluation as ev
from . import gradcheck
from . import hard_negatives as hn_mod
from .errors import (
    ChecksumError,
    ConfigError,
    ConsistencyError,
    DimensionError,
    EvaluationError,
    FormatError,
    TwoBranchError,
)
from .loss_mining import FAMILY_NAMES, LossConfig
from .network import (
    BranchSpec,
    NetworkParams,
    OptimizerState,
    check_seed,
    forward_branch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .tensor_core import pairwise_distances
from .training import train

log = logging.getLogger("twobranch")

_VALIDATION_ERRORS = (
    ConfigError,
    ConsistencyError,
    DimensionError,
    FormatError,
    ChecksumError,
    EvaluationError,
    FileExistsError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
)


@dataclass
class ExperimentConfig:
    """Every tunable of the pipeline, flat for config files and flags.

    A default that a package class also holds is read from that class.
    """

    # loss
    margin: float = LossConfig.margin
    lambda1: float = LossConfig.lambda1
    lambda2: float = LossConfig.lambda2
    lambda3: float = LossConfig.lambda3
    top_k: int = LossConfig.top_k
    # network
    x_hidden_dim: int = 2048
    y_hidden_dim: int = 2048
    embed_dim: int = 512
    dropout: float = BranchSpec.dropout_p
    bn_momentum: float = NetworkParams.bn_momentum
    bn_eps: float = NetworkParams.bn_eps
    # optimizer and schedule
    lr0: float = OptimizerState.lr0
    momentum: float = OptimizerState.momentum
    weight_decay: float = OptimizerState.weight_decay
    # training
    epochs: int = 30
    fine_tune_epochs: int = 5
    batch_pairs: int = 64
    seed: int = 0
    augment: bool = True
    max_x_per_y: int = 0
    negatives_per_anchor: int = 10
    hn_cap: int = 50
    # evaluation
    alpha: float = 0.7
    nms_overlap: float = 0.3
    iou_thresh: float = 0.5
    # paths
    features_x: str = ""
    features_y: str = ""
    pairs: str = ""
    corpus: str = ""
    membership: str = ""
    checkpoint_in: str = ""
    checkpoint_out: str = ""
    best_checkpoint_out: str = ""
    rp_checkpoint: str = ""
    rp_features_x: str = ""
    rp_features_y: str = ""
    hard_negatives: str = ""
    train_csv: str = ""
    report: str = ""


_CONFIG_FIELDS = {f.name: f for f in fields(ExperimentConfig)}

# The config keys each command reads; train also reads one part of
# TRAIN_PARTS by whether checkpoint_in is set and one by hard_negatives.
_XY = "features_x features_y pairs max_x_per_y "
_LOC = "features_x features_y corpus checkpoint_in iou_thresh "
COMMAND_KEYS = {name: frozenset(keys.split()) for name, keys in {
    "train": _XY + "checkpoint_in hard_negatives checkpoint_out seed "
             "best_checkpoint_out train_csv batch_pairs augment margin "
             "lambda1 top_k",
    "eval-retrieval": _XY + "checkpoint_in report",
    "eval-localization": _LOC + "nms_overlap report",
    "mine-negatives": _LOC + "hn_cap hard_negatives",
    "fuse": _XY + "checkpoint_in rp_checkpoint rp_features_x rp_features_y "
            "corpus membership alpha report"}.items()}
TRAIN_PARTS = {  # a checkpoint holds the settings of a fresh run
    ("checkpoint_in", False): "x_hidden_dim y_hidden_dim embed_dim dropout "
                              "bn_momentum bn_eps lr0 momentum weight_decay",
    ("checkpoint_in", True): "",
    ("hard_negatives", False): "epochs lambda2 lambda3",
    ("hard_negatives", True): "fine_tune_epochs hn_cap negatives_per_anchor",
}


def keys_read(command, cfg):
    """The config keys ``command`` reads under the resolved ``cfg``."""
    parts = ("checkpoint_in", "hard_negatives") if command == "train" else ()
    return COMMAND_KEYS[command].union(
        *(TRAIN_PARTS[key, bool(getattr(cfg, key))].split() for key in parts))


def _parse_bool(text):
    low = str(text).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _coerce(name, value):
    """``value`` as the type of config field ``name``: bool, int, float
    or str."""
    kind = _CONFIG_FIELDS[name].type
    try:
        return _parse_bool(value) if kind is bool else kind(value)
    except ValueError as exc:
        raise ConfigError(f"config key {name}: {exc}") from exc


def parse_config_file(path):
    """Flat ``key = value`` lines, # comments; unknown keys rejected."""
    out = {}
    for lineno, line in data_mod.text_lines(path, ConfigError):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value'"
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value)
    return out


def resolve_config(args):
    """defaults <- config file <- explicit command-line flags.

    Flag values arrive as strings and are coerced like file values.  A
    flag naming a key the command does not read is a ConfigError.
    """
    values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        values.update(parse_config_file(config_path))
    flags = [name for name in _CONFIG_FIELDS if hasattr(args, name)]
    for name in flags:
        values[name] = _coerce(name, getattr(args, name))
    cfg = ExperimentConfig(**values)
    keys = keys_read(args.command, cfg)
    refused = ["--" + n.replace("_", "-") for n in flags if n not in keys]
    if refused:
        raise ConfigError(f"{args.command} does not read "
                          f"{', '.join(refused)} here")
    return cfg


def config_echo(cfg, keys):
    """``key = value`` lines of ``keys`` as ``cfg`` holds them, sorted."""
    lines = []
    for key in sorted(keys):
        value = getattr(cfg, key)
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return lines


def _model_settings(params, opt):
    """The keys a resumed train takes from its checkpoint, as the model
    holds them; two branch dropout rates that differ read ``x r, y s``."""
    x, y = params.spec_x, params.spec_y
    return dict(x_hidden_dim=x.hidden_dim, y_hidden_dim=y.hidden_dim,
                embed_dim=x.embed_dim, bn_momentum=params.bn_momentum,
                bn_eps=params.bn_eps, lr0=opt.lr0, momentum=opt.momentum,
                weight_decay=opt.weight_decay,
                dropout=x.dropout_p if x.dropout_p == y.dropout_p
                else f"x {x.dropout_p!r}, y {y.dropout_p!r}")


def _require(cfg, *keys):
    for key in keys:
        if not getattr(cfg, key):
            raise ConfigError(f"config key {key!r} is required here")


def _load_xy(cfg):
    if cfg.max_x_per_y < 0:
        raise ConfigError(f"max_x_per_y must be >= 0, 0 means no cap; "
                          f"got {cfg.max_x_per_y}")
    fx = data_mod.load_feature_file(cfg.features_x)
    fy = data_mod.load_feature_file(cfg.features_y)
    pairs = data_mod.load_pair_file(cfg.pairs)
    graph = data_mod.build_graph(
        pairs, fx.ids, fy.ids,
        max_x_per_y=cfg.max_x_per_y or None)
    return fx, fy, graph


def _check_dims(params, fx, fy, what):
    if params.spec_x.input_dim != fx.dim or params.spec_y.input_dim != fy.dim:
        raise FormatError(
            f"{what}: checkpoint expects inputs "
            f"{params.spec_x.input_dim}/{params.spec_y.input_dim}, feature "
            f"files hold {fx.dim}/{fy.dim}"
        )


def _embed(checkpoint, fx, fy, what):
    """Load ``checkpoint`` and embed both feature sets in eval mode."""
    params, _ = load_checkpoint(checkpoint)
    _check_dims(params, fx, fy, what)
    emb_x, _ = forward_branch(params, "x", fx.features, "eval")
    emb_y, _ = forward_branch(params, "y", fy.features, "eval")
    return emb_x, emb_y


def _load_localization(features_x, features_y, corpus, checkpoint, what):
    """Region and phrase files, their corpus, and both embeddings.

    Returns:
        (corpus, phrase FeatureSet, region_emb, phrase_emb).
    """
    regions = data_mod.load_feature_file(features_x)
    phrases = data_mod.load_feature_file(features_y)
    corpus = ev.load_corpus_file(corpus, phrases, regions)
    region_emb, phrase_emb = _embed(checkpoint, regions, phrases, what)
    return corpus, phrases, region_emb, phrase_emb


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(cfg, keys):
    """Train, or fine-tune on hard negatives, and write the checkpoints.

    ``--epochs`` counts the epochs this run adds: a run resumed with
    ``--checkpoint-in`` from a checkpoint of k completed epochs trains
    ``epochs`` more and ends at epoch k + epochs.  (A fine-tune on hard
    negatives restarts the count at 0, runs ``fine_tune_epochs`` and
    sets both structure weights to 0.)  A resumed run reads ``--seed``,
    and its batch draws come from it; the CSV echoes the model settings
    of its checkpoint.

    The best-epoch checkpoint (``best_checkpoint_out``) is written from
    ``train``'s epoch callback, which runs once ``opt.epoch`` counts the
    epoch, so in it as in the final checkpoint ``opt.epoch`` is the
    number of epochs completed and ``--checkpoint-in`` resumes with the
    next one.  When the last epoch is the best, the final checkpoint
    would hold the same bytes, so ``checkpoint_out`` becomes a hard link
    of the best one instead of a second serialization; where the link
    fails it is written as usual.  Every write replaces a file
    atomically and never edits it in place, so the two paths sharing
    one inode is safe: a later run replaces each without touching the
    other.
    """
    _require(cfg, "features_x", "features_y", "pairs", "checkpoint_out")
    check_seed(cfg.seed)
    fx, fy, graph = _load_xy(cfg)
    tune = bool(cfg.hard_negatives)
    loss_cfg = LossConfig(margin=cfg.margin, lambda1=cfg.lambda1,
                          lambda2=0.0 if tune else cfg.lambda2,
                          lambda3=0.0 if tune else cfg.lambda3,
                          top_k=cfg.top_k)
    if cfg.checkpoint_in:
        params, opt = load_checkpoint(cfg.checkpoint_in)
        _check_dims(params, fx, fy, "train")
    else:
        params = init_params(
            BranchSpec(fx.dim, cfg.x_hidden_dim, cfg.embed_dim, cfg.dropout),
            BranchSpec(fy.dim, cfg.y_hidden_dim, cfg.embed_dim, cfg.dropout),
            seed=cfg.seed,
            bn_momentum=cfg.bn_momentum,
            bn_eps=cfg.bn_eps,
        )
        opt = OptimizerState(lr0=cfg.lr0, lr=cfg.lr0,
                             momentum=cfg.momentum,
                             weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    best_loss = saved_epoch = None

    def on_epoch(stats):
        # written now, before the next epoch moves the state; train has
        # already checked that every tensor in it is finite
        nonlocal best_loss, saved_epoch
        if best_loss is None or stats.mean_loss < best_loss:
            best_loss = stats.mean_loss
            if cfg.best_checkpoint_out:
                save_checkpoint(params, opt, cfg.best_checkpoint_out)
                saved_epoch = stats.epoch

    if tune:
        hn = hn_mod.load_hard_negatives(cfg.hard_negatives, cap=cfg.hn_cap)
        log.info("fine-tuning with %d hard negatives", hn.total)
        history = hn_mod.fine_tune(
            params, opt, graph, fx, fy, hn, loss_cfg,
            epochs=cfg.fine_tune_epochs, batch_pairs=cfg.batch_pairs,
            augment=cfg.augment, rng=rng,
            negatives_per_anchor=cfg.negatives_per_anchor,
            on_epoch=on_epoch)
    else:
        history = train(
            params, opt, graph, fx, fy, loss_cfg, cfg.epochs,
            cfg.batch_pairs, cfg.augment, rng, on_epoch=on_epoch)
    linked = False
    if history and saved_epoch == history[-1].epoch:
        # the state has not moved since the best checkpoint was saved
        try:
            data_mod.atomic_link(cfg.best_checkpoint_out, cfg.checkpoint_out)
            linked = True
        except OSError as exc:
            log.info("cannot link %s to %s (%s); writing it",
                     cfg.checkpoint_out, cfg.best_checkpoint_out, exc)
    if not linked:
        save_checkpoint(params, opt, cfg.checkpoint_out)
    if cfg.train_csv:
        with data_mod.atomic_write(cfg.train_csv) as fh:
            held = _model_settings(params, opt)
            for line in config_echo(replace(cfg, **held), keys | held.keys()):
                fh.write(f"# {line}\n")
            fh.write("epoch,lr,mean_loss," + ",".join(FAMILY_NAMES)
                     + ",batches,skipped_batches\n")
            for st in history:
                counts = ",".join(str(st.family_counts[n])
                                  for n in FAMILY_NAMES)
                fh.write(f"{st.epoch},{repr(st.lr)},{repr(st.mean_loss)},"
                         f"{counts},{st.batches},{st.skipped_batches}\n")
    log.info("saved checkpoint to %s", cfg.checkpoint_out)
    return 0


def cmd_eval_retrieval(cfg, keys):
    _require(cfg, "features_x", "features_y", "pairs", "checkpoint_in",
             "report")
    fx, fy, graph = _load_xy(cfg)
    emb_x, emb_y = _embed(cfg.checkpoint_in, fx, fy, "eval-retrieval")
    dist = pairwise_distances(emb_x, emb_y)
    report = ev.evaluate_retrieval(dist, graph.y_of_x, graph.x_of_y)
    ev.write_report_csv(cfg.report, report.rows(), config_echo(cfg, keys))
    for metric, direction, k, value in report.rows():
        log.info("%s %s @%d = %.2f", metric, direction, k, value)
    return 0


def cmd_eval_localization(cfg, keys):
    _require(cfg, "features_x", "features_y", "corpus", "checkpoint_in",
             "report")
    corpus, _, region_emb, phrase_emb = _load_localization(
        cfg.features_x, cfg.features_y, cfg.corpus, cfg.checkpoint_in,
        "eval-localization")
    dists = ev.query_distances(corpus, phrase_emb, region_emb)
    rows = []
    for k in (1, 5, 10):
        value = ev.localization_recall_at_k(corpus, dists, k,
                                            iou_thresh=cfg.iou_thresh)
        rows.append(("localization_recall", "phrase_to_region", k, value))
    map_value, per_phrase, skipped = ev.phrase_map(
        corpus, dists, nms_overlap=cfg.nms_overlap,
        iou_thresh=cfg.iou_thresh)
    rows.append(("map", "phrase_to_region", 0, map_value))
    rows.append(("skipped_phrases", "phrase_to_region", 0, len(skipped)))
    ev.write_report_csv(cfg.report, rows, config_echo(cfg, keys))
    for metric, direction, k, value in rows:
        log.info("%s %s @%s = %s", metric, direction, k, value)
    return 0


def cmd_mine_negatives(cfg, keys):
    _require(cfg, "features_x", "features_y", "corpus", "checkpoint_in",
             "hard_negatives")
    corpus, _, region_emb, phrase_emb = _load_localization(
        cfg.features_x, cfg.features_y, cfg.corpus, cfg.checkpoint_in,
        "mine-negatives")
    hn, skipped = hn_mod.mine_hard_negatives(
        corpus, phrase_emb, region_emb, cap=cfg.hn_cap,
        iou_thresh=cfg.iou_thresh)
    hn_mod.save_hard_negatives(hn, cfg.hard_negatives)
    log.info("mined %d hard negatives over %d phrases (%d skipped)",
             hn.total, len(hn.by_phrase), len(skipped))
    for phrase_id in skipped:
        log.warning("phrase %s skipped: no ground-truth feature rows",
                    phrase_id)
    return 0


def cmd_fuse(cfg, keys):
    _require(cfg, "features_x", "features_y", "pairs", "checkpoint_in",
             "rp_checkpoint", "rp_features_x", "rp_features_y", "corpus",
             "membership", "report")
    fx, fy, graph = _load_xy(cfg)
    emb_x, emb_y = _embed(cfg.checkpoint_in, fx, fy, "fuse")
    d_global = pairwise_distances(emb_x, emb_y)
    corpus, phrases, region_emb, phrase_emb = _load_localization(
        cfg.rp_features_x, cfg.rp_features_y, cfg.corpus, cfg.rp_checkpoint,
        "fuse (region-phrase)")

    membership = {}
    sentence_ids = set(fy.ids)
    for sent_id, phrase_id in data_mod.load_pair_file(cfg.membership):
        if sent_id not in sentence_ids:
            raise ConsistencyError(
                f"{cfg.membership}: sentence {sent_id!r} is not in "
                f"{cfg.features_y}"
            )
        membership.setdefault(sent_id, []).append(phrases.row_of(phrase_id))
    phrase_rows_by_sentence = [membership.get(sid, []) for sid in fy.ids]

    fused = ev.fused_distance_matrix(
        d_global, phrase_emb, region_emb, corpus.region_rows_by_image(),
        fx.ids, phrase_rows_by_sentence, cfg.alpha)
    report = ev.evaluate_retrieval(fused, graph.y_of_x, graph.x_of_y)
    ev.write_report_csv(cfg.report, report.rows(), config_echo(cfg, keys))
    for metric, direction, k, value in report.rows():
        log.info("fused %s %s @%d = %.2f", metric, direction, k, value)
    return 0


def cmd_gen_synthetic(args):
    check_seed(args.seed)
    if args.heldout_clusters < 0:
        raise ConfigError(
            f"heldout_clusters must be >= 0, got {args.heldout_clusters}")
    # the generators check the other arguments; a rejected one leaves
    # no directory behind
    if args.mode == "retrieval":
        total = args.clusters + args.heldout_clusters
        syn = data_mod.gen_synthetic(
            total, args.images_per_cluster, args.sents_per_image,
            args.dim_x, args.dim_y, args.noise_sigma, args.seed)
        os.makedirs(args.out_dir, exist_ok=True)
        train_mask_x = syn.x_labels < args.clusters
        train_mask_y = syn.y_labels < args.clusters
        _write_split(args.out_dir, "", syn, train_mask_x, train_mask_y)
        if args.heldout_clusters > 0:
            _write_split(args.out_dir, "heldout_", syn, ~train_mask_x,
                         ~train_mask_y)
        log.info("wrote retrieval data for %d clusters to %s",
                 total, args.out_dir)
    else:
        loc = data_mod.gen_localization(
            args.phrases, args.images_per_phrase, args.dim_regions,
            args.dim_phrases, args.seed,
            jitter_per_gt=args.jitter_per_gt,
            background_per_image=args.background_per_image,
            noise_sigma=args.noise_sigma)
        os.makedirs(args.out_dir, exist_ok=True)
        data_mod.save_feature_file(
            loc.regions, os.path.join(args.out_dir, "regions.feat"))
        data_mod.save_feature_file(
            loc.phrases, os.path.join(args.out_dir, "phrases.feat"))
        data_mod.save_pair_file(
            loc.pairs, os.path.join(args.out_dir, "pairs.tsv"))
        ev.save_corpus_file(
            loc.corpus_rows, os.path.join(args.out_dir, "corpus.tsv"))
        log.info("wrote localization corpus (%d rows) to %s",
                 len(loc.corpus_rows), args.out_dir)
    return 0


def _write_split(out_dir, prefix, syn, mask_x, mask_y):
    rows_x = np.flatnonzero(mask_x)
    rows_y = np.flatnonzero(mask_y)
    fx = data_mod.FeatureSet(
        ids=[syn.x.ids[i] for i in rows_x],
        features=syn.x.features[rows_x],
    )
    fy = data_mod.FeatureSet(
        ids=[syn.y.ids[i] for i in rows_y],
        features=syn.y.features[rows_y],
    )
    pairs = [(syn.x.ids[xi], syn.y.ids[yi])
             for xi, yi in syn.graph.pos_pairs if mask_x[xi] and mask_y[yi]]
    data_mod.save_feature_file(fx, os.path.join(out_dir, prefix + "x.feat"))
    data_mod.save_feature_file(fy, os.path.join(out_dir, prefix + "y.feat"))
    data_mod.save_pair_file(pairs, os.path.join(out_dir,
                                                prefix + "pairs.tsv"))


def cmd_grad_check(args):
    if args.seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {args.seeds}")
    if not 0.0 < args.tolerance < float("inf"):
        raise ConfigError(
            f"tolerance must be finite and > 0, got {args.tolerance}")
    worst = 0.0
    failed = []
    for seed in range(args.seeds):
        checks = gradcheck.run_layer_checks(seed)
        checks.update(gradcheck.run_full_loss_check(seed))
        for name, err in sorted(checks.items()):
            log.info("seed %d %s rel_err %.3g", seed, name, err)
            worst = max(worst, err)
            if err >= args.tolerance:
                failed.append((seed, name, err))
    if failed:
        for seed, name, err in failed:
            log.error("FAIL seed %d %s rel_err %.3g >= %.3g",
                      seed, name, err, args.tolerance)
        return 1
    log.info("all gradient checks passed (%d seeds, worst %.3g)",
             args.seeds, worst)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_flags(parser):
    parser.add_argument("--config", default=None,
                        help="flat key = value config file")
    # values stay strings here; resolve_config coerces them like a file's
    for name in _CONFIG_FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            default=argparse.SUPPRESS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twobranch",
        description="Train and evaluate two-branch cross-modal embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func in (
        ("train", cmd_train),
        ("eval-retrieval", cmd_eval_retrieval),
        ("eval-localization", cmd_eval_localization),
        ("mine-negatives", cmd_mine_negatives),
        ("fuse", cmd_fuse),
    ):
        p = sub.add_parser(name)
        _add_config_flags(p)
        p.set_defaults(func=func, needs_config=True)

    g = sub.add_parser("gen-synthetic")
    g.add_argument("--mode", choices=("retrieval", "localization"),
                   default="retrieval")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--clusters", type=int, default=32)
    g.add_argument("--heldout-clusters", type=int, default=0)
    g.add_argument("--images-per-cluster", type=int, default=1)
    g.add_argument("--sents-per-image", type=int, default=5)
    g.add_argument("--dim-x", type=int, default=64)
    g.add_argument("--dim-y", type=int, default=48)
    g.add_argument("--noise-sigma", type=float, default=0.05)
    g.add_argument("--phrases", type=int, default=12)
    g.add_argument("--images-per-phrase", type=int, default=6)
    g.add_argument("--dim-regions", type=int, default=48)
    g.add_argument("--dim-phrases", type=int, default=32)
    g.add_argument("--jitter-per-gt", type=int, default=2)
    g.add_argument("--background-per-image", type=int, default=6)
    g.set_defaults(func=cmd_gen_synthetic, needs_config=False)

    c = sub.add_parser("grad-check")
    c.add_argument("--seeds", type=int, default=20)
    c.add_argument("--tolerance", type=float, default=1e-4)
    c.set_defaults(func=cmd_grad_check, needs_config=False)
    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.needs_config:
            cfg = resolve_config(args)
            return args.func(cfg, keys_read(args.command, cfg))
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        log.error("%s", exc)
        return 1
    except TwoBranchError as exc:
        log.error("%s", exc)
        return 2
    except Exception as exc:  # runtime failures also map to exit 2
        log.error("%s: %s", type(exc).__name__, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
