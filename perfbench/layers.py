"""The spans recorded around twobranch's layers and the per-layer metrics.

Every hook names a module attribute that its caller looks up at call
time (``training.train_step`` is found in ``training``'s globals each
time ``train`` calls it), so replacing the attribute sees every call.
"""

import os
import statistics

from tracing import Hook, children, percentile, self_times, tail_percentile

# the triplet families the workloads mine; image structure needs
# lambda2 > 0, which no workload sets
FAMILY_NAMES = ("image_to_sentence", "sentence_to_image",
                "sentence_structure")
COMMANDS = ("train", "eval-retrieval", "eval-localization", "mine-negatives",
            "fuse")

STEP = "training.step"
STEP_CHILDREN = {
    "hinge": "loss_mining.hinge",
    "mine": "loss_mining.mine",
    "forward": "network.forward_train",
    "backward": "network.backward_step",
}
# spans that only hold the loop around the layers; their self time is
# the command's own (epoch loop, best-snapshot copy, logging)
COMMAND_GLUE = ("training.train",)


def _batch_rows(obj):
    return {"rows_x": int(obj.num_x), "rows_y": int(obj.num_y)}


def _step_attrs(args, kwargs, result):
    for arg in list(args) + list(kwargs.values()):
        if hasattr(arg, "num_x") and hasattr(arg, "num_y"):
            return _batch_rows(arg)
    return None


def _mine_attrs(args, kwargs, result):
    return {"triplets": dict(result.counts())}


def _mined_attrs(args, kwargs, result):
    return {"mined": int(result[0].total)}


def _file_attrs(args, kwargs, result):
    path = next(a for a in list(args) + list(kwargs.values())
                if isinstance(a, (str, os.PathLike)))
    return {"bytes": os.path.getsize(path)}


def _batch_attrs(args, kwargs, item):
    return _batch_rows(item)


def _hook(module, attribute, name, attrs=None, per_item=False):
    return Hook("twobranch." + module, attribute, name, attrs, per_item)


HOOKS = (
    _hook("training", "train_step", STEP, _step_attrs),
    _hook("training", "forward_branch", STEP_CHILDREN["forward"]),
    _hook("training", "mine_triplets", STEP_CHILDREN["mine"], _mine_attrs),
    _hook("training", "hinge_loss", STEP_CHILDREN["hinge"]),
    _hook("training", "backward_and_step", STEP_CHILDREN["backward"]),
    _hook("data", "epoch_batches", "data.batch", _batch_attrs, per_item=True),
    _hook("data", "load_feature_file", "data.load_feature_file"),
    _hook("data", "build_graph", "data.build_graph"),
    _hook("cli", "train", "training.train"),
    _hook("cli", "load_checkpoint", "network.load_checkpoint", _file_attrs),
    _hook("cli", "save_checkpoint", "network.save_checkpoint", _file_attrs),
    _hook("cli", "forward_branch", "network.forward_eval"),
    _hook("hard_negatives", "forward_branch", "network.forward_eval"),
    _hook("cli", "pairwise_distances", "tensor_core.pairwise_distances.eval"),
    _hook("evaluation", "pairwise_distances",
          "tensor_core.pairwise_distances.eval"),
    _hook("loss_mining", "pairwise_distances",
          "tensor_core.pairwise_distances.mining"),
    _hook("evaluation", "evaluate_retrieval", "evaluation.recall"),
    _hook("evaluation", "query_distances", "evaluation.query_distances"),
    _hook("evaluation", "localization_recall_at_k", "evaluation.loc_recall"),
    _hook("evaluation", "phrase_map", "evaluation.phrase_map"),
    _hook("evaluation", "fused_distance_matrix", "evaluation.fused_matrix"),
    _hook("evaluation", "load_corpus_file", "evaluation.load_corpus"),
    _hook("evaluation", "write_report_csv", "evaluation.write_report"),
    _hook("hard_negatives", "mine_hard_negatives", "hard_negatives.mine",
          _mined_attrs),
)

# per-layer metric -> span whose summed seconds per command sequence it is
SECONDS_PER_SEQUENCE = {
    "network.forward_eval_s": "network.forward_eval",
    "network.save_checkpoint_s": "network.save_checkpoint",
    "network.load_checkpoint_s": "network.load_checkpoint",
    "tensor_core.pairwise_distances.mining_s":
        "tensor_core.pairwise_distances.mining",
    "tensor_core.pairwise_distances.eval_s":
        "tensor_core.pairwise_distances.eval",
    "data.load_feature_file_s": "data.load_feature_file",
    "data.build_graph_s": "data.build_graph",
    "evaluation.recall_s": "evaluation.recall",
    "evaluation.query_distances_s": "evaluation.query_distances",
    "evaluation.loc_recall_s": "evaluation.loc_recall",
    "evaluation.phrase_map_s": "evaluation.phrase_map",
    "evaluation.fused_matrix_s": "evaluation.fused_matrix",
    "evaluation.load_corpus_s": "evaluation.load_corpus",
    "evaluation.write_report_s": "evaluation.write_report",
    "hard_negatives.mine_s": "hard_negatives.mine",
}

PER_LAYER = (
    [("loss_mining.hinge_ms.p50", "ms"),
     ("loss_mining.hinge_calls_per_step", "count"),
     ("loss_mining.mine_ms.p50", "ms")]
    + [(f"loss_mining.triplets.{f}", "count") for f in FAMILY_NAMES]
    + [("network.forward_train_ms.p50", "ms"),
       ("network.backward_step_ms.p50", "ms"),
       ("network.gflop_per_step", "GFLOP"),
       ("network.gflops", "GFLOP/s"),
       ("network.checkpoint_mb", "MB")]
    + [(name, "s") for name in SECONDS_PER_SEQUENCE]
    + [("data.batch_ms.p50", "ms"),
       ("data.batch_rows_x.mean", "count"),
       ("data.batch_rows_y.mean", "count"),
       ("training.step_ms.p50", "ms"),
       ("training.step_ms.p90", "ms"),
       ("training.step_self_ms.p50", "ms"),
       ("training.steps", "count"),
       ("training.skipped_batches", "count"),
       ("hard_negatives.mined", "count")]
    + [(f"cli.{c}.self_s", "s") for c in COMMANDS]
    + [(f"cli.{c}.wall_s", "s") for c in COMMANDS]
    + [("trace.overhead_share", "share"),
       ("env.calib_s", "s")]
)


def dense_gflop(rows, dims):
    """Computed GFLOP of one branch's dense layers for ``rows`` rows.

    ``dims`` is (input, hidden, embed).  Each layer's product costs
    2 * rows * d_in * d_out in the forward pass and twice that in the
    backward pass (input and weight gradients), so 6x in all.
    """
    d_in, hidden, embed = dims
    return 6.0 * rows * (d_in * hidden + hidden * embed) / 1e9


def _median(values):
    return statistics.median(values) if values else 0.0


def _p(values, q):
    return percentile(values, q) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def summarize(traces, dims):
    """Per-layer metrics and distribution sizes from traced sequences.

    ``traces`` holds one span list per traced run of the command
    sequence.  Seconds and counts are per sequence (median over
    sequences); ``_ms`` distributions pool every step or batch.

    Returns:
        (metrics {name: value}, info {name: ...} for the result notes).
    """
    steps = {"step": [], "self": [], "gflop": [], "calls": []}
    steps.update({key: [] for key in STEP_CHILDREN})
    triplets = {f: [] for f in FAMILY_NAMES}
    batch_ms, rows_x, rows_y = [], [], []
    per_seq = {name: [] for name in SECONDS_PER_SEQUENCE}
    counts = {"steps": [], "skipped": [], "mined": []}
    cmd_self = {c: [] for c in COMMANDS}
    saved, loaded = [], []   # checkpoint MB per sequence
    child_share = {}

    for spans in traces:
        kids = children(spans)
        own = self_times(spans)
        n_steps = n_batches = mined = 0
        saved_mb = loaded_mb = 0.0
        seq_self = {c: 0.0 for c in COMMANDS}
        for index, span in enumerate(spans):
            if span.name == STEP:
                n_steps += 1
                steps["step"].append(span.duration * 1e3)
                steps["self"].append(own[index] * 1e3)
                nx = span.attrs.get("rows_x", 0)
                ny = span.attrs.get("rows_y", 0)
                steps["gflop"].append(dense_gflop(nx, dims["x"])
                                      + dense_gflop(ny, dims["y"]))
                mine_counts = {}
                for key, name in STEP_CHILDREN.items():
                    child_spans = [spans[i] for i in kids[index]
                                  if spans[i].name == name]
                    total = sum(s.duration for s in child_spans)
                    steps[key].append(total * 1e3)
                    child_share[name] = child_share.get(name, 0.0) + total
                    if key == "hinge":
                        steps["calls"].append(len(child_spans))
                    if key == "mine":
                        for s in child_spans:
                            mine_counts = s.attrs.get("triplets", {})
                for f in FAMILY_NAMES:
                    triplets[f].append(mine_counts.get(f, 0))
            elif span.name == "data.batch" and "rows_x" in span.attrs:
                n_batches += 1
                batch_ms.append(span.duration * 1e3)
                rows_x.append(span.attrs["rows_x"])
                rows_y.append(span.attrs["rows_y"])
            elif span.name == "hard_negatives.mine":
                mined += span.attrs.get("mined", 0)
            elif span.name == "network.save_checkpoint" and span.attrs:
                saved_mb += span.attrs["bytes"] / 1e6
            elif span.name == "network.load_checkpoint" and span.attrs:
                loaded_mb += span.attrs["bytes"] / 1e6
            if span.name.startswith("cli.") and span.name[4:] in seq_self:
                seq_self[span.name[4:]] += _command_self(index, spans, kids,
                                                         own)
        for metric, name in SECONDS_PER_SEQUENCE.items():
            per_seq[metric].append(
                sum(s.duration for s in spans if s.name == name))
        for c in COMMANDS:
            cmd_self[c].append(seq_self[c])
        counts["steps"].append(n_steps)
        counts["skipped"].append(n_batches - n_steps)
        counts["mined"].append(mined)
        saved.append(saved_mb)
        loaded.append(loaded_mb)

    compute_s = (sum(steps["forward"]) + sum(steps["backward"])) / 1e3
    metrics = {
        "loss_mining.hinge_ms.p50": _p(steps["hinge"], 50),
        "loss_mining.hinge_calls_per_step": _mean(steps["calls"]),
        "loss_mining.mine_ms.p50": _p(steps["mine"], 50),
        "network.forward_train_ms.p50": _p(steps["forward"], 50),
        "network.backward_step_ms.p50": _p(steps["backward"], 50),
        "network.gflop_per_step": _mean(steps["gflop"]),
        "network.gflops": sum(steps["gflop"]) / compute_s if compute_s else 0.0,
        # written per sequence, or read where nothing is written
        "network.checkpoint_mb": _median(saved) or _median(loaded),
        "data.batch_ms.p50": _p(batch_ms, 50),
        "data.batch_rows_x.mean": _mean(rows_x),
        "data.batch_rows_y.mean": _mean(rows_y),
        "training.step_ms.p50": _p(steps["step"], 50),
        "training.step_ms.p90": _p(steps["step"], 90),
        "training.step_self_ms.p50": _p(steps["self"], 50),
        "training.steps": _median(counts["steps"]),
        "training.skipped_batches": _median(counts["skipped"]),
        "hard_negatives.mined": _median(counts["mined"]),
    }
    for f in FAMILY_NAMES:
        metrics[f"loss_mining.triplets.{f}"] = _mean(triplets[f])
    for metric, values in per_seq.items():
        metrics[metric] = _median(values)
    for c in COMMANDS:
        metrics[f"cli.{c}.self_s"] = _median(cmd_self[c])

    step_total = sum(steps["step"]) / 1e3
    info = {
        "samples": {"training.step": len(steps["step"]),
                    "data.batch": len(batch_ms),
                    "sequences": len(traces)},
        "tails": {name: _tail(values) for name, values in
                  (("training.step_ms", steps["step"]),
                   ("data.batch_ms", batch_ms),
                   ("loss_mining.hinge_ms", steps["hinge"]),
                   ("loss_mining.mine_ms", steps["mine"]))},
        "gflop": "computed: 6 x rows x dense weights per branch",
    }
    if step_total > 0:
        info["step_children_share"] = {
            name: total / step_total for name, total in child_share.items()}
        info["step_self_share"] = sum(steps["self"]) / 1e3 / step_total
        info["children_cover_most_of_step"] = info["step_self_share"] < 0.5
        info["largest_step_child"] = max(child_share, key=child_share.get)
    return metrics, info


def _command_self(index, spans, kids, own):
    """Self time of a command span plus that of its loop-only descendants."""
    total = own[index]
    stack = list(kids[index])
    while stack:
        i = stack.pop()
        if spans[i].name in COMMAND_GLUE:
            total += own[i]
            stack.extend(kids[i])
    return total


def _tail(values):
    """The highest percentile with at least ten samples beyond it."""
    p = tail_percentile(len(values))
    if p is None:
        return {"n": len(values), "percentile": None}
    return {"n": len(values), "percentile": p, "value": percentile(values, p)}
