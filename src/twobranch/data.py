"""Feature files, correspondence graphs, mini-batches, synthetic data.

On-disk formats:

  * Feature file: magic "DSPF", u32 version=1, u64 rows, u64 cols,
    then rows*cols little-endian float32, row-major.  A sibling
    "<path>.ids" text file lists one id per line, count = rows.
  * Pair file: UTF-8 TSV with two columns ``x_id<TAB>y_id``; blank
    lines and ``#`` comments allowed.

Features are widened to float64 in memory; the file stays float32.
"""

import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np
import struct

from .errors import ConfigError, ConsistencyError, FormatError
from .tensor_core import check_finite

FEATURE_MAGIC = b"DSPF"
FEATURE_VERSION = 1


@dataclass
class FeatureSet:
    """Row-aligned ids and feature vectors for one view."""

    ids: list
    features: np.ndarray

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ConsistencyError(
                f"features must be 2-D, got shape {self.features.shape}"
            )
        if len(self.ids) != self.features.shape[0]:
            raise ConsistencyError(
                f"{len(self.ids)} ids for {self.features.shape[0]} feature rows"
            )
        if len(set(self.ids)) != len(self.ids):
            raise ConsistencyError("feature ids are not unique")
        self._row_of = {fid: i for i, fid in enumerate(self.ids)}

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def row_of(self, fid):
        try:
            return self._row_of[fid]
        except KeyError:
            raise ConsistencyError(f"unknown feature id {fid!r}") from None


@contextmanager
def atomic_write(path, mode="w"):
    """Write ``path`` through a temporary file in the same directory.

    Yields the open temporary file ("w" is UTF-8 text, "wb" binary) and
    moves it onto ``path`` with ``os.replace`` once the body finishes.
    If the body raises, the temporary file is removed and ``path``
    keeps its old bytes.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_feature_file(fs, path):
    """Write a FeatureSet as float32 binary plus the .ids sibling."""
    data = np.ascontiguousarray(fs.features, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IQQ", FEATURE_VERSION, data.shape[0],
                             data.shape[1]))
        fh.write(data.tobytes())
    with open(path + ".ids", "w", encoding="utf-8") as fh:
        for fid in fs.ids:
            fh.write(fid + "\n")


def load_feature_file(path):
    """Read a feature file and its .ids sibling into a FeatureSet."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = len(FEATURE_MAGIC) + 4 + 16
    if len(blob) < header:
        raise FormatError(f"{path}: too short for a feature file header")
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    version, rows, cols = struct.unpack("<IQQ", blob[4:header])
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = rows * cols * 4
    payload = blob[header:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload holds {len(payload)} bytes, header promises "
            f"{expected}"
        )
    feats = np.frombuffer(payload, dtype="<f4").reshape(rows, cols)
    check_finite(feats, path)
    ids_path = path + ".ids"
    if not os.path.exists(ids_path):
        raise ConsistencyError(f"{ids_path}: id file missing")
    with open(ids_path, encoding="utf-8") as fh:
        ids = [line.rstrip("\n") for line in fh if line.strip() != ""]
    if len(ids) != rows:
        raise ConsistencyError(
            f"{ids_path}: {len(ids)} ids for {rows} feature rows"
        )
    return FeatureSet(ids=ids, features=feats.astype(np.float64))


def save_pair_file(pairs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for x_id, y_id in pairs:
            fh.write(f"{x_id}\t{y_id}\n")


def load_pair_file(path):
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(
                    f"{path}:{lineno}: expected 2 tab-separated columns, "
                    f"got {len(parts)}"
                )
            pairs.append((parts[0], parts[1]))
    return pairs


# ---------------------------------------------------------------------------
# correspondence graph


@dataclass
class CorrespondenceGraph:
    """Positive pairs plus same-view neighborhoods over whole datasets.

    ``x_neighbors[i]`` is the set of x rows sharing at least one
    positive partner with row i (always including i itself), and
    symmetrically for y.  Index spaces are the rows of the two
    FeatureSets the ids came from.  Reserved hard-negative rows exist
    only inside mini-batches (``MiniBatch.x_negative_only``).
    """

    x_ids: list
    y_ids: list
    pos_pairs: np.ndarray
    x_neighbors: list
    y_neighbors: list
    pos_y_by_x: list
    pos_x_by_y: list

    @property
    def num_x(self):
        return len(self.x_ids)

    @property
    def num_y(self):
        return len(self.y_ids)

    @property
    def num_pairs(self):
        return self.pos_pairs.shape[0]


def build_graph(pairs, x_ids, y_ids, dedupe=True, max_x_per_y=None):
    """Resolve id pairs against the two id universes and close
    neighborhoods by shared partner at depth 1.

    Args:
        pairs: iterable of (x_id, y_id).
        x_ids, y_ids: id lists from the two FeatureSets.
        dedupe: drop repeated (x, y) pairs, keeping the first.
        max_x_per_y: optional cap on partners per y (extra pairs
            beyond the cap are dropped in input order); used for
            region-phrase training where one phrase may have many
            region exemplars.

    Returns:
        CorrespondenceGraph.
    """
    if max_x_per_y is not None and max_x_per_y < 1:
        raise ConfigError(f"max_x_per_y must be >= 1, got {max_x_per_y}")
    x_row = {fid: i for i, fid in enumerate(x_ids)}
    y_row = {fid: i for i, fid in enumerate(y_ids)}
    seen = set()
    per_y = {}
    resolved = []
    for x_id, y_id in pairs:
        if x_id not in x_row:
            raise ConsistencyError(f"pair references unknown x id {x_id!r}")
        if y_id not in y_row:
            raise ConsistencyError(f"pair references unknown y id {y_id!r}")
        key = (x_row[x_id], y_row[y_id])
        if dedupe and key in seen:
            continue
        seen.add(key)
        if max_x_per_y is not None:
            count = per_y.get(key[1], 0)
            if count >= max_x_per_y:
                continue
            per_y[key[1]] = count + 1
        resolved.append(key)
    nx, ny = len(x_ids), len(y_ids)
    pos_y_by_x = [[] for _ in range(nx)]
    pos_x_by_y = [[] for _ in range(ny)]
    for xi, yi in resolved:
        pos_y_by_x[xi].append(yi)
        pos_x_by_y[yi].append(xi)
    x_neighbors = [{i} for i in range(nx)]
    y_neighbors = [{j} for j in range(ny)]
    for yi, members in enumerate(pos_x_by_y):
        for a in members:
            x_neighbors[a].update(members)
    for xi, members in enumerate(pos_y_by_x):
        for a in members:
            y_neighbors[a].update(members)
    if resolved:
        pos = np.array(resolved, dtype=np.int64)
    else:
        pos = np.zeros((0, 2), dtype=np.int64)
    return CorrespondenceGraph(
        x_ids=list(x_ids),
        y_ids=list(y_ids),
        pos_pairs=pos,
        x_neighbors=x_neighbors,
        y_neighbors=y_neighbors,
        pos_y_by_x=[sorted(v) for v in pos_y_by_x],
        pos_x_by_y=[sorted(v) for v in pos_x_by_y],
    )


# ---------------------------------------------------------------------------
# mini-batches


@dataclass
class MiniBatch:
    """A sampled batch with batch-local index spaces.

    ``x_rows[i]`` / ``y_rows[j]`` map batch-local rows back to dataset
    rows.  ``pos_pairs`` and the neighborhoods are batch-local and
    cover every dataset positive between in-batch items, so co-sampled
    positives are never treated as negatives.  Reserved hard-negative
    rows appear in ``x_negative_only`` (batch-local x row -> the one
    batch-local y row they may serve as a negative for); only the x
    view has them.

    The batch keeps the graph as index lists and sets, the protocol
    ``loss_mining.mine_triplets`` reads; mining builds its boolean
    masks from them.
    """

    x_rows: np.ndarray
    y_rows: np.ndarray
    pair_indices: np.ndarray
    augmented_y_rows: list
    pos_pairs: np.ndarray
    x_neighbors: list
    y_neighbors: list
    x_negative_only: dict = field(default_factory=dict)

    @property
    def num_x(self):
        return len(self.x_rows)

    @property
    def num_y(self):
        return len(self.y_rows)


def _build_batch(graph, pair_rows, augment, rng, extra_negatives=None,
                 negatives_per_anchor=10):
    x_order = []
    y_order = []
    x_local = {}
    y_local = {}

    def local_x(row):
        if row not in x_local:
            x_local[row] = len(x_order)
            x_order.append(row)
        return x_local[row]

    def local_y(row):
        if row not in y_local:
            y_local[row] = len(y_order)
            y_order.append(row)
        return y_local[row]

    for idx in pair_rows:
        xi, yi = graph.pos_pairs[idx]
        local_x(int(xi))
        local_y(int(yi))

    augmented = []
    if augment:
        for xi in list(x_order):
            extra = [y for y in graph.pos_y_by_x[xi] if y not in y_local]
            if extra:
                pick = extra[int(rng.integers(len(extra)))]
                local_y(pick)
                augmented.append(pick)

    hn_meta = {}
    hn_dataset_rows = set()
    if extra_negatives:
        for yi in list(y_order):
            candidates = extra_negatives.get(yi)
            if not candidates:
                continue
            fresh = sorted(c for c in candidates if c not in x_local)
            if not fresh:
                continue
            if len(fresh) > negatives_per_anchor:
                chosen = rng.choice(len(fresh), size=negatives_per_anchor,
                                    replace=False)
                fresh = sorted(fresh[int(c)] for c in chosen)
            anchor_local = y_local[yi]
            for row in fresh:
                hn_meta[local_x(row)] = anchor_local
                hn_dataset_rows.add(row)

    x_rows = np.array(x_order, dtype=np.int64)
    y_rows = np.array(y_order, dtype=np.int64)
    x_set, y_set = set(x_order), set(y_order)
    pos = []
    for xi in x_order:
        if xi in hn_dataset_rows:
            continue
        for yi in graph.pos_y_by_x[xi]:
            if yi in y_set:
                pos.append((x_local[xi], y_local[yi]))
    pos_pairs = (np.array(pos, dtype=np.int64) if pos
                 else np.zeros((0, 2), dtype=np.int64))
    x_neighbors = [
        {x_local[m] for m in graph.x_neighbors[xi] if m in x_set}
        | {x_local[xi]}
        if xi not in hn_dataset_rows else {x_local[xi]}
        for xi in x_order
    ]
    y_neighbors = [
        {y_local[m] for m in graph.y_neighbors[yi] if m in y_set}
        | {y_local[yi]}
        for yi in y_order
    ]
    return MiniBatch(
        x_rows=x_rows,
        y_rows=y_rows,
        pair_indices=np.asarray(pair_rows, dtype=np.int64),
        augmented_y_rows=augmented,
        pos_pairs=pos_pairs,
        x_neighbors=x_neighbors,
        y_neighbors=y_neighbors,
        x_negative_only=hn_meta,
    )


def epoch_batches(graph, batch_pairs, augment, rng, extra_negatives=None,
                  negatives_per_anchor=10):
    """Partition one epoch into disjoint batches of batch_pairs pairs.

    The pair list is shuffled, chunked, and a trailing chunk of fewer
    than 2 pairs is dropped (it cannot feed batch statistics).

    Yields:
        MiniBatch.
    """
    if batch_pairs < 1:
        raise ConfigError(f"batch_pairs must be >= 1, got {batch_pairs}")
    perm = rng.permutation(graph.num_pairs)
    for start in range(0, graph.num_pairs, batch_pairs):
        chunk = perm[start:start + batch_pairs]
        if chunk.size < 2:
            continue
        yield _build_batch(graph, np.sort(chunk), augment, rng,
                           extra_negatives=extra_negatives,
                           negatives_per_anchor=negatives_per_anchor)


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SyntheticData:
    x: FeatureSet
    y: FeatureSet
    graph: CorrespondenceGraph
    x_labels: np.ndarray
    y_labels: np.ndarray
    latents: np.ndarray
    map_x: np.ndarray
    map_y: np.ndarray


def gen_synthetic(num_clusters, images_per_cluster, sents_per_image,
                  feat_dim_x, feat_dim_y, noise_sigma, seed,
                  latent_dim=16):
    """Clustered two-view features with known ground truth.

    Every cluster draws a unit latent vector; each item perturbs the
    latent with isotropic Gaussian noise of scale noise_sigma and maps
    it through a view-specific random linear map.  Pairs link each
    image to its sents_per_image sentences.

    Returns:
        SyntheticData with per-row cluster labels for both views.
    """
    for name, v in (("num_clusters", num_clusters),
                    ("images_per_cluster", images_per_cluster),
                    ("sents_per_image", sents_per_image),
                    ("feat_dim_x", feat_dim_x),
                    ("feat_dim_y", feat_dim_y)):
        if v < 1:
            raise ConfigError(f"{name} must be >= 1, got {v}")
    if noise_sigma < 0:
        raise ConfigError(f"noise_sigma must be >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    latents = rng.normal(size=(num_clusters, latent_dim))
    latents /= np.linalg.norm(latents, axis=1, keepdims=True)
    map_x = rng.normal(size=(latent_dim, feat_dim_x)) / np.sqrt(latent_dim)
    map_y = rng.normal(size=(latent_dim, feat_dim_y)) / np.sqrt(latent_dim)

    x_ids, y_ids, pairs = [], [], []
    x_lat, y_lat = [], []
    x_labels, y_labels = [], []
    for c in range(num_clusters):
        for i in range(images_per_cluster):
            img_id = f"img_{c:04d}_{i:02d}"
            x_ids.append(img_id)
            x_lat.append(latents[c] + noise_sigma * rng.normal(size=latent_dim))
            x_labels.append(c)
            for s in range(sents_per_image):
                sent_id = f"sent_{c:04d}_{i:02d}_{s:02d}"
                y_ids.append(sent_id)
                y_lat.append(latents[c]
                             + noise_sigma * rng.normal(size=latent_dim))
                y_labels.append(c)
                pairs.append((img_id, sent_id))
    fx = FeatureSet(ids=x_ids, features=np.array(x_lat) @ map_x)
    fy = FeatureSet(ids=y_ids, features=np.array(y_lat) @ map_y)
    graph = build_graph(pairs, fx.ids, fy.ids)
    return SyntheticData(
        x=fx,
        y=fy,
        graph=graph,
        x_labels=np.array(x_labels, dtype=np.int64),
        y_labels=np.array(y_labels, dtype=np.int64),
        latents=latents,
        map_x=map_x,
        map_y=map_y,
    )


@dataclass
class LocalizationData:
    """Synthetic phrase-grounding corpus.

    ``corpus_rows`` matches the proposal/GT TSV schema: (image_id,
    kind "P"|"G", phrase_id, x1, y1, x2, y2, feature_row or None).
    ``pairs`` links ground-truth region ids to their phrase for
    first-stage training.
    """

    regions: FeatureSet
    phrases: FeatureSet
    corpus_rows: list
    pairs: list
    region_labels: np.ndarray


def _jittered_box(rng, box, image_size, max_shift=3.0, min_iou=0.55):
    x1, y1, x2, y2 = box
    for _ in range(100):
        deltas = rng.uniform(-max_shift, max_shift, size=4)
        cand = (x1 + deltas[0], y1 + deltas[1], x2 + deltas[2], y2 + deltas[3])
        if not (0 <= cand[0] < cand[2] <= image_size
                and 0 <= cand[1] < cand[3] <= image_size):
            continue
        if _iou_tuple(box, cand) >= min_iou:
            return cand
    return (x1 + 1.0, y1 + 1.0, x2 + 1.0, y2 + 1.0)


def _iou_tuple(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    if inter <= 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def _background_box(rng, gt_boxes, image_size, max_iou=0.3):
    for _ in range(200):
        w = rng.uniform(15.0, 35.0)
        h = rng.uniform(15.0, 35.0)
        x1 = rng.uniform(0.0, image_size - w)
        y1 = rng.uniform(0.0, image_size - h)
        cand = (x1, y1, x1 + w, y1 + h)
        if all(_iou_tuple(cand, gt) < max_iou for gt in gt_boxes):
            return cand
    return (0.0, 0.0, 10.0, 10.0)


def gen_localization(num_phrases, images_per_phrase, feat_dim_region,
                     feat_dim_phrase, seed, jitter_per_gt=2,
                     background_per_image=6, noise_sigma=0.05,
                     bg_offset_lo=0.05, bg_offset_hi=0.25,
                     bg_noise_sigma=0.02, image_size=100.0,
                     latent_dim=16):
    """Phrase-grounding corpus where phrases are cluster labels.

    Each image belongs to one phrase and holds one ground-truth box,
    jittered copies of it (IoU > 0.5) and background boxes (IoU < 0.3
    with the ground truth).  Ground-truth and jittered boxes carry
    features near the phrase latent; background boxes are confusers:
    the phrase latent plus a shared off-cluster direction scaled by a
    random offset, so a first-stage model ranks some of them close to
    the phrase until they are mined and trained against.  The shared
    direction plays the role of background appearance statistics that
    cut across phrases.

    Returns:
        LocalizationData.
    """
    for name, v in (("num_phrases", num_phrases),
                    ("images_per_phrase", images_per_phrase)):
        if v < 1:
            raise ConfigError(f"{name} must be >= 1, got {v}")
    rng = np.random.default_rng(seed)
    latents = rng.normal(size=(num_phrases, latent_dim))
    latents /= np.linalg.norm(latents, axis=1, keepdims=True)
    off_dir = rng.normal(size=latent_dim)
    off_dir /= np.linalg.norm(off_dir)
    map_region = rng.normal(size=(latent_dim, feat_dim_region)) / np.sqrt(latent_dim)
    map_phrase = rng.normal(size=(latent_dim, feat_dim_phrase)) / np.sqrt(latent_dim)

    phrase_ids = [f"phrase_{p:03d}" for p in range(num_phrases)]
    phrase_lat = latents + noise_sigma * 0.2 * rng.normal(
        size=(num_phrases, latent_dim))
    region_ids = []
    region_lat = []
    region_labels = []
    corpus_rows = []
    pairs = []

    def add_region(rid, lat, label):
        region_ids.append(rid)
        region_lat.append(lat)
        region_labels.append(label)
        return len(region_ids) - 1

    for p in range(num_phrases):
        for i in range(images_per_phrase):
            image_id = f"im_{p:03d}_{i:02d}"
            side_w = rng.uniform(22.0, 40.0)
            side_h = rng.uniform(22.0, 40.0)
            gx1 = rng.uniform(0.0, image_size - side_w)
            gy1 = rng.uniform(0.0, image_size - side_h)
            gt = (gx1, gy1, gx1 + side_w, gy1 + side_h)
            gt_row = add_region(
                f"reg_{p:03d}_{i:02d}_gt",
                latents[p] + noise_sigma * rng.normal(size=latent_dim),
                p,
            )
            corpus_rows.append((image_id, "G", phrase_ids[p]) + gt + (gt_row,))
            corpus_rows.append((image_id, "P", phrase_ids[p]) + gt + (gt_row,))
            pairs.append((region_ids[gt_row], phrase_ids[p]))
            for j in range(jitter_per_gt):
                jbox = _jittered_box(rng, gt, image_size)
                jrow = add_region(
                    f"reg_{p:03d}_{i:02d}_j{j}",
                    latents[p] + noise_sigma * rng.normal(size=latent_dim),
                    p,
                )
                corpus_rows.append(
                    (image_id, "P", phrase_ids[p]) + jbox + (jrow,))
            for b in range(background_per_image):
                bbox = _background_box(rng, [gt], image_size)
                offset = rng.uniform(bg_offset_lo, bg_offset_hi)
                brow = add_region(
                    f"reg_{p:03d}_{i:02d}_b{b}",
                    latents[p] + offset * off_dir
                    + bg_noise_sigma * rng.normal(size=latent_dim),
                    -1,
                )
                corpus_rows.append(
                    (image_id, "P", phrase_ids[p]) + bbox + (brow,))

    regions = FeatureSet(ids=region_ids,
                         features=np.array(region_lat) @ map_region)
    phrases = FeatureSet(ids=phrase_ids,
                         features=phrase_lat @ map_phrase)
    return LocalizationData(
        regions=regions,
        phrases=phrases,
        corpus_rows=corpus_rows,
        pairs=pairs,
        region_labels=np.array(region_labels, dtype=np.int64),
    )
