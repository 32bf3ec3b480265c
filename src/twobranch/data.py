"""Feature files, correspondence graphs, mini-batches, synthetic data.

On-disk formats:

  * Feature file: magic "DSPF", u32 version=1, u64 rows, u64 cols,
    then rows*cols little-endian float32, row-major.  A sibling
    "<path>.ids" text file lists one id per line, count = rows.
  * Pair file: UTF-8 TSV with two columns ``x_id<TAB>y_id``; blank
    lines and ``#`` comments allowed, so no x_id may begin with ``#``
    and no id may hold a tab or a line break (``tsv_line``).

Each on-disk format has one rule that its writer and its reader both
apply: a writer refuses what its reader would refuse, and a refused
write leaves the old file's bytes (``atomic_write``).
``save_feature_file`` runs the reader's finiteness check on each
float32 chunk it writes.  Every TSV writer refuses a field that
``tsv_line`` could not read back.  ``evaluation.save_corpus_file``
checks its rows by the corpus reader's value rule, less the checks that
need feature sets; ``hard_negatives.save_hard_negatives`` checks each
line's fields by the reader's line rule; ``network.save_checkpoint``
refuses a NaN or infinite record, as ``load_checkpoint`` does.

A FeatureSet keeps float32 or float64 features as given (a file loads
as float32, the generators make float64); consumers widen what they
compute on with ``tensor_core.as_matrix``, which is exact.

A CorrespondenceGraph holds its positive pairs as a pair list plus one
CSR Adjacency per view, O(rows + pairs) integers at any dataset size;
neighbourhoods are derived per mini-batch from the adjacencies.
"""

import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np
import struct

from .errors import ConfigError, ConsistencyError, FormatError
from .tensor_core import check_finite

FEATURE_MAGIC = b"DSPF"
FEATURE_VERSION = 1

# float32 values read and checked, or converted and written, at a time
# by the feature-file functions (256 KB of file).
IO_FLOATS = 1 << 16


@dataclass
class FeatureSet:
    """Row-aligned ids and feature vectors for one view.

    float32 and float64 features are kept as given; any other dtype is
    widened to float64.
    """

    ids: list
    features: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.features)
        keep = arr.dtype if arr.dtype in (np.float32, np.float64) \
            else np.float64
        self.features = np.ascontiguousarray(arr, dtype=keep)
        if self.features.ndim != 2:
            raise ConsistencyError(
                f"features must be 2-D, got shape {self.features.shape}"
            )
        if len(self.ids) != self.features.shape[0]:
            raise ConsistencyError(
                f"{len(self.ids)} ids for {self.features.shape[0]} feature rows"
            )
        _check_ids(self.ids)
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


def _check_ids(ids):
    """Each id must survive a line of an .ids file: a non-blank str
    without a line break (load_feature_file skips blank lines)."""
    for fid in ids:
        if not isinstance(fid, str) or "\n" in fid or "\r" in fid \
                or not fid.strip():
            raise ConsistencyError(
                f"feature id {fid!r} is not a non-blank one-line string")


def _tmp_path(path):
    """The temporary name beside ``path`` that a replace moves onto it."""
    return f"{path}.{os.getpid()}.tmp"


@contextmanager
def atomic_write(path, mode="w"):
    """Write ``path`` through a temporary file in the same directory.

    Yields the open temporary file ("w" is UTF-8 text, "wb" binary) and
    moves it onto ``path`` with ``os.replace`` once the body finishes.
    If the body raises, the temporary file is removed and ``path``
    keeps its old bytes.  The file at ``path`` is never edited in
    place, so other hard links of its old inode keep their bytes.
    """
    tmp = _tmp_path(path)
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def atomic_link(src, dst):
    """Make ``dst`` a hard link of the file ``src``, replacing it atomically.

    Links a temporary name beside ``dst`` (named as ``atomic_write``
    names it) to ``src`` and moves it onto ``dst`` with ``os.replace``.
    When ``dst`` already names the file ``src`` names (one path, two
    spellings or a symbolic link), nothing is done: rename(2) between
    two links of one inode does nothing and would leave the temporary
    name behind.

    Raises:
        OSError: the link or the replace failed, as ``os.link`` does
            across filesystems (EXDEV) or where hard links are refused
            (EPERM); ``dst`` then keeps its old bytes and no temporary
            file remains.
    """
    if os.path.exists(dst) and os.path.samefile(src, dst):
        return
    tmp = _tmp_path(dst)
    os.link(src, tmp)
    try:
        os.replace(tmp, dst)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_feature_file(fs, path):
    """Write a FeatureSet as float32 binary plus the .ids sibling.

    The ids are checked and their text built before either file is
    touched, so a bad id cannot leave new features beside old ids.  The
    payload is converted and written in row chunks of about IO_FLOATS
    floats, so beyond the FeatureSet the save holds one chunk.  Each
    converted chunk goes through ``load_feature_file``'s check: NaN, or
    a value that is infinite as float32, raises DimensionError, and
    neither file changes.
    """
    _check_ids(fs.ids)
    ids_text = "".join(fid + "\n" for fid in fs.ids)
    rows, cols = fs.features.shape
    step = max(1, IO_FLOATS // max(1, cols))
    with atomic_write(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IQQ", FEATURE_VERSION, rows, cols))
        for start in range(0, rows, step):
            # a float64 beyond float32's range becomes inf, which the
            # check refuses as the reader would
            with np.errstate(over="ignore"):
                chunk = np.ascontiguousarray(fs.features[start:start + step],
                                             dtype="<f4")
            fh.write(check_finite(chunk, path))
    with atomic_write(path + ".ids") as fh:
        fh.write(ids_text)


def load_feature_file(path):
    """Read a feature file and its .ids sibling into a FeatureSet.

    The header and the payload size (from the file's size) are checked,
    and the .ids file's presence, before any payload is read.  The
    float32 payload is then read straight into the FeatureSet's array,
    and checked for finiteness, in chunks of IO_FLOATS, so the peak is
    about 1x the payload.
    """
    header = len(FEATURE_MAGIC) + 4 + 16
    with open(path, "rb") as fh:
        head = fh.read(header)
        if len(head) < header:
            raise FormatError(f"{path}: too short for a feature file header")
        if head[:4] != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}")
        version, rows, cols = struct.unpack("<IQQ", head[4:])
        if version != FEATURE_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        expected = rows * cols * 4
        size = os.fstat(fh.fileno()).st_size - header
        if size != expected:
            raise FormatError(
                f"{path}: payload holds {size} bytes, header promises "
                f"{expected}"
            )
        ids_path = path + ".ids"
        if not os.path.exists(ids_path):
            raise ConsistencyError(f"{ids_path}: id file missing")
        feats = np.empty((rows, cols), "<f4")
        flat = feats.reshape(-1)
        for start in range(0, flat.size, IO_FLOATS):
            part = flat[start:start + IO_FLOATS]
            if fh.readinto(part) != part.nbytes:
                raise FormatError(f"{path}: payload shrank while reading")
            check_finite(part, path)
    ids = [line.rstrip("\n") for _, line in text_lines(ids_path)
           if line.strip() != ""]
    if len(ids) != rows:
        raise ConsistencyError(
            f"{ids_path}: {len(ids)} ids for {rows} feature rows"
        )
    return FeatureSet(ids=ids, features=feats)


def tsv_line(fields, path):
    """One TSV line of ``fields``, refused if it would not read back.

    ``read_tsv`` splits lines on line breaks (text mode counts ``\\r``
    as one) and columns on tabs, and skips blank lines and lines that
    begin with ``#``.  So a field holding a tab or a line break, a
    first field that begins with ``#`` and a row of blank fields raise
    ConsistencyError; inside ``atomic_write`` the old file then stays.
    Each field is written as ``str(field)``.
    """
    line = "\t".join(map(str, fields))
    if line.count("\t") != len(fields) - 1 or "\n" in line \
            or "\r" in line or line.startswith("#") or not line.strip():
        raise ConsistencyError(f"{path}: row {tuple(fields)!r} would not "
                               "read back: a field holds a tab or a line "
                               "break, the first begins with '#', or all "
                               "are blank")
    return line + "\n"


def save_pair_file(pairs, path):
    with atomic_write(path) as fh:
        for x_id, y_id in pairs:
            fh.write(tsv_line((x_id, y_id), path))


def text_lines(path, error=FormatError):
    """Yield (lineno, line) of each line of the UTF-8 text ``path``; a
    byte that is not UTF-8 raises ``error`` naming ``path:lineno:``."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        # the reader decodes ahead of the lines it yields, so find the
        # first line whose bytes do not decode
        with open(path, "rb") as fh:
            lineno = next((n for n, raw in enumerate(fh, start=1)
                           if raw.decode("utf-8", "ignore").encode() != raw),
                          "?")
        raise error(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") \
            from None


def read_tsv(path, widths):
    """Yield (lineno, fields) for each line of a TSV file ``tsv_line``
    wrote: blank lines and lines that begin with ``#`` are skipped, and
    a line whose column count is not in ``widths`` raises FormatError
    with a ``path:lineno:`` prefix, as callers' own field errors do."""
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in widths:
            raise FormatError(
                f"{path}:{lineno}: expected "
                f"{' or '.join(map(str, widths))} tab-separated "
                f"columns, got {len(parts)}"
            )
        yield lineno, parts


def load_pair_file(path):
    return [(x_id, y_id) for _, (x_id, y_id) in read_tsv(path, (2,))]


# ---------------------------------------------------------------------------
# correspondence graph


@dataclass(frozen=True)
class Adjacency:
    """Compressed sparse rows of int64: row r's partners, ascending,
    are ``partners[offsets[r]:offsets[r + 1]]``."""

    offsets: np.ndarray
    partners: np.ndarray

    def of(self, row):
        return self.partners[self.offsets[row]:self.offsets[row + 1]]


def _adjacency(rows, cols, num_rows):
    """Adjacency of ``num_rows`` rows holding the (rows[i], cols[i])."""
    counts = np.bincount(rows, minlength=num_rows)
    return Adjacency(offsets=np.concatenate(([0], np.cumsum(counts))),
                     partners=cols[np.lexsort((cols, rows))])


@dataclass
class CorrespondenceGraph:
    """Positive pairs over whole datasets, stored once per use.

    Index spaces are the rows of the two FeatureSets the ids came from;
    the graph keeps no ids.  ``pos_pairs`` (P, 2) int64 lists the
    (x row, y row) positives in input order, for sampling; ``y_of_x``
    and ``x_of_y`` are the same relation as one Adjacency per view, and
    each view's row count is its adjacency's ``len(offsets) - 1``.
    Neighbourhoods, the rows that share a partner, are not stored:
    ``_build_batch`` follows the adjacencies from a batch's rows into
    the masks mining reads.
    """

    pos_pairs: np.ndarray
    y_of_x: Adjacency
    x_of_y: Adjacency

    @property
    def num_pairs(self):
        return self.pos_pairs.shape[0]


def build_graph(pairs, x_ids, y_ids, max_x_per_y=None):
    """Resolve id pairs against the two id universes.

    A repeated (x, y) pair is dropped, keeping the first.

    Args:
        pairs: iterable of (x_id, y_id).
        x_ids, y_ids: id lists from the two FeatureSets.
        max_x_per_y: optional cap on partners per y (extra pairs
            beyond the cap are dropped in input order); used for
            region-phrase training where one phrase may have many
            region exemplars.

    Raises:
        ConfigError: ``max_x_per_y`` below 1.
        ConsistencyError: naming the first unknown id, x before y.

    Returns:
        CorrespondenceGraph.
    """
    if max_x_per_y is not None and max_x_per_y < 1:
        raise ConfigError(f"max_x_per_y must be >= 1, got {max_x_per_y}")
    pairs = list(pairs)
    nx, ny = len(x_ids), len(y_ids)
    x_row = {fid: i for i, fid in enumerate(x_ids)}
    y_row = {fid: i for i, fid in enumerate(y_ids)}
    xs, ys = np.array([(x_row.get(x, -1), y_row.get(y, -1))
                       for x, y in pairs], dtype=np.int64).reshape(-1, 2).T
    unknown = (xs < 0) | (ys < 0)
    if unknown.any():
        i = int(np.argmax(unknown))
        view, fid = ("x", pairs[i][0]) if xs[i] < 0 else ("y", pairs[i][1])
        raise ConsistencyError(f"pair references unknown {view} id {fid!r}")
    keep = np.sort(np.unique(xs * ny + ys, return_index=True)[1])
    if max_x_per_y is not None:
        # a pair's rank among its y's pairs is its place in a stable
        # sort by y less the place of the y's first pair
        by_y = keep[np.argsort(ys[keep], kind="stable")]
        rank = np.arange(by_y.shape[0]) - np.searchsorted(ys[by_y], ys[by_y])
        keep = np.sort(by_y[rank < max_x_per_y])
    xs, ys = xs[keep], ys[keep]
    return CorrespondenceGraph(
        pos_pairs=np.stack([xs, ys], axis=1),
        y_of_x=_adjacency(xs, ys, nx), x_of_y=_adjacency(ys, xs, ny))


# ---------------------------------------------------------------------------
# mini-batches

# The most mined negatives a batch reserves for one anchor, by default.
NEGATIVES_PER_ANCHOR = 10


@dataclass
class MiniBatch:
    """A sampled batch with batch-local index spaces.

    ``x_rows[i]`` / ``y_rows[j]`` map batch-local rows back to dataset
    rows.  The batch's correspondence graph is four arrays, the ones
    ``loss_mining.mine_triplets`` reads:

      * ``pos`` (num_x, num_y) bool: x row i and y row j are a dataset
        positive, whether or not they were sampled as a pair, so
        co-sampled positives are never treated as negatives;
      * ``x_nb`` (num_x, num_x) and ``y_nb`` (num_y, num_y) bool: the
        dataset neighborhoods restricted to the batch, with every
        diagonal entry set;
      * ``owner`` (num_x,) int64: the batch-local y anchor a reserved
        hard-negative x row may serve as a negative for, or -1.  A
        reserved row has no positives and only itself as neighbor,
        though an unreserved row may list it; only the x view has such
        rows.
    """

    x_rows: np.ndarray
    y_rows: np.ndarray
    pair_indices: np.ndarray
    augmented_y_rows: list
    pos: np.ndarray
    x_nb: np.ndarray
    y_nb: np.ndarray
    owner: np.ndarray

    @property
    def num_x(self):
        return len(self.x_rows)

    @property
    def num_y(self):
        return len(self.y_rows)


def _expand(adjacency, rows):
    """(which, partner) for every partner of every row: ``partner`` is
    a partner of ``rows[which]``, ascending within each row."""
    start = adjacency.offsets[rows]
    counts = adjacency.offsets[rows + 1] - start
    which = np.repeat(np.arange(rows.shape[0]), counts)
    at = (np.arange(which.shape[0])
          + (start + counts - np.cumsum(counts))[which])
    return which, adjacency.partners[at]


def _reach(rows, targets, order, hops):
    """Bool (len(rows), len(targets)) mask of the distinct ``targets``
    that each row reaches through the adjacencies ``hops`` in turn;
    ``order`` is np.argsort(targets)."""
    which, at = np.arange(rows.shape[0]), rows
    for adjacency in hops:
        step, at = _expand(adjacency, at)
        which = which[step]
    slot = order[np.minimum(np.searchsorted(targets, at, sorter=order),
                            targets.shape[0] - 1)]
    hit = targets[slot] == at
    mask = np.zeros((rows.shape[0], targets.shape[0]), dtype=bool)
    mask[which[hit], slot[hit]] = True
    return mask


def _build_batch(graph, pair_rows, augment, rng, extra_negatives=None,
                 negatives_per_anchor=NEGATIVES_PER_ANCHOR):
    # dataset row -> batch-local row, in order of first appearance
    x_local, y_local = {}, {}
    for xi, yi in graph.pos_pairs[pair_rows].tolist():
        x_local.setdefault(xi, len(x_local))
        y_local.setdefault(yi, len(y_local))

    augmented = []
    if augment:
        for xi in list(x_local):
            extra = [y for y in graph.y_of_x.of(xi).tolist()
                     if y not in y_local]
            if extra:
                pick = extra[int(rng.integers(len(extra)))]
                y_local[pick] = len(y_local)
                augmented.append(pick)

    # batch-local y anchor of each reserved x row, -1 for the others
    owner = [-1] * len(x_local)
    for yi, anchor in y_local.items() if extra_negatives else ():
        fresh = sorted(c for c in extra_negatives.get(yi, ())
                       if c not in x_local)
        if len(fresh) > negatives_per_anchor:
            chosen = rng.choice(len(fresh), size=negatives_per_anchor,
                                replace=False)
            fresh = sorted(fresh[int(c)] for c in chosen)
        for row in fresh:
            if row not in x_local:
                x_local[row] = len(x_local)
                owner.append(anchor)

    x_rows = np.array(list(x_local), dtype=np.int64)
    y_rows = np.array(list(y_local), dtype=np.int64)
    owner = np.array(owner, dtype=np.int64)
    # each view's rows sorted once, to find their batch-local rows
    x_order, y_order = np.argsort(x_rows), np.argsort(y_rows)
    pos = _reach(x_rows, y_rows, y_order, (graph.y_of_x,))
    x_nb = _reach(x_rows, x_rows, x_order, (graph.y_of_x, graph.x_of_y))
    y_nb = _reach(y_rows, y_rows, y_order, (graph.x_of_y, graph.y_of_x))
    pos[owner >= 0] = x_nb[owner >= 0] = False
    np.fill_diagonal(x_nb, True)
    np.fill_diagonal(y_nb, True)
    return MiniBatch(x_rows=x_rows, y_rows=y_rows,
                     pair_indices=np.asarray(pair_rows, dtype=np.int64),
                     augmented_y_rows=augmented, pos=pos, x_nb=x_nb,
                     y_nb=y_nb, owner=owner)


def check_batch_pairs(batch_pairs):
    """Raise ConfigError unless ``batch_pairs`` is at least 2."""
    if batch_pairs < 2:
        raise ConfigError(f"batch_pairs must be >= 2, got {batch_pairs}")


def epoch_batches(graph, batch_pairs, augment, rng, extra_negatives=None,
                  negatives_per_anchor=NEGATIVES_PER_ANCHOR):
    """Partition one epoch into disjoint batches of batch_pairs pairs.

    The pair list is shuffled, chunked, and a trailing chunk of fewer
    than 2 pairs is dropped (it cannot feed batch statistics), so a
    ``batch_pairs`` below 2 raises ConfigError.

    Yields:
        MiniBatch.
    """
    check_batch_pairs(batch_pairs)
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

# Dimension of the latent space both generators map into feature space.
LATENT_DIM = 16

# gen_localization's square image side, its background features' noise
# scale, and the box samplers' bounds: a jittered box moves each edge by
# at most JITTER_MAX_SHIFT and keeps IoU >= JITTER_MIN_IOU with its
# ground truth; a background box has IoU < BACKGROUND_MAX_IOU with it.
IMAGE_SIZE = 100.0
BG_NOISE_SIGMA = 0.02
JITTER_MAX_SHIFT = 3.0
JITTER_MIN_IOU = 0.55
BACKGROUND_MAX_IOU = 0.3


@dataclass
class SyntheticData:
    x: FeatureSet
    y: FeatureSet
    graph: CorrespondenceGraph
    x_labels: np.ndarray
    y_labels: np.ndarray


def _check_noise_sigma(noise_sigma):
    """Raise ConfigError unless noise_sigma is finite and >= 0: a NaN or
    infinite scale would write non-finite features."""
    if not 0.0 <= noise_sigma < float("inf"):
        raise ConfigError(
            f"noise_sigma must be finite and >= 0, got {noise_sigma}")


def gen_synthetic(num_clusters, images_per_cluster, sents_per_image,
                  feat_dim_x, feat_dim_y, noise_sigma, seed):
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
    _check_noise_sigma(noise_sigma)
    rng = np.random.default_rng(seed)
    latents = rng.normal(size=(num_clusters, LATENT_DIM))
    latents /= np.linalg.norm(latents, axis=1, keepdims=True)
    map_x = rng.normal(size=(LATENT_DIM, feat_dim_x)) / np.sqrt(LATENT_DIM)
    map_y = rng.normal(size=(LATENT_DIM, feat_dim_y)) / np.sqrt(LATENT_DIM)

    x_ids, y_ids, pairs = [], [], []
    x_lat, y_lat = [], []
    x_labels, y_labels = [], []
    for c in range(num_clusters):
        for i in range(images_per_cluster):
            img_id = f"img_{c:04d}_{i:02d}"
            x_ids.append(img_id)
            x_lat.append(latents[c] + noise_sigma * rng.normal(size=LATENT_DIM))
            x_labels.append(c)
            for s in range(sents_per_image):
                sent_id = f"sent_{c:04d}_{i:02d}_{s:02d}"
                y_ids.append(sent_id)
                y_lat.append(latents[c]
                             + noise_sigma * rng.normal(size=LATENT_DIM))
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
    )


@dataclass
class LocalizationData:
    """Synthetic phrase-grounding corpus.

    ``corpus_rows`` are the proposal/GT rows that
    ``evaluation.save_corpus_file`` writes as the corpus TSV, which
    ``evaluation.load_corpus_file`` reads into a LocalizationCorpus:
    (image_id, kind "P"|"G", phrase_id, x1, y1, x2, y2, feature_row or
    None).
    ``pairs`` links ground-truth region ids to their phrase for
    first-stage training.
    """

    regions: FeatureSet
    phrases: FeatureSet
    corpus_rows: list
    pairs: list


def _jittered_box(rng, box):
    x1, y1, x2, y2 = box
    for _ in range(100):
        deltas = rng.uniform(-JITTER_MAX_SHIFT, JITTER_MAX_SHIFT, size=4)
        cand = (x1 + deltas[0], y1 + deltas[1], x2 + deltas[2], y2 + deltas[3])
        if not (0 <= cand[0] < cand[2] <= IMAGE_SIZE
                and 0 <= cand[1] < cand[3] <= IMAGE_SIZE):
            continue
        if _iou_tuple(box, cand) >= JITTER_MIN_IOU:
            return cand
    return (x1 + 1.0, y1 + 1.0, x2 + 1.0, y2 + 1.0)


def _iou_tuple(a, b):
    """IoU of two (x1, y1, x2, y2) tuples, scalar on purpose.

    The generator asks for one pair at a time (10,707 calls per
    eval_paper set-up).  ``evaluation.box_iou`` on 1 x 1 arrays gives
    the same corpus but pays numpy's per-call overhead: on a 2-vCPU
    host it took ``gen_localization`` there from 0.31 s to 0.61 s
    (median of 5), about a fifth of eval_paper's ``setup_s``.
    """
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    if inter <= 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def _background_box(rng, gt_boxes):
    for _ in range(200):
        w = rng.uniform(15.0, 35.0)
        h = rng.uniform(15.0, 35.0)
        x1 = rng.uniform(0.0, IMAGE_SIZE - w)
        y1 = rng.uniform(0.0, IMAGE_SIZE - h)
        cand = (x1, y1, x1 + w, y1 + h)
        if all(_iou_tuple(cand, gt) < BACKGROUND_MAX_IOU for gt in gt_boxes):
            return cand
    return (0.0, 0.0, 10.0, 10.0)


def gen_localization(num_phrases, images_per_phrase, feat_dim_region,
                     feat_dim_phrase, seed, jitter_per_gt=2,
                     background_per_image=6, noise_sigma=0.05,
                     bg_offset_lo=0.05, bg_offset_hi=0.25):
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
    for name, v, low in (("num_phrases", num_phrases, 1),
                         ("images_per_phrase", images_per_phrase, 1),
                         ("feat_dim_region", feat_dim_region, 1),
                         ("feat_dim_phrase", feat_dim_phrase, 1),
                         ("jitter_per_gt", jitter_per_gt, 0),
                         ("background_per_image", background_per_image, 0)):
        if v < low:
            raise ConfigError(f"{name} must be >= {low}, got {v}")
    _check_noise_sigma(noise_sigma)
    rng = np.random.default_rng(seed)
    latents = rng.normal(size=(num_phrases, LATENT_DIM))
    latents /= np.linalg.norm(latents, axis=1, keepdims=True)
    off_dir = rng.normal(size=LATENT_DIM)
    off_dir /= np.linalg.norm(off_dir)
    map_region = rng.normal(size=(LATENT_DIM, feat_dim_region)) / np.sqrt(LATENT_DIM)
    map_phrase = rng.normal(size=(LATENT_DIM, feat_dim_phrase)) / np.sqrt(LATENT_DIM)

    phrase_ids = [f"phrase_{p:03d}" for p in range(num_phrases)]
    phrase_lat = latents + noise_sigma * 0.2 * rng.normal(
        size=(num_phrases, LATENT_DIM))
    region_ids = []
    region_lat = []
    corpus_rows = []
    pairs = []

    def add_region(rid, lat):
        region_ids.append(rid)
        region_lat.append(lat)
        return len(region_ids) - 1

    for p in range(num_phrases):
        for i in range(images_per_phrase):
            image_id = f"im_{p:03d}_{i:02d}"
            side_w = rng.uniform(22.0, 40.0)
            side_h = rng.uniform(22.0, 40.0)
            gx1 = rng.uniform(0.0, IMAGE_SIZE - side_w)
            gy1 = rng.uniform(0.0, IMAGE_SIZE - side_h)
            gt = (gx1, gy1, gx1 + side_w, gy1 + side_h)
            gt_row = add_region(
                f"reg_{p:03d}_{i:02d}_gt",
                latents[p] + noise_sigma * rng.normal(size=LATENT_DIM),
            )
            corpus_rows.append((image_id, "G", phrase_ids[p]) + gt + (gt_row,))
            corpus_rows.append((image_id, "P", phrase_ids[p]) + gt + (gt_row,))
            pairs.append((region_ids[gt_row], phrase_ids[p]))
            for j in range(jitter_per_gt):
                jbox = _jittered_box(rng, gt)
                jrow = add_region(
                    f"reg_{p:03d}_{i:02d}_j{j}",
                    latents[p] + noise_sigma * rng.normal(size=LATENT_DIM),
                )
                corpus_rows.append(
                    (image_id, "P", phrase_ids[p]) + jbox + (jrow,))
            for b in range(background_per_image):
                bbox = _background_box(rng, [gt])
                offset = rng.uniform(bg_offset_lo, bg_offset_hi)
                brow = add_region(
                    f"reg_{p:03d}_{i:02d}_b{b}",
                    latents[p] + offset * off_dir
                    + BG_NOISE_SIGMA * rng.normal(size=LATENT_DIM),
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
    )
