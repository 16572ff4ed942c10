"""Task heads: node classification and hyperlink prediction.

Both tasks consume propagated features and train only a small MLP,
through one shared epoch loop.  Model selection is by validation
metric; test labels are touched once, after the epoch loop, on the
snapshot taken at the best validation epoch.  The hyperlink pipeline
additionally proves (by the structure digest its operator carries) that
propagation saw only train+val structure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Hypergraph, LabelVector, _feature_matrix, _index_vector, _positive_integers
from .core import _structure_digest, incidence_matrix
from .errors import (
    BoundsError,
    ContractViolation,
    DimensionError,
    DomainError,
    NumericalError,
    SamplingError,
)
from .nn import (
    AdamState,
    MlpParams,
    TrainConfig,
    _head_threads,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
    sigmoid_bce,
    softmax_cross_entropy,
)
from .propagation import PropagatedFeatures

__all__ = [
    "Split",
    "HyperlinkDataset",
    "Metrics",
    "make_split",
    "negative_sample",
    "pool_candidates",
    "auc",
    "train_node_classifier",
    "train_hyperlink_predictor",
    "trainval_adjacency_hash",
]


@dataclass(frozen=True)
class Split:
    """Disjoint 1-d train/val/test index sets; a nonempty part holds integers."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "val", "test"):
            part = _index_vector(getattr(self, name), f"split part {name}")
            object.__setattr__(self, name, np.sort(part))
        every = np.sort(np.concatenate([self.train, self.val, self.test]))
        if np.any(every[1:] == every[:-1]):
            raise DomainError("split parts must be pairwise disjoint")


def make_split(size: int, seed: int) -> Split:
    """Seeded shuffle, then contiguous 50/25/25 train/val/test partition.

    Val and test sizes are floored; the remainder goes to train, so
    every index is used exactly once.
    """
    if not _positive_integers([size]):
        raise DomainError(f"split size must be a positive integer, got {size!r}")
    if not _positive_integers([seed], 0):
        raise DomainError(f"split seed must be a nonnegative integer, got {seed!r}")
    n_val = n_test = size // 4
    n_train = size - n_val - n_test
    perm = np.random.default_rng(seed).permutation(size)
    return Split(
        train=perm[:n_train],
        val=perm[n_train : n_train + n_val],
        test=perm[n_train + n_val :],
    )


@dataclass(frozen=True)
class HyperlinkDataset:
    """Real hyperedges plus their corruptions: negative i corrupts
    positive ``source[i]``, and its members of that positive are the
    ones it kept.  Both are hypergraphs over the same n nodes.
    """

    positives: Hypergraph
    negatives: Hypergraph
    source: np.ndarray

    def __post_init__(self):
        pos, neg, source = self.positives, self.negatives, _index_vector(self.source, "source")
        if len(source) != neg.m:
            raise DimensionError(f"{len(source)} source entries for {neg.m} negatives")
        if source.size and (source.min() < 0 or source.max() >= pos.m):
            raise BoundsError(f"source ids must lie in [0, {pos.m})")
        if neg.n != pos.n:
            raise DimensionError(f"negatives over {neg.n} nodes, positives over {pos.n}")
        object.__setattr__(self, "source", source)


def negative_sample(h: Hypergraph, alpha: float, beta: int, seed: int) -> HyperlinkDataset:
    """Corrupt each hyperedge ``beta`` times, keeping an alpha fraction.

    round(alpha * |e|) members survive (round-half-to-even); the rest
    are redrawn uniformly from outside the hyperedge, without
    replacement.  A draw that equals a real hyperedge (one of its own
    size) is retried up to 100 times before giving up; a hyperedge
    whose every member survives (an empty one included) has no
    corruption, and is refused before any draw.  Edges of one
    size are corrupted together, so the cost is O(sum |e| * beta),
    independent of n.  Negatives come out edge-major, then by draw, and
    each group's draws are written straight into their hypergraph's arrays.
    """
    _check_corruption(alpha, beta)
    if not _positive_integers([seed], 0):
        raise DomainError(f"sampling seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    sizes = np.diff(h.indptr)
    source = np.repeat(np.arange(h.m, dtype=np.int64), beta)
    indptr, indices = _rows(h, source)  # copies of the sources; each group's draws overwrite them
    failures: dict[int, str] = {}
    for size in np.unique(sizes).tolist():
        ids = np.flatnonzero(sizes == size)
        keep = int(round(alpha * size))
        edge = int(ids[0])
        if keep == size:
            failures[edge] = f"hyperedge {edge}: alpha {alpha} keeps all {size} members"
            continue
        if h.n - size < size - keep:
            failures[edge] = (
                f"hyperedge {edge}: only {h.n - size} replacement nodes for {size - keep} slots"
            )
            continue
        members = h.indices[h.indptr[ids][:, None] + np.arange(size)]
        rows = np.repeat(members, beta, axis=0)
        cands = _corrupt(rows, keep, h.n, rng)
        pending = np.flatnonzero(_collides(cands, members))
        for _attempt in range(99):
            if pending.size == 0:
                break
            cands[pending] = _corrupt(rows[pending], keep, h.n, rng)
            pending = pending[_collides(cands[pending], members)]
        if pending.size:  # rows are edge-major: the first is the lowest edge
            edge = int(ids[pending[0] // beta])
            failures[edge] = f"hyperedge {edge}: no collision-free corruption in 100 tries"
            continue
        slots = (ids[:, None] * beta + np.arange(beta)).ravel()
        indices[indptr[slots][:, None] + np.arange(size)] = cands
    if failures:
        raise SamplingError(failures[min(failures)])
    return HyperlinkDataset(h, Hypergraph(n=h.n, indptr=indptr, indices=indices), source)


def _check_corruption(alpha: float, beta: int) -> None:
    """The ranges `negative_sample` accepts; `load_config` refuses a
    config's negative section by this same rule."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"corruption alpha must lie in [0, 1], got {alpha}")
    if not _positive_integers([beta]):
        raise DomainError(f"negatives per positive must be a positive integer, got {beta!r}")


def _corrupt(rows: np.ndarray, keep: int, n: int, rng: np.random.Generator):
    """One corruption of every row of ``rows`` (sorted edges of one size).

    Returns the sorted candidates, one per row.  The kept members are a
    uniform ``keep``-subset (the first columns of a random
    permutation per row).  The i-th replacement is a rank in the
    complement of the edge and the earlier replacements, drawn from
    [0, n - |e| - i) and shifted past each excluded value in ascending
    order, so the replacements are distinct, outside the edge, and
    uniform without replacement.
    """
    count, size = rows.shape
    pick = rng.random((count, size)).argsort(axis=1)[:, :keep]
    kept = np.take_along_axis(rows, pick, axis=1)
    ranks = np.empty((count, size - keep), dtype=np.int64)
    for i in range(size - keep):
        v = rng.integers(0, n - size - i, size=count)
        for earlier in np.sort(ranks[:, :i], axis=1).T:
            v += v >= earlier
        ranks[:, i] = v
    for member in rows.T:  # complement rank -> node id, past the sorted edge
        ranks += ranks >= member[:, None]
    return np.sort(np.concatenate([kept, ranks], axis=1), axis=1)


def _collides(cands: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Whether each row of ``cands`` equals a row of ``members``, compared
    as one bytes key per row."""
    key = np.dtype((np.void, cands.itemsize * cands.shape[1]))
    return np.isin(cands.view(key).ravel(), members.view(key).ravel())


def pool_candidates(features: np.ndarray, candidates: Hypergraph) -> np.ndarray:
    """Mean-pool feature rows for each candidate node set.

    One sparse product with the transposed incidence matrix of the
    candidates (row i holds a one per member of candidate i), then each
    sum is divided by its member count in place, so the result is the
    one batch-sized array made.  A hypergraph's rows are ascending, so
    each row adds its feature rows in ascending node order and the
    result depends on the set, not on how it was listed.
    """
    x = _feature_matrix(features, candidates.n)
    counts = np.diff(candidates.indptr)
    if not counts.all():
        raise DomainError(f"candidate {int(np.argmin(counts))} is empty")
    pooled = incidence_matrix(candidates).T @ x
    pooled /= counts[:, None]
    return pooled


def auc(scores_pos: np.ndarray, scores_neg: np.ndarray) -> float:
    """Area under the ROC curve, P(pos > neg) + 0.5 P(pos = neg).

    The Mann-Whitney count: two binary searches in the sorted negatives
    give, for each positive, the negatives below it and tied with it.
    """
    pos = np.asarray(scores_pos, dtype=np.float64).ravel()
    neg = np.asarray(scores_neg, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise DomainError("AUC needs at least one score on each side")
    if np.isnan(pos).any() or np.isnan(neg).any():
        raise NumericalError("AUC is undefined for NaN scores")
    neg = np.sort(neg)
    below = int(np.searchsorted(neg, pos, "left").sum())
    ties = int(np.searchsorted(neg, pos, "right").sum()) - below
    return (below + 0.5 * ties) / (pos.size * neg.size)


@dataclass(frozen=True)
class Metrics:
    """Result of one training run; exactly one of accuracy/auc is set."""

    accuracy: float | None
    auc: float | None
    train_seconds: float


def _require_finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"non-finite {what}; the head diverged or its inputs overflow")


def _check_class_count(labels: LabelVector) -> None:
    """Refuse more classes than labeled nodes.  The head has one output
    column per class, so its logits buffer is (rows x classes) and one
    stray large label would otherwise be a huge allocation."""
    labeled = int(np.count_nonzero(labels.labels != -1))
    if labels.num_classes > labeled:
        raise DomainError(
            f"labels name {labels.num_classes} classes but only {labeled} nodes are labeled"
        )


def _require_parts(split: Split, size: int, outside: str) -> None:
    """Every part of ``split`` is nonempty and inside ``[0, size)``."""
    for part in (split.train, split.val, split.test):
        if part.size == 0:
            raise DomainError("every split part must be nonempty")
        if part.min() < 0 or part.max() >= size:
            raise BoundsError(f"split references {outside}")


def _fit(x_train, x_val, out_dim: int, loss, score, cfg: TrainConfig, out_bias=0.0):
    """The epoch loop both heads share; returns the best parameters and
    the training seconds.

    Each epoch runs a dropout forward pass over ``x_train``, takes
    ``loss(logits) -> (value, grad)``, backpropagates, steps Adam, then
    scores a forward pass over ``x_val`` with ``score(logits)``.  Both
    passes write into one run-long buffer per layer, with as many rows
    as the larger part: the backward consumes the training pass's
    hidden layers, and the validation pass then fills their leading
    rows.  So ``loss`` may write over its logits, and neither callback
    may keep them past the call.  The snapshot of the best-scoring
    epoch (earliest on ties) is kept.  A non-finite loss or validation
    logits raise NumericalError instead of steering the selection.  The
    seconds exclude the first epoch, which absorbs one-time allocation
    noise.  The output bias starts at ``out_bias``.
    """
    rng = np.random.default_rng(cfg.seed)
    params = init_mlp([x_train.shape[1], *cfg.hidden_dims, out_dim], rng)
    params.biases[-1][:] = out_bias
    state = AdamState.like(params)
    rows = max(len(x_train), len(x_val))
    buffers = [np.empty((rows, len(b))) for b in params.biases]
    best_val, best_params = -1.0, params.copy()
    epoch_times: list[float] = []
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        logits, fwd = mlp_forward(
            params, x_train, dropout=cfg.dropout, rng=rng, cache=True, buffers=buffers
        )
        value, grad = loss(logits)
        _require_finite(value, f"training loss at epoch {epoch}")
        grads_w, grads_b = mlp_backward(params, fwd, grad)
        adam_step(params, grads_w, grads_b, state, cfg)
        val_logits = mlp_forward(params, x_val, buffers=buffers)
        _require_finite(val_logits, f"validation logits at epoch {epoch}")
        val_metric = score(val_logits)
        epoch_times.append(time.perf_counter() - tic)
        if val_metric > best_val:
            best_val, best_params = val_metric, params.copy()
    return best_params, float(sum(epoch_times[1:] or epoch_times))


def train_node_classifier(
    features: np.ndarray, labels: LabelVector, split: Split, cfg: TrainConfig
) -> tuple[MlpParams, Metrics]:
    """Full-batch training of the classification head.

    Selects the epoch with the best validation accuracy and reports that
    snapshot's test accuracy.  The loss, dropout masks and backward pass
    cover the train rows alone, and selection the val rows.  Each part's
    rows are taken once, before the loop: a part that is a contiguous
    ascending run of indices is a view of ``features``, any other part a
    gathered copy.  So a caller that lays the labeled rows out in
    train|val|test order and passes a split of those local ranges trains
    on the same matrices, bit for bit, without a second copy of them.
    Test rows are read only after the loop, and unlabeled rows never.
    The loop and the test pass run inside `_head_threads`, so the
    parameters depend on neither the BLAS thread count nor the cores.
    More classes than labeled nodes is a DomainError, raised before any
    array of the head is allocated.
    """
    _check_class_count(labels)
    y = labels.labels
    x = _feature_matrix(features, len(y))
    _require_parts(split, x.shape[0], "a row outside the feature matrix")
    if np.any(y[np.concatenate([split.train, split.val, split.test])] == -1):
        raise DomainError("split contains unlabeled nodes")
    y_train, y_val = y[split.train], y[split.val]
    with _head_threads():
        best_params, seconds = _fit(
            _take_rows(x, split.train),
            _take_rows(x, split.val),
            labels.num_classes,
            lambda logits: softmax_cross_entropy(logits, y_train),
            lambda logits: float(np.mean(logits.argmax(axis=1) == y_val)),
            cfg,
        )
        test_logits = mlp_forward(best_params, _take_rows(x, split.test))
    _require_finite(test_logits, "test logits")
    test_acc = float(np.mean(test_logits.argmax(axis=1) == y[split.test]))
    return best_params, Metrics(accuracy=test_acc, auc=None, train_seconds=seconds)


def _take_rows(x: np.ndarray, part: np.ndarray) -> np.ndarray:
    """``x[part]``: a view when ``part`` (sorted, distinct, nonempty) is
    one contiguous run of indices, a gathered copy otherwise."""
    lo, hi = int(part[0]), int(part[-1]) + 1
    return x[lo:hi] if hi - lo == part.size else x[part]


def _rows(h: Hypergraph, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New, writable ``(indptr, indices)`` of ``h``'s hyperedges ``rows``, in that order."""
    sizes = np.diff(h.indptr)[rows]
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    offset = np.repeat(h.indptr[rows] - indptr[:-1], sizes)
    return indptr, h.indices[offset + np.arange(indptr[-1])]


def _trainval_hypergraph(data: HyperlinkDataset, split: Split) -> Hypergraph:
    """The hypergraph the hyperlink pipeline's operator may see: the
    train+val positives only, in ascending index order, over all n nodes."""
    indptr, indices = _rows(data.positives, np.union1d(split.train, split.val))
    return Hypergraph(n=data.positives.n, indptr=indptr, indices=indices)


def trainval_adjacency_hash(data: HyperlinkDataset, split: Split) -> str:
    """Structure digest of the train+val positives, the hypergraph the
    hyperlink pipeline's operator must come from.  Propagated features
    carry their operator's digest, so the check builds no operator."""
    return _structure_digest(_trainval_hypergraph(data, split))


def _split_candidates(data: HyperlinkDataset, part: np.ndarray) -> tuple[Hypergraph, np.ndarray]:
    """The positives in ``part`` (in ``part`` order), then the negatives
    whose source is in ``part`` (in sampling order), as one hypergraph,
    with targets 1.0 and 0.0."""
    pos_ptr, pos_ind = _rows(data.positives, part)
    neg_ptr, neg_ind = _rows(data.negatives, np.flatnonzero(np.isin(data.source, part)))
    indptr = np.concatenate([pos_ptr, pos_ptr[-1] + neg_ptr[1:]])
    indices = np.concatenate([pos_ind, neg_ind])
    targets = np.repeat([1.0, 0.0], [len(part), len(neg_ptr) - 1])
    return Hypergraph(n=data.positives.n, indptr=indptr, indices=indices), targets


def train_hyperlink_predictor(
    features: PropagatedFeatures, data: HyperlinkDataset, split: Split, cfg: TrainConfig
) -> tuple[MlpParams, Metrics]:
    """Full-batch training of the hyperlink scorer.

    The split indexes the positives; each negative follows its source.
    The output bias starts at the train targets' prior log-odds log(P/N),
    not at a score of 0.5 for all.  Selection is by validation AUC.  The
    test candidates are pooled and scored once, after the loop, once the
    train and val pools are freed.  Raises ContractViolation unless
    ``features`` carry the structure digest of exactly the train+val
    positives (test edges must not leak into message passing),
    DomainError when no negative follows a train positive, and
    NumericalError on a non-finite loss, logits or scores.  The loop and
    the test pass run inside `_head_threads`, as the classifier's do.
    """
    _require_parts(split, data.positives.m, "a positive outside the dataset")
    if features.structure != trainval_adjacency_hash(data, split):
        raise ContractViolation(
            "features were propagated over an adjacency that is not the train+val positives"
        )
    x = features.matrix
    train_cands, train_t = _split_candidates(data, split.train)
    if train_t.all():
        raise DomainError("the train part has no negatives, so its prior log-odds is undefined")
    with _head_threads():
        # only the pooled rows are read, so each candidate set goes once pooled
        x_train = pool_candidates(x, train_cands)
        del train_cands
        x_val = pool_candidates(x, _split_candidates(data, split.val)[0])
        # a part's candidates start with its positives, so slicing splits its scores
        best_params, seconds = _fit(
            x_train,
            x_val,
            1,
            lambda logits: sigmoid_bce(logits, train_t),
            lambda logits: auc(logits[: len(split.val)], logits[len(split.val) :]),
            cfg,
            out_bias=np.log(len(split.train) / (len(train_t) - len(split.train))),
        )
        del x_train, x_val
        x_test = pool_candidates(x, _split_candidates(data, split.test)[0])
        test_scores = mlp_forward(best_params, x_test)
    _require_finite(test_scores, "test scores")
    test_auc = auc(test_scores[: len(split.test)], test_scores[len(split.test) :])
    return best_params, Metrics(accuracy=None, auc=test_auc, train_seconds=seconds)
