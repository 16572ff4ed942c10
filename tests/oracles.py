"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (entrywise loops,
dense matrix powers, pairwise comparisons) and deliberately shares no
code with the package: when a test compares the two, it compares two
genuinely different routes to the same quantity.
"""

from __future__ import annotations

import numpy as np

from hyperprop.errors import DomainError


def dense_incidence(h) -> np.ndarray:
    inc = np.zeros((h.n, h.m))
    for k, members in enumerate(h.edges):
        for v in members:
            inc[v, k] = 1.0
    return inc


def node_degrees(h) -> np.ndarray:
    d = np.array([sum(1 for e in h.edges if v in e) for v in range(h.n)], dtype=float)
    d[d == 0] = 1.0
    return d


def edge_degrees(h) -> np.ndarray:
    d = np.array([len(e) for e in h.edges], dtype=float)
    d[d == 0] = 1.0
    return d


def bfs_khop(h, source: int, k: int) -> set[int]:
    """Level-by-level expansion over full hyperedge scans (no pruning)."""
    dist = {source: 0}
    current = {source}
    for level in range(1, k + 1):
        nxt = set()
        for e in h.edges:
            if any(v in current for v in e):
                nxt.update(e)
        for v in nxt:
            if v not in dist:
                dist[v] = level
        current = current | nxt
    return {v for v, d in dist.items() if 1 <= d <= k}


def clique_expansion_entrywise(h) -> np.ndarray:
    """Sum of inverse hyperedge sizes over shared hyperedges, zero diagonal."""
    de = edge_degrees(h)
    w = np.zeros((h.n, h.n))
    for i in range(h.n):
        for j in range(h.n):
            if i == j:
                continue
            w[i, j] = sum(1.0 / de[k] for k, e in enumerate(h.edges) if i in e and j in e)
    return w


def unignn_entrywise(h, gamma: float) -> np.ndarray:
    dv, de = node_degrees(h), edge_degrees(h)
    dtilde = np.array(
        [sum(dv[v] for v in e) / de[k] if e else 1.0 for k, e in enumerate(h.edges)]
    )
    w = np.zeros((h.n, h.n))
    for i in range(h.n):
        for j in range(h.n):
            w[i, j] = (1.0 - gamma) * sum(
                1.0 / (np.sqrt(dv[i]) * np.sqrt(dtilde[k]) * de[k])
                for k, e in enumerate(h.edges)
                if i in e and j in e
            )
    return w


def deephgnn_entrywise(h, gamma: float) -> np.ndarray:
    dv, de = node_degrees(h), edge_degrees(h)
    w = np.zeros((h.n, h.n))
    for i in range(h.n):
        for j in range(h.n):
            w[i, j] = (1.0 - gamma) * sum(
                1.0 / (np.sqrt(dv[i]) * np.sqrt(dv[j]) * de[k])
                for k, e in enumerate(h.edges)
                if i in e and j in e
            )
    return w


def star_entrywise(h) -> np.ndarray:
    dv, de = node_degrees(h), edge_degrees(h)
    w = np.zeros((h.n, h.n))
    for i in range(h.n):
        for j in range(h.n):
            w[i, j] = sum(
                1.0 / (dv[i] * de[k]) for k, e in enumerate(h.edges) if i in e and j in e
            )
    return w


def normalize_entrywise(w: np.ndarray) -> np.ndarray:
    wt = w + np.eye(w.shape[0])
    d = wt.sum(axis=1)
    return wt / np.sqrt(np.outer(d, d))


def propagation_polynomial(atilde: np.ndarray, alpha: float, layers: int) -> np.ndarray:
    """(1-a)^L A^L + a * sum_{l<L} (1-a)^l A^l via matrix_power."""
    n = atilde.shape[0]
    s = (1.0 - alpha) ** layers * np.linalg.matrix_power(atilde, layers)
    for l in range(layers):
        s += alpha * (1.0 - alpha) ** l * np.linalg.matrix_power(atilde, l)
    return s


def reference_recursion(w: np.ndarray, x: np.ndarray, gamma: float, layers: int) -> np.ndarray:
    """X^l = (1-g) W X^{l-1} + g X^0, evaluated densely."""
    z = x.copy()
    for _ in range(layers):
        z = (1.0 - gamma) * w @ z + gamma * x
    return z


def auc_bruteforce(pos, neg) -> float:
    """All positive/negative pairs; ties count half."""
    pos, neg = np.asarray(pos, float).ravel(), np.asarray(neg, float).ravel()
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def masked_softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray):
    """Mean NLL over ``mask`` rows; also the gradient w.r.t. logits.

    Rows outside the mask contribute nothing (zero gradient); the
    softmax is stabilized by row-max subtraction.

    A verbatim copy of the package's loss before it dropped ``mask``;
    the loss over gathered rows must match it bit for bit.
    """
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise DomainError("loss over an empty index set is undefined")
    z = logits[mask]
    y = np.asarray(labels, dtype=np.int64)[mask]
    if y.min() < 0 or y.max() >= logits.shape[1]:
        raise DomainError("masked labels must be valid class indices")
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_norm - shifted[np.arange(len(y)), y]))
    probs = np.exp(shifted - log_norm[:, None])
    probs[np.arange(len(y)), y] -= 1.0
    grad = np.zeros_like(logits)
    grad[mask] = probs / len(y)
    return loss, grad


def two_array_softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean NLL over every row and its gradient, as the package's loss
    computed them with two batch-sized arrays (the shifted logits, which
    become the gradient, and their ``exp``); ``logits`` is not written.
    The in-place, block-wise loss must match it bit for bit."""
    y = np.asarray(labels, dtype=np.int64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(len(y))
    loss = float(np.mean(log_norm - shifted[rows, y]))
    shifted -= log_norm[:, None]
    np.exp(shifted, out=shifted)
    shifted[rows, y] -= 1.0
    shifted /= len(y)
    return loss, shifted


def copying_sigmoid_bce(logits: np.ndarray, targets: np.ndarray):
    """Mean BCE on raw logits and its gradient in the logits' shape, as
    the package's loss computed them from whole-batch temporaries;
    ``logits`` is not written.  The in-place, block-wise loss must match
    it bit for bit."""
    z = np.asarray(logits, dtype=np.float64).ravel()
    t = np.asarray(targets, dtype=np.float64).ravel()
    e = np.exp(-np.abs(z))
    loss = float(np.mean(np.maximum(z, 0.0) - z * t + np.log1p(e)))
    sig = np.where(z >= 0, 1.0, e) / (1.0 + e)
    grad = (sig - t) / z.size
    return loss, grad.reshape(np.shape(logits))


def finite_difference_grads(loss_fn, params, h: float = 1e-5):
    """Central differences of ``loss_fn()`` w.r.t. every entry of every
    array in ``params`` (mutated in place and restored)."""
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            g.ravel()[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def random_hypergraph_edges(rng, n_range=(4, 30), m_range=(1, 20), size_range=(2, 6)):
    """Raw (n, edge list) pairs for building test instances."""
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    edges = []
    for _ in range(m):
        size = int(rng.integers(size_range[0], min(size_range[1], n) + 1))
        edges.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
    return n, edges
