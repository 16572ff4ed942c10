"""Hypergraph container, degree bookkeeping, distances, and file ingestion.

A hypergraph is stored as one immutable CSR incidence structure, from
which degrees, the incidence matrix, the structure digest and the tuple
view are derived.  All downstream modules (expansions, propagation,
tasks) consume this type and never mutate it.
"""

from __future__ import annotations

import bisect
import hashlib
import operator
import os
import re
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import BoundsError, DimensionError, DomainError, ParseError

if TYPE_CHECKING:
    import scipy.sparse as sp

# Working-set budget of one block of streamed work, about one core's L2
# cache: `load_features` checks finiteness this many bytes of flags at a
# time, `propagate` sizes its column panels from it and `load_propagated`
# reads its payload in chunks of half of it.
_BLOCK_BYTES = 2 << 20

__all__ = [
    "Hypergraph",
    "LabelVector",
    "degrees",
    "incidence_matrix",
    "khop_neighbours",
    "load_hypergraph",
    "load_features",
    "load_labels",
    "save_hypergraph",
    "save_features",
    "save_labels",
]


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Immutable incidence structure in CSR form: hyperedge ``k`` is
    ``indices[indptr[k]:indptr[k + 1]]``, strictly ascending node ids in
    ``[0, n)``; both arrays are int64 and read-only.  Hypergraphs compare
    and hash by identity; ``len(h)`` is ``h.m``.  The sorted tuple view
    ``edges[k]`` (members of hyperedge ``k``) is built on first use.
    """

    n: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        try:
            n = _integer(self.n)
        except TypeError:
            raise DomainError(f"node count must be an integer, got n={self.n!r}") from None
        if n < 0:
            raise BoundsError(f"node count must be nonnegative, got n={n}")
        raw = np.asarray(self.indices)  # the ids before the int64 cast, for the range check
        indptr = np.array(_index_vector(self.indptr, "indptr"))  # copies, made read-only below
        wrapped = raw.astype(np.int64) if raw.dtype.kind == "u" else raw  # checked below
        indices = np.array(_index_vector(wrapped, "indices"))
        sizes = np.diff(indptr)
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(indices) or np.any(sizes < 0):
            raise DomainError("indptr must start at 0, never decrease and end at len(indices)")
        owner = np.repeat(np.arange(len(sizes)), sizes)
        wide = np.flatnonzero(raw > np.uint64(2**63 - 1)) if raw.dtype.kind == "u" else ()
        if len(wide):  # unsigned ids the int64 cast wrapped
            i = wide[0]
            raise BoundsError(
                f"hyperedge {owner[i]} contains node id {raw[i]} beyond the int64 range"
            )
        same, step = owner[1:] == owner[:-1], np.diff(indices)
        faults = (owner[1:][same & (step < 0)], owner[1:][same & (step == 0)], owner[indices < 0])
        k, fault = min(((int(o[0]), i) for i, o in enumerate(faults) if o.size), default=(0, -1))
        if fault >= 0:
            what = ("is not sorted ascending", "contains a duplicate node id",
                    f"contains negative node id {indices[indptr[k]]}")[fault]
            raise (BoundsError if fault == 2 else DomainError)(f"hyperedge {k} {what}")
        top = int(indices.max()) if indices.size else -1
        if top >= n:
            raise BoundsError(f"node id {top} out of range for declared n={n}")
        indptr.flags.writeable = indices.flags.writeable = False
        for name, value in (("n", n), ("indptr", indptr), ("indices", indices)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return len(self.indptr) - 1

    def __len__(self) -> int:
        return self.m

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return _tuple_rows(self.indptr, self.indices)

    @classmethod
    def from_edges(cls, edges, n: int | None = None) -> "Hypergraph":
        """Build a hypergraph from an iterable of integer node-id
        collections, sorting each.  A bool, float or string id is refused,
        not converted.  ``n`` defaults to one past the largest node id
        seen; passing a larger ``n`` declares isolated nodes, passing a
        smaller one is a bounds error.
        """
        members, indptr = [], [0]
        for k, edge in enumerate(edges):
            try:
                members.extend(sorted(map(_integer, edge)))
            except TypeError:
                raise DomainError(f"hyperedge {k} is not a set of integer node ids") from None
            indptr.append(len(members))
        try:
            indices = np.array(members, dtype=np.int64)
        except OverflowError:
            i = next(i for i, v in enumerate(members) if not -(2**63) <= v < 2**63)
            k = bisect.bisect_right(indptr, i) - 1
            raise BoundsError(
                f"hyperedge {k} contains node id {members[i]} beyond the int64 range"
            ) from None
        if n is None:
            n = max(int(indices.max(initial=-1)) + 1, 0)
        return cls(n=n, indptr=indptr, indices=indices)


def _integer(v) -> int:
    """``operator.index(v)``, except that a bool, which it reads as 0 or
    1, is a TypeError too: a node id, a count or a width is never a bool."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not an integer")
    return operator.index(v)


def _positive_integers(values, low: int = 1) -> bool:
    """Whether every value is an integer (by ``_integer``) of at least
    ``low``: 1 for a count or a width, 0 for a depth or a hop count."""
    try:
        return all(_integer(v) >= low for v in values)
    except TypeError:
        return False


def _index_vector(values, what: str) -> np.ndarray:
    """``values`` as a 1-d int64 array (the input itself when it already
    is one).  Anything but 1-d is a DimensionError; a nonempty array of
    bools, floats or strings is a DomainError, not converted; an
    unsigned value past the int64 range is a BoundsError, not wrapped."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DimensionError(f"{what} must be 1-d, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise DomainError(f"{what} must hold integers, got dtype {arr.dtype}")
    wide = arr[arr > np.uint64(2**63 - 1)] if arr.dtype.kind == "u" else ()
    if len(wide):
        raise BoundsError(f"{what} must fit in int64, got {wide[0]}")
    return arr.astype(np.int64, copy=False)


def _worker_pool() -> ThreadPoolExecutor:
    """A new thread pool of one worker per core this process may run on.
    Its workers run native code that releases the GIL: `propagate`'s
    sparse panels and the head's dense row panels."""
    return ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0)))


def _tuple_rows(indptr: np.ndarray, indices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    flat, bounds = indices.tolist(), indptr.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


def degrees(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Node and hyperedge degrees ``(node, edge)`` as float64.

    ``node[i]`` counts hyperedges containing node ``i`` and ``edge[k]``
    counts nodes inside hyperedge ``k``; zero entries are replaced by
    1.0 so that the D^-1 / D^-1/2 factors used by the expansions stay
    finite on isolated nodes and empty hyperedges.
    """
    node = np.maximum(np.bincount(h.indices, minlength=h.n), 1).astype(np.float64)
    edge = np.maximum(np.diff(h.indptr), 1).astype(np.float64)
    return node, edge


def incidence_matrix(h: Hypergraph) -> sp.csr_matrix:
    """0/1 node-by-hyperedge incidence as CSR (n rows, m columns); the
    hypergraph's arrays are its CSC form."""
    import scipy.sparse as sp

    data = np.ones(len(h.indices), dtype=np.float64)
    return sp.csc_matrix((data, h.indices, h.indptr), shape=(h.n, h.m)).tocsr()


def _structure_digest(h: Hypergraph) -> str:
    """sha256 of n, m, the hyperedge sizes and the members of every
    hyperedge in order: equal exactly for equal hypergraphs, in
    O(sum |e|).  Operators built from ``h`` carry it as their tag."""
    hasher = hashlib.sha256(struct.pack("<QQ", h.n, h.m))
    hasher.update(np.diff(h.indptr))
    hasher.update(h.indices)
    return hasher.hexdigest()


def khop_neighbours(h: Hypergraph, source: int, k: int) -> set[int]:
    """Nodes whose hypergraph distance from ``source`` is in [1, k].

    Distance counts the hyperedges traversed along a shortest path, so
    the 1-hop neighbourhood is the union of the source's hyperedges
    minus the source itself.  Breadth-first search over frontier sets:
    each hop reaches the members of every hyperedge that meets the last
    frontier.
    """
    try:
        source = _integer(source)
    except TypeError:
        raise DomainError(f"source node must be an integer, got {source!r}") from None
    if not 0 <= source < h.n:
        raise BoundsError(f"source node {source} out of range for n={h.n}")
    if not _positive_integers([k], 0):
        raise DomainError(f"hop count must be a nonnegative integer, got {k!r}")
    edges = _tuple_rows(h.indptr, h.indices)
    seen = frontier = {source}
    for _ in range(k):
        frontier = {u for e in edges if not frontier.isdisjoint(e) for u in e} - seen
        if not frontier:
            break
        seen |= frontier
    return seen - {source}


@dataclass(frozen=True)
class LabelVector:
    """Integer class labels with -1 as the "unlabeled" sentinel."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        labels = _index_vector(self.labels, "labels")
        object.__setattr__(self, "labels", labels)
        if not _positive_integers([self.num_classes]):
            raise DomainError(f"num_classes must be a positive integer, got {self.num_classes!r}")
        bad = labels[(labels != -1) & ((labels < 0) | (labels >= self.num_classes))]
        if bad.size:
            raise BoundsError(
                f"label {int(bad[0])} out of range for {self.num_classes} classes"
            )

    @property
    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels != -1)


# --- file ingestion -------------------------------------------------------
#
# Edge-list format: one hyperedge per nonempty line, whitespace-separated
# node ids.  An optional first line "#n=<int> m=<int>" pins the dimensions
# (useful for trailing isolated nodes).  Any other "#..." line is a comment.

_HEADER_PREFIX = "#n="
# A node id, a label or a CLI integer flag is an ASCII decimal integer.
# `int` also reads "1_0" as 10 and non-ASCII digits such as the
# Arabic-Indic three.  The parsers check a line holding "_" or a
# non-ASCII character against this pattern (on any other line `int`
# reads nothing else); the CLI checks every integer flag.
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def load_hypergraph(path: str | Path) -> Hypergraph:
    """Read a hypergraph from an edge-list file at ``path``."""
    path = Path(path)
    edges: list[list[int]] = []
    declared_n: int | None = None
    declared_m: int | None = None
    for lineno, line in _text_lines(path):
        if line.startswith("#"):
            if lineno == 1 and line.startswith(_HEADER_PREFIX):
                declared_n, declared_m = _parse_header(line, f"{path.name}:{lineno}")
            continue
        tokens = line.split()
        if not (line.isascii() and "_" not in line):
            bad = next((tok for tok in tokens if not _DECIMAL.fullmatch(tok)), None)
            if bad is not None:
                raise ParseError(f"{path.name}:{lineno}: malformed node id {bad!r}")
        members = []
        for tok in tokens:
            try:
                members.append(int(tok))
            except ValueError:
                raise ParseError(f"{path.name}:{lineno}: malformed node id {tok!r}") from None
        edges.append(members)
    if declared_m is not None and declared_m != len(edges):
        raise ParseError(
            f"{path.name}: header declares m={declared_m} but file has {len(edges)} hyperedges"
        )
    try:
        return Hypergraph.from_edges(edges, n=declared_n)
    except (BoundsError, DomainError) as exc:
        raise type(exc)(f"{path.name}: {exc}") from None


def _text_lines(path: Path):
    """(1-based line number, stripped line) for each nonblank line of a
    UTF-8 text file; bytes that are not UTF-8 are a ParseError."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path.name}: not UTF-8 text ({exc.reason})") from None


def _parse_header(line: str, where: str) -> tuple[int, int]:
    try:
        n_part, m_part = line[1:].split()
        if not (line.isascii() and "_" not in line and m_part.startswith("m=")):
            raise ValueError
        n, m = int(n_part[2:]), int(m_part[2:])  # the line starts "#n="
    except ValueError:
        raise ParseError(f"{where}: malformed header {line!r}") from None
    if n < 0 or m < 0:
        raise ParseError(f"{where}: header dimensions must be nonnegative")
    return n, m


def save_hypergraph(path: str | Path, h: Hypergraph) -> None:
    """Write the edge-list format, with an explicit dimension header.

    An empty hyperedge would be a blank line, which `load_hypergraph`
    skips, so it is a DomainError raised before the file is opened."""
    if not (sizes := np.diff(h.indptr)).all():
        raise DomainError(f"hyperedge {int(np.argmin(sizes))} is empty; edges.txt cannot hold it")
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"#n={h.n} m={h.m}\n")
        fh.writelines(" ".join(map(str, e)) + "\n" for e in _tuple_rows(h.indptr, h.indices))


def load_features(path: str | Path) -> np.ndarray:
    """Load a dense feature matrix (``.npy``) as float64, checking
    finiteness in row blocks of at most `_BLOCK_BYTES` flags, so the
    check holds no matrix-sized temporary."""
    path = Path(path)
    try:
        with path.open("rb") as fh:
            arr = np.lib.format.read_array(fh)
    except ValueError as exc:  # bad magic, short file, pickled objects
        raise ParseError(f"{path.name}: not a readable .npy file: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise ParseError(f"{path.name}: features must be real numbers, got dtype {arr.dtype}")
    if arr.ndim != 2:
        raise DimensionError(f"{path.name}: features must be 2-d, got {arr.ndim}-d")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    rows = max(1, _BLOCK_BYTES // max(1, arr.shape[1]))
    if not all(np.isfinite(arr[lo : lo + rows]).all() for lo in range(0, len(arr), rows)):
        raise DomainError(f"{path.name}: features contain non-finite entries")
    return arr


def _feature_matrix(x, n: int) -> np.ndarray:
    """``x`` as a C-ordered float64 array, refused unless it is (n, d)."""
    x = np.asarray(x, dtype=np.float64, order="C")
    if x.ndim != 2 or x.shape[0] != n:
        raise DimensionError(f"features must be ({n}, d), got {x.shape}")
    return x


def save_features(path: str | Path, x: np.ndarray) -> None:
    np.save(Path(path), np.asarray(x, dtype=np.float64))


def load_labels(path: str | Path) -> LabelVector:
    """Read one integer label per line; -1 marks an unlabeled node.  The
    class count is one past the largest label (1 when none is set).  A
    label that is not a decimal integer is a ParseError, and one past
    the int64 range a BoundsError, each naming its line."""
    path = Path(path)
    values: list[int] = []
    for lineno, line in _text_lines(path):
        if line.startswith("#"):
            continue
        try:
            if not (line.isascii() and "_" not in line):
                raise ValueError
            value = int(line)
        except ValueError:
            raise ParseError(f"{path.name}:{lineno}: malformed label {line!r}") from None
        if not -(2**63) <= value < 2**63:
            raise BoundsError(f"{path.name}:{lineno}: label {value} is beyond the int64 range")
        values.append(value)
    return _label_vector(np.array(values, dtype=np.int64))


def _label_vector(values) -> LabelVector:
    """``values`` as labels (by the index rule) of as many classes as
    one past the largest label, or 1 when no label is set."""
    labels = _index_vector(values, "labels")
    return LabelVector(labels=labels, num_classes=max(int(labels.max(initial=-1)) + 1, 1))


def save_labels(path: str | Path, y: LabelVector) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for v in y.labels:
            fh.write(f"{int(v)}\n")
