"""Data model: partitioned datasets, pair indexing, permuted samples, features.

Variables are split into two fixed groups.  Model parameters live on
unordered variable pairs ``(u, v)`` with ``u < v``, each pair carrying a
block of ``block_dim`` coefficients.  Flat parameter vectors are laid out
pair-major in the lexicographic order of ``pairs``.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError


@dataclass(frozen=True)
class Partition:
    """Two disjoint ordered groups of column indices covering 0..m-1."""

    group1: tuple[int, ...]
    group2: tuple[int, ...]

    def __post_init__(self):
        g1 = tuple(int(i) for i in self.group1)
        g2 = tuple(int(i) for i in self.group2)
        object.__setattr__(self, "group1", g1)
        object.__setattr__(self, "group2", g2)
        if not g1 or not g2:
            raise DimensionError("both groups must be nonempty")
        seen = set(g1) | set(g2)
        if len(seen) != len(g1) + len(g2):
            raise DimensionError("groups must be disjoint without repeats")
        if seen != set(range(len(seen))):
            raise DimensionError("groups must cover exactly 0..m-1")

    @property
    def m(self) -> int:
        return len(self.group1) + len(self.group2)

    @cached_property
    def group2_mask(self) -> np.ndarray:
        mask = np.zeros(self.m, dtype=bool)
        mask[list(self.group2)] = True
        mask.setflags(write=False)
        return mask

    def is_cross(self, u: int, v: int) -> bool:
        """True when u and v fall in different groups."""
        return bool(self.group2_mask[u] != self.group2_mask[v])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable (n, m) sample matrix with its variable partition.

    The data are categorical exactly when ``categories`` is given: then every
    value must be an integer code in [0, categories).  Every value must be
    finite; the error names the first bad sample row and column (both 1-based).
    """

    samples: np.ndarray
    partition: Partition
    categories: int | None = None

    def __post_init__(self):
        x = np.array(self.samples, dtype=np.float64, order="C")
        if x.ndim != 2:
            raise DimensionError(f"samples must be 2-d, got ndim={x.ndim}")
        if x.shape[0] < 2:
            raise DimensionError("need at least two samples")
        if x.shape[1] != self.partition.m:
            raise DimensionError(
                f"samples have {x.shape[1]} columns, partition covers {self.partition.m}"
            )
        bad = ~np.isfinite(x)
        if bad.any():
            i, j = (int(k) for k in np.argwhere(bad)[0])
            raise DomainError(f"non-finite value {x[i, j]} at sample row {i + 1}, column {j + 1}")
        if self.categories is not None:
            if self.categories < 2:
                raise DomainError("categorical data needs categories >= 2")
            if np.any(x != np.floor(x)):
                raise DomainError("categorical data must be integer-coded")
            if x.min() < 0 or x.max() >= self.categories:
                raise DomainError(
                    f"categorical codes must lie in [0, {self.categories})"
                )
        x.setflags(write=False)
        object.__setattr__(self, "samples", x)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def m(self) -> int:
        return self.samples.shape[1]

    def subset(self, rows) -> "Dataset":
        """New dataset over the given row indices (same partition and categories)."""
        return Dataset(self.samples[np.asarray(rows)], self.partition, self.categories)


@dataclass(frozen=True)
class PairIndex:
    """Lexicographic index of the pairs u < v over m variables, and their
    flat-vector layout.

    Positions and counts are closed-form and the pair arrays come from
    ``np.triu_indices``; the tuple of pairs is built only when asked for.
    """

    m: int
    block_dim: int = 1

    def __post_init__(self):
        if self.m < 2:
            raise DimensionError(f"need at least two variables, got m={self.m}")
        if self.block_dim < 1:
            raise DimensionError(f"block_dim must be >= 1, got {self.block_dim}")

    @cached_property
    def n_pairs(self) -> int:
        return self.m * (self.m - 1) // 2

    @cached_property
    def dim(self) -> int:
        return self.n_pairs * self.block_dim

    @property
    def u_idx(self) -> np.ndarray:
        return self._triu[0]

    @property
    def v_idx(self) -> np.ndarray:
        return self._triu[1]

    @cached_property
    def _triu(self) -> tuple[np.ndarray, np.ndarray]:
        triu = np.triu_indices(self.m, k=1)
        for idx in triu:
            idx.setflags(write=False)
        return triu

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.u_idx.tolist(), self.v_idx.tolist()))

    def position(self, pair) -> int:
        """Position of (u, v) in the index; any other pair raises ``DimensionError``."""
        try:
            u, v = (operator.index(i) for i in pair)
        except (TypeError, ValueError):
            raise DimensionError(f"pair {pair} is not in the index") from None
        if not 0 <= u < v < self.m:
            raise DimensionError(f"pair {pair} is not in the index")
        # rows 0..u-1 hold m - 1 - r pairs each
        return u * (self.m - 1) - u * (u - 1) // 2 + v - u - 1

    def slice_of(self, pair) -> slice:
        """Flat-vector slice of one block; accepts a pair tuple or position."""
        t = pair if isinstance(pair, (int, np.integer)) else self.position(tuple(pair))
        if not 0 <= t < self.n_pairs:
            raise DimensionError(f"block position {t} out of range")
        return slice(t * self.block_dim, (t + 1) * self.block_dim)

    def cross_mask(self, partition: Partition) -> np.ndarray:
        """Boolean per-pair mask: True where the pair straddles the groups."""
        if partition.m != self.m:
            raise DimensionError("partition and index disagree on m")
        mask2 = partition.group2_mask
        return mask2[self.u_idx] != mask2[self.v_idx]


def build_pair_index(m: int, block_dim: int = 1) -> PairIndex:
    """All variable pairs u < v over m columns."""
    return PairIndex(m, block_dim)


@dataclass(frozen=True, eq=False)
class PermutedSample:
    """Hybrid sample: group-1 coordinates from row j, group-2 from row k."""

    source_j: int
    source_k: int
    value: np.ndarray


def permuted_pair(data: Dataset, j: int, k: int) -> PermutedSample:
    """Build the permuted sample x^[j,k] from two distinct dataset rows."""
    n = data.n
    if not (0 <= j < n and 0 <= k < n):
        raise IndexError(f"row indices ({j}, {k}) out of range for n={n}")
    if j == k:
        raise IndexError("permuted sample requires two distinct rows")
    mask2 = data.partition.group2_mask
    value = np.where(mask2, data.samples[k], data.samples[j])
    value.setflags(write=False)
    return PermutedSample(j, k, value)


def permuted_matrix(data: Dataset, j_idx: np.ndarray, k_idx: np.ndarray) -> np.ndarray:
    """Vectorized permuted samples: row r mixes rows j_idx[r] and k_idx[r]."""
    mask2 = data.partition.group2_mask
    return np.where(mask2[None, :], data.samples[k_idx], data.samples[j_idx])


PRODUCT = "product"
SQUARED_PRODUCT = "squared_product"
KRONECKER_DELTA = "kronecker_delta"
TABLE = "table"

_BUILTIN_KINDS = (PRODUCT, SQUARED_PRODUCT, KRONECKER_DELTA)


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Pairwise feature psi(x_u, x_v) -> R^block_dim.

    Built-in kinds are scalar (block_dim 1): product x_u*x_v, squared product
    x_u^2*x_v^2, and the match indicator 1(x_u == x_v).  ``table`` carries an
    explicit (categories, categories, block_dim) lookup for coded data, whose
    depth is the block_dim.  Bounds are declared when known.
    """

    kind: str
    bound_inf: float | None = None
    bound_l2: float | None = None
    table: np.ndarray | None = None
    categories: int | None = None

    def __post_init__(self):
        if self.kind not in _BUILTIN_KINDS + (TABLE,):
            raise DomainError(f"unknown feature kind {self.kind!r}")
        if self.kind == TABLE:
            if self.table is None:
                raise DomainError("table features need an explicit table")
            tab = np.array(self.table, dtype=np.float64)
            if tab.ndim != 3 or tab.shape[0] != tab.shape[1]:
                raise DimensionError("table must have shape (k, k, block_dim)")
            bad = ~np.isfinite(tab)
            if bad.any():
                i, j, d = (int(k) for k in np.argwhere(bad)[0])
                raise DomainError(f"non-finite table entry {tab[i, j, d]} at ({i}, {j}, {d})")
            tab.setflags(write=False)
            object.__setattr__(self, "table", tab)
            object.__setattr__(self, "categories", tab.shape[0])

    @property
    def block_dim(self) -> int:
        """Coefficients per pair: the table's depth, 1 for the built-in kinds."""
        return self.table.shape[2] if self.kind == TABLE else 1

    @classmethod
    def product(cls) -> "FeatureMap":
        return cls(PRODUCT)

    @classmethod
    def squared_product(cls) -> "FeatureMap":
        return cls(SQUARED_PRODUCT)

    @classmethod
    def kronecker_delta(cls, categories: int | None = None) -> "FeatureMap":
        return cls(KRONECKER_DELTA, bound_inf=1.0, bound_l2=1.0, categories=categories)

    @classmethod
    def from_table(cls, table) -> "FeatureMap":
        tab = np.asarray(table, dtype=np.float64)
        bound_inf = float(np.abs(tab).max())
        bound_l2 = float(np.sqrt((tab**2).sum(axis=2)).max())
        return cls(TABLE, bound_inf=bound_inf, bound_l2=bound_l2, table=tab)


def _check_codes(f: FeatureMap, values: np.ndarray):
    if not np.all(values == np.floor(values)):
        raise DomainError("categorical feature applied to non-integer values")
    if values.min() < 0 or values.max() >= f.categories:
        raise DomainError(f"categorical codes must lie in [0, {f.categories})")


def feature_eval(f: FeatureMap, x: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Evaluate one feature block on a single sample vector."""
    x = np.asarray(x, dtype=np.float64)
    u, v = pair
    if not (0 <= u < x.shape[0] and 0 <= v < x.shape[0]):
        raise DimensionError(f"pair {pair} out of range for m={x.shape[0]}")
    a, b = x[u], x[v]
    if f.kind == PRODUCT:
        return np.array([a * b])
    if f.kind == SQUARED_PRODUCT:
        return np.array([a * a * b * b])
    if f.kind == KRONECKER_DELTA:
        if f.categories is not None:
            _check_codes(f, np.array([a, b]))
        return np.array([1.0 if a == b else 0.0])
    _check_codes(f, np.array([a, b]))
    return np.array(f.table[int(a), int(b)])


def feature_values(f: FeatureMap, x_rows: np.ndarray) -> np.ndarray:
    """What ``pair_values`` combines for each sample value: x for product and
    delta, x^2 for squared product, and checked integer codes for table."""
    if f.kind == PRODUCT:
        return x_rows
    if f.kind == SQUARED_PRODUCT:
        return x_rows * x_rows
    if f.kind == KRONECKER_DELTA:
        if f.categories is not None:
            _check_codes(f, x_rows)
        return x_rows
    _check_codes(f, x_rows)
    return x_rows.astype(np.int64)


def pair_values(f: FeatureMap, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """psi(x_u, x_v) from the ``feature_values`` a of x_u and b of x_v, which
    broadcast against each other; a table adds a trailing block axis."""
    if f.kind == KRONECKER_DELTA:
        return (a == b).astype(np.float64)
    if f.kind == TABLE:
        return f.table[a, b]
    return a * b


def pair_feature_matrix(f: FeatureMap, x_rows: np.ndarray, index: PairIndex) -> np.ndarray:
    """Feature matrix over sample rows: shape (rows, n_pairs * block_dim)."""
    x_rows = np.ascontiguousarray(x_rows, dtype=np.float64)
    if x_rows.ndim != 2 or x_rows.shape[1] != index.m:
        raise DimensionError(
            f"rows have {x_rows.shape[-1] if x_rows.ndim else 0} columns, index expects {index.m}"
        )
    if f.block_dim != index.block_dim:
        raise DimensionError("feature block_dim and index block_dim differ")
    values = feature_values(f, x_rows)
    out = pair_values(f, values[:, index.u_idx], values[:, index.v_idx])
    return out.reshape(x_rows.shape[0], index.dim)


def variable_embedding(f: FeatureMap, values1: np.ndarray, values2: np.ndarray):
    """Per-variable embeddings in which every feature kind is bilinear.

    Takes the ``feature_values`` of the group-1 columns (n, m1) and of the
    group-2 columns (n, m2).  Returns ``(phi1, phi2, forms)``: ``phi1`` has
    shape (C, n, m1) and embeds the group-1 columns, ``phi2`` has shape
    (C, n, m2) for group 2, and ``forms`` has shape (block_dim, C, C), so
    that for a from group 1 and b from group 2, psi(a, b)[d] = sum over c, c'
    of phi(a)[c] forms[d, c, c'] phi(b)[c'].  phi is x for product (forms
    [[1]]), x^2 for squared product, and a one-hot code for delta (forms I_C)
    and table (forms the table).  Delta keeps only the codes seen in both
    groups, since no other code can match across them; with
    ``categories=None`` its codes are data values.
    """
    if f.kind in (PRODUCT, SQUARED_PRODUCT):
        return values1[None], values2[None], np.ones((1, 1, 1))
    if f.kind == KRONECKER_DELTA:
        codes = np.intersect1d(values1, values2)
        forms = np.eye(codes.size)[None]
    else:
        codes = np.arange(f.categories)
        forms = np.moveaxis(f.table, 2, 0)
    onehot1 = (values1[None] == codes[:, None, None]).astype(np.float64)
    onehot2 = (values2[None] == codes[:, None, None]).astype(np.float64)
    return onehot1, onehot2, forms


def observed_feature_bounds(f: FeatureMap, x_rows: np.ndarray, index: PairIndex) -> tuple[float, float]:
    """Measured (sup-norm, 2-norm) feature bounds over the given rows."""
    mat = pair_feature_matrix(f, x_rows, index)
    blocks = np.abs(mat).reshape(mat.shape[0], index.n_pairs, index.block_dim)
    bound_inf = float(blocks.max())
    bound_l2 = float(np.sqrt((blocks**2).sum(axis=2)).max())
    return bound_inf, bound_l2

