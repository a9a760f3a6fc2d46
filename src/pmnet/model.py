"""Pairwise log-linear model of the partitioned density ratio.

The unnormalized log-ratio of a sample x is score(x) = sum over pairs of
theta_t . psi(x_u, x_v).  The normalizer is estimated self-consistently as
the mean of exp(score) over permuted two-sample recombinations x^[j,k]
(group 1 from row j, group 2 from row k, j != k), so the fitted ratio
averages to one over those pairs by construction.

The fitted objective is

    nll(theta) = -(1/n) sum_i score(x_i) + log normalizer_hat(theta)

whose gradient is the permuted-pair softmax-weighted feature mean minus the
per-sample feature mean.  All pair sums run in the log domain.

Two backings evaluate the permuted pairs, both on the factor tables of
``PairFactors``, built from per-row within-group scores and per-variable
embeddings, in which every feature kind is bilinear; no permuted sample is
ever materialized.  ``PairScoreGrid`` scores every ordered pair as an n x n
grid, their product, and ``PairSample`` a sample of them pair by pair, as
row-wise dots.  Both expose one scoring, ``weigh``, which gives the shift
top, the sum of the pair weights w = exp(F v - top) and what the
backing keeps of w; the weighted feature sum F^T w (``weighted_sum``) and
the weighted Gram block F[:, rows]^T diag(w) F[:, cols] (``gram``) read
that.  Every evaluation here, the Hessian included, is written on those
three.  A grid whose narrower factor table has few column products
(``FUSED_MAX_PRODUCTS``) keeps only the weights' moments U; no n x n array
is kept.  Every grid's Gram block contracts the moments of w on pairs of
the narrower table's columns, gathered from U or formed from W.
"""

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .core import (
    KRONECKER_DELTA,
    TABLE,
    Dataset,
    FeatureMap,
    PairIndex,
    Partition,
    build_pair_index,
    feature_values,
    observed_feature_bounds,
    pair_feature_matrix,
    pair_values,
    permuted_matrix,
    variable_embedding,
)
from .errors import DimensionError, NumericError, SizeError

# floats in each temporary of a Hessian panel (2 MB)
GRAM_PANEL_FLOATS = 1 << 18
# The grid is weighed straight into its moments (``PairScoreGrid.weigh``)
# while the narrower factor table has at most this many symmetric column
# products.  Whole lambda paths at n = 400, every ordered pair, product
# feature, seeds 3 and 11: at 28 products the moments were 22-59% faster on
# short (6 points by 0.7), medium (25 by 0.9) and long (20 by 0.7) paths;
# at 66 and 136, up to 6% and 38% slower on the short and medium ones,
# though 52-77% faster on the long.
FUSED_MAX_PRODUCTS = 28
# floats per panel of scores when a fused grid is weighed (200 kB): 64 rows
# at n = 400, where 40, 81 and 163 rows took 15-88% longer per scoring
WEIGH_PANEL_FLOATS = 25_600
# The "auto" policy keeps every ordered pair, on the grid, while the n(n-1)
# ordered pairs number at most this many times its cap; past that it samples
# cap pairs.  It stays so that the same pairs are drawn.  It was measured
# against a sample's dense feature rows, since deleted, on whole lambda paths
# at n = 400 (2|6 with sq and product features, 10|10 with product on a short
# and a long path): at density 1/5 the grid was 12-73% faster in all four, at
# 1/6 12% slower in one, at 1/8 10-74% slower in three.  Measuring it against
# a sample on the factors waits for a benchmark workload that samples.
GRID_MAX_SPARSITY = 5


@dataclass(frozen=True)
class PairPolicy:
    """How permuted pairs are enumerated for the normalizer estimate.

    "all_ordered" uses every ordered pair j != k.  "auto" (default) does the
    same while the n(n-1) ordered pairs number at most ``GRID_MAX_SPARSITY``
    times ``cap`` (with the default cap, up to n = 447), and otherwise draws
    ``cap`` distinct ordered pairs with ``seed``.  Neither materializes
    permuted samples: every-pair sets are evaluated as an n x n score grid,
    and a sample pair by pair on the same factors.
    """

    kind: str = "auto"
    seed: int = 0
    cap: int = 40_000

    def __post_init__(self):
        if self.kind not in ("auto", "all_ordered"):
            raise DimensionError(f"unknown pair policy {self.kind!r}")
        if self.cap < 1:
            raise DimensionError("pair policy needs cap >= 1")
        if self.seed < 0:
            raise DimensionError(f"pair policy needs seed >= 0, got {self.seed}")

    def pair_count(self, n: int) -> int:
        """Number of ordered pairs kept for n rows."""
        total = n * (n - 1)
        return self.cap if self.kind == "auto" and total > GRID_MAX_SPARSITY * self.cap else total


def select_ordered_pairs(n: int, policy: PairPolicy | None = None):
    """Ordered index pairs (j, k), j != k, per the policy; deterministic."""
    policy = policy or PairPolicy()
    total = n * (n - 1)
    count = policy.pair_count(n)
    if count < total:
        rng = np.random.default_rng(policy.seed)
        codes = np.empty(0, dtype=np.int64)
        while codes.size < count:
            draw = rng.integers(0, total, size=2 * count, dtype=np.int64)
            codes = np.sort(np.concatenate([codes, draw]))
            # the distinct codes, as np.unique gives them, without its cost
            codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
        codes = codes[:count]
    else:
        codes = np.arange(total, dtype=np.int64)
    # code = j (n - 1) + k, less one when k > j
    j_idx = codes // (n - 1)
    rem = codes % (n - 1)
    return j_idx, rem + (rem >= j_idx)


@dataclass(frozen=True, eq=False)
class ParamBlocks:
    """Flat parameter vector with its pair-block layout."""

    flat: np.ndarray
    index: PairIndex

    def __post_init__(self):
        flat = np.array(self.flat, dtype=np.float64).ravel()
        if flat.shape[0] != self.index.dim:
            raise DimensionError(
                f"flat vector has {flat.shape[0]} entries, index dimension is {self.index.dim}"
            )
        flat.setflags(write=False)
        object.__setattr__(self, "flat", flat)

    @classmethod
    def zeros(cls, index: PairIndex) -> "ParamBlocks":
        return cls(np.zeros(index.dim), index)

    def block(self, pair) -> np.ndarray:
        return self.flat[self.index.slice_of(pair)]

    def block_norms(self) -> np.ndarray:
        return _kernels.block_norms(self.flat, self.index.block_dim)

    def nonzero_pairs(self) -> tuple[tuple[int, int], ...]:
        # exact-zero test; squaring inside a norm would underflow subnormals
        nz = np.flatnonzero((self.flat.reshape(self.index.n_pairs, -1) != 0.0).any(axis=1))
        return tuple(zip(self.index.u_idx[nz].tolist(), self.index.v_idx[nz].tolist()))


@dataclass(frozen=True)
class NormalizerEstimate:
    """Permuted-pair mean of exp(score), kept in the log domain."""

    log_value: float
    pair_count: int

    @property
    def value(self) -> float:
        return float(np.exp(self.log_value))


class PairFactors:
    """The factor tables of the permuted-pair scores and the data rows' mean
    feature row, shared by ``PairScoreGrid`` (every ordered pair) and
    ``PairSample`` (a sample of them).

    score(x^[j,k]) = s1[j] + s2[k] + sum_t phi1_t[j] M_t phi2_t[k]: s1 and s2
    are the within-group scores of rows j and k, from the within-group pairs'
    features of each data row, and the cross pairs enter through the
    per-variable embeddings of ``core.variable_embedding``.  Each term t is
    one nonzero (c, c') entry of the feature's bilinear forms, and M_t holds
    the cross-pair blocks contracted with it.  A cross pair whose first
    variable is in group 2 sees the forms transposed.

    The narrower group's rows index R: unless group 1 is the narrower, the
    groups are swapped once at construction (x^[j,k] becomes x^[k,j], the
    same pair set) and ``transposed`` is set.  A pair's score is R[j] C[:, k]
    for R, n x K, and C, K x n, K = T m1 + 2, buffers that ``_factors``
    refills for each v: R is [phi1_c for each term | 1 | within-group-1
    score], C is [M_t phi2_c' for each term | within-group-2 score | 1].

    ``data_mean`` is the data rows' mean feature row: the column means of
    s1's and s2's features, and for the cross pairs psi(x_a, x_b) of every
    group-1 variable a and group-2 variable b summed over the rows as one
    (n, m1, m2) array, so no data row's full feature row is ever built.
    """

    def __init__(self, data: Dataset, feature: FeatureMap, index: PairIndex, count: int):
        part = data.partition
        # from here on group 1 is the narrower; on a tie, the caller's group 2
        self.transposed = len(part.group1) >= len(part.group2)
        part = Partition(part.group2, part.group1) if self.transposed else part
        self.n, self.count = data.n, count
        self._data, self._feature, self._index = data, feature, index
        mask2 = part.group2_mask
        cross = index.cross_mask(part)
        first_in2 = mask2[index.u_idx]
        cols = np.arange(index.dim).reshape(index.n_pairs, index.block_dim)
        self._cols1 = cols[~cross & ~first_in2].ravel()
        self._cols2 = cols[~cross & first_in2].ravel()
        self._cols_x = cols[cross].ravel()

        pos = np.empty(index.m, dtype=np.int64)
        pos[list(part.group1)] = np.arange(len(part.group1))
        pos[list(part.group2)] = np.arange(len(part.group2))
        u, v = index.u_idx[cross], index.v_idx[cross]
        flipped = mask2[u]
        m1, m2 = len(part.group1), len(part.group2)
        # flat position of each cross pair in an m1 x m2 block matrix
        self._pq = pos[np.where(flipped, v, u)] * m2 + pos[np.where(flipped, u, v)]

        values = feature_values(feature, data.samples)
        f1, f2 = (pair_values(feature, values[:, index.u_idx[sel]], values[:, index.v_idx[sel]])
                  .reshape(self.n, -1) for sel in (~cross & ~first_in2, ~cross & first_in2))
        self.data_mean = np.empty(index.dim)
        self.data_mean[self._cols1] = f1.mean(axis=0)
        self.data_mean[self._cols2] = f2.mean(axis=0)
        values1, values2 = values[:, list(part.group1)], values[:, list(part.group2)]
        # summed over the rows one at a time, as a feature matrix's column
        # mean is, so the cross means are bit-equal to pair_feature_matrix's;
        # psi(x_b, x_a) for the pairs whose first variable is in group 2
        cross_mean = np.empty((self._pq.size, index.block_dim))
        for sel, first, second in ((~flipped, values1[:, :, None], values2[:, None, :]),
                                   (flipped, values2[:, None, :], values1[:, :, None])):
            if sel.any():
                sums = pair_values(feature, first, second).mean(axis=0)
                cross_mean[sel] = sums.reshape(m1 * m2, -1)[self._pq[sel]]
        self.data_mean[self._cols_x] = cross_mean.ravel()

        phi1, phi2, forms = variable_embedding(feature, values1, values2)
        n_emb, ones = phi1.shape[0], np.ones((self.n, 1))
        # the narrower ("inner") table, of row j, meets the weights and the
        # outer one, of row k, is summed: [phi1_c for each c | within-group-1
        # features | 1] and [phi2_c for each c | 1 | within-group-2 features]
        self._inner = inner = np.hstack([phi1.transpose(1, 0, 2).reshape(self.n, -1), f1, ones])
        self._outer = outer = np.hstack([phi2.transpose(1, 0, 2).reshape(self.n, -1), ones, f2])
        self._f1, self._f2 = inner[:, n_emb * m1 : -1], outer[:, n_emb * m2 + 1 :]
        self._n_emb = n_emb
        used = (forms != 0.0).any(axis=0)
        c1, c2 = np.nonzero(used | used.T)
        self._terms = list(zip(c1.tolist(), c2.tolist()))
        # coef[i, d, t]: weight of theta[i, d] in M_t for cross pair i
        self._coef = np.where(flipped[:, None, None], forms[:, c2, c1], forms[:, c1, c2])
        self._block_shape = (m1, m2)
        self._plan_gram(forms, c1, c2, flipped)
        # the score factors R, n x K, and C, K x n; ``_factors`` fills s1 and
        # s2.  r_inner: the inner table's column behind each of R's phi columns
        self._r_inner = r_inner = (c1[:, None] * m1 + np.arange(m1)).ravel()
        self._rows, self._cols = np.ones((self.n, r_inner.size + 2)), np.ones((r_inner.size + 2, self.n))
        self._rows[:, :-2] = inner[:, r_inner]
        self._phi_out = [outer[:, c * m2 : (c + 1) * m2] for c in c2.tolist()]
        # max|R| over the columns v leaves alone: all but the last
        self._fixed_max = float(np.abs(self._rows[:, :-1]).max())
        # shift by the score bound up to here: the largest weight is then
        # at least exp(-2 limit), and any that can move the sum is normal
        finfo = np.finfo(np.float64)
        self._shift_limit = (np.log(finfo.eps) - np.log(finfo.tiny) - np.log(self.count)) / 2

    def _factors(self, v: np.ndarray) -> float:
        """Fill C's term rows M_t phi2^T, C's within-group row and R's
        within-group column for v; return the bound max|R| max_o ||C[:, o]||_1
        on the pair scores."""
        m1, m2 = self._block_shape
        mats = np.zeros((len(self._terms), m1 * m2))
        mats[:, self._pq] = np.einsum("id,idt->ti", v[self._cols_x].reshape(self._coef.shape[:2]), self._coef)
        for t, phi in enumerate(self._phi_out):
            np.matmul(mats[t].reshape(m1, m2), phi.T, out=self._cols[t * m1 : (t + 1) * m1])
        self._rows[:, -1] = self._f1 @ v[self._cols1]
        self._cols[-2] = self._f2 @ v[self._cols2]
        # a non-finite entry of R or C makes the bound inf or NaN (initial= keeps a NaN)
        r_max = float(np.abs(self._rows[:, -1]).max(initial=self._fixed_max))
        return r_max * float(np.abs(self._cols).sum(axis=0).max())

    def _plan_gram(self, forms, c1, c2, flipped):
        """The per-column arrays and per-class tables that ``_gram_terms`` reads.

        A column's class is 0 within group 1, 1 within group 2, and
        2 + f block_dim + d for coordinate d of a cross pair, f = 1 when the
        pair's first variable is in group 2.  The class fixes the factor
        blocks its terms read and their weights; its position p base + q
        gives the offsets in those blocks: p, q the cross pair's variables
        in groups 1 and 2, or a within-group column's place among its
        group's columns (as p in group 1, as q in group 2).
        """
        (m1, m2), n_emb, bd = self._block_shape, self._n_emb, self._index.block_dim
        dim, base = self._index.dim, max(1, m2, self._cols2.size)
        self._col_class, self._col_pos = np.empty(dim, dtype=np.intp), np.empty(dim, dtype=np.intp)
        self._col_class[self._cols1], self._col_pos[self._cols1] = 0, np.arange(self._cols1.size) * base
        self._col_class[self._cols2], self._col_pos[self._cols2] = 1, np.arange(self._cols2.size)
        self._col_class[self._cols_x] = (2 + flipped[:, None] * bd + np.arange(bd)).ravel()
        p, q = np.divmod(self._pq, m2)
        self._col_pos[self._cols_x] = np.repeat(p * base + q, bd)
        # each class's terms, padded to the widest column's with zero-weight
        # terms against the columns of ones; ``on`` marks the terms that
        # take the position's offsets
        self._gram_width = width = max(1, int((self._coef != 0.0).sum(axis=2).max(initial=0)))
        shape = (2 + 2 * bd, width)
        a, b = np.full(shape, self._inner.shape[1] - 1), np.full(shape, n_emb * m2)
        coef, on = np.zeros(shape), np.zeros(shape, dtype=np.intp)
        a[0, 0], b[1, 0], coef[:2, 0], on[:2, 0] = n_emb * m1, n_emb * m2 + 1, 1.0, 1
        for k, weights in enumerate(np.concatenate([forms[:, c1, c2], forms[:, c2, c1]])):
            t = np.flatnonzero(weights)[:width]  # a class no cross pair is in may have more
            a[2 + k, : t.size], b[2 + k, : t.size] = c1[t] * m1, c2[t] * m2
            coef[2 + k, : t.size], on[2 + k, : t.size] = weights[t], 1
        self._gram_plan = (base, a, b, coef, on)

    def _gram_terms(self, cols: np.ndarray):
        """Feature columns ``cols`` as sums over their terms of
        coef[e, t] inner[:, a[e, t]] (row j) times outer[:, b[e, t]] (row k),
        from each column's class and position (``_plan_gram``); returned as
        (a, b, coef).

        A within-group column is one term against a column of ones; a cross
        column has one term per nonzero entry of its bilinear form.  Columns
        with fewer terms than the widest are padded with zero-weight terms.
        """
        base, class_a, class_b, class_coef, class_on = self._gram_plan
        kind = self._col_class[cols]
        p, q = np.divmod(self._col_pos[cols], base)
        on = class_on[kind]
        a, b = class_a[kind] + p[:, None] * on, class_b[kind] + q[:, None] * on
        return a, b, class_coef[kind]

    def _sum_from_moments(self, prod: np.ndarray, inner_sums: np.ndarray) -> np.ndarray:
        """F^T w from ``prod``, per column of C the weights against R's
        [phi1_c for each term | 1], and ``inner_sums``, group 1's
        within-group features against w's sums per row of R."""
        m1, width = self._block_shape[0], self._rows.shape[1] - 2
        out = np.empty(self._index.dim)
        out[self._cols2] = self._f2.T @ prod[:, width]
        out[self._cols1] = inner_sums
        cross = np.empty((len(self._terms), self._pq.size))
        for t, phi in enumerate(self._phi_out):
            cross[t] = (phi.T @ prod[:, t * m1 : (t + 1) * m1]).T.ravel()[self._pq]
        out[self._cols_x] = np.einsum("ti,idt->id", cross, self._coef).ravel()
        return out

    def _feature_row(self, j: int, k: int) -> np.ndarray:
        """The feature row of x^[j,k], j and k in the caller's labels."""
        x_pair = permuted_matrix(self._data, np.array([j]), np.array([k]))
        return pair_feature_matrix(self._feature, x_pair, self._index)[0]


class PairScoreGrid(PairFactors):
    """Every ordered pair j != k scored as the n x n grid R C.  The diagonal
    j == k is no permuted pair: ``scores`` fills it with -inf, and weights
    must be zero there.

    ``weigh`` scores the grid a panel of R's rows at a time and
    exponentiates each panel.  When the narrower table has at most
    ``FUSED_MAX_PRODUCTS`` symmetric column products the grid is ``fused``:
    the panels pass through one reused buffer, and each one's weights are
    multiplied by all of those products into the moments U, so no
    evaluation holds an n x n array.  Otherwise the panels are kept as the
    weights W, with group 1's rows as its rows.  ``weighted_sum`` (F^T w) needs w
    against R's [phi_c for each term | 1], which gives every cross term and
    the row sums: U's columns that pair those with the table's 1, or W^T R
    summed over the panels.  ``gram`` gives any Gram block as one
    contraction of the moments that ``_moments`` reads, from U or from W,
    with the other table's columns.
    """

    def __init__(self, data: Dataset, feature: FeatureMap, index: PairIndex):
        super().__init__(data, feature, index, data.n * (data.n - 1))
        inner, r_inner, one = self._inner, self._r_inner, self._inner.shape[1] - 1
        # the narrower table's symmetric column products, when few enough
        # that one product of w with all of them beats a pass per Hessian
        self.fused = _fuses(inner.shape[1])
        if self.fused:
            i1, i2 = np.triu_indices(inner.shape[1])
            # one row per product, so a panel's rows are a slice of its columns
            self._products = (inner[:, i1] * inner[:, i2]).T.copy()
            # column of U for each pair of narrow columns, either way round
            self._slot = np.empty((inner.shape[1],) * 2, dtype=np.intp)
            self._slot[i1, i2] = self._slot[i2, i1] = np.arange(i1.size)
            # U's columns of R's [phi_c for each term | 1], and of the
            # within-group-1 features, times the table's 1 (its last column):
            # their sums against w; the last of the first is the weights' sums
            self._first_slots = self._slot[np.append(r_inner, one), one]
            self._within_slots = self._slot[self._n_emb * self._block_shape[0] : one, one]
        # one panel buffer, and the flat position of each panel row's diagonal
        step = min(self.n, max(1, WEIGH_PANEL_FLOATS // self.n))
        self._panel = np.empty((step, self.n))
        self._diagonals = [(lo, np.arange(min(step, self.n - lo)) * (self.n + 1) + lo) for lo in range(0, self.n, step)]

    def scores(self, v: np.ndarray) -> tuple[np.ndarray, float]:
        """F v as an n x n grid in the caller's labels, row j and column k
        scoring x^[j,k], the diagonal holding -inf, and the bound on the
        magnitude of the pair scores from ``_factors``."""
        bound = self._factors(v)
        grid = (self._rows @ self._cols).T if self.transposed else self._rows @ self._cols
        np.fill_diagonal(grid, -np.inf)
        return grid, bound

    def _panels(self):
        """(lo, panel): the scores of R's rows from lo on, as many as fit
        ``WEIGH_PANEL_FLOATS``, against every row of the other side, the diagonal
        at -inf, in the grid's one panel buffer: rows of R C."""
        for lo, diagonal in self._diagonals:
            panel = np.matmul(self._rows[lo : lo + diagonal.size], self._cols, out=self._panel[: diagonal.size])
            panel.ravel()[diagonal] = -np.inf
            yield lo, panel

    def weigh(self, v: np.ndarray, guard) -> tuple[float, float, np.ndarray]:
        """(top, total, weights): the shift, and the sum and the kept form of
        the weights w = exp(scores - top) at v: the moments U on a fused
        grid, else W, the weight grid with group 1's rows as its rows.

        top is the score bound up to ``_shift_limit``, else the panels'
        maximum, each panel first handed to ``guard`` as its
        ``bad_pair_features`` when the bound is not below ``FINITE_SCORE_BOUND``.
        It is folded into C's within-group row, which meets R's ones.  Each
        panel is exponentiated into its rows of W, a new array on every call
        and never the panel buffer that ``score_range`` reuses.  On a fused
        grid it is exponentiated in place instead, and the product rows'
        columns at its rows times it are added to U^T in panel order, so U's
        bits do not depend on the number of BLAS threads; U is handed out as
        U^T's transposed view.
        """
        bound = self._factors(v)
        if bound <= self._shift_limit:
            top = bound
        else:
            top = -np.inf
            for lo, panel in self._panels():
                if not bound < FINITE_SCORE_BOUND:  # also when the bound is NaN
                    guard(self.bad_pair_features(panel, lo))
                top = max(top, float(panel.max()))
        self._cols[-2] -= top
        if not self.fused:
            w = np.empty((self.n, self.n))
            for lo, panel in self._panels():
                np.exp(panel, out=w[lo : lo + panel.shape[0]])
            return top, float(w.sum()), w
        u = np.zeros((self._products.shape[0], self.n))
        for lo, panel in self._panels():
            np.exp(panel, out=panel)
            u += self._products[:, lo : lo + panel.shape[0]] @ panel
        return top, float(u[self._first_slots[-1]].sum()), u.T

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """F^T w from the weights as ``weigh`` gives them.

        w against R's [phi1_c for each term | 1], per row of group 2, gives
        every cross term and the sums over group 1's rows, and group 1's
        within-group features are summed against w's row sums.  Both are
        U's columns that pair those with the table's 1 on a fused grid; on
        W, the first is W^T R summed over ``weigh``'s panels of rows in
        order (``_summed``)."""
        width = self._rows.shape[1] - 2
        if self.fused:
            prod = weights[:, self._first_slots]
            inner_sums = weights[:, self._within_slots].sum(axis=0)
        else:
            prod = self._summed(weights, self._rows[:, : width + 1])
            inner_sums = self._f1.T @ weights.sum(axis=1)
        return self._sum_from_moments(prod, inner_sums)

    def _summed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a^T b for a and b with a row per row of W, as products over
        ``weigh``'s panels of rows, added in order, each taking as many of b's
        columns as a panel has rows (at most 160).  That fixes the sum's order,
        not each product's bits: a 128 x 91 x 91 product (rows summed, result
        rows and columns) differs between one and two BLAS threads."""
        step, parts = self._panel.shape[0], []
        for c in range(0, b.shape[1], step):
            parts.append(a[:step].T @ b[:step, c : c + step])
            for lo in range(step, self.n, step):
                parts[-1] += a[lo : lo + step].T @ b[lo : lo + step, c : c + step]
        return parts[0] if len(parts) == 1 else np.hstack(parts)

    def _moments(self, weights: np.ndarray, a: np.ndarray, q: np.ndarray) -> np.ndarray:
        """V[o, i, k] = sum_j w_jo inner[j, a_i] inner[j, q_k] from the
        weights as ``weigh`` gives them: gathered from a fused grid's U, else
        ``_summed`` from W and the Khatri-Rao columns at the distinct a and q."""
        if self.fused:
            return weights[:, self._slot[a][:, q]]
        a_q, a_at = np.unique(a, return_inverse=True)
        v = self._summed(weights, (self._inner[:, a_q, None] * self._inner[:, None, q]).reshape(self.n, -1))
        # np.take, unlike v[:, a_at], gives V in C order
        return np.take(v.reshape(self.n, a_q.size, -1), a_at, axis=1)

    def gram(self, weights: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """F[:, rows]^T diag(w) F[:, cols] from the weights as ``weigh`` gives
        them, in one contraction of their moments V (``_moments``).

        A term pair (r, c) of two columns (``_gram_terms``) sums coef_r coef_c
        outer_r outer_c V[:, inner_r, inner_c] over the outer table's rows o.
        V at the row terms against narrow columns q, times their outer factors
        and weights, gives left[o, (r, k)]; its product (``_summed``) with the
        column terms' outer factors and weights gives each (r, k) against each
        column term, which reads its own k.  Rows come in panels.  q is a fused
        grid's whole narrow table, read as a slice, if it fits one panel, else
        the columns the terms read (each costs a general grid a product with
        W).  If those and the terms fit, one panel takes every term in order;
        else the terms, ordered by narrow column, are cut into panels of whole
        narrow columns (one with too many terms is split).  Each temporary
        holds about ``GRAM_PANEL_FLOATS`` floats, or a row's and a narrow
        column's worth.  When ``cols is rows`` fits one row panel, the columns
        reuse the rows' terms and outer side.
        """
        outer, n, width = self._outer, self.n, self._gram_width
        col_terms, narrow = self._gram_terms(cols), self._inner.shape[1]
        c_in = col_terms[0].ravel()
        row_panel = max(1, GRAM_PANEL_FLOATS // (width * max(n, cols.size)))
        per_panel = max(1, min(row_panel, rows.size))
        q_panel = max(1, GRAM_PANEL_FLOATS // (n * width * per_panel))
        whole = self.fused and narrow <= q_panel
        q, at = (np.arange(narrow), c_in) if whole else np.unique(c_in, return_inverse=True)
        term_panel = max(1, GRAM_PANEL_FLOATS // max(n, per_panel * min(q_panel, q.size)))
        panels = [(slice(None), slice(None) if whole else q, at)] if at.size else []
        if q.size > q_panel or at.size > term_panel:
            order = np.argsort(at)
            ordered, panels, lo = at[order], [], 0
            while lo < order.size:
                hi = min(lo + term_panel, int(np.searchsorted(ordered, ordered[lo] + q_panel)))
                if hi < order.size:
                    # a cut inside a narrow column moves to its start, unless it fills the panel alone
                    start = int(np.searchsorted(ordered, ordered[hi]))
                    hi = start if start > lo else hi
                panels.append((order[lo:hi], q[ordered[lo] : ordered[hi - 1] + 1], ordered[lo:hi] - ordered[lo]))
                lo = hi
        square = cols is rows and rows.size <= row_panel
        out = np.empty((rows.size, cols.size))
        for r_lo in range(0, rows.size, row_panel):
            r_in, r_out, r_coef = col_terms if square else self._gram_terms(rows[r_lo : r_lo + row_panel])
            size = len(r_in)
            side = outer[:, r_out]
            side *= r_coef
            acc = np.empty((size, c_in.size))
            for terms, q, at in panels:
                # left[o, r, k]: sum over r's terms of V[o, (r, t), k] coef outer[o]
                v = self._moments(weights, r_in.ravel(), q).reshape(n, size, width, -1)
                left = v[:, :, 0]
                left *= side[:, :, :1]
                for t in range(1, width):
                    left += v[:, :, t] * side[:, :, t : t + 1]
                del v
                left = left.reshape(n, -1)
                if square:
                    c_side = side.reshape(n, -1)[:, terms]
                else:
                    c_side = outer[:, col_terms[1].ravel()[terms]] * col_terms[2].ravel()[terms]
                prod = self._summed(c_side, left)
                del left, c_side
                # entry (column term s, r) is read at its narrow column
                acc[:, terms] = prod.reshape(prod.shape[0], size, -1)[np.arange(prod.shape[0]), :, at].T
                del prod
            out[r_lo : r_lo + size] = acc.reshape(size, -1, width).sum(axis=2)
        return out

    def score_range(self, v: np.ndarray) -> tuple[float, float]:
        """The least and the largest pair score at v, a panel at a time."""
        self._factors(v)
        ends = [(float(p.min(initial=np.inf, where=p > -np.inf)), float(p.max())) for _, p in self._panels()]
        return min(low for low, _ in ends), max(high for _, high in ends)

    def bad_pair_features(self, scores: np.ndarray, lo: int = 0) -> np.ndarray | None:
        """Rebuilt feature row of the first non-finite pair score, or None; ``scores``
        are rows from ``lo`` on of R C, diagonal excluded, whose row and
        column are (k, j) of x^[j,k] when the groups were swapped."""
        bad = ~np.isfinite(scores)
        i = np.arange(bad.shape[0])
        bad[i, lo + i] = False
        if not bad.any():
            return None
        row, col = divmod(int(np.argmax(bad)), self.n)
        return self._feature_row(*((col, lo + row) if self.transposed else (lo + row, col)))


class PairSample(PairFactors):
    """A sample of the ordered pairs, pair i being x^[pair_j[i], pair_k[i]],
    scored on the factors (``PairFactors``): one weight per pair, the dot of
    R's row and C's column at its two rows; no pair's feature row is kept.
    """

    def __init__(self, data: Dataset, feature: FeatureMap, index: PairIndex, pair_j, pair_k):
        super().__init__(data, feature, index, pair_j.size)
        self._pairs = pair_j, pair_k
        # each pair's row of R and column of C, and R's columns that v leaves
        # alone, [phi1_c for each term | 1], at its row: one row per column
        self._at = (pair_k, pair_j) if self.transposed else (pair_j, pair_k)
        self._first = np.take(self._rows[:, :-1].T, self._at[0], axis=1)

    def scores(self, v: np.ndarray) -> tuple[np.ndarray, float]:
        """F v, one entry per pair, and the bound on its magnitude from ``_factors``."""
        bound = self._factors(v)
        rows, cols = self._at
        scores = np.einsum("kp,kp->p", self._first, np.take(self._cols[:-1], cols, axis=1))
        scores += np.take(self._rows[:, -1], rows)
        return scores, bound

    def weigh(self, v: np.ndarray, guard) -> tuple[float, float, np.ndarray]:
        """(top, total, w) as the grid's ``weigh`` gives them, w one weight
        per pair, written over the scores once ``guard`` has seen them."""
        scores, bound = self.scores(v)
        if not bound < FINITE_SCORE_BOUND:  # also when the bound is NaN
            guard(self.bad_pair_features(scores))
        top = bound if bound <= self._shift_limit else float(scores.max())
        scores -= top
        np.exp(scores, out=scores)
        return top, float(scores.sum()), scores

    def weighted_sum(self, w: np.ndarray) -> np.ndarray:
        """F^T w from w's first moments, summed over the pairs in order by
        ``np.bincount``: per column of C and per row of R."""
        rows, cols = self._at
        prod = np.column_stack([np.bincount(cols, weights=c * w, minlength=self.n) for c in self._first])
        return self._sum_from_moments(prod, self._f1.T @ np.bincount(rows, weights=w, minlength=self.n))

    def gram(self, w: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """F[:, rows]^T diag(w) F[:, cols]: panels of pairs in order rebuild
        the columns from the tables (``_gram_terms``) within
        ``GRAM_PANEL_FLOATS`` floats, times sqrt(w).  Each product takes at
        most 256 pairs, added in order; a block of 150 or more columns still
        differs between one and two BLAS threads (m = 50, 40,000 pairs)."""
        sides = [self._gram_terms(rows)] if np.array_equal(rows, cols) else [self._gram_terms(rows),
                                                                             self._gram_terms(cols)]
        panel = max(1, GRAM_PANEL_FLOATS // (self._gram_width * max(rows.size, cols.size)))
        root = np.sqrt(w)
        out = np.zeros((rows.size, cols.size))
        for lo in range(0, self.count, panel):
            j, k = (at[lo : lo + panel, None, None] for at in self._at)
            feats = [np.einsum("pct,ct->pc", self._inner[j, a] * self._outer[k, b], coef) * root[lo : lo + panel, None]
                     for a, b, coef in sides]
            for o in range(0, feats[0].shape[0], 256):
                out += feats[0][o : o + 256].T @ feats[-1][o : o + 256]
        return out

    def score_range(self, v: np.ndarray) -> tuple[float, float]:
        """The least and the largest pair score at v."""
        scores = self.scores(v)[0]
        return float(scores.min()), float(scores.max())

    def bad_pair_features(self, scores: np.ndarray) -> np.ndarray | None:
        """Rebuilt feature row of the first non-finite pair score, or None."""
        bad = ~np.isfinite(scores)
        i = int(np.argmax(bad))
        return self._feature_row(self._pairs[0][i], self._pairs[1][i]) if bad[i] else None


# A pair-score bound below this leaves every score finite, so the scan for
# non-finite scores is skipped; float64 overflows near 1.8e308.
FINITE_SCORE_BOUND = 1e300


def physical_memory_bytes() -> int:
    """Physical memory of this machine, in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(what: str, need: int):
    """Raise ``SizeError`` when ``need`` bytes exceed physical memory; the
    message opens with ``what``, which says what needs them."""
    have = physical_memory_bytes()
    if need > have:
        raise SizeError(f"{what} about {need / 2**30:.1f} GiB, more than the "
                        f"{have / 2**30:.1f} GiB of physical memory")


def _fuses(width: int) -> bool:
    """Whether a grid whose narrower factor table has ``width`` columns is fused."""
    return width * (width + 1) // 2 <= FUSED_MAX_PRODUCTS


def _peak_bytes(data: Dataset, index: PairIndex, pair_count: int, f: FeatureMap) -> int:
    """Estimated peak bytes of the arrays ``ModelTerms`` builds for a dataset
    whose pair set keeps ``pair_count`` pairs: a sample when that is fewer
    than n(n - 1), else the grid.

    Counts the pair backing's largest moment.  Both backings hold the
    within-group features of every data row, a few integers of bookkeeping
    per feature column and the score factors R (n x K) and C (K x n),
    K = T min(m1, m2) + 2 for T terms.  The grid adds
    a fused grid's product table (n w(w + 1)/2 for a narrower table of w
    columns; a general grid has none) and one panel buffer of
    ``WEIGH_PANEL_FLOATS`` floats (a row, if that is more); a sample adds
    its pairs' two indices and, at each, R's K - 1 columns that v leaves
    alone.  On top of them come either the build's temporaries (those
    features' gathered operands, then the n x m1 x m2 cross-mean temporary
    next to a delta feature's boolean matches, and a sample's draws) or an
    evaluation: the Hessian's panels and, on a fused grid, the moments and
    a panel's product into them, each the size of the product table, on a
    general grid the n x n weights and the gradient's n x K sum with a
    panel's share of it, or on a sample each pair's score and weight and
    C's K - 1 entries at it.  A grid's ``gram`` holds up to six panels of
    ``GRAM_PANEL_FLOATS`` at once: the rows' outer side and their entries
    against every column term, then the moments V with their Khatri-Rao
    columns and a panel's share of them, or the left factor, the column
    factors, the product and a panel's share of it; a sample's fewer.
    """
    n, dim = data.n, index.dim
    cross = int(index.cross_mask(data.partition).sum()) * index.block_dim
    within = dim - cross
    build = max(2 * n * within, n * cross + n * cross // 8)
    g1, g2 = list(data.partition.group1), list(data.partition.group2)
    # the codes embedded; an uncoded delta embeds the values both groups hold
    shared = np.intersect1d(data.samples[:, g1], data.samples[:, g2]).size if f.kind == KRONECKER_DELTA else 1
    codes, sizes = f.categories or shared, (len(g1), len(g2))
    # every (c, c') of a table is a term; a delta's terms are its codes
    width = (codes**2 if f.kind == TABLE else codes) * min(sizes) + 2
    if pair_count < n * (n - 1):
        # ``select_ordered_pairs`` sorts its draws, up to 12 integers a pair
        held, build, evaluation = (width + 1) * pair_count, max(build, 12 * pair_count), (width + 1) * pair_count
    else:
        narrow = min(codes * k + k * (k - 1) // 2 * index.block_dim + 1 for k in sizes)
        products = n * narrow * (narrow + 1) // 2 if _fuses(narrow) else 0
        held = products + max(WEIGH_PANEL_FLOATS, n)
        evaluation = 2 * products if products else n * n + 2 * n * width
    return 8 * (8 * dim + n * within + 2 * n * width + held + max(build, evaluation + 6 * GRAM_PANEL_FLOATS))


@dataclass(eq=False)
class _Evaluated:
    """The log-sum-exp parts of one parameter point, keyed on its bytes.

    ``total`` is the sum of the weights exp(scores - top), and ``weights``
    what the backing's ``weigh`` keeps of them, never divided: a fused
    grid's moments U, a general grid's weight grid W, or a sample's weights.
    ``grad`` is filled in when the gradient is first taken.
    """

    key: bytes
    top: float
    total: float
    weights: np.ndarray
    grad: np.ndarray | None = None


class ModelTerms:
    """Cached per-dataset terms for repeated evaluations on one dataset.

    Holds the data rows' mean feature row ``mean_f`` and one pair backing:
    a ``PairSample`` of the policy's pairs when ``PairPolicy.pair_count``
    keeps fewer than the n(n - 1) ordered pairs, otherwise a
    ``PairScoreGrid`` of them all.  Both compute ``mean_f`` in their shared
    construction, bit-identical to the column mean of ``pair_feature_matrix``.
    The solver builds this once and reuses it across iterations, path
    points, and cross-validation scoring.  A dataset whose
    estimated peak (see ``_peak_bytes``; kept as ``peak_bytes``) exceeds
    physical memory raises ``SizeError`` before anything is allocated.

    Every backing is scored by its ``weigh``, and its gradient and Hessian
    are read by ``weighted_sum`` and ``gram`` from what that returned.  The
    last evaluated point is remembered with those weights (on a fused grid,
    their moments; see ``_Evaluated``), so a
    ``value_grad`` or ``hessian`` at the point whose ``value`` was just
    taken (the solver's accepted iterate), or a repeat at one whose gradient
    is known, skips the pair scoring; results are bit-identical to a fresh
    evaluation.  ``scorings`` counts the evaluations that did score the pair
    set (memo misses).

    Each scoring also bounds |score|; only a bound that is not below
    ``FINITE_SCORE_BOUND`` sends the scores through the scan that names the
    dominant block of a non-finite score.
    """

    def __init__(self, data: Dataset, feature: FeatureMap, pair_policy: PairPolicy | None = None):
        self.data = data
        self.feature = feature
        self.index = build_pair_index(data.m, block_dim=feature.block_dim)
        self.policy = pair_policy or PairPolicy()
        pair_count = self.policy.pair_count(data.n)
        self.peak_bytes = _peak_bytes(data, self.index, pair_count, feature)
        _check_memory(f"{pair_count} permuted pairs over {self.index.dim} features need", self.peak_bytes)
        if pair_count < data.n * (data.n - 1):
            self.backing = PairSample(data, feature, self.index, *select_ordered_pairs(data.n, self.policy))
        else:
            self.backing = PairScoreGrid(data, feature, self.index)
        self.mean_f = self.backing.data_mean
        self._last: _Evaluated | None = None
        self.scorings = 0

    @property
    def n_pairs_used(self) -> int:
        return self.backing.count

    @cached_property
    def log_pair_count(self) -> float:
        return float(np.log(self.n_pairs_used))

    def _check_flat(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.shape[0] != self.index.dim:
            raise DimensionError(
                f"parameter has {flat.shape[0]} entries, expected {self.index.dim}"
            )
        return flat

    def _guard_finite(self, row: np.ndarray | None, flat: np.ndarray):
        """Name the block that dominates a non-finite pair's feature row."""
        if row is None:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            contrib = row * flat
        per_block = np.abs(contrib.reshape(self.index.n_pairs, -1)).sum(axis=1)
        per_block = np.where(np.isfinite(per_block), per_block, np.inf)
        t = int(np.argmax(per_block))
        pair = (int(self.index.u_idx[t]), int(self.index.v_idx[t]))
        raise NumericError(
            f"non-finite score on a permuted pair; dominant block is pair {pair}"
        )

    def _evaluated(self, flat: np.ndarray) -> _Evaluated:
        """The remembered point if ``flat`` is it, else a freshly weighed one."""
        key = flat.tobytes()
        if self._last is None or self._last.key != key:
            # free the old pair weights before allocating new ones
            self._last = None
            self.scorings += 1
            # overflow is caught by the guard; the numpy warning is noise
            with np.errstate(over="ignore", invalid="ignore"):
                top, total, weights = self.backing.weigh(flat, lambda row: self._guard_finite(row, flat))
            self._last = _Evaluated(key, top, total, weights)
        return self._last

    def log_normalizer(self, flat: np.ndarray) -> float:
        last = self._evaluated(self._check_flat(flat))
        return last.top + float(np.log(last.total)) - self.log_pair_count

    def value(self, flat: np.ndarray) -> float:
        flat = self._check_flat(flat)
        return -float(self.mean_f @ flat) + self.log_normalizer(flat)

    def value_grad(self, flat: np.ndarray) -> tuple[float, np.ndarray]:
        """Normalized objective and its gradient in one permuted-pair pass.

        The softmax normalization divides the dim-long F^T exp(scores - top)
        by its total, not the pair weights themselves."""
        flat = self._check_flat(flat)
        last = self._evaluated(flat)
        value = -float(self.mean_f @ flat) + last.top + float(np.log(last.total)) - self.log_pair_count
        return value, self._gradient(last).copy()

    def _gradient(self, last: _Evaluated) -> np.ndarray:
        if last.grad is None:
            last.grad = self.backing.weighted_sum(last.weights) / last.total - self.mean_f
        return last.grad

    def hessian(self, flat: np.ndarray, cols: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """H[rows, cols] of the normalized objective, every row by default.

        H = F^T diag(w) F - g g^T with w the softmax pair weights and
        g = F^T w; the backing's ``gram`` gives the first term from what its
        ``weigh`` kept at the remembered point, so a Hessian at the point just
        evaluated scores nothing; every backing sums it over panels in a
        fixed order, but its products' bits can depend on the BLAS thread
        count (``PairScoreGrid._summed``).  g g^T is subtracted in chunks of
        rows of about ``GRAM_PANEL_FLOATS`` floats, so no temporary is the
        size of the result."""
        flat = self._check_flat(flat)
        last = self._evaluated(flat)
        grad = self._gradient(last)
        rows = np.arange(self.index.dim) if rows is None else rows
        out = self.backing.gram(last.weights, rows, cols)
        out /= last.total
        g_rows, g_cols = grad[rows] + self.mean_f[rows], grad[cols] + self.mean_f[cols]
        chunk = max(1, GRAM_PANEL_FLOATS // max(1, cols.size))
        for lo in range(0, rows.size, chunk):
            out[lo:lo + chunk] -= np.outer(g_rows[lo:lo + chunk], g_cols)
        return out


def check_index(index: PairIndex, data: Dataset, f: FeatureMap):
    """Raise ``DimensionError`` unless ``index`` is the pair index of the
    data's m and the feature's block_dim."""
    if index != build_pair_index(data.m, block_dim=f.block_dim):
        raise DimensionError("pair index disagrees with the dataset on m or the feature on block_dim")


def _terms_for(theta: ParamBlocks, data: Dataset, f: FeatureMap, pair_policy) -> ModelTerms:
    check_index(theta.index, data, f)
    return ModelTerms(data, f, pair_policy=pair_policy)


def unnormalized_log_ratio(theta: ParamBlocks, x: np.ndarray, f: FeatureMap) -> float:
    """score(x) = sum over pairs of theta_t . psi(x_u, x_v)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != theta.index.m:
        raise DimensionError(f"x has {x.shape[0]} entries, model expects {theta.index.m}")
    feats = pair_feature_matrix(f, x[None, :], theta.index)
    return float(feats[0] @ theta.flat)


def normalizer_hat(
    theta: ParamBlocks,
    data: Dataset,
    f: FeatureMap,
    pair_policy: PairPolicy | None = None,
) -> NormalizerEstimate:
    """Permuted-pair estimate of the ratio-model normalizer."""
    terms = _terms_for(theta, data, f, pair_policy)
    return NormalizerEstimate(terms.log_normalizer(theta.flat), terms.n_pairs_used)


def ratio_hat(theta: ParamBlocks, x: np.ndarray, norm: NormalizerEstimate, f: FeatureMap) -> float:
    """Normalized ratio-model value at x given a normalizer estimate."""
    return float(np.exp(unnormalized_log_ratio(theta, x, f) - norm.log_value))


def negative_log_likelihood(
    theta: ParamBlocks,
    data: Dataset,
    f: FeatureMap,
    pair_policy: PairPolicy | None = None,
) -> float:
    """Fitting objective, the normalized negative log-likelihood at theta."""
    terms = _terms_for(theta, data, f, pair_policy)
    return terms.value(theta.flat)


def gradient(
    theta: ParamBlocks,
    data: Dataset,
    f: FeatureMap,
    pair_policy: PairPolicy | None = None,
) -> np.ndarray:
    """Gradient of the normalized objective at theta."""
    terms = _terms_for(theta, data, f, pair_policy)
    return terms.value_grad(theta.flat)[1]


def _hessian_from_terms(terms: ModelTerms, flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    hess = terms.hessian(flat, cols, rows=cols)
    return (hess + hess.T) / 2.0


def _restrict_columns(index: PairIndex, restrict) -> np.ndarray:
    if restrict is None:
        return np.arange(index.dim)
    cols = []
    for pair in restrict:
        sl = index.slice_of(pair)
        cols.extend(range(sl.start, sl.stop))
    return np.asarray(cols, dtype=np.int64)


def hessian(
    theta: ParamBlocks,
    data: Dataset,
    f: FeatureMap,
    restrict=None,
    pair_policy: PairPolicy | None = None,
) -> np.ndarray:
    """Dense Hessian of the normalized objective, optionally block-restricted.

    The data term is linear, so this is the softmax-weighted feature
    covariance over permuted pairs, F^T diag(w) F - g g^T (positive
    semidefinite), built by ``ModelTerms.hessian`` in one call: closed form
    from the grid's factors, or a sample's feature columns rebuilt from them
    a panel of pairs at a time.  A Hessian that, with its symmetrized copy and ``terms.peak_bytes``,
    exceeds physical memory raises ``SizeError`` before it is built.
    """
    terms = _terms_for(theta, data, f, pair_policy)
    cols = _restrict_columns(theta.index, restrict)
    _check_memory(f"the {cols.size} x {cols.size} Hessian needs", terms.peak_bytes + 16 * cols.size**2)
    return _hessian_from_terms(terms, theta.flat, cols)


@dataclass(frozen=True)
class RatioBounds:
    min: float
    max: float


@dataclass(frozen=True)
class FeatureBoundReport:
    """Observed feature magnitudes next to any declared bounds."""

    observed_inf: float
    observed_l2: float
    declared_inf: float | None
    declared_l2: float | None

    @property
    def within_declared(self) -> bool:
        ok = True
        if self.declared_inf is not None:
            ok = ok and self.observed_inf <= self.declared_inf + 1e-12
        if self.declared_l2 is not None:
            ok = ok and self.observed_l2 <= self.declared_l2 + 1e-12
        return ok


@dataclass(frozen=True)
class DiagnosticsReport:
    """Measured analogues of the recovery conditions at a reference point.

    ``lambda_min`` is the smallest eigenvalue of the support-restricted
    Hessian; ``incoherence_margin`` is one minus the largest entrywise-L1
    norm of the complement-to-support Hessian alignment.  ``degenerate``
    marks a singular restricted Hessian, in which case the margin is NaN.
    A ratio bound past the float64 range is inf.
    """

    lambda_min: float
    incoherence_margin: float
    degenerate: bool
    feature_bounds: FeatureBoundReport
    ratio_bounds: RatioBounds
    support_size: int


def _pair_feature_bounds(data: Dataset, f: FeatureMap, index: PairIndex, f_data: np.ndarray) -> tuple[float, float]:
    """``observed_feature_bounds`` over the data rows, whose feature matrix
    is ``f_data``, and every permuted sample x^[j,k], j != k, in one pass
    over the data.

    A permuted sample's within-group pairs are those of a data row.  A cross
    pair (u, v) takes x_u and x_v from two rows, so over all (j, k), the
    data rows' j == k included, its feature is psi(a, b) for every value a of
    column u and b of column v.  Product and squared product peak at the
    product of the two groups' largest |value| (rounding is monotone, so that
    is the largest rounded product, bit for bit); delta is 1 when the groups
    share a value; a table peaks over the code pairs (a, b) some cross
    pair's columns hold, read as table[a, b] for u's code a.
    """
    obs_inf, obs_l2 = observed_feature_bounds(f_data, index)
    part = data.partition
    values = feature_values(f, data.samples)
    values1, values2 = values[:, list(part.group1)], values[:, list(part.group2)]
    if f.kind == TABLE:
        held = np.zeros((index.m, f.categories), dtype=bool)
        held[np.arange(index.m), values] = True
        cross = index.cross_mask(part)
        blocks = np.abs(f.table[held[index.u_idx[cross]].T @ held[index.v_idx[cross]]])
    elif f.kind == KRONECKER_DELTA:
        blocks = np.full((1, 1), float(np.intersect1d(values1, values2).size > 0))
    else:
        blocks = np.full((1, 1), np.abs(values1).max() * np.abs(values2).max())
    return max(obs_inf, float(blocks.max())), max(obs_l2, float(np.sqrt((blocks**2).sum(axis=1)).max()))


def diagnostics(
    theta_star: ParamBlocks,
    data: Dataset,
    f: FeatureMap,
    support,
    pair_policy: PairPolicy | None = None,
) -> DiagnosticsReport:
    """Measure restricted curvature, incoherence, and boundedness at theta_star.

    The Hessian columns H[:, S] of the support come from one
    ``ModelTerms.hessian`` call (closed form on the grid's factors, panels
    of a sample's pairs on the same factors); H_SS and the complement's rows are
    slices of them.  The data rows' feature matrix is built once, for the
    feature bounds and the ratio bounds.  Feature bounds cover the data rows
    and every permuted sample, whatever the pair set, from one pass over the
    data (``_pair_feature_bounds``); the ratio bounds take the data rows'
    scores and the backing's ``score_range``, which a grid reads a panel
    at a time.  When those arrays and ``terms.peak_bytes`` exceed physical
    memory, ``SizeError`` is raised before the Hessian is built.
    """
    index = theta_star.index
    support_pairs = [tuple(p) for p in support]
    if not support_pairs:
        raise DimensionError("diagnostics needs a nonempty support")
    seen = set()
    for p in support_pairs:
        t = index.position(p)
        if t in seen:
            raise DimensionError(f"support repeats pair {p}")
        seen.add(t)
    comp_pairs = [p for t, p in enumerate(index.pairs) if t not in seen]

    terms = _terms_for(theta_star, data, f, pair_policy)
    s_cols = _restrict_columns(index, support_pairs)
    # H[:, S] with the margin's solve, four dim x |S| arrays at most, and the data
    # rows' feature matrix with ``observed_feature_bounds``' two of its size
    need = terms.peak_bytes + 8 * index.dim * (4 * s_cols.size + 3 * data.n)
    _check_memory("H[:, S] needs (with the data rows' feature matrix)", need)

    # H[:, S]; rows for the complement come from the same columns
    h_cols = terms.hessian(theta_star.flat, s_cols)
    h_ss = (h_cols[s_cols] + h_cols[s_cols].T) / 2.0

    eigvals = np.linalg.eigvalsh(h_ss)
    lambda_min = float(eigvals[0])
    scale = max(float(eigvals[-1]), 1.0)
    degenerate = lambda_min <= 1e-12 * scale

    if degenerate:
        margin = float("nan")
    elif not comp_pairs:
        margin = 1.0
    else:
        # H_{pS} H_SS^{-1} for every complement pair p from one solve
        y = np.linalg.solve(h_ss, h_cols[_restrict_columns(index, comp_pairs)].T)
        worst = np.abs(y).reshape(s_cols.size, len(comp_pairs), index.block_dim).sum(axis=(0, 2)).max()
        margin = 1.0 - float(worst)

    f_data = pair_feature_matrix(f, data.samples, index)
    obs_inf, obs_l2 = _pair_feature_bounds(data, f, index, f_data)
    bounds = FeatureBoundReport(obs_inf, obs_l2, f.bound_inf, f.bound_l2)

    log_norm = terms.log_normalizer(theta_star.flat)
    scores_data = f_data @ theta_star.flat
    # every pair score passed the finite guard when the normalizer was taken
    low, high = terms.backing.score_range(theta_star.flat)
    with np.errstate(over="ignore"):  # a bound past float64 is inf
        ratios = RatioBounds(float(np.exp(min(float(scores_data.min()), low) - log_norm)),
                             float(np.exp(max(float(scores_data.max()), high) - log_norm)))

    return DiagnosticsReport(
        lambda_min=lambda_min,
        incoherence_margin=margin,
        degenerate=degenerate,
        feature_bounds=bounds,
        ratio_bounds=ratios,
        support_size=len(support_pairs),
    )
