"""Pairwise log-linear model of the partitioned density ratio.

The unnormalized log-ratio of a sample x is score(x) = sum over pairs of
theta_t . psi(x_u, x_v).  The normalizer is estimated self-consistently as
the mean of exp(score) over permuted two-sample recombinations x^[j,k]
(group 1 from row j, group 2 from row k, j != k), so the fitted ratio
averages to one over those pairs by construction.

The fitted objective is

    nll(theta) = -(1/n) sum_i score(x_i) + log normalizer_hat(theta)

whose gradient is the permuted-pair softmax-weighted feature mean minus the
per-sample feature mean.  A raw variant with an unaveraged data term is
available for reporting; it rescales the penalty by n but changes nothing
else.  All pair sums run in the log domain.

Two backings evaluate the permuted pairs.  When the pair set is every
ordered pair, ``PairScoreGrid`` scores all of them as an n x n grid built
from per-row within-group scores and per-variable embeddings, in which every
feature kind is bilinear; no permuted sample is ever materialized.  A
subsampled pair set keeps its feature rows in ``DensePairRows``.  Both
expose the pair scores F v and the weighted feature sum F^T w, and every
evaluation here is written on those two.
"""

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .core import (
    Dataset,
    FeatureMap,
    PairIndex,
    build_pair_index,
    observed_feature_bounds,
    pair_feature_matrix,
    permuted_matrix,
    variable_embedding,
)
from .errors import DimensionError, NumericError, SizeError

HESSIAN_DIM_CAP = 4096


@dataclass(frozen=True)
class PairPolicy:
    """How permuted pairs are enumerated for the normalizer estimate.

    "all_ordered" uses every ordered pair j != k.  "auto" (default) does the
    same while the n(n-1) ordered pairs number at most ``cap``, and otherwise
    draws ``cap`` distinct ordered pairs with ``seed``.  Every-pair sets are
    evaluated as an n x n score grid without materializing permuted samples.
    """

    kind: str = "auto"
    seed: int = 0
    cap: int = 40_000

    def __post_init__(self):
        if self.kind not in ("auto", "all_ordered"):
            raise DimensionError(f"unknown pair policy {self.kind!r}")
        if self.cap < 1:
            raise DimensionError("pair policy needs cap >= 1")

    def pair_count(self, n: int) -> int:
        """Number of ordered pairs kept for n rows."""
        total = n * (n - 1)
        return min(total, self.cap) if self.kind == "auto" else total


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
            codes = np.unique(np.concatenate([codes, draw]))
        codes = codes[:count]
    else:
        codes = np.arange(total, dtype=np.int64)
    j_idx = codes // (n - 1)
    rem = codes % (n - 1)
    k_idx = rem + (rem >= j_idx)
    return j_idx, k_idx


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
        nz = (self.flat.reshape(self.index.n_pairs, -1) != 0.0).any(axis=1)
        return tuple(p for p, keep in zip(self.index.pairs, nz) if keep)


@dataclass(frozen=True)
class NormalizerEstimate:
    """Permuted-pair mean of exp(score), kept in the log domain."""

    log_value: float
    pair_count: int

    @property
    def value(self) -> float:
        return float(np.exp(self.log_value))


class DensePairRows:
    """Materialized feature rows of a subsampled permuted-pair set."""

    def __init__(self, data: Dataset, feature: FeatureMap, index: PairIndex, pair_j, pair_k):
        x_perm = permuted_matrix(data, pair_j, pair_k)
        self.f_perm = pair_feature_matrix(feature, x_perm, index)
        self.count = self.f_perm.shape[0]
        # max |F| per column, from two reductions rather than an |F| temporary
        self._col_max = np.maximum(self.f_perm.max(axis=0), -self.f_perm.min(axis=0))

    def scores(self, v: np.ndarray, excluded: float = 0.0) -> tuple[np.ndarray, float]:
        """F v, one entry per pair (nothing is excluded), and a bound on its
        magnitude: |F_i v| <= sum over d of max|F[:, d]| |v_d|."""
        return self.f_perm @ v, float(self._col_max @ np.abs(v))

    def weighted_sum(self, w: np.ndarray) -> np.ndarray:
        """F^T w for pair weights shaped like ``scores``."""
        return self.f_perm.T @ w

    def bad_pair_features(self, scores: np.ndarray) -> np.ndarray | None:
        """Feature row of the first non-finite pair score, or None."""
        bad = ~np.isfinite(scores)
        if not bad.any():
            return None
        return self.f_perm[int(np.argmax(bad))]


class PairScoreGrid:
    """Every ordered pair j != k, scored as an n x n grid.

    score(x^[j,k]) = s1[j] + s2[k] + sum_t phi1_t[j] M_t phi2_t[k]: s1 and s2
    are the within-group scores of rows j and k, taken from the data-row
    features, and the cross pairs enter through the per-variable embeddings
    of ``core.variable_embedding``.  Each term t is one nonzero (c, c') entry
    of the feature's bilinear forms, and M_t holds the cross-pair blocks
    contracted with it.  A cross pair whose first variable is in group 2 sees
    the forms transposed.  The diagonal j == k is no permuted pair:
    ``scores`` fills it with ``excluded``, and weights must be zero there.

    The grid is one product A B^T of two n x (T m2 + 2) factors,
    A = [phi1_t M_t for each term | s1 | 1] and B = [phi2_t for each term |
    1 | s2], held in buffers reused across calls.  The gradient side is one
    product too: w [phi2_t ... | 1] gives every cross term and the row sums.
    """

    def __init__(self, data: Dataset, feature: FeatureMap, index: PairIndex, f_data: np.ndarray):
        part = data.partition
        self.n = data.n
        self.count = data.n * (data.n - 1)
        self._data, self._feature, self._index = data, feature, index
        mask2 = part.group2_mask
        cross = index.cross_mask(part)
        first_in2 = mask2[index.u_idx]
        cols = np.arange(index.dim).reshape(index.n_pairs, index.block_dim)
        self._cols1 = cols[~cross & ~first_in2].ravel()
        self._cols2 = cols[~cross & first_in2].ravel()
        self._cols_x = cols[cross].ravel()
        self._f1 = np.ascontiguousarray(f_data[:, self._cols1])
        self._f2 = np.ascontiguousarray(f_data[:, self._cols2])

        pos = np.empty(index.m, dtype=np.int64)
        pos[list(part.group1)] = np.arange(len(part.group1))
        pos[list(part.group2)] = np.arange(len(part.group2))
        u, v = index.u_idx[cross], index.v_idx[cross]
        flipped = mask2[u]
        m1, m2 = len(part.group1), len(part.group2)
        # flat position of each cross pair in an m1 x m2 block matrix
        self._pq = pos[np.where(flipped, v, u)] * m2 + pos[np.where(flipped, u, v)]

        self._phi1, phi2, forms = variable_embedding(feature, data)
        used = (forms != 0.0).any(axis=0)
        c1, c2 = np.nonzero(used | used.T)
        self._terms = list(zip(c1.tolist(), c2.tolist()))
        # coef[i, d, t]: weight of theta[i, d] in M_t for cross pair i
        self._coef = np.where(flipped[:, None, None], forms[:, c2, c1], forms[:, c1, c2])
        self._block_shape = (m1, m2)

        width = len(self._terms) * m2
        self._a = np.empty((self.n, width + 2))
        self._a[:, width + 1] = 1.0
        self._b = np.empty((self.n, width + 2))
        for t, c in enumerate(c2.tolist()):
            self._b[:, t * m2 : (t + 1) * m2] = phi2[c]
        self._b[:, width] = 1.0

    def scores(self, v: np.ndarray, excluded: float = 0.0) -> tuple[np.ndarray, float]:
        """F v as an n x n grid, the diagonal holding ``excluded``, and a bound
        on the magnitude of its other entries: max_j ||A_j||_1 max|B|."""
        m1, m2 = self._block_shape
        a, b = self._a, self._b
        blocks = v[self._cols_x].reshape(self._coef.shape[:2])
        mats = np.zeros((len(self._terms), m1 * m2))
        mats[:, self._pq] = np.einsum("id,idt->ti", blocks, self._coef)
        for t, (c1, _) in enumerate(self._terms):
            a[:, t * m2 : (t + 1) * m2] = self._phi1[c1] @ mats[t].reshape(m1, m2)
        a[:, -2] = self._f1 @ v[self._cols1]
        b[:, -1] = self._f2 @ v[self._cols2]
        grid = a @ b.T
        np.fill_diagonal(grid, excluded)
        # a non-finite entry of A or B makes the bound inf or NaN
        bound = float(np.abs(a).sum(axis=1).max()) * float(np.abs(b).max())
        return grid, bound

    def weighted_sum(self, w: np.ndarray) -> np.ndarray:
        """F^T w for an n x n weight grid with a zero diagonal."""
        m2 = self._block_shape[1]
        width = self._b.shape[1] - 2
        # [w phi2_t for each term | row sums of w]
        prod = w @ self._b[:, : width + 1]
        out = np.empty(self._index.dim)
        out[self._cols1] = self._f1.T @ prod[:, width]
        out[self._cols2] = self._f2.T @ w.sum(axis=0)
        cross = np.empty((len(self._terms), self._pq.size))
        for t, (c1, _) in enumerate(self._terms):
            cross[t] = (self._phi1[c1].T @ prod[:, t * m2 : (t + 1) * m2]).ravel()[self._pq]
        out[self._cols_x] = np.einsum("ti,idt->id", cross, self._coef).ravel()
        return out

    def bad_pair_features(self, scores: np.ndarray) -> np.ndarray | None:
        """Rebuilt feature row of the first non-finite pair score, or None."""
        bad = ~np.isfinite(scores)
        np.fill_diagonal(bad, False)
        if not bad.any():
            return None
        j, k = divmod(int(np.argmax(bad)), self.n)
        x_pair = permuted_matrix(self._data, np.array([j]), np.array([k]))
        return pair_feature_matrix(self._feature, x_pair, self._index)[0]


def _shifted_exp(scores: np.ndarray) -> tuple[float, float]:
    """Overwrite pair scores with exp(scores - max); return (max, their sum).

    A log-sum-exp without the log; in place, since the arrays are large.
    """
    top = float(scores.max())
    scores -= top
    np.exp(scores, out=scores)
    return top, float(scores.sum())


# A pair-score bound below this leaves every score finite, so the scan for
# non-finite scores is skipped; float64 overflows near 1.8e308.
FINITE_SCORE_BOUND = 1e300


def physical_memory_bytes() -> int:
    """Physical memory of this machine, in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _peak_bytes(data: Dataset, index: PairIndex, pair_count: int, exact: bool) -> int:
    """Estimated peak bytes of the arrays ``ModelTerms`` builds for a dataset.

    Counts the data-row features and the pair backing.  The grid's peak is
    either the build of its pair indices (four int64 arrays of pair_count)
    or an evaluation (the two kept indices and the n x n scores).  Dense
    rows hold the permuted samples, the two gathered feature operands and
    the feature rows at once.
    """
    n, m, dim = data.n, index.m, index.dim
    if exact:
        floats = max(4 * pair_count, 2 * pair_count + n * n)
    else:
        floats = 2 * pair_count + pair_count * (3 * m + 2 * index.n_pairs + dim)
    return 8 * (n * dim + floats)


@dataclass(eq=False)
class _Evaluated:
    """The log-sum-exp parts of one parameter point, keyed on its bytes.

    ``weights`` holds exp(scores - top), never divided, until the gradient
    is taken; then only ``grad`` is kept.
    """

    key: bytes
    top: float
    total: float
    weights: np.ndarray | None
    grad: np.ndarray | None = None


class ModelTerms:
    """Cached per-dataset terms for repeated evaluations on one dataset.

    Holds the data-row features ``f_data`` and one pair backing: a
    ``PairScoreGrid`` when the policy keeps every ordered pair, otherwise
    ``DensePairRows`` with the subsampled permuted feature rows.  The solver
    builds this once and reuses it across iterations, path points, and
    cross-validation scoring.  A dataset whose estimated peak (see
    ``_peak_bytes``) exceeds physical memory raises ``SizeError`` before
    anything is allocated.

    The last evaluated point is remembered, so a ``value_grad`` at the point
    whose ``value`` was just taken (the solver's accepted iterate), or a
    repeat at one whose gradient is known, skips the pair scoring; results
    are bit-identical to a fresh evaluation.  ``scorings`` counts the
    evaluations that did score the pair set (memo misses).

    Each scoring also bounds |score|; only a bound that is not below
    ``FINITE_SCORE_BOUND`` sends the scores through the scan that names the
    dominant block of a non-finite score.
    """

    def __init__(
        self,
        data: Dataset,
        feature: FeatureMap,
        index: PairIndex | None = None,
        pair_policy: PairPolicy | None = None,
    ):
        self.data = data
        self.feature = feature
        self.index = index or build_pair_index(data.m, block_dim=feature.block_dim)
        if self.index.m != data.m:
            raise DimensionError("pair index and dataset disagree on m")
        self.policy = pair_policy or PairPolicy()
        pair_count = self.policy.pair_count(data.n)
        exact = pair_count == data.n * (data.n - 1)
        need, have = _peak_bytes(data, self.index, pair_count, exact), physical_memory_bytes()
        if need > have:
            raise SizeError(
                f"{pair_count} permuted pairs over {self.index.dim} features need about "
                f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB of physical memory"
            )
        self.f_data = pair_feature_matrix(feature, data.samples, self.index)
        self.mean_f = self.f_data.mean(axis=0)
        self.pair_j, self.pair_k = select_ordered_pairs(data.n, self.policy)
        if exact:
            self.backing = PairScoreGrid(data, feature, self.index, self.f_data)
        else:
            self.backing = DensePairRows(data, feature, self.index, self.pair_j, self.pair_k)
        self._last: _Evaluated | None = None
        self.scorings = 0

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def n_pairs_used(self) -> int:
        return self.backing.count

    @cached_property
    def log_pair_count(self) -> float:
        return float(np.log(self.n_pairs_used))

    @cached_property
    def initial_step(self) -> float:
        """1 / (largest eigenvalue of F'F) via a few power iterations on F^T (F v).

        The softmax covariance is dominated by the permuted-pair feature Gram
        matrix, so this lands within a small factor of the true curvature and
        the solver's backtracking line search absorbs the rest.  It depends
        only on the dataset, so it is computed once per ``ModelTerms``.
        """
        pairs = self.backing
        dim = self.index.dim
        v = np.ones(dim) / math.sqrt(dim)
        est = 1.0
        for _ in range(8):
            w = pairs.weighted_sum(pairs.scores(v)[0])
            nrm = float(np.linalg.norm(w))
            if nrm == 0.0:
                return 1.0
            est = nrm
            v = w / nrm
        # est approximates ||F||_2^2; softmax weights divide by the pair count
        return self.n_pairs_used / est

    def _check_flat(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.shape[0] != self.index.dim:
            raise DimensionError(
                f"parameter has {flat.shape[0]} entries, expected {self.index.dim}"
            )
        return flat

    def _guard_finite(self, scores: np.ndarray, flat: np.ndarray):
        row = self.backing.bad_pair_features(scores)
        if row is None:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            contrib = row * flat
        per_block = np.abs(contrib.reshape(self.index.n_pairs, -1)).sum(axis=1)
        per_block = np.where(np.isfinite(per_block), per_block, np.inf)
        pair = self.index.pairs[int(np.argmax(per_block))]
        raise NumericError(
            f"non-finite score on a permuted pair; dominant block is pair {pair}"
        )

    def perm_scores(self, flat: np.ndarray) -> np.ndarray:
        """Scores over the pair set, shaped as the backing lays them out;
        the grid's excluded diagonal holds -inf."""
        flat = self._check_flat(flat)
        # overflow is caught by the guard below; the numpy warning is noise
        with np.errstate(over="ignore", invalid="ignore"):
            scores, bound = self.backing.scores(flat, excluded=-np.inf)
        if not bound < FINITE_SCORE_BOUND:  # also when the bound is NaN
            self._guard_finite(scores, flat)
        return scores

    def _evaluated(self, flat: np.ndarray) -> _Evaluated:
        """The remembered point if ``flat`` is it, else a freshly scored one."""
        key = flat.tobytes()
        if self._last is None or self._last.key != key:
            # free the old pair scores before allocating new ones
            self._last = None
            self.scorings += 1
            weights = self.perm_scores(flat)
            top, total = _shifted_exp(weights)
            self._last = _Evaluated(key, top, total, weights)
        return self._last

    def log_normalizer(self, flat: np.ndarray) -> float:
        last = self._evaluated(self._check_flat(flat))
        return last.top + float(np.log(last.total)) - self.log_pair_count

    def value(self, flat: np.ndarray, normalized: bool = True) -> float:
        flat = self._check_flat(flat)
        data_term = float(self.mean_f @ flat)
        log_norm = self.log_normalizer(flat)
        if normalized:
            return -data_term + log_norm
        return -self.n * data_term + log_norm

    def value_grad(self, flat: np.ndarray) -> tuple[float, np.ndarray]:
        """Normalized objective and its gradient in one permuted-pair pass.

        The softmax normalization divides the dim-long F^T exp(scores - top)
        by its total, not the pair weights themselves."""
        flat = self._check_flat(flat)
        last = self._evaluated(flat)
        value = -float(self.mean_f @ flat) + last.top + float(np.log(last.total)) - self.log_pair_count
        if last.grad is None:
            last.grad = self.backing.weighted_sum(last.weights) / last.total - self.mean_f
            last.weights = None
        return value, last.grad.copy()

    def softmax_weights(self, flat: np.ndarray) -> np.ndarray:
        weights = self.perm_scores(flat)
        _, total = _shifted_exp(weights)
        weights /= total
        return weights


def _terms_for(theta: ParamBlocks, data: Dataset, f: FeatureMap, pair_policy) -> ModelTerms:
    return ModelTerms(data, f, index=theta.index, pair_policy=pair_policy)


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
    normalized: bool = True,
    pair_policy: PairPolicy | None = None,
) -> float:
    """Fitting objective; ``normalized=False`` keeps the summed data term."""
    terms = _terms_for(theta, data, f, pair_policy)
    return terms.value(theta.flat, normalized=normalized)


def gradient(
    theta: ParamBlocks,
    data: Dataset,
    f: FeatureMap,
    pair_policy: PairPolicy | None = None,
) -> np.ndarray:
    """Gradient of the normalized objective at theta."""
    terms = _terms_for(theta, data, f, pair_policy)
    return terms.value_grad(theta.flat)[1]


def _hessian_columns(terms: ModelTerms, flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """H[:, cols], one column at a time: F^T (w * F e_c) - g g_c with g = F^T w."""
    w = terms.softmax_weights(flat)
    pairs = terms.backing
    mean = pairs.weighted_sum(w)
    out = np.empty((terms.index.dim, cols.size))
    unit = np.zeros(terms.index.dim)
    for i, c in enumerate(cols):
        unit[c] = 1.0
        out[:, i] = pairs.weighted_sum(w * pairs.scores(unit)[0]) - mean * mean[c]
        unit[c] = 0.0
    return out


def _hessian_from_terms(terms: ModelTerms, flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    hess = _hessian_columns(terms, flat, cols)[cols]
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
    dim_cap: int = HESSIAN_DIM_CAP,
) -> np.ndarray:
    """Dense Hessian of the normalized objective, optionally block-restricted.

    The data term is linear, so this is the softmax-weighted feature
    covariance over permuted pairs (positive semidefinite).  Refuses to
    materialize more than ``dim_cap`` rows.
    """
    terms = _terms_for(theta, data, f, pair_policy)
    cols = _restrict_columns(theta.index, restrict)
    if cols.size > dim_cap:
        raise SizeError(
            f"restricted Hessian dimension {cols.size} exceeds cap {dim_cap}"
        )
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
    """

    lambda_min: float
    incoherence_margin: float
    degenerate: bool
    feature_bounds: FeatureBoundReport
    ratio_bounds: RatioBounds
    support_size: int


# feature floats per panel of permuted samples in the bound scan (8 MB)
BOUND_PANEL_FLOATS = 1 << 20


def _observed_pair_bounds(terms: ModelTerms) -> tuple[float, float]:
    """``observed_feature_bounds`` over the data rows and every permuted sample.

    The permuted samples are built one panel of pairs at a time and the
    maxima kept running, which gives the same result as one scan of all rows
    without holding every permuted sample at once.
    """
    data, f, index = terms.data, terms.feature, terms.index
    obs_inf, obs_l2 = observed_feature_bounds(f, data.samples, index)
    panel = max(1, BOUND_PANEL_FLOATS // index.dim)
    for lo in range(0, terms.pair_j.size, panel):
        rows = permuted_matrix(data, terms.pair_j[lo : lo + panel], terms.pair_k[lo : lo + panel])
        panel_inf, panel_l2 = observed_feature_bounds(f, rows, index)
        obs_inf, obs_l2 = max(obs_inf, panel_inf), max(obs_l2, panel_l2)
    return obs_inf, obs_l2


def diagnostics(
    theta_star: ParamBlocks,
    data: Dataset,
    f: FeatureMap,
    support,
    pair_policy: PairPolicy | None = None,
    dim_cap: int = HESSIAN_DIM_CAP,
) -> DiagnosticsReport:
    """Measure restricted curvature, incoherence, and boundedness at theta_star."""
    index = theta_star.index
    support_pairs = [tuple(p) for p in support]
    if not support_pairs:
        raise DimensionError("diagnostics needs a nonempty support")
    for p in support_pairs:
        index.position(p)
    support_set = set(support_pairs)
    comp_pairs = [p for p in index.pairs if p not in support_set]

    terms = _terms_for(theta_star, data, f, pair_policy)
    s_cols = _restrict_columns(index, support_pairs)
    if s_cols.size > dim_cap:
        raise SizeError(f"support dimension {s_cols.size} exceeds cap {dim_cap}")

    # H[:, S]; rows for the complement come from the same columns
    h_cols = _hessian_columns(terms, theta_star.flat, s_cols)
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
        worst = 0.0
        for p in comp_pairs:
            sl = index.slice_of(p)
            rows = h_cols[sl.start : sl.stop]
            y = np.linalg.solve(h_ss, rows.T).T
            worst = max(worst, float(np.abs(y).sum()))
        margin = 1.0 - worst

    obs_inf, obs_l2 = _observed_pair_bounds(terms)
    bounds = FeatureBoundReport(obs_inf, obs_l2, f.bound_inf, f.bound_l2)

    log_norm = terms.log_normalizer(theta_star.flat)
    scores_data = terms.f_data @ theta_star.flat
    scores_perm = terms.perm_scores(theta_star.flat)
    # every pair score passed the finite guard; -inf marks the grid's diagonal
    scores_perm = scores_perm[np.isfinite(scores_perm)]
    log_ratios = np.concatenate([scores_data, scores_perm]) - log_norm
    ratios = RatioBounds(float(np.exp(log_ratios.min())), float(np.exp(log_ratios.max())))

    return DiagnosticsReport(
        lambda_min=lambda_min,
        incoherence_margin=margin,
        degenerate=degenerate,
        feature_bounds=bounds,
        ratio_bounds=ratios,
        support_size=len(support_pairs),
    )
