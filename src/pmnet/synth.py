"""Synthetic generators with known structure, plus slow reference oracles.

The Gaussian family plants a small set of cross-group precision entries on
top of two internally correlated groups.  The diamond family draws
independent 4-variable blocks from a non-Gaussian density by random-walk
Metropolis; its planted cross-group structure couples squared variables.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (
    Dataset,
    FeatureMap,
    Partition,
    build_pair_index,
    feature_eval,
    permuted_pair,
)
from .errors import DimensionError, GeneratorError, SizeError
from .model import ModelTerms, PairPolicy, ParamBlocks
from .structure import SupportSet

ENUMERATION_CAP = 64
# variance of the diamond density's Gaussian factor
DIAMOND_BASE_VARIANCE = 0.5


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Planted-structure Gaussian model: precision matrix and bookkeeping.

    ``passage_block`` holds the half-open (rows, cols) ranges of the filled
    cross sub-block; ``fill_value`` is the diagonal magnitude used there.
    """

    m: int
    split: tuple[int, int]
    rho: float
    passage_block: tuple[tuple[int, int], tuple[int, int]]
    fill_value: float
    precision: np.ndarray


def build_gaussian_spec(
    m: int = 50,
    split: tuple[int, int] = (40, 10),
    rho: float = 0.8,
    passage_size: int = 10,
    eig_rank: int = 15,
) -> GaussianSpec:
    """Construct the planted-passage precision matrix.

    Within-group entries are rho^|i-j| * sqrt(i*j) with 1-based variable
    indices; cross-group entries start at zero.  The cross sub-block linking
    the last ``passage_size`` variables of group 1 to the first
    ``passage_size`` of group 2 is then filled with Lambda * I, where Lambda
    is the ``eig_rank``-th smallest eigenvalue of the first-stage matrix.
    The result must be positive definite or the spec is rejected.
    """
    m1, m2 = split
    if not math.isfinite(rho):
        raise GeneratorError(f"rho must be finite, got {rho!r}")
    if m1 + m2 != m or m1 < 1 or m2 < 1:
        raise GeneratorError(f"split {split} does not partition m={m}")
    if not 0 <= passage_size <= min(m1, m2):
        raise GeneratorError(f"passage_size {passage_size} exceeds a group size")
    if not 1 <= eig_rank <= m:
        raise GeneratorError(f"eig_rank {eig_rank} out of range for m={m}")

    idx = np.arange(1, m + 1, dtype=np.float64)
    theta = rho ** np.abs(idx[:, None] - idx[None, :]) * np.sqrt(np.outer(idx, idx))
    in_g2 = np.arange(m) >= m1
    cross = in_g2[:, None] != in_g2[None, :]
    theta[cross] = 0.0

    lam = float(np.sort(np.linalg.eigvalsh(theta))[eig_rank - 1])
    rows = (m1 - passage_size, m1)
    cols = (m1, m1 + passage_size)
    fill = lam * np.eye(passage_size)
    theta[rows[0] : rows[1], cols[0] : cols[1]] = fill
    theta[cols[0] : cols[1], rows[0] : rows[1]] = fill.T

    if passage_size > 0 and np.linalg.eigvalsh(theta)[0] <= 0.0:
        raise GeneratorError(
            f"passage fill breaks positive definiteness at rho={rho}; adjust the spec"
        )
    return GaussianSpec(m, (m1, m2), rho, (rows, cols), lam, theta)


def gaussian_partition(spec: GaussianSpec) -> Partition:
    m1 = spec.split[0]
    return Partition(tuple(range(m1)), tuple(range(m1, spec.m)))


def sample_gaussian(spec: GaussianSpec, n: int, seed: int = 0) -> Dataset:
    """Draw n rows from N(0, precision^-1); bit-reproducible per seed."""
    cov = np.linalg.inv(spec.precision)
    cov = (cov + cov.T) / 2.0
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, spec.m)) @ chol.T
    return Dataset(x, gaussian_partition(spec))


def truth_support(spec: GaussianSpec, cross_only: bool = True) -> SupportSet:
    """Nonzero precision pairs as a SupportSet over all u < v pairs."""
    index = build_pair_index(spec.m)
    m1 = spec.split[0]
    active = []
    for u, v in index.pairs:
        if spec.precision[u, v] == 0.0:
            continue
        if cross_only and not ((u < m1) != (v < m1)):
            continue
        active.append((u, v))
    return SupportSet(frozenset(active), index.pairs)


@dataclass(frozen=True)
class McmcConfig:
    burn_in: int = 5000
    thinning: int = 50
    proposal_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0 or self.thinning < 1:
            raise GeneratorError("invalid MCMC configuration")
        if not (math.isfinite(self.proposal_std) and self.proposal_std > 0.0):
            raise GeneratorError(
                f"proposal_std must be positive and finite, got {self.proposal_std!r}"
            )


@dataclass(frozen=True)
class DiamondSpec:
    """Independent 4-variable blocks (a, b, c, d) with density proportional to

        exp(-rho * a^2 b^2 - 0.5 b c - 0.5 b d) * N(0, DIAMOND_BASE_VARIANCE * I4).

    Group 1 collects every ``a``; b, c, d go to group 2, so the planted
    cross-group pairs are (a_i, b_i).  ``rho`` must be finite and >= 0, or
    the density has no normalizer.
    """

    blocks: int = 13
    rho: float = 1.0
    mcmc: McmcConfig = McmcConfig()

    def __post_init__(self):
        if self.blocks < 1:
            raise GeneratorError("need at least one block")
        # at rho < 0 the a^2 b^2 term outgrows the Gaussian factor: no density
        if not (math.isfinite(self.rho) and self.rho >= 0.0):
            raise GeneratorError(f"rho must be finite and >= 0, got {self.rho!r}")

    @property
    def m(self) -> int:
        return 4 * self.blocks


def diamond_partition(spec: DiamondSpec) -> Partition:
    group1 = tuple(4 * b for b in range(spec.blocks))
    group2 = tuple(i for i in range(spec.m) if i % 4 != 0)
    return Partition(group1, group2)


def sample_diamond(spec: DiamondSpec, n: int) -> Dataset:
    """Metropolis sample of n rows; blocks use independent seeded substreams.

    Proposal increments and acceptance draws are pre-generated with numpy,
    so the seed alone fixes every chain's trajectory.  Warns when any
    block's acceptance rate leaves [0.1, 0.7].
    """
    if n < 2:
        raise DimensionError("need at least two samples")
    cfg = spec.mcmc
    total = cfg.burn_in + n * cfg.thinning
    gauss_coeff = 1.0 / (2.0 * DIAMOND_BASE_VARIANCE)
    children = np.random.SeedSequence(cfg.seed).spawn(spec.blocks)
    x = np.empty((n, spec.m))
    for b in range(spec.blocks):
        rng = np.random.default_rng(children[b])
        steps = cfg.proposal_std * rng.standard_normal((total, 4))
        log_u = np.log(1.0 - rng.random(total))  # uniform on (0, 1]
        kept, accepted = _kernels.diamond_chain(
            spec.rho, gauss_coeff, np.zeros(4), steps, log_u, cfg.burn_in, cfg.thinning, n
        )
        rate = accepted / total
        if not 0.1 <= rate <= 0.7:
            warnings.warn(
                f"block {b} acceptance rate {rate:.3f} outside [0.1, 0.7]; "
                "consider retuning proposal_std",
                stacklevel=2,
            )
        x[:, 4 * b : 4 * b + 4] = kept
    return Dataset(x, diamond_partition(spec))


def diamond_truth_support(spec: DiamondSpec, cross_only: bool = True) -> SupportSet:
    """Planted (a_i, b_i) pairs; with cross_only=False also (b, c) and (b, d)."""
    index = build_pair_index(spec.m)
    active = []
    for b in range(spec.blocks):
        base = 4 * b
        active.append((base, base + 1))
        if not cross_only:
            active.append((base + 1, base + 2))
            active.append((base + 1, base + 3))
    return SupportSet(frozenset(active), index.pairs)


def finite_difference_gradient(
    theta: ParamBlocks,
    data: Dataset,
    f: FeatureMap,
    h: float = 1e-5,
    pair_policy: PairPolicy | None = None,
) -> np.ndarray:
    """Central-difference gradient of the fitting objective.

    Reference implementation for tests: touches the model only through its
    objective value, never through the analytic gradient.
    """
    terms = ModelTerms(data, f, index=theta.index, pair_policy=pair_policy)
    base = np.array(theta.flat, dtype=np.float64)
    grad = np.empty_like(base)
    for i in range(base.shape[0]):
        bump = np.zeros_like(base)
        bump[i] = h
        grad[i] = (terms.value(base + bump) - terms.value(base - bump)) / (2.0 * h)
    return grad


def normalizer_enumeration_oracle(theta: ParamBlocks, data: Dataset, f: FeatureMap) -> float:
    """Plain-loop normalizer: mean of exp(score) over all ordered pairs.

    Independent of the vectorized evaluation path; refuses n > 64.
    """
    n = data.n
    if n > ENUMERATION_CAP:
        raise SizeError(f"enumeration oracle capped at n={ENUMERATION_CAP}, got {n}")
    total = 0.0
    count = 0
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            sample = permuted_pair(data, j, k)
            score = 0.0
            for pair in theta.index.pairs:
                block = theta.block(pair)
                feats = feature_eval(f, sample.value, pair)
                score += float(block @ feats)
            total += np.exp(score)
            count += 1
    return total / count
