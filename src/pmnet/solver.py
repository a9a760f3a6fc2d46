"""Group-penalized fitting: proximal gradient with acceleration.

Minimizes nll(theta) + lam * sum over pairs of ||theta_t||_2 with FISTA-style
momentum, backtracking line search, and a monotone restart, so the recorded
objective never increases.  The group soft-threshold produces exact zeros,
which makes support extraction and the KKT certificate well defined.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Dataset, FeatureMap, PairIndex
from .errors import ConfigError, NumericError
from .model import ModelTerms, PairPolicy, ParamBlocks


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 2000
    tol_rel_obj: float = 1e-8
    tol_kkt: float = 1e-6
    step_shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    fixed_step: float | None = None
    acceleration: bool = True

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigError("max_iter must be positive")
        if not 0.0 < self.step_shrink < 1.0:
            raise ConfigError("step_shrink must lie in (0, 1)")
        if not 0.0 <= self.sufficient_decrease < 1.0:
            raise ConfigError("sufficient_decrease must lie in [0, 1)")
        if self.fixed_step is not None and self.fixed_step <= 0.0:
            raise ConfigError("fixed_step must be positive")
        if self.tol_rel_obj <= 0.0 or self.tol_kkt <= 0.0:
            raise ConfigError("tolerances must be positive")


def group_soft_threshold(v: np.ndarray, tau: float, block_dim: int = 1) -> np.ndarray:
    """Blockwise shrink: zero when ||block|| <= tau, else scale by 1 - tau/||block||."""
    if tau < 0.0:
        raise ConfigError("threshold must be nonnegative")
    v = np.ascontiguousarray(v, dtype=np.float64)
    return _kernels.group_soft_threshold(v, block_dim, tau)


@dataclass(frozen=True)
class KktReport:
    """First-order optimality residuals per block.

    Zero blocks must satisfy ||grad_t|| <= lam + tol, active blocks
    ||grad_t + lam * theta_t/||theta_t|| || <= tol; ``residuals`` stores
    max(0, ||grad_t|| - lam) for zero blocks and the stationarity norm for
    active ones.
    """

    residuals: np.ndarray
    active: np.ndarray
    lam: float

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0

    def satisfied(self, tol: float) -> bool:
        return self.max_residual <= tol


def kkt_residuals(theta_flat: np.ndarray, grad_flat: np.ndarray, index: PairIndex, lam: float) -> KktReport:
    """Optimality residuals of a candidate solution given its exact gradient."""
    b = index.block_dim
    theta_blocks = np.asarray(theta_flat, dtype=np.float64).reshape(-1, b)
    grad_blocks = np.asarray(grad_flat, dtype=np.float64).reshape(-1, b)
    norms = np.linalg.norm(theta_blocks, axis=1)
    grad_norms = np.linalg.norm(grad_blocks, axis=1)
    active = norms > 0.0
    units = np.zeros_like(theta_blocks)
    units[active] = theta_blocks[active] / norms[active, None]
    stationarity = np.linalg.norm(grad_blocks + lam * units, axis=1)
    residuals = np.where(active, stationarity, np.maximum(0.0, grad_norms - lam))
    return KktReport(residuals=residuals, active=active, lam=lam)


@dataclass(frozen=True, eq=False)
class FitResult:
    theta_hat: ParamBlocks
    lam: float
    objective_trace: np.ndarray
    kkt: KktReport
    iterations: int
    converged: bool

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])


def _penalty(flat: np.ndarray, block_dim: int) -> float:
    return float(_kernels.block_norms(flat, block_dim).sum())


def fit(
    data: Dataset,
    f: FeatureMap,
    lam: float,
    cfg: SolverConfig | None = None,
    warm_start: ParamBlocks | None = None,
    index: PairIndex | None = None,
    pair_policy: PairPolicy | None = None,
    terms: ModelTerms | None = None,
) -> FitResult:
    """Solve one penalized fit.

    Parameters
    ----------
    data, f : dataset and pairwise feature map.
    lam : nonnegative group penalty weight (on the normalized objective).
    cfg : solver controls; defaults are suitable for desk-scale problems.
    warm_start : optional starting point, e.g. the previous path solution.
    terms : precomputed ModelTerms to reuse across fits on the same data.
    """
    if lam < 0.0:
        raise ConfigError("lam must be nonnegative")
    cfg = cfg or SolverConfig()
    if terms is None:
        terms = ModelTerms(data, f, index=index, pair_policy=pair_policy)
    idx = terms.index
    b = idx.block_dim

    x = np.zeros(idx.dim) if warm_start is None else np.array(warm_start.flat, dtype=np.float64)
    if x.shape[0] != idx.dim:
        raise ConfigError("warm start dimension does not match the pair index")

    f_x, g_x = terms.value_grad(x)
    obj_x = f_x + lam * _penalty(x, b)
    if not np.isfinite(obj_x):
        raise NumericError("objective is not finite at the starting point")

    trace = [obj_x]
    step = cfg.fixed_step if cfg.fixed_step is not None else terms.initial_step
    step_cap = 64.0 * step
    y = x.copy()
    f_y, g_y = f_x, g_x
    t_mom = 1.0
    x_prev = x.copy()
    converged = False
    iterations = 0
    slack = cfg.sufficient_decrease

    def prox_step(point, grad_point, f_point, s):
        """Backtrack from step s until the tightened quadratic bound holds."""
        while True:
            cand = _kernels.group_soft_threshold(point - s * grad_point, b, s * lam)
            diff = cand - point
            sq = float(diff @ diff)
            f_cand = terms.value(cand)
            bound = f_point + float(grad_point @ diff) + (1.0 - slack) * sq / (2.0 * s)
            if f_cand <= bound + 1e-12 * max(1.0, abs(f_point)) or sq == 0.0:
                return cand, f_cand, s
            if cfg.fixed_step is not None:
                return cand, f_cand, s
            s *= cfg.step_shrink
            if s < 1e-18:
                raise NumericError("line search step underflow")

    for iterations in range(1, cfg.max_iter + 1):
        if cfg.fixed_step is None:
            step = min(step * 1.25, step_cap)  # recover from early conservative shrinks
        x_new, f_new, step = prox_step(y, g_y, f_y, step)
        obj_new = f_new + lam * _penalty(x_new, b)

        if obj_new > obj_x + 1e-12 * max(1.0, abs(obj_x)) and cfg.acceleration:
            # momentum overshoot: restart from the last accepted iterate
            t_mom = 1.0
            f_x_val, g_x_val = terms.value_grad(x)
            x_new, f_new, step = prox_step(x, g_x_val, f_x_val, step)
            obj_new = f_new + lam * _penalty(x_new, b)

        obj_prev = obj_x
        # adaptive restart: drop momentum when the step direction reverses
        if cfg.acceleration and float((y - x_new) @ (x_new - x)) > 0.0:
            t_mom = 1.0
        x_prev = x
        if obj_new <= obj_prev:
            x = x_new
            obj_x = obj_new
        # else keep the previous iterate: proximal descent holds up to round-off
        trace.append(obj_x)

        if not np.isfinite(obj_x):
            raise NumericError("objective diverged to a non-finite value")

        rel_change = abs(obj_prev - obj_x) / max(1.0, abs(obj_x))
        if rel_change <= cfg.tol_rel_obj:
            _, g_check = terms.value_grad(x)
            report = kkt_residuals(x, g_check, idx, lam)
            if report.satisfied(cfg.tol_kkt):
                converged = True
                break

        if cfg.acceleration:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom)) / 2.0
            y = x + ((t_mom - 1.0) / t_next) * (x - x_prev)
            t_mom = t_next
        else:
            y = x
        f_y, g_y = terms.value_grad(y)

    _, g_final = terms.value_grad(x)
    report = kkt_residuals(x, g_final, idx, lam)
    converged = converged and report.satisfied(cfg.tol_kkt)
    return FitResult(
        theta_hat=ParamBlocks(x, idx),
        lam=float(lam),
        objective_trace=np.asarray(trace),
        kkt=report,
        iterations=iterations,
        converged=converged,
    )


def lambda_max(
    data: Dataset,
    f: FeatureMap,
    index: PairIndex | None = None,
    pair_policy: PairPolicy | None = None,
    terms: ModelTerms | None = None,
) -> float:
    """Smallest penalty that provably yields the all-zero solution."""
    if terms is None:
        terms = ModelTerms(data, f, index=index, pair_policy=pair_policy)
    _, g0 = terms.value_grad(np.zeros(terms.index.dim))
    return float(_kernels.block_norms(g0, terms.index.block_dim).max())


def theory_lambda_bound(m: int, n: int, alpha: float, feature_bound: float) -> float:
    """Penalty scale suggested by the recovery analysis for user constants.

    Purely informational: 24 * (2 - alpha) / alpha * sqrt(feature_bound *
    log((m^2 + m) / 2) / n).  No default constants are assumed.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError("alpha must lie in (0, 1]")
    if m < 2 or n < 1 or feature_bound <= 0.0:
        raise ConfigError("need m >= 2, n >= 1, feature_bound > 0")
    count = (m * m + m) / 2.0
    return 24.0 * (2.0 - alpha) / alpha * math.sqrt(feature_bound * math.log(count) / n)


@dataclass(frozen=True)
class GeometricSchedule:
    """Fixed-length geometric grid; start defaults to lambda_max."""

    start: float | None = None
    factor: float = 0.7
    count: int = 20

    def __post_init__(self):
        if not 0.0 < self.factor < 1.0:
            raise ConfigError("factor must lie in (0, 1)")
        if self.count < 1:
            raise ConfigError("count must be positive")
        if self.start is not None and self.start <= 0.0:
            raise ConfigError("start must be positive")


@dataclass(frozen=True)
class UntilSupportSchedule:
    """Shrink the penalty geometrically until the support exceeds cap_k.

    cap_k = 0 degenerates to a single entry at lambda_max (the null-model
    baseline).  ``max_steps`` bounds the walk when the support never grows.
    """

    start: float = 10.0
    factor: float = 0.8
    cap_k: int = 15
    max_steps: int = 200

    def __post_init__(self):
        if not 0.0 < self.factor < 1.0:
            raise ConfigError("factor must lie in (0, 1)")
        if self.start <= 0.0:
            raise ConfigError("start must be positive")
        if self.cap_k < 0 or self.max_steps < 1:
            raise ConfigError("cap_k must be >= 0 and max_steps >= 1")


@dataclass(frozen=True, eq=False)
class PathEntry:
    lam: float
    fit: FitResult
    support_size: int


@dataclass(frozen=True, eq=False)
class PathResult:
    entries: tuple[PathEntry, ...]
    stop_reason: str

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([e.lam for e in self.entries])


def lambda_path(
    data: Dataset,
    f: FeatureMap,
    schedule,
    cfg: SolverConfig | None = None,
    index: PairIndex | None = None,
    pair_policy: PairPolicy | None = None,
    terms: ModelTerms | None = None,
) -> PathResult:
    """Warm-started fits along a decreasing penalty schedule."""
    if terms is None:
        terms = ModelTerms(data, f, index=index, pair_policy=pair_policy)
    lam_max = lambda_max(data, f, terms=terms)

    entries = []
    warm = None
    if isinstance(schedule, GeometricSchedule):
        start = schedule.start if schedule.start is not None else lam_max
        for i in range(schedule.count):
            lam = start * schedule.factor**i
            res = fit(data, f, lam, cfg=cfg, warm_start=warm, terms=terms)
            warm = res.theta_hat
            entries.append(PathEntry(lam, res, len(res.theta_hat.nonzero_pairs())))
        return PathResult(tuple(entries), "grid_exhausted")

    if isinstance(schedule, UntilSupportSchedule):
        lam = min(schedule.start, lam_max)
        stop_reason = "grid_exhausted"
        for _ in range(schedule.max_steps):
            res = fit(data, f, lam, cfg=cfg, warm_start=warm, terms=terms)
            warm = res.theta_hat
            size = len(res.theta_hat.nonzero_pairs())
            entries.append(PathEntry(lam, res, size))
            if schedule.cap_k == 0 or size > schedule.cap_k:
                stop_reason = "support_cap_reached"
                break
            lam *= schedule.factor
        return PathResult(tuple(entries), stop_reason)

    raise ConfigError(f"unknown schedule type {type(schedule).__name__}")


@dataclass(frozen=True, eq=False)
class CvResult:
    best_lambda: float
    lambdas: np.ndarray
    mean_scores: np.ndarray
    fold_scores: np.ndarray


def default_lambda_grid(lam_max: float, count: int = 20) -> np.ndarray:
    """Geometric grid spanning [1e-3 * lam_max, lam_max], descending."""
    if lam_max <= 0.0:
        raise ConfigError("lambda_max is zero; supply an explicit grid")
    return np.geomspace(lam_max, 1e-3 * lam_max, count)


def cross_validate(
    data: Dataset,
    f: FeatureMap,
    lambdas=None,
    folds: int = 5,
    cfg: SolverConfig | None = None,
    seed: int = 0,
    index: PairIndex | None = None,
    pair_policy: PairPolicy | None = None,
    terms: ModelTerms | None = None,
) -> CvResult:
    """K-fold selection of the penalty by held-out objective value.

    Each validation fold is scored with its own permuted-pair normalizer, so
    every fold needs at least two samples; ties in the mean score resolve to
    the largest penalty.  ``terms``, the full-data ModelTerms, are reused for
    lambda_max when no grid is given.
    """
    if folds < 2:
        raise ConfigError("folds must be >= 2")
    if data.n < 2 * folds:
        raise ConfigError(
            f"n={data.n} is too small for {folds} folds; every fold needs >= 2 samples"
        )
    if lambdas is None:
        lambdas = default_lambda_grid(
            lambda_max(data, f, index=index, pair_policy=pair_policy, terms=terms)
        )
    lambdas = np.sort(np.asarray(lambdas, dtype=np.float64))[::-1]
    if lambdas.size == 0 or lambdas[-1] < 0.0:
        raise ConfigError("lambda grid must be nonempty and nonnegative")

    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n)
    fold_ids = np.array_split(order, folds)

    fold_scores = np.empty((folds, lambdas.size))
    for fold, val_rows in enumerate(fold_ids):
        mask = np.ones(data.n, dtype=bool)
        mask[val_rows] = False
        train = data.subset(np.flatnonzero(mask))
        val = data.subset(val_rows)
        train_terms = ModelTerms(train, f, index=index, pair_policy=pair_policy)
        val_terms = ModelTerms(val, f, index=index, pair_policy=pair_policy)
        warm = None
        for i, lam in enumerate(lambdas):
            res = fit(train, f, lam, cfg=cfg, warm_start=warm, terms=train_terms)
            warm = res.theta_hat
            fold_scores[fold, i] = val_terms.value(res.theta_hat.flat)

    mean_scores = fold_scores.mean(axis=0)
    best = int(np.argmin(mean_scores))  # first minimum = largest lambda on ties
    return CvResult(
        best_lambda=float(lambdas[best]),
        lambdas=lambdas,
        mean_scores=mean_scores,
        fold_scores=fold_scores,
    )
