"""Group-penalized fitting: proximal Newton on a working set.

Minimizes nll(theta) + lam * sum over pairs of ||theta_t||_2.  Each Newton
iteration picks a working set S (the active blocks and every block whose
gradient norm exceeds lam), builds the Hessian block H_SS in one call
(``ModelTerms.hessian``), damps its diagonal in proportion to the KKT
residual, and minimizes the penalized quadratic model on S by block
coordinate descent.  For scalar blocks, each sweep that leaves the model
unsolved is followed by an exact solve on the sweep's sign pattern, which
ends the inner solve when it is the model's minimizer; blocks of several
coordinates keep plain block coordinate descent.  An Armijo backtracking
step on the penalized objective follows, so the recorded objective never
increases, and the full gradient is recomputed: it regrows S and decides
the KKT certificate, which is the only stopping rule.  The group
soft-threshold produces exact zeros, which makes support extraction and the
certificate well defined.  See Lee, Sun & Saunders (2014), "Proximal
Newton-type methods for minimizing composite functions", and Tibshirani et
al. (2012), "Strong rules for discarding predictors in lasso-type problems".
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Dataset, FeatureMap, PairIndex
from .errors import ConfigError, NumericError
from .model import ModelTerms, PairPolicy, ParamBlocks

# Armijo: accept a step t once the objective falls by ARMIJO * t times the
# decrease the quadratic model predicts; otherwise halve t, at most
# MAX_BACKTRACKS times per iteration.
ARMIJO = 1e-4
MAX_BACKTRACKS = 60
# The model's Hessian is damped by DAMPING * r on its diagonal, r the
# iterate's KKT residual: a regularized Newton step (Li, Fukushima, Qi &
# Yamashita 2004), which vanishes as the fit converges but keeps the model
# well posed where the objective is flat or unbounded below.
DAMPING = 0.5
# The inner solve stops once the model's own KKT residual is below
# r * min(FORCING, r), a superlinear forcing sequence, or after MAX_SWEEPS
# sweeps.
FORCING = 0.1
MAX_SWEEPS = 50
# An until-support walk stops after this many penalties when the support
# never grows; cross-validation's default grid has this many penalties.
UNTIL_MAX_STEPS = 200
CV_GRID_SIZE = 20


def _check_finite(name: str, value: float, positive: bool = True):
    """``ConfigError`` naming ``value`` unless it is finite and positive
    (nonnegative when not ``positive``)."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise ConfigError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """``max_iter`` bounds the Newton iterations of one fit; a fit is
    certified when every block's KKT residual is at most ``tol_kkt``."""

    max_iter: int = 2000
    tol_kkt: float = 1e-6

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigError("max_iter must be positive")
        _check_finite("tol_kkt", self.tol_kkt)


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
    """Optimality residuals of a candidate solution given its exact gradient.

    Scalar blocks take |g| - lam and |g + lam sign(theta)| directly, with no
    squares to underflow."""
    b = index.block_dim
    theta, grad = np.asarray(theta_flat, dtype=np.float64), np.asarray(grad_flat, dtype=np.float64)
    if b == 1:
        active = theta != 0.0
        residuals = np.maximum(np.abs(grad) - lam, 0.0)
        on = np.flatnonzero(active)
        residuals[on] = np.abs(grad[on] + lam * np.sign(theta[on]))
        return KktReport(residuals=residuals, active=active, lam=lam)
    theta_blocks, grad_blocks = theta.reshape(-1, b), grad.reshape(-1, b)
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
    """One penalized fit with its deterministic work counters.

    ``iterations`` counts Newton iterations, ``scorings`` the pair-set
    scorings the fit caused (``ModelTerms.scorings``), ``sweeps`` the inner
    coordinate-descent sweeps, ``backtracks`` the line-search halvings, and
    ``working_set`` the blocks in the last iteration's working set.
    """

    theta_hat: ParamBlocks
    lam: float
    objective_trace: np.ndarray
    kkt: KktReport
    iterations: int
    converged: bool
    scorings: int
    sweeps: int
    backtracks: int
    working_set: int

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])


def _penalty(flat: np.ndarray, block_dim: int) -> float:
    return float(_kernels.block_norms(flat, block_dim).sum())


def _solve_model(hess: np.ndarray, grad: np.ndarray, start: np.ndarray, lam: float,
                 block_dim: int, tol: float) -> tuple[np.ndarray, int]:
    """Minimize grad.(z - start) + (z - start)' hess (z - start) / 2 + lam sum_b ||z_b||.

    Block coordinate descent from ``start``: each block takes a proximal
    gradient step of length 1/L_b, L_b the largest eigenvalue of its
    diagonal block of ``hess``; for scalar blocks that is the exact
    coordinate minimizer, a soft-threshold.  The model's gradient q is kept
    current with one vector update per coordinate that moves, while the
    coordinates themselves are plain floats.  It stops once the model's KKT
    residual is at most ``tol`` or after ``MAX_SWEEPS`` sweeps, and returns
    z and the sweeps used.

    Scalar blocks also get an exact finish after every sweep that leaves the
    residual above ``tol`` (Osborne, Presnell & Turlach 2000): with A the
    nonzero coordinates of z and s their signs, the model's minimizer on
    that sign pattern solves hess_AA z_A = (hess start)_A - grad_A - lam s,
    zero off A (the damped diagonal makes hess_AA positive definite).  It is
    returned when its signs on A are s and |q_i| <= lam off A, which makes
    it the model's exact minimizer; otherwise the sweeps go on, and a sign
    pattern already rejected is not solved again.  Blocks of more than one
    coordinate keep plain block coordinate descent: on an active group the
    finish would be a nonlinear system.
    """
    blocks = grad.size // block_dim
    if block_dim == 1:
        curv = hess.diagonal()
    else:
        diag = np.arange(blocks)
        curv = np.linalg.eigvalsh(hess.reshape(blocks, block_dim, blocks, block_dim)[diag, :, diag, :])[:, -1]
    # a block without curvature still gets a finite (long) step
    steps = (1.0 / np.maximum(curv, 1e-12 * max(1.0, float(curv.max())))).tolist()
    z = start.tolist()
    q = grad.copy()  # grad + hess (z - start)
    item = q.item
    rejected = None
    for sweep in range(1, MAX_SWEEPS + 1):
        if block_dim == 1:
            for i, step in enumerate(steps):
                u = z[i] - step * item(i)
                cut = lam * step
                new = u - cut if u > cut else (u + cut if u < -cut else 0.0)
                if new != z[i]:
                    q += hess[i] * (new - z[i])
                    z[i] = new
        else:
            for blk, step in enumerate(steps):
                span = range(blk * block_dim, (blk + 1) * block_dim)
                u = [z[i] - step * item(i) for i in span]
                norm = math.sqrt(sum(v * v for v in u))
                shrink = 1.0 - lam * step / norm if norm > lam * step else 0.0
                for i, v in zip(span, u):
                    if v * shrink != z[i]:
                        q += hess[i] * (v * shrink - z[i])
                        z[i] = v * shrink
        if _model_residual(z, q.tolist(), lam, block_dim) <= tol:
            break
        if block_dim == 1:
            signs = np.sign(z)
            if rejected is None or not np.array_equal(signs, rejected):
                exact = _sign_pattern_minimizer(hess, grad, start, lam, signs)
                if exact is not None:
                    return exact, sweep
                rejected = signs
    return np.array(z), sweep


def _sign_pattern_minimizer(hess: np.ndarray, grad: np.ndarray, start: np.ndarray, lam: float,
                            signs: np.ndarray) -> np.ndarray | None:
    """The scalar-block model's minimizer if it has the sign pattern ``signs``, else None."""
    on = signs != 0.0
    rows = hess[on]
    z = np.zeros_like(start)
    z[on] = np.linalg.solve(rows[:, on], rows @ start - grad[on] - lam * signs[on])
    if not np.array_equal(np.sign(z[on]), signs[on]):
        return None
    off = ~on
    if not (np.abs(grad[off] + hess[off] @ (z - start)) <= lam).all():
        return None
    return z


def _model_residual(z: list, q: list, lam: float, block_dim: int) -> float:
    """Largest KKT residual of blocks z with model gradient q (as ``kkt_residuals``)."""
    if block_dim == 1:
        return max(abs(g + lam) if v > 0.0 else (abs(g - lam) if v < 0.0 else abs(g) - lam)
                   for v, g in zip(z, q))
    zb, qb = np.reshape(z, (-1, block_dim)), np.reshape(q, (-1, block_dim))
    norms = np.linalg.norm(zb, axis=1)
    units = zb / np.where(norms > 0.0, norms, 1.0)[:, None]
    active = np.linalg.norm(qb + lam * units, axis=1)
    return float(np.where(norms > 0.0, active, np.linalg.norm(qb, axis=1) - lam).max())


def _checked_terms(data: Dataset, f: FeatureMap, pair_policy: PairPolicy | None,
                   terms: ModelTerms | None) -> ModelTerms:
    """``terms`` once checked to be of ``data``, ``f`` and any ``pair_policy``;
    new ModelTerms of them when None."""
    if terms is None:
        return ModelTerms(data, f, pair_policy=pair_policy)
    if terms.data is not data or terms.feature is not f or pair_policy not in (None, terms.policy):
        raise ConfigError("terms were built on other data, feature map or pair policy than given")
    return terms


def fit(
    data: Dataset,
    f: FeatureMap,
    lam: float,
    cfg: SolverConfig | None = None,
    warm_start: ParamBlocks | None = None,
    pair_policy: PairPolicy | None = None,
    terms: ModelTerms | None = None,
) -> FitResult:
    """Solve one penalized fit by proximal Newton on a working set.

    Parameters
    ----------
    data, f : dataset and pairwise feature map.
    lam : nonnegative group penalty weight (on the normalized objective).
    cfg : solver controls; defaults are suitable for desk-scale problems.
    warm_start : optional starting point, e.g. the previous path solution.
    terms : precomputed ModelTerms to reuse across fits on the same data;
        they must be of ``data`` and ``f``, and of ``pair_policy`` if given.

    A start that already satisfies the KKT conditions (for instance zero at
    lam >= lambda_max) returns after no iteration and builds no Hessian.
    """
    _check_finite("lam", lam, positive=False)
    cfg = cfg or SolverConfig()
    terms = _checked_terms(data, f, pair_policy, terms)
    idx = terms.index
    b = idx.block_dim

    x = np.zeros(idx.dim) if warm_start is None else np.array(warm_start.flat, dtype=np.float64)
    if x.shape[0] != idx.dim:
        raise ConfigError("warm start dimension does not match the pair index")

    scorings = terms.scorings
    f_x, g_x = terms.value_grad(x)
    obj_x = f_x + lam * _penalty(x, b)
    if not np.isfinite(obj_x):
        raise NumericError("objective is not finite at the starting point")

    trace = [obj_x]
    report = kkt_residuals(x, g_x, idx, lam)
    iterations = sweeps = backtracks = working = 0
    while not report.satisfied(cfg.tol_kkt) and iterations < cfg.max_iter:
        iterations += 1
        blocks = np.flatnonzero(report.active | (_kernels.block_norms(g_x, b) > lam))
        working = blocks.size
        cols = (blocks[:, None] * b + np.arange(b)).ravel()
        resid = report.max_residual
        hess = terms.hessian(x, cols, rows=cols)
        hess.flat[:: hess.shape[0] + 1] += DAMPING * resid
        z, used = _solve_model(hess, g_x[cols], x[cols], lam, b, resid * min(FORCING, resid))
        sweeps += used
        d = np.zeros_like(x)
        d[cols] = z - x[cols]
        # the decrease the model predicts: its linear term and the penalty's change
        predicted = float(g_x[cols] @ d[cols]) + lam * (_penalty(z, b) - _penalty(x[cols], b))
        if not predicted < 0.0:
            break
        step = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            cand = x + step * d
            try:
                obj_cand = terms.value(cand) + lam * _penalty(cand, b)
            except NumericError:  # scores overflowed at this trial point
                obj_cand = math.inf
            if obj_cand <= obj_x + ARMIJO * step * predicted:
                break
            backtracks += 1
            step *= 0.5
        else:
            break
        x, obj_x = cand, obj_cand
        trace.append(obj_x)
        _, g_x = terms.value_grad(x)
        report = kkt_residuals(x, g_x, idx, lam)

    return FitResult(
        theta_hat=ParamBlocks(x, idx),
        lam=float(lam),
        objective_trace=np.asarray(trace),
        kkt=report,
        iterations=iterations,
        converged=report.satisfied(cfg.tol_kkt),
        scorings=terms.scorings - scorings,
        sweeps=sweeps,
        backtracks=backtracks,
        working_set=working,
    )


def lambda_max(
    data: Dataset,
    f: FeatureMap,
    pair_policy: PairPolicy | None = None,
    terms: ModelTerms | None = None,
) -> float:
    """Smallest penalty that provably yields the all-zero solution."""
    terms = _checked_terms(data, f, pair_policy, terms)
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
        if self.start is not None:
            _check_finite("start", self.start)


@dataclass(frozen=True)
class UntilSupportSchedule:
    """Shrink the penalty geometrically until the support exceeds cap_k.

    cap_k = 0 degenerates to a single entry at lambda_max (the null-model
    baseline).  The walk stops after ``UNTIL_MAX_STEPS`` penalties when the
    support never grows.
    """

    start: float = 10.0
    factor: float = 0.8
    cap_k: int = 15

    def __post_init__(self):
        if not 0.0 < self.factor < 1.0:
            raise ConfigError("factor must lie in (0, 1)")
        _check_finite("start", self.start)
        if self.cap_k < 0:
            raise ConfigError("cap_k must be >= 0")


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
    pair_policy: PairPolicy | None = None,
    terms: ModelTerms | None = None,
) -> PathResult:
    """Warm-started fits along a decreasing penalty schedule."""
    terms = _checked_terms(data, f, pair_policy, terms)
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
        for _ in range(UNTIL_MAX_STEPS):
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
    """``uncertified`` holds (fold, lam, iterations, max KKT residual) of each
    fold fit that ended without a certificate; it is still scored."""

    best_lambda: float
    lambdas: np.ndarray
    mean_scores: np.ndarray
    fold_scores: np.ndarray
    uncertified: tuple[tuple[int, float, int, float], ...] = ()


def default_lambda_grid(lam_max: float) -> np.ndarray:
    """``CV_GRID_SIZE`` geometric steps spanning [1e-3 * lam_max, lam_max], descending."""
    if lam_max <= 0.0:
        raise ConfigError("lambda_max is zero; supply an explicit grid")
    return np.geomspace(lam_max, 1e-3 * lam_max, CV_GRID_SIZE)


def cross_validate(
    data: Dataset,
    f: FeatureMap,
    lambdas=None,
    folds: int = 5,
    cfg: SolverConfig | None = None,
    seed: int = 0,
    pair_policy: PairPolicy | None = None,
    terms: ModelTerms | None = None,
) -> CvResult:
    """K-fold selection of the penalty by held-out objective value.

    Each validation fold is scored with its own permuted-pair normalizer, so
    every fold needs at least two samples; ties in the mean score resolve to
    the largest penalty.  ``terms``, the full-data ModelTerms, are reused for
    lambda_max when no grid is given, and must match the other arguments;
    the folds take their pair policy.
    """
    if folds < 2:
        raise ConfigError("folds must be >= 2")
    if data.n < 2 * folds:
        raise ConfigError(
            f"n={data.n} is too small for {folds} folds; every fold needs >= 2 samples"
        )
    if terms is not None:
        pair_policy = _checked_terms(data, f, pair_policy, terms).policy
    if lambdas is None:
        lambdas = default_lambda_grid(lambda_max(data, f, pair_policy=pair_policy, terms=terms))
    lambdas = np.sort(np.asarray(lambdas, dtype=np.float64))[::-1]
    if lambdas.size == 0:
        raise ConfigError("lambda grid must be nonempty")
    for lam in lambdas.tolist():
        _check_finite("every lambda of the grid", lam, positive=False)

    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n)
    fold_ids = np.array_split(order, folds)

    fold_scores = np.empty((folds, lambdas.size))
    uncertified = []
    for fold, val_rows in enumerate(fold_ids):
        mask = np.ones(data.n, dtype=bool)
        mask[val_rows] = False
        train = data.subset(np.flatnonzero(mask))
        val = data.subset(val_rows)
        train_terms = ModelTerms(train, f, pair_policy=pair_policy)
        val_terms = ModelTerms(val, f, pair_policy=pair_policy)
        warm = None
        for i, lam in enumerate(lambdas):
            res = fit(train, f, lam, cfg=cfg, warm_start=warm, terms=train_terms)
            warm = res.theta_hat
            fold_scores[fold, i] = val_terms.value(res.theta_hat.flat)
            if not res.converged:
                uncertified.append((fold, float(lam), res.iterations, res.kkt.max_residual))

    mean_scores = fold_scores.mean(axis=0)
    best = int(np.argmin(mean_scores))  # first minimum = largest lambda on ties
    return CvResult(
        best_lambda=float(lambdas[best]),
        lambdas=lambdas,
        mean_scores=mean_scores,
        fold_scores=fold_scores,
        uncertified=tuple(uncertified),
    )
