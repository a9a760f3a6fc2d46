"""Support extraction, recovery metrics, ROC summaries, and edge lists."""

from dataclasses import dataclass

import numpy as np

from .core import PairIndex, Partition
from .errors import DimensionError, DomainError
from .model import ParamBlocks


@dataclass(frozen=True)
class SupportSet:
    """Active pairs inside a fixed universe of candidate pairs."""

    active: frozenset
    universe: tuple[tuple[int, int], ...]

    def __post_init__(self):
        active = frozenset(tuple(p) for p in self.active)
        object.__setattr__(self, "active", active)
        if not active <= set(self.universe):
            raise DimensionError("active pairs must lie inside the universe")

    @property
    def size(self) -> int:
        return len(self.active)

    @property
    def complement_size(self) -> int:
        return len(self.universe) - len(self.active)

    def restrict_cross(self, partition: Partition) -> "SupportSet":
        """Same support viewed over cross-group pairs only."""
        mask2 = partition.group2_mask
        cross = tuple(p for p in self.universe if mask2[p[0]] != mask2[p[1]])
        return SupportSet(frozenset(p for p in self.active if p in set(cross)), cross)


def extract_support(theta_hat: ParamBlocks) -> SupportSet:
    """Pairs whose coefficient block is not exactly zero."""
    return SupportSet(frozenset(theta_hat.nonzero_pairs()), theta_hat.index.pairs)


def support_from_pairs(pairs, index: PairIndex) -> SupportSet:
    """SupportSet over an index universe from an explicit pair list."""
    return SupportSet(frozenset(tuple(p) for p in pairs), index.pairs)


@dataclass(frozen=True)
class EvalReport:
    """True-positive and true-negative rates; NaN marks an undefined rate
    (empty truth support or empty complement)."""

    tpr: float
    tnr: float

    @property
    def tpr_defined(self) -> bool:
        return not np.isnan(self.tpr)

    @property
    def tnr_defined(self) -> bool:
        return not np.isnan(self.tnr)


def tpr_tnr(estimated: SupportSet, truth: SupportSet) -> EvalReport:
    """Fraction of true pairs recovered and of non-pairs left out."""
    if estimated.universe != truth.universe:
        raise DimensionError("estimated and truth supports use different universes")
    n_true = truth.size
    n_comp = truth.complement_size
    tpr = float("nan") if n_true == 0 else len(estimated.active & truth.active) / n_true
    if n_comp == 0:
        tnr = float("nan")
    else:
        false_pos = len(estimated.active - truth.active)
        tnr = (n_comp - false_pos) / n_comp
    return EvalReport(tpr=tpr, tnr=tnr)


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Per-penalty operating points plus their upper envelope and area.

    ``points`` holds one (lambda, tnr, tpr) row per path entry (raw, in path
    order).  The envelope prepends the conventional endpoints (tnr, tpr) =
    (1, 0) and (0, 1), keeps the best tpr at each tnr, and is non-increasing
    in tnr; ``auc`` is the trapezoid area under it.
    """

    points: np.ndarray
    envelope: np.ndarray
    auc: float


def _upper_envelope(tnr: np.ndarray, tpr: np.ndarray) -> np.ndarray:
    order = np.argsort(tnr)[::-1]  # high tnr first
    best = -np.inf
    env = {}
    for i in order:
        x = tnr[i]
        best = max(best, tpr[i])
        env[x] = best
    xs = np.array(sorted(env))
    ys = np.array([env[x] for x in xs])
    return np.column_stack([xs, ys])


def envelope_and_auc(tnr: np.ndarray, tpr: np.ndarray) -> tuple[np.ndarray, float]:
    """Upper envelope and trapezoid area after adding the (1,0)/(0,1) endpoints."""
    tnr = np.concatenate([np.asarray(tnr, dtype=np.float64), [1.0, 0.0]])
    tpr = np.concatenate([np.asarray(tpr, dtype=np.float64), [0.0, 1.0]])
    if np.isnan(tnr).any() or np.isnan(tpr).any():
        return np.empty((0, 2)), float("nan")
    envelope = _upper_envelope(tnr, tpr)
    auc = float(np.trapezoid(envelope[:, 1], envelope[:, 0]))
    return envelope, auc


def roc_curve(path, truth: SupportSet) -> RocCurve:
    """Operating points of a penalty path against a known support."""
    rows = []
    for entry in path.entries:
        est = extract_support(entry.fit.theta_hat)
        rep = tpr_tnr(est, truth)
        rows.append((entry.lam, rep.tnr, rep.tpr))
    points = np.array(rows, dtype=np.float64).reshape(-1, 3)
    envelope, auc = envelope_and_auc(points[:, 1], points[:, 2])
    return RocCurve(points, envelope, auc)


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    weight: float
    sign: int


@dataclass(frozen=True, eq=False)
class EdgeList:
    """Weight-ranked pair list; scope records which pairs were kept."""

    edges: tuple[Edge, ...]
    scope: str


def cross_group_edges(
    theta_hat: ParamBlocks,
    partition: Partition,
    scope: str = "cross_group_only",
    top: int | None = None,
) -> EdgeList:
    """Ranked edges from a fitted model.

    Weight is the block 2-norm; sign follows the dominant-magnitude
    coefficient of the block.  Rows sort by weight descending, then by pair.
    """
    if scope not in ("cross_group_only", "all"):
        raise DomainError(f"unknown edge scope {scope!r}")
    index = theta_hat.index
    if partition.m != index.m:
        raise DimensionError("partition and fitted model disagree on m")
    norms = theta_hat.block_norms()
    mask2 = partition.group2_mask
    edges = []
    # a NaN norm is kept, as a nonzero block
    kept = np.flatnonzero(~(norms <= 0.0))
    for t, u, v in zip(kept.tolist(), index.u_idx[kept].tolist(), index.v_idx[kept].tolist()):
        if scope == "cross_group_only" and mask2[u] == mask2[v]:
            continue
        block = theta_hat.block(t)
        sign = int(np.sign(block[int(np.argmax(np.abs(block)))]))
        edges.append(Edge(u, v, float(norms[t]), sign))
    edges.sort(key=lambda e: (-e.weight, e.u, e.v))
    if top is not None:
        edges = edges[:top]
    return EdgeList(tuple(edges), scope)
