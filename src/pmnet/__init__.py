"""Sparse inter-group structure learning for partitioned Markov networks.

Fits a pairwise log-linear model of the ratio between a joint density and
the product of its two group marginals, normalized self-consistently over
permuted two-sample recombinations, with a group-sparse penalty that turns
surviving cross-group blocks into discovered interaction structure.
"""

__version__ = "0.1.0"

from .core import (
    Dataset,
    FeatureMap,
    PairIndex,
    Partition,
    PermutedSample,
    build_pair_index,
    feature_eval,
    pair_feature_matrix,
    permuted_pair,
)
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    GeneratorError,
    NumericError,
    ParseError,
    PmnetError,
    SizeError,
)
from .model import (
    DiagnosticsReport,
    NormalizerEstimate,
    PairPolicy,
    ParamBlocks,
    diagnostics,
    gradient,
    hessian,
    negative_log_likelihood,
    normalizer_hat,
    ratio_hat,
    unnormalized_log_ratio,
)
from .solver import (
    CvResult,
    FitResult,
    GeometricSchedule,
    KktReport,
    PathResult,
    SolverConfig,
    UntilSupportSchedule,
    cross_validate,
    fit,
    group_soft_threshold,
    kkt_residuals,
    lambda_max,
    lambda_path,
    theory_lambda_bound,
)
from .structure import (
    EdgeList,
    EvalReport,
    RocCurve,
    SupportSet,
    cross_group_edges,
    extract_support,
    roc_curve,
    support_from_pairs,
    tpr_tnr,
)
from .synth import (
    DiamondSpec,
    GaussianSpec,
    McmcConfig,
    build_gaussian_spec,
    diamond_truth_support,
    finite_difference_gradient,
    normalizer_enumeration_oracle,
    sample_diamond,
    sample_gaussian,
    truth_support,
)


def backend() -> str:
    """Name of the kernel implementation, recorded in benchmark results."""
    return "numpy"


__all__ = [name for name in dir() if not name.startswith("_")]
