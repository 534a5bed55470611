"""Feature-space reconstruction for tabular data via cascading actor-critic
agents, with full lineage traceability."""

from .agents import TrainConfig, Transition
from .clustering import ClusterSet, cluster_columns
from .dataset import (
    Binary,
    DatasetError,
    FeatureMeta,
    FeatureSet,
    Ident,
    Target,
    TaskKind,
    Unary,
    discretize,
    evaluate_lineage,
    load_csv,
    parse_lineage,
    render,
    split_train_valid,
    write_csv,
)
from .evaluator import ForestConfig, MetricKind, downstream_score, fit_forest, metric_only
from .info_metrics import (
    MICache,
    PairwiseDistanceKind,
    feature_set_quality,
    mutual_information,
    pairwise_distance,
)
from .state_repr import EncoderKind, StateVector, concat_states, state_ae, state_gae, state_op, state_si
from .transform import OperationSet, cross_binary, dedup, generation_step, select_features
from .cli import RunConfig, RunResult, run_search

__all__ = [
    "Binary",
    "ClusterSet",
    "DatasetError",
    "EncoderKind",
    "FeatureMeta",
    "FeatureSet",
    "ForestConfig",
    "Ident",
    "MICache",
    "MetricKind",
    "OperationSet",
    "PairwiseDistanceKind",
    "RunConfig",
    "RunResult",
    "StateVector",
    "Target",
    "TaskKind",
    "TrainConfig",
    "Transition",
    "Unary",
    "cluster_columns",
    "concat_states",
    "cross_binary",
    "dedup",
    "discretize",
    "downstream_score",
    "evaluate_lineage",
    "feature_set_quality",
    "fit_forest",
    "generation_step",
    "load_csv",
    "metric_only",
    "mutual_information",
    "pairwise_distance",
    "parse_lineage",
    "render",
    "run_search",
    "select_features",
    "split_train_valid",
    "state_ae",
    "state_gae",
    "state_op",
    "state_si",
    "write_csv",
]
