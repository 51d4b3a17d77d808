"""Sensor ranking and subset selection for labeled multivariate time series.

The library scores each sensor by how well the cluster structure of its
pairwise-similarity graph matches the labels, and selects sparse,
low-redundancy sensor subsets by combining per-sensor graphs to approximate
the label graph. No per-series feature extraction is required, and sensors
may sample at different rates.
"""

from .dataset import (
    Dataset,
    FeatureDescriptor,
    FeatureKind,
    Segment,
    fingerprint,
    load_dataset,
    split,
    write_dataset,
)
from .distance import (
    DistanceMatrix,
    cached_distance_matrix,
    categorical_distance,
    distance_matrix,
    dtw,
    scalar_distance,
)
from .errors import ConsistencyError, InputError
from .evaluation import AggregatedDistance, accuracy, aggregate, nn1_classify
from .graph import knn_graph, label_graph, row_normalize, symmetrize
from .info import (
    RedundancyMatrix,
    build_redundancy,
    conditional_mi,
    entropy,
    mutual_information,
    nmi,
    nystrom_redundancy,
    psd_shift,
    quantize,
)
from .ranker import RankResult, average_scores, rank_features
from .select import SelectionResult, select_features
from .solver import SolveResult, flatten, solve, solve_for_support
from .spectral import Embedding, power_iteration_embedding
from .synthetic import generate

__version__ = "0.1.0"
