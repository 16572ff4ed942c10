"""Training-free hypergraph feature propagation with lightweight task heads.

Workflow: expand the hypergraph to a weighted graph, normalize it,
propagate the raw features once (no learned parameters involved), then
train a small MLP on the propagated features for node classification
or hyperlink prediction.
"""

from .core import (
    Hypergraph,
    LabelVector,
    degrees,
    incidence_matrix,
    khop_neighbours,
    load_features,
    load_hypergraph,
    load_labels,
)
from .expansion import (
    SparseAdjacency,
    normalize_with_self_loops,
    weighted_clique_expansion,
)
from .nn import AdamState, MlpParams, TrainConfig, adam_step, init_mlp, mlp_forward
from .propagation import (
    PropagatedFeatures,
    PropagationConfig,
    closed_form_limit,
    energy,
    materialize_operator,
    operator_support,
    propagate,
)
from .reference import LinearizedModelSpec, ModelKind, run_linearized, unified_equivalent
from .synthetic import PlantedConfig, generate
from .tasks import (
    HyperlinkDataset,
    Metrics,
    Split,
    auc,
    make_split,
    negative_sample,
    train_hyperlink_predictor,
    train_node_classifier,
)

__version__ = "0.1.0"
