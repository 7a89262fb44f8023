"""simexplain: saliency maps and attribute explanations for black-box
image-similarity models, with a full evaluation harness."""

from .core import (
    AttributeCatalog,
    Curve,
    Dataset,
    ImageTensor,
    MATCH_RESOLUTION,
    Method,
    Pair,
    SaliencyMap,
    normalize_map,
    resize_average_pool,
    resize_bilinear,
    to_match_resolution,
)
from .errors import (
    ConvergenceError,
    IntegrityError,
    InvalidArgumentError,
    InvalidDataError,
    OptimizationError,
    ParseError,
    SimExplainError,
    TransportError,
    UnsupportedError,
)
from .scorers import (
    Embedding,
    LinearToyScorer,
    Rect,
    Scorer,
    ScorerCaps,
    TripletToyScorer,
    cosine,
)
from .external import ExternalScorer
from .saliency import (
    LimeCfg,
    MaskCfg,
    RiseCfg,
    SaliencyConfig,
    SlidingCfg,
    generate,
)
from .attrmodel import (
    AttributeModel,
    AttrPrediction,
    FeatureExtractor,
    TrainConfig,
    heatmap_loss,
    huber_loss,
    scale_labels,
    train,
)
from .explain import (
    CONFIDENCE_ONLY_PHI,
    ExplainConfig,
    ExplanationResult,
    PhiWeights,
    Prior,
    estimate_prior,
    explain_pair,
    fit_phi,
)
from .metrics import (
    RemovalResult,
    attribute_removal_delta,
    average_precision,
    deletion_curve,
    insertion_curve,
    map_metric,
    mean_average_precision,
)
from .discovery import ClusterAssignment, DiscoveryConfig, discover, peak_bin, removal_eval_discovered
from .synth import SyntheticSpec, generate_dataset, motif_scorer_for, planted_scorer_for

__version__ = "0.1.0"
