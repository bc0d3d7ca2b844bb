"""Model zoo, inference engine, outlier injection, and checkpoint cache."""

from repro.models.checkpoints import (
    cache_directory,
    clear_memory_cache,
    get_classifier,
    get_glue_classifier,
    get_language_model,
)
from repro.models.inference import (
    CapturingExecutor,
    FloatExecutor,
    MatmulExecutor,
    ObservingExecutor,
    TransformerRunner,
    capture_activations,
    run_calibration,
)
from repro.models.outliers import (
    OutlierSpec,
    choose_outlier_channels,
    inject_outliers,
    measure_channel_ranges,
    outlier_ratio,
)
from repro.models.pretrain import TrainingResult, train_classifier, train_language_model
from repro.models.weights import (
    AttentionWeights,
    BlockWeights,
    FeedForwardWeights,
    LayerNormWeights,
    ModelWeights,
    extract_weights,
    random_weights,
)
from repro.models.zoo import LANGUAGE_MODEL_NAMES, MODEL_ZOO, ModelShape, ZooEntry, get_zoo_entry

__all__ = [
    "ModelWeights",
    "AttentionWeights",
    "BlockWeights",
    "FeedForwardWeights",
    "LayerNormWeights",
    "extract_weights",
    "random_weights",
    "TransformerRunner",
    "MatmulExecutor",
    "FloatExecutor",
    "ObservingExecutor",
    "CapturingExecutor",
    "run_calibration",
    "capture_activations",
    "inject_outliers",
    "OutlierSpec",
    "choose_outlier_channels",
    "measure_channel_ranges",
    "outlier_ratio",
    "train_language_model",
    "train_classifier",
    "TrainingResult",
    "MODEL_ZOO",
    "LANGUAGE_MODEL_NAMES",
    "ZooEntry",
    "ModelShape",
    "get_zoo_entry",
    "get_language_model",
    "get_classifier",
    "get_glue_classifier",
    "cache_directory",
    "clear_memory_cache",
]
