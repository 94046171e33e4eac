"""Runtime prediction for distributed dataflow jobs.

Predicts job runtimes from the horizontal scale-out plus descriptive
properties of the execution context, supports pre-training on historical
cross-context data with fast per-context fine-tuning, and ships classic
parametric (NNLS) and hybrid baselines together with an
interpolation/extrapolation evaluation harness.
"""

from .baselines import (BellModel, ErnestModel, bell_fit, bell_predict,
                        ernest_features, ernest_fit, ernest_predict, nnls)
from .dataio import (ContextKey, DatasetManifest, RunRecord,
                     filter_for_variant, group_by_context, load_dataset,
                     parse_manifest, summarize, write_records_csv)
from .encoding import (Normalizer, PropertyValue, binarize, encode_property,
                       hash_text, scaleout_features)
from .errors import (CapacityError, ConfigError, DataError, JobcastError,
                     ModelFileError, NumericsError, SchemaError, TrainingError,
                     WorkerError)
from .evalharness import (ComparisonConfig, EvalSplit, MetricsTable, ecdf,
                          generate_splits, run_comparison, validate_split)
from .model import (ModelState, Prediction, PropertySchema, joint_loss, load,
                    predict, predict_batch, save)
from .training import (FineTuneReport, SearchSpace, finetune, lr_at, pretrain,
                       pretrain_corpora)

__version__ = "0.1.0"

__all__ = [
    "BellModel", "ErnestModel", "bell_fit", "bell_predict", "ernest_features",
    "ernest_fit", "ernest_predict", "nnls",
    "ContextKey", "DatasetManifest", "RunRecord", "filter_for_variant",
    "group_by_context", "load_dataset", "parse_manifest", "summarize",
    "write_records_csv",
    "Normalizer", "PropertyValue", "binarize", "encode_property", "hash_text",
    "scaleout_features",
    "CapacityError", "ConfigError", "DataError", "JobcastError",
    "ModelFileError", "NumericsError", "SchemaError", "TrainingError", "WorkerError",
    "ComparisonConfig", "EvalSplit", "MetricsTable", "ecdf",
    "generate_splits", "run_comparison", "validate_split",
    "ModelState", "Prediction", "PropertySchema", "joint_loss", "load",
    "predict", "predict_batch", "save",
    "FineTuneReport", "SearchSpace", "finetune", "lr_at", "pretrain",
    "pretrain_corpora",
]
