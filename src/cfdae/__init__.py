"""Rating-matrix completion with a denoising autoencoder.

The pipeline: load sparse ratings (`data`), center/rescale them and build
side-information features (`preprocess`), train a one-hidden-layer tanh
autoencoder on incomplete vectors with a masked loss (`model`, `train`),
then score predictions and run sweeps (`evaluate`).  `cli` wires it all
into a command-line workflow.
"""

from .data import (DataError, IdMaps, RatingMatrix, RatingScale, SplitSpec,
                   TagMatrix, infer_scale, load_ratings, load_snapshot,
                   load_tag_snapshot, load_tags, save_snapshot,
                   save_tag_snapshot, split)
from .evaluate import (BiasPredictor, ClusterStat, EvalReport, build_report,
                       config_digest, improvement_pct, rmse,
                       summarize_ratio_sweep, sweep_dae, sweep_training_ratio)
from .model import (AutoencoderParams, CorruptionMask, LossWeights,
                    SparseVector, corrupt, decompose, forward, init_params,
                    loss, loss_gradients)
from .preprocess import (BiasTable, Scaler, SideInfoTable, build_side_info,
                         fit_bias, fit_scaler, inverse_transform, svd_embed,
                         transform)
from .train import (Checkpoint, EpochRecord, MatrixCompleter, TrainConfig,
                    TrainState, TrainingDiverged, complete_matrix,
                    learning_rate, load_checkpoint, save_checkpoint, train)

__version__ = "0.1.0"

__all__ = [
    "AutoencoderParams", "BiasPredictor", "BiasTable", "Checkpoint",
    "ClusterStat", "CorruptionMask", "DataError", "EpochRecord", "EvalReport",
    "IdMaps", "LossWeights", "MatrixCompleter", "RatingMatrix", "RatingScale",
    "Scaler", "SideInfoTable", "SparseVector", "SplitSpec", "TagMatrix",
    "TrainConfig", "TrainState", "TrainingDiverged", "build_report",
    "build_side_info", "complete_matrix", "config_digest", "corrupt",
    "decompose", "fit_bias", "fit_scaler", "forward", "improvement_pct",
    "infer_scale", "init_params", "inverse_transform", "learning_rate",
    "load_checkpoint", "load_ratings", "load_snapshot", "load_tag_snapshot",
    "load_tags", "loss", "loss_gradients", "rmse", "save_checkpoint",
    "save_snapshot", "save_tag_snapshot", "split", "summarize_ratio_sweep",
    "svd_embed", "sweep_dae", "sweep_training_ratio", "train", "transform",
]
