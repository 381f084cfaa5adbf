"""Server-based and peer-to-peer federated learning on synthetic segmentation tasks."""

__version__ = "0.9.0"

from .data import DatasetShard, GenConfig, SegImage, SplitSpec, generate_dataset  # noqa: F401
from .model import ModelSpec, ModelWeights, dice_score, fine_tune, init_model  # noqa: F401

__all__ = [
    "__version__",
    "DatasetShard",
    "GenConfig",
    "SegImage",
    "SplitSpec",
    "generate_dataset",
    "ModelSpec",
    "ModelWeights",
    "dice_score",
    "fine_tune",
    "init_model",
]
