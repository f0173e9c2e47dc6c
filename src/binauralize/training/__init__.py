from .losses import (
    ConsistencyConfig,
    LossWeights,
    loss_backbone_from_masks,
    loss_coherence,
    loss_geometric,
    loss_rir,
)
from .examples import CompactRecord, load_training_cache, make_example, build_batch
from .adam import TrainConfig, adam_init, adam_step
from .graph import grad
from .loop import train

__all__ = [
    "LossWeights", "ConsistencyConfig",
    "loss_backbone_from_masks", "loss_coherence", "loss_geometric",
    "loss_rir",
    "CompactRecord", "load_training_cache", "make_example", "build_batch",
    "TrainConfig", "adam_init", "adam_step", "grad", "train",
]
