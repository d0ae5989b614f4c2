"""Two-hand 3D pose and mesh recovery at desk scale, self-contained.

Selective state-space sequence blocks, cross-hand non-local attention,
soft-argmax 2.5D joint decoding, and a differentiable skinned hand rig,
all built on a float64 reverse-mode autodiff engine with an oracle-driven
verification suite.
"""

from .tensor import Tensor, no_grad, reset_grads
from .pipeline import (BimanualHandNet, FullOutput, PipelineConfig,
                       load_checkpoint, load_config_json, save_checkpoint,
                       save_config_json, soft_argmax)
from .handmodel import HandRig, lbs, make_default_rig, rodrigues
from .ssm import ScanCoeffs, VmBlockLayer, selective_scan
from .train import (Adam, LossWeights, TrainingSample, count_flops, count_params,
                    evaluate, loss, lr_schedule, mpjpe, mpvpe, synth_dataset,
                    train_loop)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "no_grad", "reset_grads",
    "BimanualHandNet", "FullOutput", "PipelineConfig",
    "load_checkpoint", "save_checkpoint", "load_config_json", "save_config_json",
    "soft_argmax",
    "HandRig", "lbs", "make_default_rig", "rodrigues",
    "ScanCoeffs", "VmBlockLayer", "selective_scan",
    "Adam", "LossWeights", "TrainingSample", "count_flops", "count_params", "evaluate",
    "loss", "lr_schedule", "mpjpe", "mpvpe", "synth_dataset", "train_loop",
    "__version__",
]
