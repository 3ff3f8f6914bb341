"""From-scratch numpy neural-network engine.

Provides layers, losses, optimizers, a FLOP cost model and a budgeted
training loop — the substrate standing in for PyTorch in this reproduction
(see DESIGN.md §2).
"""

from .conv import (
    Conv1d,
    Conv2d,
    GlobalAvgPool1d,
    GlobalAvgPool2d,
    MaxPool1d,
    MaxPool2d,
)
from .layers import (
    BatchNorm1d,
    Dropout,
    Flatten,
    Linear,
    ReLU,
    Residual,
    Sequential,
    Tanh,
)
from .losses import CrossEntropyLoss, DetectionLoss, Loss, MSELoss, softmax
from .metrics import (
    box_iou,
    confusion_matrix,
    macro_f1,
    precision_recall,
    top_k_accuracy,
)
from .module import Module, ParamTensor
from .optimizers import (
    SGD,
    Adam,
    ConstantLR,
    CosineLR,
    LRSchedule,
    Optimizer,
    StepDecayLR,
    build_optimizer,
)
from .recurrent import ElmanRNN, SequenceStride
from .serialize import load_model, load_state_dict, save_model, state_dict
from .trainer import (
    BACKWARD_FLOPS_FACTOR,
    TrainingResult,
    evaluate_accuracy,
    train_model,
)

__all__ = [
    "Module",
    "ParamTensor",
    "Linear",
    "ReLU",
    "Tanh",
    "Dropout",
    "Flatten",
    "BatchNorm1d",
    "Residual",
    "Sequential",
    "Conv1d",
    "Conv2d",
    "MaxPool1d",
    "MaxPool2d",
    "GlobalAvgPool1d",
    "GlobalAvgPool2d",
    "ElmanRNN",
    "SequenceStride",
    "Loss",
    "CrossEntropyLoss",
    "MSELoss",
    "DetectionLoss",
    "softmax",
    "Optimizer",
    "SGD",
    "Adam",
    "LRSchedule",
    "ConstantLR",
    "StepDecayLR",
    "CosineLR",
    "build_optimizer",
    "TrainingResult",
    "train_model",
    "evaluate_accuracy",
    "top_k_accuracy",
    "confusion_matrix",
    "precision_recall",
    "macro_f1",
    "box_iou",
    "state_dict",
    "load_state_dict",
    "save_model",
    "load_model",
    "BACKWARD_FLOPS_FACTOR",
]
