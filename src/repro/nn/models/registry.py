"""Model family registry.

A :class:`ModelFamily` bundles everything the tuning system needs to know
about an architecture family: how to build an instance from model
hyperparameters, which loss trains it, and the family's tunable
model-hyperparameter (paper §5.1: ResNet → num_layers, M5 → embedding_dim,
RNN → stride, YOLO → dropout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

from ...errors import WorkloadError
from ...rng import SeedLike
from ...space import Categorical, Float, Integer, Parameter
from ..losses import CrossEntropyLoss, DetectionLoss, Loss
from ..module import Module
from .m5 import M5_EMBEDDING_CHOICES, build_m5
from .resnet import RESNET_LAYER_CHOICES, build_resnet
from .textrnn import TEXTRNN_STRIDE_RANGE, build_textrnn
from .yolo import YOLO_DROPOUT_RANGE, build_yolo


@dataclass(frozen=True)
class ModelFamily:
    """Architecture family metadata used by workloads and tuning servers."""

    name: str
    build: Callable[..., Module]
    make_loss: Callable[[int], Loss]
    model_parameter: Parameter
    default_hyperparameters: Mapping[str, Any]
    task: str = "classification"
    #: Hyperparameters that change tensor *shapes* (layer widths/depths).
    #: Trials agreeing on these (plus budget and data) can be stacked into
    #: one batched training run; the remaining hyperparameters are scalars
    #: (lr, momentum, dropout) that batch along the lane axis.
    shape_hyperparameters: Tuple[str, ...] = ()
    #: Whether every layer of the family is lane-safe, so
    #: :func:`repro.nn.batched.stack_modules` can stack its models
    #: (recurrent families are not).
    stackable: bool = False

    def instantiate(
        self,
        sample_shape: tuple,
        num_classes: int,
        hyperparameters: Mapping[str, Any] = None,
        seed: SeedLike = None,
    ) -> Module:
        """Build a model, overlaying ``hyperparameters`` on the defaults.

        Unknown keys are ignored so a full tuning configuration (which also
        carries training/system parameters) can be passed directly.
        """
        merged = dict(self.default_hyperparameters)
        if hyperparameters:
            merged.update(
                (k, v) for k, v in hyperparameters.items() if k in merged
            )
        return self.build(
            sample_shape=sample_shape,
            num_classes=num_classes,
            seed=seed,
            **merged,
        )


def _classification_loss(num_classes: int) -> Loss:
    return CrossEntropyLoss()


def _detection_loss(num_classes: int) -> Loss:
    return DetectionLoss(num_classes=num_classes)


MODEL_FAMILIES: Dict[str, ModelFamily] = {
    "resnet": ModelFamily(
        name="resnet",
        build=lambda sample_shape, num_classes, seed=None, num_layers=18, width=32:
            build_resnet(sample_shape, num_classes, num_layers=num_layers,
                         width=width, seed=seed),
        make_loss=_classification_loss,
        model_parameter=Categorical(
            "num_layers", RESNET_LAYER_CHOICES, kind="model"
        ),
        default_hyperparameters={"num_layers": 18, "width": 32},
        shape_hyperparameters=("num_layers", "width"),
        stackable=True,
    ),
    "m5": ModelFamily(
        name="m5",
        build=lambda sample_shape, num_classes, seed=None, embedding_dim=32:
            build_m5(sample_shape, num_classes, embedding_dim=embedding_dim,
                     seed=seed),
        make_loss=_classification_loss,
        model_parameter=Categorical(
            "embedding_dim", M5_EMBEDDING_CHOICES, kind="model"
        ),
        default_hyperparameters={"embedding_dim": 32},
        shape_hyperparameters=("embedding_dim",),
        stackable=True,
    ),
    "textrnn": ModelFamily(
        name="textrnn",
        build=lambda sample_shape, num_classes, seed=None, stride=1, hidden_size=32:
            build_textrnn(sample_shape, num_classes, stride=stride,
                          hidden_size=hidden_size, seed=seed),
        make_loss=_classification_loss,
        model_parameter=Integer(
            "stride", TEXTRNN_STRIDE_RANGE[0], TEXTRNN_STRIDE_RANGE[1],
            log=True, kind="model",
        ),
        default_hyperparameters={"stride": 1, "hidden_size": 32},
    ),
    "yolo": ModelFamily(
        name="yolo",
        build=lambda sample_shape, num_classes, seed=None, dropout=0.1,
                     trunk_channels=12:
            build_yolo(sample_shape, num_classes, dropout=dropout,
                       trunk_channels=trunk_channels, seed=seed),
        make_loss=_detection_loss,
        model_parameter=Float(
            "dropout", YOLO_DROPOUT_RANGE[0], YOLO_DROPOUT_RANGE[1],
            kind="model",
        ),
        default_hyperparameters={"dropout": 0.1, "trunk_channels": 12},
        task="detection",
        shape_hyperparameters=("trunk_channels",),
        stackable=True,
    ),
}


def model_names() -> list:
    return sorted(MODEL_FAMILIES)


def get_model_family(name: str) -> ModelFamily:
    try:
        return MODEL_FAMILIES[name.lower()]
    except KeyError:
        raise WorkloadError(
            f"unknown model family {name!r}; expected one of {model_names()}"
        ) from None
