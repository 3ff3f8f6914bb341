"""ResNet-like image classifier for the IC workload.

The paper tunes ResNet's *number of layers* in {18, 34, 50} (§5.1).  The
reproduction keeps the residual-network structure — a stem, a stack of
residual blocks whose depth scales with ``num_layers``, and a classifier
head — but builds the blocks from dense layers over flattened image
features so numpy training remains fast.  FLOPs and parameter counts grow
with ``num_layers`` just as in the original family, which is what the
hardware emulator and the tuning results depend on.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError
from ...rng import SeedLike, derive_seed, ensure_seed
from ..conv import Conv2d, GlobalAvgPool2d, MaxPool2d
from ..layers import Flatten, Linear, ReLU, Residual, Sequential

#: Paper's tunable values for the ResNet depth hyperparameter.
RESNET_LAYER_CHOICES = (18, 34, 50)


def residual_blocks_for(num_layers: int) -> int:
    """Map the nominal layer count to a stack depth.

    Real ResNet-18/34/50 have 8/16/16 blocks (the last with 3-layer
    bottlenecks); we use a simple proportional rule that preserves the
    compute ordering 18 < 34 < 50.
    """
    return max(1, num_layers // 6)


def build_resnet(
    sample_shape: tuple,
    num_classes: int,
    num_layers: int = 18,
    width: int = 32,
    seed: SeedLike = None,
) -> Sequential:
    """Construct the ResNet-like classifier.

    Parameters
    ----------
    sample_shape:
        Per-sample input shape, e.g. ``(3, 8, 8)``.
    num_layers:
        Nominal depth (18, 34 or 50 in the paper's search space; any
        positive integer is accepted).
    width:
        Hidden width of every residual block.
    """
    if num_layers <= 0:
        raise ConfigurationError(f"num_layers must be positive, got {num_layers}")
    if width <= 0:
        raise ConfigurationError(f"width must be positive, got {width}")
    base_seed = ensure_seed(seed)
    input_features = int(np.prod(sample_shape))
    model = Sequential(
        Flatten(),
        Linear(input_features, width, rng=derive_seed(base_seed, "stem")),
        ReLU(),
    )
    for block in range(residual_blocks_for(num_layers)):
        exit_layer = Linear(
            width, width, rng=derive_seed(base_seed, "block", block, 1)
        )
        # Down-scale each block's exit layer so the identity path dominates
        # at initialization — the dense-layer analogue of zero-init'ing the
        # last batch-norm in real ResNets; keeps deep stacks trainable.
        exit_layer.weight.value *= 0.1
        inner = Sequential(
            Linear(width, width, rng=derive_seed(base_seed, "block", block, 0)),
            ReLU(),
            exit_layer,
        )
        model.append(Residual(inner))
        model.append(ReLU())
    model.append(Linear(width, num_classes, rng=derive_seed(base_seed, "head")))
    return model


def build_conv_resnet(
    sample_shape: tuple,
    num_classes: int,
    num_layers: int = 18,
    width: int = 32,
    seed: SeedLike = None,
) -> Sequential:
    """Convolutional variant of the ResNet-like classifier.

    A genuine conv stem (two 3x3 convolutions around a 2x2 max-pool,
    closed by global average pooling) feeding the same dense residual
    stack as :func:`build_resnet`.  :class:`~repro.nn.conv.Conv2d` has no
    padding and :class:`~repro.nn.layers.Residual` requires its inner
    module to preserve shape, so the residual blocks themselves stay
    dense; the convolutions are where the im2col/col2im kernels spend
    their time, which is what this variant exists to exercise.

    Not the default IC model (tuning results were produced with
    :func:`build_resnet` and must stay reproducible); the NN tests use
    it to drive the 2-D conv kernels through a whole model.
    """
    if num_layers <= 0:
        raise ConfigurationError(f"num_layers must be positive, got {num_layers}")
    if width <= 0:
        raise ConfigurationError(f"width must be positive, got {width}")
    base_seed = ensure_seed(seed)
    channels = int(sample_shape[0])
    model = Sequential(
        Conv2d(channels, width, 3, rng=derive_seed(base_seed, "conv-stem")),
        ReLU(),
        MaxPool2d(2),
        Conv2d(width, width, 3, rng=derive_seed(base_seed, "conv-stem", 1)),
        ReLU(),
        GlobalAvgPool2d(),
    )
    for block in range(residual_blocks_for(num_layers)):
        exit_layer = Linear(
            width, width, rng=derive_seed(base_seed, "block", block, 1)
        )
        exit_layer.weight.value *= 0.1
        inner = Sequential(
            Linear(width, width, rng=derive_seed(base_seed, "block", block, 0)),
            ReLU(),
            exit_layer,
        )
        model.append(Residual(inner))
        model.append(ReLU())
    model.append(Linear(width, num_classes, rng=derive_seed(base_seed, "head")))
    return model
