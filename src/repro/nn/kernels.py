"""Hot-path im2col/col2im and pooling kernels.

The convolution and pooling layers funnel all of their array-heavy work
through this module: strided kernels over layer-owned, reused buffers.
``im2col`` copies patches in runs its input holds contiguously (one
plain slice per kernel offset from a channel-last input, one strided
window view otherwise).  ``col2im`` accumulates one strided slice per
kernel offset: for a fixed offset ``k`` the destination indices
``o * stride + k`` are strictly increasing, so the slice has **no
duplicate indices** and a plain ``+=`` is exact — no scatter needed.
The pooling backward is one assignment on a flat index whose table is
built once per buffer.

*A gradient buffer is laid out like the activation it pairs with.*  The
conv gemm emits ``(N, P, C_out)`` memory viewed as ``(N, C_out, P)``, so
inside a conv trunk every activation is channel-last; the col2im and
pooling-backward buffers take the memory order of the forward tensor
they mirror (:func:`scratch_like`, read off its strides) behind the
usual ``(N, C, ...)`` views, and a C-order input gets C-order buffers by
the same rule.  Layout moves bytes, never an operand or a reduction
order, so no result bit depends on it (DESIGN §5c,
``tests/test_nn_layout.py``).

Equivalence contract, against the original ``np.add.at`` /
fancy-indexing implementations kept as the oracle in
``tests/kernel_oracle.py`` (pinned by ``tests/test_nn_kernels.py``): the
gather/scatter and pooling kernels are **bit-identical** to the oracle
for every shape — they add the same contributions in the same
kernel-offset order, and IEEE-754 addition of an identical operand
sequence yields identical bits.  The conv input-gradient entry points
additionally run a gemm, whose flattened batching (see
:func:`scratch_matmul`) may differ by an ulp from the oracle's batched
``@`` at shapes where numpy dispatches the two layouts to different
inner kernels; the per-kernel contract there is agreement to ≤1e-10,
while end-to-end seeded training on the repo's workloads stays
bit-identical to the oracle (the fingerprints do not move).  The layers
call every kernel through this module's attributes, which is how the
oracle swaps in under whole models.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided


def _nested_empty(
    shape: Tuple[int, ...], strides: Optional[Sequence[int]], dtype
) -> np.ndarray:
    """Dense uninitialised ``shape`` array: the batch axis outermost, the
    others nested in memory in the order ``strides`` ranks them (``None``
    and ties: C order)."""
    inner = range(1, len(shape))
    nesting = [0] + (
        sorted(inner, key=lambda axis: -abs(strides[axis]))
        if strides else list(inner)
    )
    return np.empty([shape[axis] for axis in nesting], dtype).transpose(
        sorted(range(len(shape)), key=nesting.__getitem__)
    )


def scratch_like(
    shape: Tuple[int, ...],
    strides: Optional[Sequence[int]],
    scratch: dict,
    key: str,
) -> np.ndarray:
    """Uninitialised float64 ``shape`` buffer laid out like a tensor with
    ``strides`` (the layout rule of the module docstring), kept in
    ``scratch[key]``.  Its batch axis being outermost, it serves every
    batch up to the largest seen as a prefix: an epoch's short last batch
    reallocates nothing and keeps the pooling index tables valid."""
    layout = (shape[1:], strides and strides[1:])
    buf = scratch.get(key)
    if (
        buf is None
        or len(buf) < shape[0]
        or scratch[key + ".layout"] != layout
    ):
        buf = scratch[key] = _nested_empty(shape, strides, np.float64)
        scratch[key + ".layout"] = layout
    return buf[:shape[0]]


def scratch_matmul(
    a: np.ndarray, b: np.ndarray, scratch: dict, key: str
) -> np.ndarray:
    """``a @ b`` into a buffer kept in ``scratch`` while shapes match.

    A batched ``(N, M, K) @ (K, P)`` product is computed as one flattened
    ``(N*M, K) @ (K, P)`` gemm: BLAS handles a single tall matrix far
    better than N small calls, and because gemm reduces over K in the
    same order regardless of M, the result is bit-identical (asserted by
    the property tests in ``tests/test_nn_kernels.py``).
    """
    shape = a.shape[:-1] + (b.shape[-1],)
    buf = scratch_like(shape, None, scratch, key)
    if a.ndim == b.ndim + 1 and a.flags.c_contiguous:
        rows = b.shape[:-2] + (-1,)
        np.matmul(
            a.reshape(rows + a.shape[-1:]), b,
            out=buf.reshape(rows + shape[-1:]),
        )
    else:
        np.matmul(a, b, out=buf)
    return buf


# ---------------------------------------------------------------------------
# 1-D convolution
# ---------------------------------------------------------------------------

def im2col_1d(
    inputs: np.ndarray,
    kernel: int,
    stride: int,
    out_len: int,
    scratch: Optional[dict] = None,
) -> np.ndarray:
    """(N, C, L) -> (N, Lo, C*K) patch matrix in a reused ``(N, Lo, C, K)``
    buffer kept in the layer-owned ``scratch`` (the result aliases it and
    is only valid until the next call with the same dict); element
    ``(n, p, c, k)`` is ``x[n, c, p*stride + k]``, copied in runs the
    input holds contiguously.  Channel-last (what a conv trunk produces):
    offset ``k`` of every patch is the slice ``x[:, :, k::stride]``, one
    plain copy per offset in runs of ``C``.  Length-contiguous (a data
    batch): the patches are one strided window view, copied in runs of
    ``K``.  Measurements: DESIGN §5c."""
    batch, channels, _ = inputs.shape
    cols = scratch_like(
        (batch, out_len, channels, kernel), None,
        {} if scratch is None else scratch, "cols",
    )
    by_sample, by_channel, by_step = inputs.strides
    if by_channel < by_step:
        moved = inputs.transpose(0, 2, 1)  # (N, L, C)
        span = (out_len - 1) * stride + 1
        for k in range(kernel):
            cols[..., k] = moved[:, k:k + span:stride]
    else:
        np.copyto(cols, as_strided(
            inputs, cols.shape,
            (by_sample, by_step * stride, by_channel, by_step),
        ))
    return cols.reshape(batch, out_len, channels * kernel)


def _offset_major_grad_cols(
    grad_out: np.ndarray,
    weight: np.ndarray,
    channels: int,
    offsets: int,
    scratch: dict,
) -> np.ndarray:
    """Patch gradient ``grad_out @ W'.T``, kernel offset outermost.

    The ``(..., C*offsets, C_out)`` weight is permuted to offset-major
    rows so the gemm emits each offset's contributions as one contiguous
    ``(..., C)`` block instead of an ``offsets``-strided gather.
    Permuting gemm columns does not change any dot product, so the values
    are bit-identical to the oracle's layout.
    """
    lanes, out_channels = weight.shape[:-2], weight.shape[-1]
    w_perm = weight.reshape(
        lanes + (channels, offsets, out_channels)
    ).swapaxes(-3, -2).reshape(lanes + (offsets * channels, out_channels))
    return scratch_matmul(
        grad_out, w_perm.swapaxes(-1, -2), scratch, "grad_cols"
    )


def conv1d_input_grad(
    grad_out: np.ndarray,
    weight: np.ndarray,
    input_shape: Tuple[int, int, int],
    kernel: int,
    stride: int,
    scratch: dict,
    input_strides: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Gradient w.r.t. the conv input: ``grad_out`` (N, Lo, C_out) back
    through ``weight`` (C*K, C_out) and the im2col gather, via an
    offset-major gemm and strided slice-adds.

    Per offset ``k``, the destinations ``o*stride + k`` are strictly
    increasing in ``o`` — no duplicate indices, so a plain ``+=`` on the
    strided slice is exact and ``np.add.at`` is unnecessary.  The
    slice-adds run in a buffer laid out like a tensor with
    ``input_strides`` — those of the forward input (C order when not
    given) — so each offset's ``(N, Lo, C)`` block is added over
    contiguous channel runs when that input was channel-last.

    ``scratch`` is a layer-owned dict reused for the gemm and gradient
    buffers across steps; the returned array aliases it and is only
    valid until the next call with the same dict.
    """
    channels, length = input_shape[-2:]
    out_len = grad_out.shape[-2]
    grad_cols = _offset_major_grad_cols(
        grad_out, weight, channels, kernel, scratch
    )  # (..., Lo, K*C)
    blocks = grad_cols.reshape(-1, out_len, kernel, channels)
    folded = scratch_like(
        (len(blocks), channels, length), input_strides, scratch, "grad_input"
    )
    folded.fill(0.0)
    for k in range(kernel):
        end = k + (out_len - 1) * stride + 1
        folded[:, :, k:end:stride] += blocks[:, :, k, :].transpose(0, 2, 1)
    return folded.reshape(input_shape)


# ---------------------------------------------------------------------------
# 2-D convolution
# ---------------------------------------------------------------------------

def im2col_2d(
    inputs: np.ndarray,
    kernel: int,
    stride: int,
    out_h: int,
    out_w: int,
    scratch: Optional[dict] = None,
) -> np.ndarray:
    """(N, C, H, W) -> (N, Ho*Wo, C*K*K): the strided window view copied
    once into a reused ``(N, Ho, Wo, C, K, K)`` buffer; ``scratch`` as for
    :func:`im2col_1d`.  (With K*K offsets to pass over, per-offset slice
    copies do not beat the single copy in 2-D at any layout or size
    measured — DESIGN §5c.)"""
    batch, channels, _, _ = inputs.shape
    cols = scratch_like(
        (batch, out_h, out_w, channels, kernel, kernel), None,
        {} if scratch is None else scratch, "cols",
    )
    by_sample, by_channel, by_row, by_col = inputs.strides
    np.copyto(cols, as_strided(
        inputs, cols.shape,
        (by_sample, by_row * stride, by_col * stride, by_channel,
         by_row, by_col),
    ))
    return cols.reshape(batch, out_h * out_w, channels * kernel * kernel)


def conv2d_input_grad(
    grad_out: np.ndarray,
    weight: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    out_h: int,
    out_w: int,
    kernel: int,
    stride: int,
    scratch: dict,
    input_strides: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Gradient w.r.t. the conv input: ``grad_out`` (N, Ho*Wo, C_out)
    back through ``weight`` (C*K*K, C_out) and the im2col gather.  The
    2-D analogue of :func:`conv1d_input_grad` (``scratch`` and
    ``input_strides`` as there): offset-major gemm so each (dy, dx) slice
    is a contiguous ``(N, Ho, Wo, C)`` block, then one exact strided
    slice-add per kernel offset."""
    channels = input_shape[-3]
    k, s = kernel, stride
    grad_cols = _offset_major_grad_cols(
        grad_out, weight, channels, k * k, scratch
    )  # (..., Ho*Wo, K*K*C)
    blocks = grad_cols.reshape(-1, out_h, out_w, k * k, channels)
    folded = scratch_like(
        (len(blocks),) + tuple(input_shape[-3:]), input_strides, scratch,
        "grad_input",
    )
    folded.fill(0.0)
    for dy in range(k):
        row_end = dy + (out_h - 1) * s + 1
        for dx in range(k):
            col_end = dx + (out_w - 1) * s + 1
            folded[:, :, dy:row_end:s, dx:col_end:s] += blocks[
                :, :, :, dy * k + dx, :
            ].transpose(0, 3, 1, 2)
    return folded.reshape(input_shape)


# ---------------------------------------------------------------------------
# Max pooling (non-overlapping windows: kernel == stride)
# ---------------------------------------------------------------------------

def maxpool_forward(windows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce the trailing window axis to ``(max, argmax)`` in one pass.

    ``argmax`` fully determines the max (``take_along_axis`` at the argmax
    *is* the window maximum, bit for bit), so a second full ``max``
    reduction is redundant.  The ubiquitous kernel-2 case collapses
    further to a single vectorized comparison whose tie-breaking (first
    maximum wins) matches ``argmax`` exactly.
    """
    if windows.shape[-1] == 2:
        first, second = windows[..., 0], windows[..., 1]
        # maximum.reduce over two lanes IS np.maximum — bit-identical,
        # NaN-propagating.  Ties keep index 0, matching argmax; a NaN
        # window can misroute argmax, but a NaN maximum also NaNs the
        # loss, which aborts the trial before any backward consumes it.
        argmax = (second > first).astype(np.intp)
        return np.maximum(first, second), argmax
    if windows.shape[-1] == 4:
        # 2x2 pooling windows: a comparison tournament.  maximum() keeps
        # the later operand on ties exactly like maximum.reduce's left
        # fold, and the index selection keeps the first maximum exactly
        # like argmax, so both outputs stay bit-identical.
        w0, w1 = windows[..., 0], windows[..., 1]
        w2, w3 = windows[..., 2], windows[..., 3]
        front_idx = (w1 > w0).astype(np.intp)
        back_idx = (w3 > w2).astype(np.intp)
        back_idx += 2
        front = np.maximum(w0, w1)
        back = np.maximum(w2, w3)
        return np.maximum(front, back), np.where(
            back > front, back_idx, front_idx
        )
    argmax = windows.argmax(axis=-1)
    maxima = np.take_along_axis(windows, argmax[..., None], axis=-1)
    return maxima[..., 0], argmax


def maxpool2d_forward(
    trimmed: np.ndarray, kernel: int
) -> Tuple[np.ndarray, np.ndarray]:
    """2-D window reduction of a pre-trimmed (N, C, Ho*K, Wo*K) input to
    ``(max, argmax)``, with argmax numbered in row-major K*K lane order.

    K=2 reduces the four strided lane views directly — no copy, one
    comparison tournament (bit-identical, see :func:`maxpool_forward`).
    Other kernels materialize every window as a trailing axis (one full
    input copy) and reduce that.
    """
    batch, channels, height, width = trimmed.shape
    k = kernel
    region = trimmed.reshape(
        batch, channels, height // k, k, width // k, k
    )  # axis-splitting views even a sliced input; no copy
    if k == 2:
        w0, w1 = region[:, :, :, 0, :, 0], region[:, :, :, 0, :, 1]
        w2, w3 = region[:, :, :, 1, :, 0], region[:, :, :, 1, :, 1]
        front_idx = (w1 > w0).astype(np.intp)
        back_idx = (w3 > w2).astype(np.intp)
        back_idx += 2
        front = np.maximum(w0, w1)
        back = np.maximum(w2, w3)
        return np.maximum(front, back), np.where(
            back > front, back_idx, front_idx
        )
    return maxpool_forward(region.transpose(0, 1, 2, 4, 3, 5).reshape(
        batch, channels, height // k, width // k, k * k
    ))


def maxpool1d_backward(
    grad_output: np.ndarray,
    input_shape: Tuple[int, ...],
    out_len: int,
    kernel: int,
    argmax: np.ndarray,
    scratch: Optional[dict] = None,
) -> np.ndarray:
    """Route ``grad_output`` to each window's argmax position: one
    assignment on a flat index, 1-D and 2-D alike.

    The gradient buffer, kept in the layer-owned ``scratch`` (the result
    aliases it until the next call), is laid out like ``argmax`` (and so
    like the pooled activation), ``flat`` is its memory as one 1-D array
    and ``base`` the flat position of every window's first cell — built
    once per buffer, kept with it in ``scratch`` and, like it, serving a
    smaller batch as a prefix.  Window cell ``argmax`` (row-major in the
    window: ``dy*K + dx``) lies ``argmax`` column steps on, plus, per row,
    a row step less the K column steps already counted.  The windows are
    disjoint, so no index repeats and the assignment is exact; cells no
    window reaches (a trailing remainder) keep the buffer's zero.
    ``out_len`` is implied by ``argmax`` and not read.
    """
    if scratch is None:
        scratch = {}
    grad = scratch_like(input_shape, argmax.strides, scratch, "grad_input")
    full = scratch["grad_input"]
    plan = scratch.get("plan")
    if plan is None or plan[0] is not full or plan[1] != kernel:
        steps = [stride // full.itemsize for stride in full.strides]
        base = _nested_empty(
            (len(full),) + argmax.shape[1:], argmax.strides, np.intp
        )
        base.fill(0)
        for axis, size in enumerate(base.shape):
            window = kernel if axis >= 2 else 1
            base += (np.arange(size) * (window * steps[axis])).reshape(
                (size,) + (1,) * (base.ndim - 1 - axis)
            )
        plan = scratch["plan"] = (
            full, kernel, steps, full.ravel(order="K"), base,
            np.empty_like(base),
        )
    _, _, steps, flat, base, index = plan
    index = index[:len(grad)]
    np.multiply(argmax, steps[-1], out=index)
    rows = argmax
    for axis in range(argmax.ndim - 2, 1, -1):
        rows = rows // kernel
        index += rows * (steps[axis] - kernel * steps[axis + 1])
    index += base[:len(grad)]
    grad.fill(0.0)
    flat[index] = grad_output
    return grad


def maxpool2d_backward(
    grad_output: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    out_h: int,
    out_w: int,
    kernel: int,
    argmax: np.ndarray,
    scratch: Optional[dict] = None,
) -> np.ndarray:
    """Route ``grad_output`` to each window's argmax position: the
    rank-free assignment of :func:`maxpool1d_backward`."""
    return maxpool1d_backward(
        grad_output, input_shape, out_w, kernel, argmax, scratch
    )
