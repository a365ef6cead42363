"""The int8 MAC core shared by every exact execution path.

A quantized conv or dense layer is a masked multiply-accumulate followed by
bias, requantize, output offset and int8 saturation; the paper's computation
skipping only changes which operands are retained.  :func:`convolve_s8`,
:func:`fully_connected_s8` and the VM's turbo mode all run
:func:`accumulate_requantize`; they differ only in where the masked weights
and the per-channel init come from (:func:`prepare_weights` on the layer's
constants for the kernels, the lowered instruction stream for the VM).

The product runs through BLAS in float, which is *exact* while every partial
sum fits in the mantissa (2**24 for float32, 2**53 for float64), so the
result does not depend on the summation order.  The input offset is folded
into the init: ``acc = patches @ w.T + bias - zp_in * w.sum(axis=1)``.

Convolutions run blocked (:func:`convolve_blocked`), following the dataflow
of CMSIS-NN's ``arm_convolve_s8``, which fills a small im2col buffer and
multiplies it at once: the batch is cut into blocks of whole images whose
float patch matrix and accumulator fit in :data:`PATCH_BLOCK_BYTES`, and
each block is gathered, multiplied and requantized straight into its rows
of the int8 output.  The patches and the accumulator stay cache-resident
instead of streaming the whole batch's patch matrix through memory several
times.  Every output element still goes through the same exact product and
the same float64 epilogue, so blocking cannot change a single bit.

The blocked convolution takes D stacked weight sets -- the same layer under
D masks, as the design-space exploration scores them -- and gathers each
block once for all of them: one ``(patches, D * Cout)`` BLAS product, then
one epilogue per set on its column slice.  A plain convolution is the
``D = 1`` case, so stacked and single convolutions share one code path and
give the same bits.

The gather and the epilogue run in C (:mod:`repro.kernels.native`, built
with the local ``gcc`` on first use) wherever it loads, and the product stays
in BLAS.  Without ``gcc`` the NumPy code runs instead:
:func:`~repro.kernels.im2col.im2col_s8` and the ufunc epilogue of
:func:`requantize_rows`, which are also the oracle the native kernels are
tested against.  Both give the same bits.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.im2col import im2col_s8
from repro.kernels.native import load_native
from repro.nn.functional import conv_output_shape

#: Byte budget of one block's float patch matrix plus its accumulator in
#: :func:`convolve_blocked`.
#: A fixed constant, picked from a sweep of LeNet batch-256 forwards on a
#: 2-core Xeon (2 MiB L2 per core; two processes on one OpenBLAS thread each):
#: 2-4 MiB blocks ran conv1 + conv2 ~35% faster than the whole batch, 1 MiB
#: and 8 MiB blocks lost part of that.
PATCH_BLOCK_BYTES = 4 << 20

#: Maximum absolute value of an int8 x int8 product ((-128) * (-128)).
_MAX_PRODUCT = 128 * 128


def exact_matmul_dtype(reduction_depth: int) -> np.dtype:
    """Smallest float dtype whose mantissa can hold the worst-case accumulator.

    Parameters
    ----------
    reduction_depth:
        Number of products summed per output element (``K``).
    """
    worst_case = int(reduction_depth) * _MAX_PRODUCT
    if worst_case < 2**24:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def prepare_weights(
    weights: np.ndarray,
    weight_mask: Optional[np.ndarray],
    input_zero_point: int,
    bias: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Masked ``(Cout, K)`` weights in the exact compute dtype, plus the float64 init.

    ``weights`` is the int8 ``(Cout, K)`` matrix, one row per output channel;
    skipped operands of the optional boolean ``weight_mask`` get weight zero
    and so drop out of the init ``bias - zp_in * row_sum`` too.
    """
    out_c, k = weights.shape
    w = weights.astype(exact_matmul_dtype(k))
    if weight_mask is not None:
        weight_mask = np.asarray(weight_mask, dtype=bool)
        if weight_mask.shape != (out_c, k):
            raise ValueError(f"weight_mask shape {weight_mask.shape} must be ({out_c}, {k})")
        w *= weight_mask
    init = -float(input_zero_point) * w.sum(axis=1, dtype=np.float64)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.int64)
        if bias.shape != (out_c,):
            raise ValueError(f"bias must have shape ({out_c},), got {bias.shape}")
        init += bias
    return w, init


def accumulate_requantize(
    patches: np.ndarray,
    weights: np.ndarray,
    init: np.ndarray,
    multipliers: np.ndarray,
    output_zero_point: int,
    activation_min: int,
    activation_max: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact int8 MAC plus requantize: ``(P, K)`` patches -> ``(P, Cout)`` int8.

    ``patches`` and the ``(Cout, K)`` ``weights`` share the exact compute
    dtype.  The result is written into ``out`` (a C-contiguous ``(P, Cout)``
    int8 array) when given, else into a new array; see :func:`requantize_rows`.
    """
    acc = patches @ weights.T
    if out is None:
        out = np.empty(acc.shape, dtype=np.int8)
    requantize_rows(acc, init, multipliers, output_zero_point, activation_min, activation_max, out)
    return out


def requantize_rows(
    acc: np.ndarray,
    init: np.ndarray,
    multipliers: np.ndarray,
    output_zero_point: int,
    activation_min: int,
    activation_max: int,
    out: np.ndarray,
) -> None:
    """The epilogue: ``(P, Cout)`` accumulator -> int8 ``out``, in the native kernel when loaded.

    From the accumulator on every value is an exactly-represented integer in
    float64, so ``rint((acc + init) * multiplier) + zp_out``, clamped and cast
    straight into the int8 output, is what the int32 code computes.  ``acc``
    may be one weight set's column slice of a stacked accumulator.  The
    NumPy code below is the fallback without ``gcc`` and the oracle the
    native kernel is tested against; it may overwrite a float64 ``acc``.
    """
    native = load_native()
    if native is not None:
        native.requantize(
            acc, init, multipliers, output_zero_point, activation_min, activation_max, out
        )
        return
    acc = acc.astype(np.float64, copy=False)
    acc += init
    acc *= np.asarray(multipliers, dtype=np.float64)
    np.rint(acc, out=acc)
    acc += float(output_zero_point)
    np.clip(acc, activation_min, activation_max, out=out, casting="unsafe")


def convolve_blocked(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    input_zero_point: int,
    weights: np.ndarray,
    init: np.ndarray,
    multipliers: np.ndarray,
    output_zero_point: int,
    activation_min: int,
    activation_max: int,
) -> np.ndarray:
    """Exact int8 convolution of NHWC ``x`` by D stacked weight sets, one block of images at a time.

    ``weights`` is the ``(D * Cout, K)`` matrix of D masked weight sets in
    the exact compute dtype, stacked set after set, and ``init`` their
    ``(D, Cout)`` float64 (or int64) init, as :func:`prepare_weights`
    returns them for each set.  Each block of ``max(1, PATCH_BLOCK_BYTES //
    (out_h * out_w * (K + D * Cout) * itemsize))`` images -- its patch
    matrix and its accumulator together fit the budget -- is gathered once
    in the compute dtype (by the native gather into one patch buffer reused
    across blocks, else by :func:`~repro.kernels.im2col.im2col_s8`),
    multiplied once by BLAS into one reused ``(block * out_h * out_w, D *
    Cout)`` accumulator, and each set's column slice is requantized
    (:func:`requantize_rows`) into its rows of the ``(D, N, out_h, out_w,
    Cout)`` int8 output.  A single convolution is the ``D = 1`` case.
    """
    n, in_h, in_w, _ = x.shape
    sets, out_c = init.shape
    k = weights.shape[1]
    if weights.shape[0] != sets * out_c:
        raise ValueError(f"weights {weights.shape} do not stack {sets} sets of {out_c} channels")
    out_h, out_w = conv_output_shape(in_h, in_w, kernel, stride, padding)
    positions = out_h * out_w
    out = np.empty((sets, n, out_h, out_w, out_c), dtype=np.int8)
    rows = out.reshape(sets, n * positions, out_c)
    width = sets * out_c
    block = max(1, min(n, PATCH_BLOCK_BYTES // (positions * (k + width) * weights.dtype.itemsize)))
    native = load_native()
    if native is not None:
        x = np.ascontiguousarray(x)
        cols = np.empty((block * positions, k), dtype=weights.dtype)
    acc = np.empty((block * positions, width), dtype=weights.dtype)
    for start in range(0, n, block):
        stop = min(start + block, n)
        m = (stop - start) * positions
        if native is None:
            patches = im2col_s8(
                x[start:stop], kernel, stride, padding, input_zero_point, dtype=weights.dtype
            ).reshape(m, k)
        else:
            patches = cols[:m]
            native.gather(x[start:stop], kernel, stride, padding, input_zero_point, patches)
        np.matmul(patches, weights.T, out=acc[:m])
        for d in range(sets):
            requantize_rows(
                acc[:m, d * out_c:(d + 1) * out_c], init[d], multipliers, output_zero_point,
                activation_min, activation_max, out=rows[d, start * positions:stop * positions],
            )
    return out
