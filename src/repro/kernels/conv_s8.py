"""int8 convolution kernel (the NumPy analogue of ``arm_convolve_s8``).

The kernel follows the CMSIS-NN dataflow: im2col patch extraction, then the
int8 MAC core of :mod:`repro.kernels.accumulate` (exact matrix product with
int32-equivalent accumulation, bias addition, per-channel requantization,
activation clamping and saturation to int8), the same core
:func:`~repro.kernels.fully_connected_s8.fully_connected_s8` and the VM's
turbo mode run.  Like ``arm_convolve_s8``, which never holds more than a
small im2col buffer, it gathers and multiplies the patches one block of
images at a time (:func:`~repro.kernels.accumulate.convolve_blocked`, sized
by :data:`~repro.kernels.accumulate.PATCH_BLOCK_BYTES`), so the batch's
whole patch matrix is never materialised.  Like ``arm_convolve_s8``'s fused
patch fill and in-register requantize, the gather and the epilogue around
the BLAS product run in C (:mod:`repro.kernels.native`) where ``gcc`` is
available, else in NumPy, with the same bits either way.

:func:`convolve_s8_stacked` runs one layer under D retention masks at once
-- the design-space exploration's sibling designs -- gathering each block of
patches once for one wide BLAS product whose column slices are requantized
set by set (a strided epilogue).  :func:`convolve_s8` is its one-mask case,
so both run the same code.

Two features go beyond the stock kernel and exist for the paper's framework:

* ``weight_mask`` -- a boolean ``(out_channels, K)`` matrix selecting which
  operands (products ``a_i * w_i``) are *retained*.  Masked-out operands are
  skipped exactly as the paper's significance-aware computation skipping
  omits them from the generated unpacked code; the bias and the input-offset
  correction are recomputed from the retained weights only, so the kernel is
  bit-identical to running generated code without those MAC instructions.
* ``counter`` -- optional :class:`CycleCounter` recording operation counts.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kernels.accumulate import convolve_blocked, prepare_weights
from repro.kernels.cycle_counters import CycleCounter, KernelStats


def convolve_s8(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray],
    input_zero_point: int,
    output_zero_point: int,
    output_multipliers: np.ndarray,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    activation_min: int = -128,
    activation_max: int = 127,
    weight_mask: Optional[np.ndarray] = None,
    counter: Optional[CycleCounter] = None,
    section: str = "conv",
) -> np.ndarray:
    """Quantized 2-D convolution.

    Parameters
    ----------
    x:
        int8 NHWC input ``(N, H, W, Cin)``.
    weights:
        int8 OHWI weights ``(Cout, kh, kw, Cin)`` (symmetric, zero-point 0).
    bias:
        int32 per-output-channel bias (scale ``input_scale * weight_scale``),
        or ``None``.
    input_zero_point, output_zero_point:
        Activation zero points.
    output_multipliers:
        Real per-channel requantization multipliers
        ``input_scale * weight_scale[c] / output_scale``.
    stride, padding:
        Convolution geometry.
    activation_min, activation_max:
        Output clamp range (fused ReLU sets ``activation_min`` to the output
        zero point).
    weight_mask:
        Optional boolean ``(Cout, kh*kw*Cin)`` retention mask.
    counter, section:
        Optional operation counter and section name.

    Returns
    -------
    ndarray
        int8 output of shape ``(N, out_h, out_w, Cout)``: the one weight set
        of :func:`convolve_s8_stacked`.
    """
    (out,) = convolve_s8_stacked(
        x, weights, bias, input_zero_point, output_zero_point, output_multipliers, stride,
        padding, activation_min, activation_max, weight_masks=[weight_mask],
    )
    if counter is not None:
        out_c, k = np.shape(weights)[0], int(np.prod(np.shape(weights)[1:]))
        retained = out_c * k if weight_mask is None else int(np.count_nonzero(weight_mask))
        patches = int(np.prod(out.shape[:3]))
        counter.record(
            section,
            KernelStats(
                macs=patches * retained,
                macs_skipped=patches * (out_c * k - retained),
                output_elements=patches * out_c,
                patch_elements=patches * k,
                input_elements=int(np.prod(np.shape(x))),
                bias_loads=patches * out_c,
            ),
        )
    return out


def convolve_s8_stacked(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray],
    input_zero_point: int,
    output_zero_point: int,
    output_multipliers: np.ndarray,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    activation_min: int = -128,
    activation_max: int = 127,
    weight_masks: Sequence[Optional[np.ndarray]] = (None,),
) -> np.ndarray:
    """One layer's convolution of ``x`` under each of D retention masks, sharing one patch gather.

    The arguments are those of :func:`convolve_s8`, with one mask (or
    ``None``) per weight set in ``weight_masks``.  Returns the int8
    ``(D, N, out_h, out_w, Cout)`` outputs; ``out[d]`` is bit for bit
    ``convolve_s8(..., weight_mask=weight_masks[d])``.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.dtype != np.int8 or weights.dtype != np.int8:
        raise TypeError("convolve_s8 expects int8 activations and weights")
    _, _, _, in_c = x.shape
    out_c, kh, kw, w_in_c = weights.shape
    if w_in_c != in_c:
        raise ValueError(f"channel mismatch: input {in_c} vs weights {w_in_c}")
    if not weight_masks:
        raise ValueError("weight_masks needs at least one weight set")
    matrix = weights.reshape(out_c, kh * kw * in_c)
    sets = [prepare_weights(matrix, mask, input_zero_point, bias) for mask in weight_masks]
    w = sets[0][0] if len(sets) == 1 else np.concatenate([w for w, _ in sets])
    return convolve_blocked(
        x, (kh, kw), stride, padding, input_zero_point, w, np.stack([init for _, init in sets]),
        output_multipliers, output_zero_point, activation_min, activation_max,
    )
