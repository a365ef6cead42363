"""int8 convolution kernel (the NumPy analogue of ``arm_convolve_s8``).

The kernel follows the CMSIS-NN dataflow: im2col patch extraction, a matrix
multiplication between int8 patches and int8 filter weights with int32
accumulation, bias addition, per-channel requantization, activation clamping
and saturation to int8.

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

from typing import Optional, Tuple

import numpy as np

from repro.kernels.accumulate import exact_matmul_dtype
from repro.kernels.cycle_counters import CycleCounter, KernelStats
from repro.kernels.im2col import im2col_s8
from repro.nn.functional import conv_output_shape


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
        int8 output of shape ``(N, out_h, out_w, Cout)``.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.dtype != np.int8 or weights.dtype != np.int8:
        raise TypeError("convolve_s8 expects int8 activations and weights")
    n, in_h, in_w, in_c = x.shape
    out_c, kh, kw, w_in_c = weights.shape
    if w_in_c != in_c:
        raise ValueError(f"channel mismatch: input {in_c} vs weights {w_in_c}")
    out_h, out_w = conv_output_shape(in_h, in_w, (kh, kw), stride, padding)
    k = kh * kw * in_c

    w_mat = weights.reshape(out_c, k).astype(np.int64)
    if weight_mask is not None:
        weight_mask = np.asarray(weight_mask, dtype=bool)
        if weight_mask.shape != (out_c, k):
            raise ValueError(
                f"weight_mask shape {weight_mask.shape} must be ({out_c}, {k})"
            )
        w_mat = w_mat * weight_mask

    # The accumulation runs through BLAS in the cheapest float dtype whose
    # mantissa provably holds the worst-case int8xint8 accumulator (see
    # repro.kernels.accumulate), so the patches are widened straight to that
    # dtype -- no intermediate int32 patch matrix, no post-matmul conversion.
    compute_dtype = exact_matmul_dtype(k)
    cols = im2col_s8(x, (kh, kw), stride, padding, input_zero_point, dtype=compute_dtype)
    cols_flat = cols.reshape(n * out_h * out_w, k)

    # acc[p, c] = sum_i w[c, i] * (x[p, i] - in_zp)
    #           = (cols @ w.T)[p, c] - in_zp * sum_i w[c, i]
    # Every value below is an exactly-represented integer; the arithmetic is
    # carried out in float64 from the accumulator on, which is lossless
    # (< 2**53) and feeds np.rint the same numbers the int64 path produced.
    if bias is not None:
        bias = np.asarray(bias, dtype=np.int64)
        if bias.shape != (out_c,):
            raise ValueError(f"bias must have shape ({out_c},), got {bias.shape}")
    acc = (cols_flat @ w_mat.T.astype(compute_dtype)).astype(np.float64, copy=False)
    # One per-channel additive pass: bias minus the input-offset correction.
    combined = -float(input_zero_point) * w_mat.sum(axis=1).astype(np.float64)
    if bias is not None:
        combined += bias.astype(np.float64)
    acc += combined[None, :]

    # Fused requantize/offset/clamp, in place on the accumulator, with the
    # clamp casting straight into the int8 output buffer: numerically
    # identical to requantize_float + offset + clip (every intermediate is an
    # exactly-represented integer) without the int64 round trip and its
    # extra full-array passes.
    multipliers = np.broadcast_to(np.asarray(output_multipliers, dtype=np.float64), (out_c,))
    acc *= multipliers[None, :]
    np.rint(acc, out=acc)
    acc += float(output_zero_point)
    out = np.empty(acc.shape, dtype=np.int8)
    np.clip(acc, activation_min, activation_max, out=out, casting="unsafe")
    out = out.reshape(n, out_h, out_w, out_c)

    if counter is not None:
        retained = int(weight_mask.sum()) if weight_mask is not None else out_c * k
        patches = n * out_h * out_w
        counter.record(
            section,
            KernelStats(
                macs=patches * retained,
                macs_skipped=patches * (out_c * k - retained),
                output_elements=patches * out_c,
                patch_elements=patches * k,
                input_elements=n * in_h * in_w * in_c,
                bias_loads=patches * out_c,
            ),
        )
    return out
