"""int8 fully-connected kernel (analogue of ``arm_fully_connected_s8``).

The input rows are the patches of the int8 MAC core in
:mod:`repro.kernels.accumulate`, which this kernel shares with
:func:`~repro.kernels.conv_s8.convolve_s8` and the VM's turbo mode.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.accumulate import accumulate_requantize, prepare_weights
from repro.kernels.cycle_counters import CycleCounter, KernelStats


def fully_connected_s8(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray],
    input_zero_point: int,
    output_zero_point: int,
    output_multipliers: np.ndarray,
    activation_min: int = -128,
    activation_max: int = 127,
    weight_mask: Optional[np.ndarray] = None,
    counter: Optional[CycleCounter] = None,
    section: str = "fc",
) -> np.ndarray:
    """Quantized fully-connected layer.

    Parameters
    ----------
    x:
        int8 input ``(N, in_features)``.
    weights:
        int8 weights ``(in_features, out_features)`` (symmetric per-channel
        along the output axis).
    bias:
        Optional int32 bias ``(out_features,)``.
    output_multipliers:
        Real per-output-channel requantization multipliers.
    weight_mask:
        Optional boolean ``(out_features, in_features)`` retention mask (same
        orientation as the conv kernel's mask: one row per output).
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.dtype != np.int8 or weights.dtype != np.int8:
        raise TypeError("fully_connected_s8 expects int8 activations and weights")
    if x.ndim != 2:
        raise ValueError(f"input must be 2-D, got shape {x.shape}")
    in_features, out_features = weights.shape
    if x.shape[1] != in_features:
        raise ValueError(f"feature mismatch: input {x.shape[1]} vs weights {in_features}")

    w, init = prepare_weights(weights.T, weight_mask, input_zero_point, bias)
    out = accumulate_requantize(
        x.astype(w.dtype), w, init, output_multipliers,
        output_zero_point, activation_min, activation_max,
    )

    if counter is not None:
        n = x.shape[0]
        retained = in_features * out_features if weight_mask is None else int(np.count_nonzero(weight_mask))
        counter.record(
            section,
            KernelStats(
                macs=n * retained,
                macs_skipped=n * (in_features * out_features - retained),
                output_elements=n * out_features,
                input_elements=n * in_features,
                bias_loads=n * out_features,
            ),
        )
    return out
