"""CMSIS-NN-style int8 post-training quantization.

The scheme mirrors what TFLite/CMSIS-NN deployments use (and what the paper's
"8-bit post-training quantization" refers to):

* activations: per-tensor *affine* int8 (scale + zero point), ranges observed
  on a calibration subset;
* weights: per-output-channel *symmetric* int8 (zero point fixed at 0);
* biases: int32 with scale ``input_scale * weight_scale``;
* accumulation: int32; requantization to the output scale through a
  fixed-point multiplier + shift (``arm_nn_requantize``).
"""

from repro.quant.schemes import (
    QuantizationParams,
    dequantize,
    quantize,
    params_from_minmax,
    symmetric_params_from_absmax,
)
from repro.quant.observers import MinMaxObserver, PercentileObserver
from repro.kernels.requantize import (
    FixedPointMultiplier,
    quantize_multiplier,
    requantize,
    requantize_float,
    saturate_int8,
)
from repro.quant.qtensor import QTensor
from repro.quant.qlayers import (
    QAvgPool2D,
    QConv2D,
    QDense,
    QFlatten,
    QLayer,
    QMaxPool2D,
    QReLU,
)
from repro.quant.qmodel import QuantizedModel
from repro.quant.quantizer import PTQConfig, quantize_model
from repro.quant.serialization import load_quantized_model, save_quantized_model

__all__ = [
    "QuantizationParams",
    "quantize",
    "dequantize",
    "params_from_minmax",
    "symmetric_params_from_absmax",
    "MinMaxObserver",
    "PercentileObserver",
    "FixedPointMultiplier",
    "quantize_multiplier",
    "requantize",
    "requantize_float",
    "saturate_int8",
    "QTensor",
    "QLayer",
    "QConv2D",
    "QDense",
    "QMaxPool2D",
    "QAvgPool2D",
    "QReLU",
    "QFlatten",
    "QuantizedModel",
    "PTQConfig",
    "quantize_model",
    "save_quantized_model",
    "load_quantized_model",
]
