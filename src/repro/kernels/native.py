"""Native gather and requantize epilogue of the int8 MAC core, built on first use.

``native.c`` holds the two memory passes around the BLAS product of
:func:`~repro.kernels.accumulate.convolve_blocked`: the patch gather and
the fused requantize epilogue, each in a float32 and a float64 variant (see
the source for what they compute).  The epilogue reads accumulator rows a
given stride apart, so it runs on one weight set's column slice of a
stacked product without a copy.  :func:`load_native` compiles it with the
local ``gcc`` into ``default_cache_dir()/native/<digest>.so`` -- the digest
covers the source, the flags and the machine -- and loads it through
:mod:`ctypes`.  The compiler writes a temporary file that is then renamed
into place, so processes building at once each load a complete library.

Without ``gcc`` :func:`load_native` returns ``None`` and the NumPy code of
:mod:`repro.kernels.accumulate` runs instead.  With ``gcc`` a failed build
raises: a broken source never falls back to NumPy silently.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.nn.functional import conv_output_shape
from repro.utils.cache import default_cache_dir

#: The C source the library is built from (shipped as package data).
SOURCE = Path(__file__).with_name("native.c")

#: ``-ffp-contract=off`` keeps the epilogue's multiply and add unfused, as in
#: NumPy; ``-fno-math-errno`` (with SSE4.1 on x86-64) lets ``rint`` inline
#: to one rounding instruction.  Never ``-ffast-math``: it reorders the
#: float arithmetic the epilogue must reproduce bit for bit.
FLAGS: Tuple[str, ...] = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno") + (
    ("-msse4.1",) if platform.machine() == "x86_64" else ()
)

_SUFFIX = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def _variant(functions, dtype: np.dtype):
    try:
        return functions[dtype]
    except KeyError:
        raise TypeError(f"native kernels compute in float32 or float64, not {dtype}") from None


def _address(array: np.ndarray, dtype: np.dtype, shape: Tuple[int, ...], output: bool = False) -> int:
    """Data pointer of ``array``, checked to be a C-contiguous (writeable) ``dtype`` array of ``shape``.

    The checks stand in for ``numpy.ctypeslib.ndpointer`` argument types,
    which cost several times the call itself on small layers.
    """
    if (
        array.dtype != dtype
        or array.shape != shape
        or not array.flags.c_contiguous
        or (output and not array.flags.writeable)
    ):
        raise ValueError(
            f"expected a C-contiguous{' writeable' if output else ''} {dtype} array of shape "
            f"{shape}, got {array.dtype} {array.shape}"
        )
    return array.ctypes.data


def _per_channel(values, channels: int) -> np.ndarray:
    """Per-channel (or scalar) ``values`` as a contiguous float64 ``(channels,)`` vector."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (channels,) or not values.flags.c_contiguous:
        values = np.ascontiguousarray(np.broadcast_to(values, (channels,)))
    return values


def build_library(compiler: str) -> Path:
    """Compile :data:`SOURCE` into the cache unless it is already there; returns the path."""
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(source)
    digest.update(repr(FLAGS).encode())
    digest.update(platform.machine().encode())
    path = default_cache_dir() / "native" / f"{digest.hexdigest()[:16]}.so"
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{path.stem}.", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        # The bytes digested are the bytes compiled: gcc reads them from stdin.
        built = subprocess.run(
            [compiler, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source, capture_output=True, check=False,
        )
        if built.returncode != 0:
            raise RuntimeError(
                f"building {SOURCE.name} failed:\n{built.stderr.decode(errors='replace')}"
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


class NativeKernels:
    """The loaded library, one checked entry point per kernel."""

    def __init__(self, path: Path):
        self.path = path
        lib = ctypes.CDLL(str(path))
        # Every argument is declared: undeclared, a pointer would pass as a C int.
        i64, i32, pointer = ctypes.c_int64, ctypes.c_int32, ctypes.c_void_p
        self._gather = {}
        self._requantize = {}
        for dtype, suffix in _SUFFIX.items():
            gather = getattr(lib, f"gather_{suffix}")
            gather.argtypes = [pointer, *[i64] * 12, i32, pointer]
            gather.restype = ctypes.c_int
            requantize = getattr(lib, f"requantize_{suffix}")
            requantize.argtypes = [pointer, i64, i64, i64, pointer, pointer, i32, i32, i32, pointer]
            requantize.restype = None
            self._gather[dtype] = gather
            self._requantize[dtype] = requantize

    def gather(
        self,
        x: np.ndarray,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
        input_zero_point: int,
        out: np.ndarray,
    ) -> None:
        """Write the patches of C-contiguous int8 NHWC ``x`` into ``out``.

        ``out`` is the ``(N * out_h * out_w, kh * kw * C)`` float32 or
        float64 patch matrix, the values :func:`~repro.kernels.im2col.
        im2col_s8` returns; padded taps read ``input_zero_point``.
        """
        n, in_h, in_w, in_c = x.shape
        out_h, out_w = conv_output_shape(in_h, in_w, kernel, stride, padding)
        if not -128 <= input_zero_point <= 127:
            raise ValueError("input_zero_point must be representable in int8")
        gather = _variant(self._gather, out.dtype)
        status = gather(
            _address(x, np.dtype(np.int8), x.shape), n, in_h, in_w, in_c, *kernel, *stride,
            *padding, out_h, out_w, int(input_zero_point),
            _address(out, out.dtype, (n * out_h * out_w, kernel[0] * kernel[1] * in_c), output=True),
        )
        if status != 0:
            raise MemoryError("native gather could not allocate its row buffer")

    def requantize(
        self,
        acc: np.ndarray,
        init: np.ndarray,
        multipliers: np.ndarray,
        output_zero_point: int,
        activation_min: int,
        activation_max: int,
        out: np.ndarray,
    ) -> None:
        """Requantize the ``(P, Cout)`` float accumulator into the C-contiguous int8 ``out``.

        ``acc`` may be a column slice of a wider accumulator (one weight
        set of a stacked product): its rows may lie any whole number of
        elements apart, but each row's channels must be adjacent.  ``init``
        and ``multipliers`` are per-channel (or scalar) values widened to
        float64, as the NumPy epilogue widens them.
        """
        rows, channels = acc.shape
        if not -128 <= activation_min <= activation_max <= 127:
            raise ValueError(f"activation range [{activation_min}, {activation_max}] exceeds int8")
        requantize = _variant(self._requantize, acc.dtype)
        itemsize = acc.dtype.itemsize
        row_stride = acc.strides[0] // itemsize if rows > 1 else channels
        if (channels > 1 and acc.strides[1] != itemsize) or acc.strides[0] % itemsize or row_stride < channels:
            raise ValueError(f"accumulator rows must hold adjacent channels, got strides {acc.strides}")
        # The vectors are named so they stay alive through the call.
        init, multipliers = _per_channel(init, channels), _per_channel(multipliers, channels)
        requantize(
            acc.ctypes.data, rows, channels, row_stride, init.ctypes.data, multipliers.ctypes.data,
            int(output_zero_point), int(activation_min), int(activation_max),
            _address(out, np.dtype(np.int8), acc.shape, output=True),
        )


@functools.lru_cache(maxsize=None)
def load_native() -> Optional[NativeKernels]:
    """The native kernels, built on the first call; ``None`` when ``gcc`` is missing."""
    compiler = shutil.which("gcc")
    if compiler is None:
        return None
    return NativeKernels(build_library(compiler))
