"""Per-layer ledger: host ms, MACs, bytes, GMAC/s and simulated cycles of every LeNet layer.

One row per (quantized layer, batch, path), with path ``kernel`` (the
library kernels serving and the DSE run) or ``vm_turbo`` (the lowered ISA
programs).  Each row follows the accounting of ``perf().verbose(title,
rounds, loops, flops, bytes)``: the call is repeated ``rounds`` times, and
the median time is set against the work one call does.  MACs are the dense
count the host computes (masked operands are multiplied by zero, not
skipped); bytes are computed from tensor sizes (int8 input, weights and
output, int32 bias), not measured.  Cycles are simulated per sample.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.isa.cost_model import ExecutionStyle, KernelCostModel
from repro.kernels.accumulate import exact_matmul_dtype
from repro.kernels.cycle_counters import CycleCounter
from repro.kernels.im2col import im2col_s8
from repro.quant.qlayers import QConv2D
from repro.vm.interpreter import execute_layer_turbo, execute_op_turbo, traced_layer_cycles
from repro.vm.ir import OpProgram
from repro.vm.lower import lower_model

from perfbench import stats
from perfbench.metrics import BATCH_LEVEL, BATCHES, CONVS, LAYERS, MAC_LAYERS, VM_BATCHES

#: Timed repetitions per batch size (more for the short batch-1 calls).
ROUNDS = {1: 41, 32: 11, 256: 5}


def time_rounds(fn: Callable[[], object], rounds: int) -> List[float]:
    """Wall seconds of ``rounds`` calls after one untimed warm-up call."""
    fn()
    out = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        out.append(time.perf_counter() - started)
    return out


def _layer_bytes(layer, x: np.ndarray, y: np.ndarray) -> int:
    weights = getattr(layer, "weights", None)
    bias = getattr(layer, "bias", None)
    return int(
        x.size + y.size + (0 if weights is None else weights.size) + (0 if bias is None else bias.size * 4)
    )


def _row(title: str, batch: int, path: str, seconds: List[float], macs: int, nbytes: int, cycles: float):
    q1, med, q3 = stats.quartiles(seconds)
    return {
        "layer": title,
        "batch": batch,
        "path": path,
        "rounds": len(seconds),
        "ms_median": med * 1e3,
        "ms_q1": q1 * 1e3,
        "ms_q3": q3 * 1e3,
        "macs": macs,
        "bytes": nbytes,
        "gmac_per_s": macs / med / 1e9 if macs else 0.0,
        "gb_per_s": nbytes / med / 1e9,
        "cycles_per_sample": cycles,
    }


def build_ledger(deployment, unpacked, pool: np.ndarray, tally) -> Tuple[List[Dict], Dict[str, float]]:
    """Time every layer on both paths; returns (rows, per-layer metrics).

    Each VM layer's output must equal the kernel output on the same input;
    ``tally`` counts every comparison and each mismatch as a wrong answer.
    """
    qmodel = deployment.qmodel
    names = tuple(layer.name for layer in qmodel.layers)
    if names != LAYERS:
        raise RuntimeError(f"model layers {names} differ from the ledger's {LAYERS}")
    cost_model = KernelCostModel(ExecutionStyle.UNPACKED)
    rows: List[Dict] = []
    metrics: Dict[str, float] = {}
    for batch in BATCHES:
        level = deployment.levels[BATCH_LEVEL[batch]]
        masks = level.masks or {}
        x = qmodel.quantize_input(pool[np.arange(batch) % len(pool)])
        counter = CycleCounter()
        qmodel.forward_quantized(x[:1], masks=masks or None, counter=counter)
        _, kernel_cycles = cost_model.estimate(counter)
        program = lower_model(qmodel, unpacked=unpacked, masks=masks or None)
        vm_cycles = traced_layer_cycles(qmodel, program)
        total = time_rounds(lambda: qmodel.forward_quantized(x, masks=masks or None), ROUNDS[batch])
        metrics[f"fwd.b{batch}.total_ms"] = stats.median(total) * 1e3
        vm_total: List[float] = [0.0] * ROUNDS[batch]
        layer_rows = []
        h = x
        for layer in qmodel.layers:
            mask = masks.get(layer.name)
            out = layer.forward(h, weight_mask=mask)
            macs = layer.macs(h.shape[1:]) * batch if layer.is_mac_layer else 0
            nbytes = _layer_bytes(layer, h, out)
            seconds = time_rounds(lambda: layer.forward(h, weight_mask=mask), ROUNDS[batch])
            est = kernel_cycles.get(layer.name)
            layer_rows.append(_row(layer.name, batch, "kernel", seconds, macs, nbytes, est.cycles if est else 0.0))
            metrics[f"fwd.b{batch}.{layer.name}_ms"] = stats.median(seconds) * 1e3
            if layer.name in MAC_LAYERS:
                metrics[f"fwd.b{batch}.{layer.name}_gmacs"] = layer_rows[-1]["gmac_per_s"]
            if isinstance(layer, QConv2D):
                k = layer.operands_per_channel
                cols = time_rounds(
                    lambda: im2col_s8(
                        h, layer.kernel_size, layer.stride, layer.padding,
                        layer.input_params.scalar_zero_point(), dtype=exact_matmul_dtype(k),
                    ),
                    ROUNDS[batch],
                )
                metrics[f"kernels.im2col.b{batch}.{layer.name}_ms"] = stats.median(cols) * 1e3
            prog = program.programs[layer.name]
            run_vm = execute_op_turbo if isinstance(prog, OpProgram) else execute_layer_turbo
            tally.record(np.array_equal(run_vm(prog, h), out), f"vm_{layer.name}_mismatch")
            seconds = time_rounds(lambda: run_vm(prog, h), ROUNDS[batch])
            vm_total = [a + b for a, b in zip(vm_total, seconds)]
            layer_rows.append(
                _row(layer.name, batch, "vm_turbo", seconds, macs, nbytes, vm_cycles.get(layer.name, 0.0))
            )
            if batch in VM_BATCHES:
                metrics[f"vm.turbo.b{batch}.{layer.name}_ms"] = stats.median(seconds) * 1e3
            h = out
        if batch in VM_BATCHES:
            metrics[f"vm.turbo.b{batch}.total_ms"] = stats.median(vm_total) * 1e3
        for path in ("kernel", "vm_turbo"):
            path_rows = [r for r in layer_rows if r["path"] == path]
            forward = sum(r["ms_median"] for r in path_rows)
            for r in path_rows:
                r["share"] = r["ms_median"] / forward
        rows += layer_rows
    missing = [c for c in CONVS for b in BATCHES if f"kernels.im2col.b{b}.{c}_ms" not in metrics]
    if missing:
        raise RuntimeError(f"no im2col timing for {missing}")
    return rows, metrics


def format_rows(rows: List[Dict]) -> str:
    """The ledger as an aligned text table."""
    head = f"{'layer':<8}{'b':>4} {'path':<9}{'ms med':>9}{'IQR':>17}{'share':>7}{'MACs':>12}{'bytes':>10}{'GMAC/s':>8}{'cycles':>10}"
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r['layer']:<8}{r['batch']:>4} {r['path']:<9}{r['ms_median']:>9.3f}"
            f"{'[%.3f, %.3f]' % (r['ms_q1'], r['ms_q3']):>17}{r['share']:>7.1%}{r['macs']:>12}"
            f"{r['bytes']:>10}{r['gmac_per_s']:>8.2f}{r['cycles_per_sample']:>10.0f}"
        )
    return "\n".join(lines)
