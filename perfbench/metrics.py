"""Every metric the benchmark reports: name, unit, direction, and what it should move.

``BENCHMARK.json`` lists the same names; ``test_perfbench`` checks that the
two agree.  Every workload reports every metric, so a name means the same
thing on each workload and a later change can cite (metric, workload) pairs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, bound): the end-to-end metrics of an untraced run.
#: ``ops_per_s`` is design points evaluated per second of the DSE stage;
#: ``p50_ms`` is a design's latency: every design of an Experiment run is
#: due when the run starts and arrives when it returns.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
]

BATCHES = (1, 32, 256)
VM_BATCHES = (1, 32)
#: LeNet's quantized layers in execution order, and the ones that do MACs.
LAYERS = ("conv1", "pool1", "conv2", "pool2", "conv3", "flatten", "fc1", "fc2")
MAC_LAYERS = ("conv1", "conv2", "conv3", "fc1", "fc2")
CONVS = ("conv1", "conv2", "conv3")
#: Service level whose masks each ledger batch runs: batch 1 is what the
#: HTTP probe serves (exact), batch 32 what the burst probe serves (mid) and
#: batch 256 stands for the DSE's masked designs (aggressive).
BATCH_LEVEL = {1: 0, 32: 1, 256: 2}


def _per_layer() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = [
        ("loadgen.late_p95_ms", "ms", "lower"),
        ("loadgen.sent", "count", "higher"),
        ("loadgen.failed", "count", "lower"),
        ("http.p50_ms", "ms", "lower"),
        ("http.p95_ms", "ms", "lower"),
        ("client.encode_ms", "ms", "lower"),
        ("front.parse_ms", "ms", "lower"),
        ("front.respond_ms", "ms", "lower"),
        ("http.unattributed_ms", "ms", "lower"),
        ("http.seq_rtt_ms", "ms", "lower"),
        ("http.inproc_rtt_ms", "ms", "lower"),
        ("burst.rps", "1/s", "higher"),
        ("burst.p50_ms", "ms", "lower"),
        ("burst.p95_ms", "ms", "lower"),
        ("burst.late_p95_ms", "ms", "lower"),
        ("queue.wait_p50_ms", "ms", "lower"),
        ("queue.wait_p95_ms", "ms", "lower"),
        ("scheduler.batch_mean", "count", "higher"),
        ("scheduler.execute_ms", "ms", "lower"),
    ]
    for b in BATCHES:
        rows += [(f"fwd.b{b}.{layer}_ms", "ms", "lower") for layer in LAYERS]
        rows.append((f"fwd.b{b}.total_ms", "ms", "lower"))
        rows += [(f"fwd.b{b}.{layer}_gmacs", "GMAC/s", "higher") for layer in MAC_LAYERS]
    for b in BATCHES:
        rows += [(f"kernels.im2col.b{b}.{conv}_ms", "ms", "lower") for conv in CONVS]
    for b in VM_BATCHES:
        rows += [(f"vm.turbo.b{b}.{layer}_ms", "ms", "lower") for layer in LAYERS]
        rows.append((f"vm.turbo.b{b}.total_ms", "ms", "lower"))
    rows += [(f"cycles.L{i}", "cycles", "lower") for i in range(3)]
    rows += [(f"cycles.L0.{conv}", "cycles", "lower") for conv in CONVS]
    rows += [
        ("dse.cycles_saved_0loss", "fraction", "higher"),
        ("dse.cycles_saved_1pct", "fraction", "higher"),
        ("core.unpack_s", "s", "lower"),
        ("core.calibrate_s", "s", "lower"),
        ("core.significance_s", "s", "lower"),
        ("core.dse_s", "s", "lower"),
        ("dse.configs", "count", "higher"),
        ("dse.build_masks_ms", "ms", "lower"),
        ("dse.eval_ms", "ms", "lower"),
        ("dse.parallel_eff", "ratio", "higher"),
        ("workflow.fingerprint_s", "s", "lower"),
        ("workflow.overhead_s", "s", "lower"),
        ("setup.data_s", "s", "lower"),
        ("setup.model_s", "s", "lower"),
        ("setup.quantize_s", "s", "lower"),
        ("setup.server_start_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return rows


#: (name, unit, better): the per-layer metrics of a traced run.
PER_LAYER: List[Tuple[str, str, str]] = _per_layer()

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: Which end-to-end metric each layer's metrics should move, on which workload
#: (written into every run record; a change names its pair before coding).
#: The serving probes' own figures (http.p50_ms, burst.rps, ...) are
#: per-layer and unbounded; a serving change cites them with their spread.
LAYER_MOVES: Dict[str, str] = {
    "loadgen.*, burst.late_p95_ms": "nothing; a late generator invalidates that probe's latencies",
    "client.encode_ms, front.*, http.*": "http.p50_ms and http.p95_ms; no end-to-end metric",
    "queue.*, scheduler.*": "burst.p50_ms and burst.p95_ms; no end-to-end metric",
    "fwd.b1.*, kernels.im2col.b1.*": "http.p50_ms",
    "fwd.b32.*, kernels.im2col.b32.*": "burst.rps",
    "fwd.b256.*, kernels.im2col.b256.*": "ops_per_s and p50_ms on dse_sweep and dse_joint",
    "vm.turbo.*": "nothing today (serving and the DSE run the kernel path)",
    "cycles.*, dse.cycles_saved_*": "must stay identical in any host-performance change",
    "core.dse_s, dse.*": "ops_per_s and p50_ms on both workloads; a prefix-sharing DSE on dse_sweep only",
    "core.unpack_s, core.calibrate_s, core.significance_s, workflow.*": "p50_ms on both workloads",
    "setup.data_s, setup.quantize_s, setup.model_s": "setup_s on both workloads",
    "setup.server_start_s": "nothing (the HTTP probe's replica start)",
    "trace.overhead_frac": "nothing",
}
