"""Benchmark of the design-space exploration itself.

The paper reports that the offline DSE over >10,000 designs took under two
hours on a 6-thread desktop CPU; this benchmark measures our DSE throughput
(configurations simulated per second) on a small model so the cost of larger
sweeps can be extrapolated.  Two cases: the default single-subset sweep, and
an exhaustive layer-subset sweep on two workers, which exercises the
prefix-sharing evaluator sharded over a process pool.  Both record configs/s
to ``benchmarks/results/dse.json``.
"""

from __future__ import annotations

import pytest

from repro.core import DSEConfig, run_dse

from bench_utils import record_json, record_result
from repro.evaluation.reports import format_table

TAUS = [0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.03, 0.05, 0.07, 0.1, 0.15, 0.2]
N_EVAL = 128


def _bench_dse(benchmark, tiny_artifacts, dse_config: DSEConfig, case: str, title: str):
    """Time one DSE run and record its configs/s as a table and as JSON."""
    result_holder = tiny_artifacts["result"]
    qmodel = tiny_artifacts["qmodel"]
    split = tiny_artifacts["split"]

    def run():
        return run_dse(
            qmodel,
            result_holder.significance,
            split.test.images[:N_EVAL],
            split.test.labels[:N_EVAL],
            dse_config=dse_config,
            unpacked=result_holder.unpacked,
        )

    dse = benchmark.pedantic(run, rounds=1, iterations=1)
    try:
        seconds = float(benchmark.stats.stats.mean)
    except Exception:  # pragma: no cover - stats layout differs across plugin versions
        seconds = float("nan")
    configs_per_second = len(dse.points) / seconds if seconds and seconds > 0 else float("nan")
    rows = [
        {
            "model": qmodel.name,
            "configurations": len(dse.points),
            "eval images": N_EVAL,
            "wall time (s)": seconds,
            "configs / s": configs_per_second,
        }
    ]
    record_result(f"dse_throughput_{case}", format_table(rows, title=title))
    record_json("dse", {f"{case}_configs_per_s": configs_per_second})
    return dse


@pytest.mark.benchmark(group="dse")
def test_bench_dse_tiny_model(benchmark, tiny_artifacts):
    """DSE over 12 configurations x 128 evaluation images on the tiny CNN."""
    dse_config = DSEConfig(tau_values=TAUS, max_eval_samples=N_EVAL)
    dse = _bench_dse(benchmark, tiny_artifacts, dse_config, "all", "DSE throughput (tiny CNN)")
    assert len(dse.points) >= 12


@pytest.mark.benchmark(group="dse")
def test_bench_dse_exhaustive_two_workers(benchmark, tiny_artifacts):
    """Every layer subset x 12 taus on two workers: the sharded prefix-sharing path."""
    dse_config = DSEConfig(
        tau_values=TAUS, layer_subsets="exhaustive", max_eval_samples=N_EVAL, n_workers=2
    )
    dse = _bench_dse(
        benchmark, tiny_artifacts, dse_config, "exhaustive_2w",
        "DSE throughput (tiny CNN, exhaustive subsets, 2 workers)",
    )
    assert len(dse.points) >= 3 * len(TAUS) - 2
