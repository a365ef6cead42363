"""Run one benchmark workload and print its metrics as the last line of stdout.

Usage, from the repository root::

    python3 perfbench/run.py --workload dse_sweep --seed 3 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace 1``
runs the workload untraced and then traced on the same seed, then the two
serving probes (HTTP and bursts) on the three-level deployment built from
the run's significance, builds the per-layer ledger, and prints the
per-layer metrics.  The run record (environment,
per-phase counts, spans, ledger rows, request budget) is written to
``.bench_build/perfbench/runs/``.  The exit code is 0 when the run measured
what it set out to; a wrong answer shows as ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    """Command-line interface."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_cycles(cycles, seed: int, tally) -> None:
    """Simulated cycles must repeat exactly across runs of one seed and build."""
    from perfbench import system

    path = system.BUILD_DIR / "cycles" / f"{system.source_digest()}-seed{seed}.json"
    if path.exists():
        tally.record(json.loads(path.read_text()) == cycles, "cycles_changed")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp")
    tmp.write_text(json.dumps(cycles, sort_keys=True))
    tmp.replace(path)
    tally.record(True)


def budget_summary(rows, layer) -> str:
    """Where a ``POST /predict`` round trip's time goes, as medians over the probe's requests."""
    from perfbench import stats

    parts = ("front.parse_ms", "queue.wait_ms", "scheduler.execute_ms", "front.respond_ms", "http.unattributed_ms")
    spans = " + ".join(f"{p[:-3]} {stats.median(r.get(p, 0.0) for r in rows):.2f}" for p in parts)
    return (
        f"request budget over {len(rows)} requests (medians, ms): rtt "
        f"{stats.median(r['rtt_ms'] for r in rows):.2f} ~ {spans}\n"
        f"sequential round trip: out of process {layer['http.seq_rtt_ms']:.2f} ms, "
        f"in process {layer['http.inproc_rtt_ms']:.2f} ms"
    )


def run(name: str, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload; returns (metrics, phases, record)."""
    from perfbench import ledger, stats, system
    from perfbench.metrics import END_TO_END, LAYER_MOVES, PER_LAYER
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import WORKLOADS, burst_probe, dse_phase, http_probe

    model, build = system.build_model()
    config = WORKLOADS[name]
    phases = stats.Phases()
    record = {"workload": name, "env": system.environment(seed), "build": build, "seconds": seconds}
    passes = [system.setup_pass(model, seed) for _ in range(system.SETUP_REPEATS)]
    sys_ = passes[-1]
    untraced = dse_phase(sys_.qmodel, sys_.inputs, config, seconds, seed, SpanRecorder(enabled=False), phases["dse"])
    unpacked = untraced.artifacts["unpacked"]
    deployment = system.build_deployment(sys_.qmodel, untraced.artifacts["significance"], unpacked)
    cycles = system.level_cycles(deployment)
    check_cycles(cycles, seed, phases["cycles"])
    if not trace:
        metrics = {
            "setup_s": stats.median(p.times["data"] + p.times["quantize"] for p in passes),
            "peak_rss_mb": system.peak_rss_mb(),
            "ops_per_s": untraced.ops_per_s,
            "p50_ms": untraced.p50_ms,
        }
        names = [m[0] for m in END_TO_END]
    else:
        recorder, http_spans, burst_spans = SpanRecorder(), SpanRecorder(), SpanRecorder()
        traced = dse_phase(sys_.qmodel, sys_.inputs, config, seconds, seed, recorder, phases["dse_traced"])
        http, start_s = http_probe(deployment, sys_.inputs.pool, seed, http_spans, phases["http_probe"])
        burst = burst_probe(deployment, sys_.inputs.pool, seed, burst_spans, phases["burst_probe"])
        rows, ledger_metrics = ledger.build_ledger(deployment, unpacked, sys_.inputs.pool, phases["ledger"])
        metrics = {
            **cycles,
            **traced.layer,
            **http.layer,
            **burst.layer,
            **ledger_metrics,
            "setup.data_s": stats.median(p.times["data"] for p in passes),
            "setup.quantize_s": stats.median(p.times["quantize"] for p in passes),
            "setup.model_s": build["model_s"],
            "setup.server_start_s": start_s,
            "trace.overhead_frac": traced.p50_ms / untraced.p50_ms - 1.0,
        }
        names = [m[0] for m in PER_LAYER]
        record.update(
            spans=recorder.as_dicts(),
            http_probe=http.rows,
            http_probe_spans=http_spans.as_dicts(),
            burst_probe=burst.rows,
            burst_probe_spans=burst_spans.as_dicts(),
            ledger=rows,
        )
        print(ledger.format_rows(rows))
        print(budget_summary(http.rows["request_budget"], metrics))
    missing = sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    record.update(phases=phases.as_dict(), metrics=metrics, layer_moves=LAYER_MOVES)
    return {k: metrics[k] for k in names}, phases, record


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = parse_args(argv)
    # Import the program from this checkout (src/), the shared workload
    # engine (benchmarks/workload.py) and this package, not the script dir.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src"), str(ROOT / "benchmarks")]
    try:
        from perfbench import system
        from perfbench.metrics import UNITS
        from perfbench.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        started = time.perf_counter()
        metrics, phases, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
        record["run_s"] = time.perf_counter() - started
        out = system.BUILD_DIR / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1, default=str))
    except Exception:
        traceback.print_exc()
        return 1
    print("env " + json.dumps(record["env"]))
    print("phases " + json.dumps(phases.as_dict()))
    print(
        json.dumps(
            {
                "correct": phases.failed == 0,
                "attempted": phases.attempted,
                "failed": phases.failed,
                "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
