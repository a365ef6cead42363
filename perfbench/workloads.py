"""The seeded workloads and the serving probes, each a timed phase that checks its answers.

Workloads (``BENCHMARK.json``), both the paper's offline host work,
``Experiment.from_quantized`` (unpack, calibrate, significance, DSE) with
batch-256 kernel forwards and a fresh mask per design:

* ``dse_sweep`` -- every conv-layer subset over a tau sweep.  Designs that
  leave ``conv1`` exact share a layer prefix with the exact design.
* ``dse_joint`` -- all conv layers approximated jointly over a finer tau
  sweep.  Every design masks ``conv1``, so no two designs share a prefix.

Serving probes, run by every traced run for the serving layers:

* :func:`http_phase` -- an open loop of ``POST /predict`` (one image as
  JSON) to an out-of-process replica: JSON, HTTP handling and the batch-1
  forward, with the per-request budget and the in-process comparison.
* :func:`burst_phase` -- an open loop of bursts through the in-process
  ``Client.submit_many``: no transport, full batches of 32, queueing.

Serving latency swings up to twofold between runs on a shared 2-core host
(p50 IQR/median 0.3-0.6 over ten seeds), beyond the largest bound an
end-to-end metric may carry, so serving is measured per layer, unbounded.

A phase returns its end-to-end figures and, when given an enabled span
recorder, the per-layer figures of the layers it exercises.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List

import numpy as np

from repro.core import DSEConfig
from repro.serving import (
    Client,
    FixedPolicy,
    HTTPClient,
    PredictionServer,
    ReplicaConfig,
    ReplicaProcess,
    Scheduler,
)
from repro.vm.interpreter import VirtualMachine
from repro.vm.lower import lower_model
from repro.workflow.experiment import Experiment
from workload import ArrivalTrace, WorkloadItem, poisson_trace, run_open_loop

from perfbench import stats, system
from perfbench.spans import SpanRecorder

NPROC = os.cpu_count() or 1

#: HTTP probe: Poisson arrivals below the knee of a 2-core host, for a
#: fixed length (200 requests, enough for a supported p95).
HTTP_RATE_RPS = 20.0
HTTP_PROBE_S = 10.0
#: Sequential requests sent before the timed phase.
HTTP_WARMUP = 100
#: Sequential round trips of the in-process vs out-of-process gap probe.
SEQ_PROBE = 40
#: Burst probe: burst size, the spacing that lets a burst drain first, the
#: served level (mid, so masks are used) and the probe's length.
BURST_SIZE = 256
BURST_MIN_GAP_S = 0.6
BURST_JITTER_S = 0.3
BURST_LEVEL = 1
BURST_PROBE_S = 10.0
#: dse_sweep: 10 taus over all 7 conv-layer subsets (64 designs + exact).
DSE_SWEEP = DSEConfig(
    tau_values=(0.0, 0.001, 0.002, 0.003, 0.005, 0.007, 0.01, 0.015, 0.02, 0.03),
    layer_subsets="exhaustive", max_eval_samples=system.N_EVAL, n_workers=NPROC,
)
#: dse_joint: 32 taus (step 0.002) on all conv layers at once (32 designs).
DSE_JOINT = DSEConfig(
    tau_values=tuple(round(0.002 * i, 3) for i in range(32)),
    layer_subsets="all", max_eval_samples=system.N_EVAL, n_workers=NPROC,
)
#: Designs re-checked through the VM turbo path in every run.
DSE_CHECKS = 3


@dataclass
class PhaseResult:
    """What one timed phase measured."""

    ops_per_s: float
    p50_ms: float
    #: Per-layer metrics (traced phases only).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Rows for the run record, e.g. the per-request budget.
    rows: Dict[str, Any] = field(default_factory=dict)
    #: Program outputs a later step reuses (not recorded).
    artifacts: Dict[str, Any] = field(default_factory=dict)


def _ms(seconds: float) -> float:
    return seconds * 1e3


# --------------------------------------------------------------------------- HTTP probe
def start_replica(deployment):
    """An out-of-process ``thread``-front replica serving a fixed level; returns (replica, seconds)."""
    started = time.perf_counter()
    replica = ReplicaProcess(0, deployment, ReplicaConfig(policy="fixed")).start()
    try:
        replica.wait_ready()
    except BaseException:
        replica.stop()
        raise
    return replica, time.perf_counter() - started


def _sequential_rtts(client: HTTPClient, images: np.ndarray, n: int) -> List[float]:
    out = []
    for i in range(n + 3):
        started = time.perf_counter()
        client.predict(images[i % len(images)][None])
        if i >= 3:  # the first round trips warm the connection path up
            out.append(time.perf_counter() - started)
    return out


def encode_seconds(images: np.ndarray, n: int = 50) -> List[float]:
    """Time building and encoding one image's JSON ``POST /predict`` body, as ``HTTPClient`` does."""
    out = []
    for i in range(n):
        started = time.perf_counter()
        json.dumps({"inputs": np.asarray(images[i % len(images)][None], dtype=np.float32).tolist()}).encode()
        out.append(time.perf_counter() - started)
    return out


def http_trace(seconds: float, seed: int) -> ArrivalTrace:
    """The first N Poisson arrivals, time-scaled so their mean rate is exactly the nominal one.

    N covers ``seconds`` at the nominal rate and never drops below what a
    supported p95 needs; fixing N removes the count's run-to-run noise.
    """
    n = max(round(HTTP_RATE_RPS * seconds), stats.min_samples_for(95))
    duration = n / HTTP_RATE_RPS
    base = poisson_trace(HTTP_RATE_RPS, 2 * duration, seed=seed)
    while len(base) < n:
        duration *= 2
        base = poisson_trace(HTTP_RATE_RPS, 2 * duration, seed=seed)
    first = ArrivalTrace(base.name, seed, base.items[:n])
    return first.scaled(n / HTTP_RATE_RPS / first.duration_s)


def http_phase(
    deployment, url: str, images: np.ndarray, seconds: float, seed: int, recorder: SpanRecorder, tally
) -> PhaseResult:
    """Open-loop Poisson ``POST /predict`` traffic; checks every served class.

    ``HTTPClient`` opens one connection per request, so the sending pool of
    ``NPROC`` threads holds at most that many connections.
    """
    expected = [deployment.predict(images, level=i) for i in range(len(deployment.levels))]
    client = HTTPClient(url, timeout_s=10.0)
    for i in range(HTTP_WARMUP):  # untimed: lazy set-up and first-call costs
        client.predict(images[i % len(images)][None])
    trace = http_trace(seconds, seed)
    order = np.random.default_rng([seed, 3]).permutation(len(images))
    records: List[Dict[str, Any]] = []

    def send(rec: Dict[str, Any]) -> Dict[str, Any]:
        rec["started"] = time.perf_counter()
        try:
            body, headers = client.predict_with_headers(images[rec["image"]][None])
            rec.update(
                ok=True,
                cls=int(body["classes"][0]),
                level=body["levels"][0],
                wait_ms=float(body["wait_ms"][0]),
                service_ms=float(body["service_ms"][0]),
                trace_id=headers.get("X-Trace-Id"),
            )
        except urllib.error.HTTPError as error:  # refused: 4xx/5xx
            rec.update(ok=False, reason=f"http_{error.code}")
        except OSError as error:  # connection failure or timeout
            rec.update(ok=False, reason=type(error).__name__)
        rec["done"] = time.perf_counter()
        return rec

    with ThreadPoolExecutor(max_workers=NPROC) as pool:
        t0 = time.perf_counter()

        def issue(item: WorkloadItem):
            # run_open_loop stamps nothing: the due time is recorded here.
            rec = {"image": int(order[len(records) % len(order)]), "due": t0 + item.at_s,
                   "issued": time.perf_counter()}
            records.append(rec)
            return pool.submit(send, rec)

        futures = run_open_loop(trace, issue)
        for future in futures:
            future.result()
    for rec in records:
        if rec["ok"]:
            level = deployment.level_index(rec["level"])
            rec["ok"] = rec["cls"] == int(expected[level][rec["image"]])
            rec.setdefault("reason", "wrong_class")
        tally.record(rec["ok"], rec.get("reason", "wrong_class"))
    ok = [r for r in records if r["ok"]]
    latencies = [_ms(r["done"] - r["due"]) for r in ok]
    result = PhaseResult(
        ops_per_s=len(ok) / (max(r["done"] for r in ok) - min(r["due"] for r in records)),
        p50_ms=stats.percentile(latencies, 50),
    )
    batch_mean = float(client.metrics()["mean_batch_size"])
    budget = []
    for rec in ok:
        root = recorder.add("request", rec["due"], rec["done"], request=rec["trace_id"])
        recorder.add("loadgen.late", rec["due"], rec["issued"], parent=root, request=rec["trace_id"])
        recorder.add("client.pool", rec["issued"], rec["started"], parent=root, request=rec["trace_id"])
        rtt = recorder.add("http.rtt", rec["started"], rec["done"], parent=root, request=rec["trace_id"])
        row = {"rtt_ms": _ms(rec["done"] - rec["started"])}
        for span in client.trace(rec["trace_id"]):
            name = {"parse": "front.parse", "queue-wait": "queue.wait", "execute": "scheduler.execute",
                    "respond": "front.respond"}.get(span["name"])
            if name is None:  # batch-execute duplicates execute on the batch leader
                continue
            recorder.add(name, span["start_s"], span["end_s"], parent=rtt, request=rec["trace_id"])
            row[name + "_ms"] = _ms(span["end_s"] - span["start_s"])
        row["http.unattributed_ms"] = _ms(recorder.self_time(rtt))
        budget.append(row)
    selfs = recorder.self_times()
    late = [_ms(r["issued"] - r["due"]) for r in records]
    seq = _sequential_rtts(client, images, SEQ_PROBE)
    inproc_scheduler = Scheduler(deployment, policy="fixed").start()
    inproc = PredictionServer(inproc_scheduler, port=0).start()
    try:
        seq_in = _sequential_rtts(HTTPClient(inproc.url, timeout_s=10.0), images, SEQ_PROBE)
    finally:
        inproc.stop()
        inproc_scheduler.stop()
    result.layer = {
        "loadgen.late_p95_ms": stats.percentile(late, 95),
        "loadgen.sent": float(len(records)),
        "loadgen.failed": float(len(records) - len(ok)),
        "http.p50_ms": result.p50_ms,
        "http.p95_ms": stats.percentile(latencies, 95),
        "client.encode_ms": _ms(stats.median(encode_seconds(images))),
        "front.parse_ms": _ms(stats.median(selfs["front.parse"])),
        "front.respond_ms": _ms(stats.median(selfs["front.respond"])),
        "http.unattributed_ms": _ms(stats.median(selfs["http.rtt"])),
        "http.seq_rtt_ms": _ms(stats.median(seq)),
        "http.inproc_rtt_ms": _ms(stats.median(seq_in)),
    }
    result.rows = {"request_budget": budget, "batch_mean": batch_mean}
    return result


def http_probe(deployment, images: np.ndarray, seed: int, recorder: SpanRecorder, tally):
    """:func:`http_phase` against a fresh replica; returns (result, replica start seconds)."""
    replica, start_s = start_replica(deployment)
    try:
        return http_phase(deployment, replica.url, images, HTTP_PROBE_S, seed, recorder, tally), start_s
    finally:
        replica.stop()


# --------------------------------------------------------------------------- burst probe
def burst_schedule(seconds: float, seed: int) -> ArrivalTrace:
    """Burst due times: a minimum gap plus seeded Poisson jitter, all within ``seconds``."""
    jitter = poisson_trace(1.0 / BURST_JITTER_S, seconds, seed=seed)
    dues = [item.at_s + i * BURST_MIN_GAP_S for i, item in enumerate(jitter.items)]
    return ArrivalTrace("bursts", seed, [WorkloadItem(at_s=d) for d in dues if d < seconds])


def _stamp(burst: Dict[str, Any], request) -> None:
    burst["done"][request.id] = time.perf_counter()
    burst["callbacks"].release()


def burst_phase(
    deployment, scheduler: Scheduler, images: np.ndarray, seconds: float, seed: int,
    recorder: SpanRecorder, tally,
) -> PhaseResult:
    """Open-loop bursts through ``Client.submit_many``; checks every served class."""
    expected = [deployment.predict(images, level=i) for i in range(len(deployment.levels))]
    client = Client(scheduler, timeout_s=30.0)
    client.predict_many(images[:64])  # warm-up, untimed
    schedule = burst_schedule(seconds, seed)
    rng = np.random.default_rng([seed, 4])
    picks = [rng.permutation(len(images))[:BURST_SIZE] for _ in schedule.items]
    bursts: List[Dict[str, Any]] = []
    t0 = time.perf_counter()

    def issue(item: WorkloadItem):
        burst = {"due": t0 + item.at_s, "images": picks[len(bursts)], "done": {},
                 "callbacks": threading.Semaphore(0)}
        bursts.append(burst)
        requests = client.submit_many(images[burst["images"]])
        for request in requests:
            request.add_done_callback(partial(_stamp, burst))
        burst["requests"] = requests
        return requests

    run_open_loop(schedule, issue)
    latencies, rates, late, waits, services = [], [], [], [], []
    for burst in bursts:
        # result() can return before the done callbacks have run.
        for _ in burst["requests"]:
            if not burst["callbacks"].acquire(timeout=30.0):
                raise RuntimeError("a request never ran its done callback")
        finished = []
        for request, image in zip(burst["requests"], burst["images"]):
            try:
                predicted = request.result(timeout=30.0)
            except Exception as error:  # refused, shed or timed out: a failed operation
                tally.record(False, type(error).__name__)
                continue
            level = deployment.level_index(request.level_name)
            if not tally.record(predicted == int(expected[level][image]), "wrong_class"):
                continue
            done = burst["done"][request.id]
            finished.append(done)
            latencies.append(_ms(done - burst["due"]))
            late.append(_ms(request.submitted_at - burst["due"]))
            waits.append(request.wait_ms)
            services.append(request.service_ms)
            root = recorder.add("request", burst["due"], done, request=str(request.id))
            wait_end = request.enqueued_at + request.wait_ms / 1e3
            recorder.add("burst.late", burst["due"], request.submitted_at, parent=root)
            recorder.add("queue.wait", request.enqueued_at, wait_end, parent=root)
            recorder.add("scheduler.execute", wait_end, wait_end + request.service_ms / 1e3, parent=root)
        if finished:
            rates.append(len(finished) / (max(finished) - burst["due"]))
    result = PhaseResult(ops_per_s=stats.median(rates), p50_ms=stats.percentile(latencies, 50))
    result.layer = {
        "burst.rps": result.ops_per_s,
        "burst.p50_ms": result.p50_ms,
        "burst.p95_ms": stats.percentile(latencies, 95),
        "burst.late_p95_ms": stats.percentile(late, 95),
        "queue.wait_p50_ms": stats.percentile(waits, 50),
        "queue.wait_p95_ms": stats.percentile(waits, 95),
        "scheduler.batch_mean": float(scheduler.metrics.snapshot().mean_batch_size),
        "scheduler.execute_ms": stats.median(services),
    }
    result.rows = {"bursts": [{"due_s": b["due"] - t0, "size": len(b["requests"])} for b in bursts]}
    return result


def burst_probe(deployment, images: np.ndarray, seed: int, recorder: SpanRecorder, tally) -> PhaseResult:
    """:func:`burst_phase` on an in-process scheduler serving the mid level in batches of 32."""
    scheduler = Scheduler(deployment, policy=FixedPolicy(level=BURST_LEVEL), max_batch_size=32).start()
    try:
        return burst_phase(deployment, scheduler, images, BURST_PROBE_S, seed, recorder, tally)
    finally:
        scheduler.stop()


# --------------------------------------------------------------------------- DSE workloads
def dse_phase(
    qmodel, inputs: system.Inputs, config: DSEConfig, seconds: float, seed: int,
    recorder: SpanRecorder, tally,
) -> PhaseResult:
    """Experiment runs (fresh in-memory store each) until ``seconds`` have passed, at least one.

    Every design of a run is due when the run starts and arrives when it
    returns, so each design's latency is the run's wall time.  Sampled
    designs are re-evaluated through the VM turbo path, which must
    reproduce the recorded accuracy exactly.
    """
    walls, dse_s, points = [], [], 0
    stage_totals: Dict[str, List[float]] = {}
    fingerprints, overheads = [], []
    started = time.perf_counter()
    while True:
        experiment = Experiment.from_quantized(
            qmodel, inputs.calib, inputs.eval_x, inputs.eval_y, dse_config=config
        )
        with recorder.span("experiment.run") as parent:
            result, stage_s, wall = system.run_experiment(experiment, recorder, parent)
        walls.append(wall)
        dse_s.append(stage_s["dse"])
        points += len(result.dse.points)
        for name, value in stage_s.items():
            stage_totals.setdefault(name, []).append(value)
        overheads.append(wall - sum(stage_s.values()))
        if recorder.enabled:
            fingerprints.append(system.fingerprint_s(experiment.inputs))
        if time.perf_counter() - started >= seconds:
            break
    dse = result.dse
    significance, unpacked = result["significance"], result["unpacked"]
    eval_x, eval_y = inputs.eval_x[: config.max_eval_samples], inputs.eval_y[: config.max_eval_samples]
    rng = np.random.default_rng([seed, 5])
    approx = [p for p in dse.points if not p.config.is_exact]
    sample = [approx[i] for i in rng.choice(len(approx), size=min(DSE_CHECKS, len(approx)), replace=False)]
    masks_s, eval_s = [], []
    for point in sample:
        t = time.perf_counter()
        masks = point.config.build_masks(significance, unpacked=unpacked)
        masks_s.append(time.perf_counter() - t)
        vm = VirtualMachine(qmodel, program=lower_model(qmodel, unpacked=unpacked, masks=masks), masks=masks)
        accuracy = float((vm.predict_classes(eval_x) == eval_y).mean())
        tally.record(accuracy == point.accuracy, "vm_accuracy_mismatch")
        if recorder.enabled:
            t = time.perf_counter()
            kernel_accuracy = qmodel.evaluate_accuracy(eval_x, eval_y, masks=masks)
            eval_s.append(time.perf_counter() - t)
            tally.record(kernel_accuracy == point.accuracy, "kernel_accuracy_mismatch")
    for _ in range(points):  # every evaluated design is one operation
        tally.record(True)
    out = PhaseResult(
        ops_per_s=points / sum(dse_s),
        p50_ms=_ms(stats.median(walls)),
        artifacts={"significance": significance, "unpacked": unpacked},
    )
    if recorder.enabled:
        if not dse.points[0].config.is_exact:
            raise RuntimeError("the DSE's first point is not the exact design")
        cycles = [system.design_cycles(qmodel, p.config, significance, unpacked) for p in dse.points]
        base_cycles = cycles[0]
        workers = config.n_workers or 1
        per_config = (stats.median(masks_s) + stats.median(eval_s)) * len(dse.points)
        out.layer = {
            "core.unpack_s": stats.median(stage_totals["unpack"]),
            "core.calibrate_s": stats.median(stage_totals["calibrate"]),
            "core.significance_s": stats.median(stage_totals["significance"]),
            "core.dse_s": stats.median(dse_s),
            "dse.configs": float(len(dse.points)),
            "dse.build_masks_ms": _ms(stats.median(masks_s)),
            "dse.eval_ms": _ms(stats.median(eval_s)),
            "dse.parallel_eff": per_config / (workers * stats.median(dse_s)),
            "dse.cycles_saved_0loss": _saved(dse, cycles, base_cycles, 0.0),
            "dse.cycles_saved_1pct": _saved(dse, cycles, base_cycles, 0.01),
            "workflow.fingerprint_s": stats.median(fingerprints),
            "workflow.overhead_s": stats.median(overheads),
        }
    return out


def _saved(dse, cycles: List[float], base: float, loss: float) -> float:
    """1 - cycles(cheapest design within ``loss`` of the exact accuracy) / cycles(exact)."""
    eligible = [c for p, c in zip(dse.points, cycles) if p.accuracy >= dse.baseline_accuracy - loss - 1e-12]
    return 1.0 - min(eligible) / base


# --------------------------------------------------------------------------- workloads
#: Workload name -> its DSE configuration.
WORKLOADS: Dict[str, DSEConfig] = {"dse_sweep": DSE_SWEEP, "dse_joint": DSE_JOINT}
