"""The system under test, built from source and set up from a seed.

*Build* trains the paper's LeNet once per checkout with a fixed seed (the
model is part of the system, like a compiled binary) and caches the weights
under ``.bench_build/perfbench``, keyed by a digest of ``src/``.  *Set-up*
turns a seed into inputs and readies the system for the first timed
operation: data and quantization.  Set-up runs several times per run and
``setup_s`` is the median, so work moved into set-up shows.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.config import ApproxConfig
from repro.data import SyntheticCifar10, SyntheticCifarConfig
from repro.isa.cost_model import ExecutionStyle, KernelCostModel
from repro.kernels.cycle_counters import CycleCounter
from repro.models import build_lenet
from repro.nn import Adam, Trainer
from repro.nn.serialization import load_model, save_model
from repro.quant import quantize_model
from repro.serving import Deployment
from repro.workflow.artifacts import fingerprint
from repro.workflow.experiment import Experiment

from perfbench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[1]
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

#: Fixed training recipe of the built model (the "fast" experiment scale).
TRAIN = {"seed": 0, "samples": 2400, "epochs": 5, "batch_size": 48, "lr": 1.5e-3}
#: Seeded inputs of one run: calibration set, DSE eval set, request pool.
N_CALIB, N_EVAL, N_POOL = 128, 256, 256
#: The three-level deployment the serving probes serve (and the ledger's
#: masks): exact, mid and aggressive uniform taus on every conv layer.
LEVEL_TAUS = (("exact", 0.0), ("mid", 0.02), ("aggressive", 0.08))
SETUP_REPEATS = 5


def source_digest() -> str:
    """Digest of every Python file under ``src/``: the build cache key."""
    digest = hashlib.sha256(repr(sorted(TRAIN.items())).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build_model() -> Tuple[Any, Dict[str, float]]:
    """The trained float LeNet: loaded from the build cache, trained on a miss."""
    stem_dir = BUILD_DIR / f"lenet-{source_digest()}"
    info: Dict[str, float] = {}
    if not (stem_dir / "model.json").exists():
        started = time.perf_counter()
        data = SyntheticCifar10(SyntheticCifarConfig(seed=TRAIN["seed"])).generate(
            TRAIN["samples"], seed=TRAIN["seed"]
        )
        model = build_lenet(rng=TRAIN["seed"] + 1)
        trainer = Trainer(model, Adam(model.parameters(), lr=TRAIN["lr"]), rng=TRAIN["seed"] + 11)
        trainer.fit(data.images, data.labels, epochs=TRAIN["epochs"], batch_size=TRAIN["batch_size"])
        tmp = stem_dir.with_name(f"{stem_dir.name}.tmp{os.getpid()}")
        tmp.mkdir(parents=True, exist_ok=True)
        save_model(model, tmp / "model")
        try:
            tmp.rename(stem_dir)
        except OSError:  # another run published the same build first
            shutil.rmtree(tmp, ignore_errors=True)
        info["build_train_s"] = time.perf_counter() - started
    started = time.perf_counter()
    model = load_model(stem_dir / "model")
    info["model_s"] = time.perf_counter() - started
    return model, info


@dataclass
class Inputs:
    """Everything a run feeds the system, drawn from its seed."""

    calib: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray
    pool: np.ndarray


def make_inputs(seed: int) -> Inputs:
    """Seeded images, disjoint from the build's training stream."""
    rng = np.random.default_rng([seed, 1])
    data = SyntheticCifar10(SyntheticCifarConfig(seed=TRAIN["seed"])).generate(
        N_CALIB + N_EVAL + N_POOL, seed=rng
    )
    a, b = N_CALIB, N_CALIB + N_EVAL
    return Inputs(data.images[:a], data.images[a:b], data.labels[a:b], data.images[b:])


def run_experiment(
    experiment: Experiment, recorder: SpanRecorder, parent: Optional[int] = None
) -> Tuple[Any, Dict[str, float], float]:
    """Run an experiment timing each stage body; returns (result, stage seconds, wall)."""
    stage_s: Dict[str, float] = {}
    for stage in experiment.stages:

        def timed(ctx, _run=stage.run, _name=stage.name):
            started = time.perf_counter()
            try:
                return _run(ctx)
            finally:
                end = time.perf_counter()
                stage_s[_name] = end - started
                recorder.add(f"core.{_name}", started, end, parent=parent)

        stage.run = timed
    started = time.perf_counter()
    result = experiment.run()
    return result, stage_s, time.perf_counter() - started


def fingerprint_s(inputs: Dict[str, Any]) -> float:
    """Time the content digests of an experiment's inputs, as ``Experiment.run`` computes them."""
    started = time.perf_counter()
    for value in inputs.values():
        fingerprint(value)
    return time.perf_counter() - started


def build_deployment(qmodel, significance, unpacked) -> Deployment:
    """The three-level (exact/mid/aggressive) deployment of the serving probes."""
    conv_names = [layer.name for layer in qmodel.conv_layers()]
    points = [
        {"label": label, "taus": {name: tau for name in conv_names} if tau else {}, "accuracy": 1.0 - i / 10}
        for i, (label, tau) in enumerate(LEVEL_TAUS)
    ]
    deployment = Deployment.from_points(qmodel, points, significance, unpacked=unpacked)
    if len(deployment.levels) != len(LEVEL_TAUS):
        raise RuntimeError(f"deployment kept {len(deployment.levels)} of {len(LEVEL_TAUS)} levels")
    return deployment


@dataclass
class System:
    """One set-up pass: the seeded inputs and the quantized model."""

    inputs: Inputs
    qmodel: Any
    times: Dict[str, float] = field(default_factory=dict)


def setup_pass(model, seed: int) -> System:
    """Draw the inputs from the seed and quantize the built model on them."""
    t0 = time.perf_counter()
    inputs = make_inputs(seed)
    t1 = time.perf_counter()
    qmodel = quantize_model(model, inputs.calib, name="lenet")
    t2 = time.perf_counter()
    return System(inputs=inputs, qmodel=qmodel, times={"data": t1 - t0, "quantize": t2 - t1})


def level_cycles(deployment: Deployment) -> Dict[str, float]:
    """Simulated per-sample cycles of every level, plus L0 per conv layer.

    The per-layer split comes from the analytic cost model on a one-sample
    probe; its sum must equal the level total the deployment recorded.
    """
    out = {f"cycles.L{i}": float(level.cycles_per_sample) for i, level in enumerate(deployment.levels)}
    counter = CycleCounter()
    probe = np.zeros((1, *deployment.qmodel.input_shape), dtype=np.float32)
    deployment.qmodel.forward(probe, masks=deployment.levels[0].masks, counter=counter)
    total, per_layer = KernelCostModel(ExecutionStyle.UNPACKED).estimate(counter)
    if total != deployment.levels[0].cycles_per_sample:
        raise RuntimeError(f"L0 cycles {total} != deployment's {deployment.levels[0].cycles_per_sample}")
    for name, estimate in per_layer.items():
        if name.startswith("conv"):
            out[f"cycles.L0.{name}"] = float(estimate.cycles)
    return out


def design_cycles(qmodel, config: ApproxConfig, significance, unpacked) -> float:
    """Simulated per-sample cycles of one DSE design (analytic cost model)."""
    masks = None if config.is_exact else config.build_masks(significance, unpacked=unpacked)
    counter = CycleCounter()
    qmodel.forward(np.zeros((1, *qmodel.input_shape), dtype=np.float32), masks=masks, counter=counter)
    return KernelCostModel(ExecutionStyle.UNPACKED).estimate_cycles(counter)


def peak_rss_mb() -> float:
    """Largest max-RSS of this process and its waited-for children (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment(seed: int) -> Dict[str, Any]:
    """What a result depends on besides the code: cores, BLAS threads, versions, seed."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older NumPy prints instead of returning
        blas_name = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
