"""The incremental experiment runner: a stage DAG over an artifact store.

:class:`Experiment` wires :class:`~repro.workflow.stage.Stage` objects
together by artifact name, executes them in dependency order and caches every
stage output in a content-addressed
:class:`~repro.workflow.artifacts.ArtifactStore`.  Cache keys chain through
the graph, so re-running an experiment with an unchanged configuration
executes *zero* stage bodies, while changing one stage's configuration (say,
the tau sweep of the DSE stage) re-runs only that stage and its dependents --
quantization, calibration and significance come straight back from the store.

Typical use::

    experiment = Experiment.from_quantized(
        qmodel, calib_images, eval_images, eval_labels,
        dse_config=DSEConfig(tau_values=[0.0, 0.01, 0.05]),
        store=ArtifactStore("runs/cache"),
    )
    result = experiment.run()          # executes unpack/calibrate/significance/dse
    result = experiment.run()          # pure cache: result.executed_stages == []
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.dse import DSEConfig, DSEResult
from repro.isa.profiles import BoardProfile, STM32U575
from repro.quant.quantizer import PTQConfig
from repro.utils.logging import get_logger
from repro.workflow.artifacts import ArtifactStore, fingerprint
from repro.workflow.stage import Stage, StageContext
from repro.workflow.stages import (
    CalibrateStage,
    DSEStage,
    QuantizeStage,
    SignificanceStage,
    UnpackStage,
)

logger = get_logger("workflow.experiment")


class ExperimentError(RuntimeError):
    """Raised when an experiment's stage graph is malformed."""


@dataclass
class StageExecution:
    """Bookkeeping record of one stage's execution (or cache hit)."""

    stage: str
    signature: str
    cached: bool
    #: Wall time of the stage, cache lookup included (~0 on a cache hit).
    duration_s: float = 0.0


@dataclass
class ExperimentResult:
    """Artifacts plus execution records of one experiment run."""

    artifacts: Dict[str, Any]
    executions: List[StageExecution] = field(default_factory=list)

    @property
    def executed_stages(self) -> List[str]:
        """Names of the stages whose bodies actually ran."""
        return [e.stage for e in self.executions if not e.cached]

    @property
    def cached_stages(self) -> List[str]:
        """Names of the stages served entirely from the artifact store."""
        return [e.stage for e in self.executions if e.cached]

    def __getitem__(self, name: str) -> Any:
        return self.artifacts[name]

    def __contains__(self, name: object) -> bool:
        return name in self.artifacts

    def get(self, name: str, default: Any = None) -> Any:
        """Artifact by name, or ``default`` when the experiment lacks it."""
        return self.artifacts.get(name, default)

    # ------------------------------------------------------------------ convenience views
    @property
    def dse(self) -> DSEResult:
        """The design-space exploration outcome."""
        return self.artifacts["dse"]

    @property
    def baseline_accuracy(self) -> float:
        """Accuracy of the exact quantized model on the DSE evaluation set."""
        return self.dse.baseline_accuracy

    def pareto_points(self):
        """Pareto-optimal designs of the exploration."""
        return self.dse.pareto_points()

    def select(self, max_accuracy_loss: float):
        """Best design within an accuracy-loss budget (paper stage 5)."""
        return self.dse.best_within_loss(max_accuracy_loss)


class Experiment:
    """A composable, incrementally cached experiment.

    Parameters
    ----------
    stages:
        The stage graph; order is irrelevant (stages are topologically sorted
        by their ``requires``/``provides`` declarations).
    inputs:
        Root artifacts (e.g. ``qmodel``, ``calibration_images``); their
        content digests seed the cache-key chain.
    store:
        Artifact cache.  Defaults to a fresh in-memory store; pass an
        :class:`ArtifactStore` with a root directory to persist artifacts
        across processes (the CLI's ``--resume``).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        inputs: Optional[Dict[str, Any]] = None,
        store: Optional[ArtifactStore] = None,
    ):
        self.stages = list(stages)
        self.inputs: Dict[str, Any] = dict(inputs or {})
        self.store = store if store is not None else ArtifactStore()
        self._validate()

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_quantized(
        cls,
        qmodel,
        calibration_images: np.ndarray,
        eval_images: np.ndarray,
        eval_labels: np.ndarray,
        *,
        board: BoardProfile = STM32U575,
        dse_config: Optional[DSEConfig] = None,
        metric: str = "expected_contribution",
        include_dense: bool = False,
        store: Optional[ArtifactStore] = None,
        extra_stages: Sequence[Stage] = (),
    ) -> "Experiment":
        """The standard ATAMAN flow starting from an already quantized model."""
        stages: List[Stage] = [
            UnpackStage(include_dense=include_dense),
            CalibrateStage(include_dense=include_dense),
            SignificanceStage(metric=metric, include_dense=include_dense),
            DSEStage(dse_config=dse_config, board=board),
            *extra_stages,
        ]
        inputs = {
            "qmodel": qmodel,
            "calibration_images": np.asarray(calibration_images, dtype=np.float32),
            "eval_images": np.asarray(eval_images, dtype=np.float32),
            "eval_labels": np.asarray(eval_labels),
        }
        return cls(stages, inputs=inputs, store=store)

    @classmethod
    def from_float(
        cls,
        model,
        calibration_images: np.ndarray,
        eval_images: np.ndarray,
        eval_labels: np.ndarray,
        *,
        board: BoardProfile = STM32U575,
        ptq_config: Optional[PTQConfig] = None,
        dse_config: Optional[DSEConfig] = None,
        metric: str = "expected_contribution",
        include_dense: bool = False,
        store: Optional[ArtifactStore] = None,
        extra_stages: Sequence[Stage] = (),
    ) -> "Experiment":
        """The standard flow starting from a trained float model (adds quantization)."""
        stages: List[Stage] = [
            QuantizeStage(ptq_config=ptq_config),
            UnpackStage(include_dense=include_dense),
            CalibrateStage(include_dense=include_dense),
            SignificanceStage(metric=metric, include_dense=include_dense),
            DSEStage(dse_config=dse_config, board=board),
            *extra_stages,
        ]
        inputs = {
            "float_model": model,
            "calibration_images": np.asarray(calibration_images, dtype=np.float32),
            "eval_images": np.asarray(eval_images, dtype=np.float32),
            "eval_labels": np.asarray(eval_labels),
        }
        return cls(stages, inputs=inputs, store=store)

    # ------------------------------------------------------------------ graph handling
    def _validate(self) -> None:
        seen_names = set()
        provided: Dict[str, str] = {}
        for stage in self.stages:
            if stage.name in seen_names:
                raise ExperimentError(f"duplicate stage name {stage.name!r}")
            seen_names.add(stage.name)
            for artifact in stage.provides:
                if artifact in provided:
                    raise ExperimentError(
                        f"artifact {artifact!r} is provided by both "
                        f"{provided[artifact]!r} and {stage.name!r}"
                    )
                if artifact in self.inputs:
                    raise ExperimentError(
                        f"artifact {artifact!r} is both an experiment input and "
                        f"an output of stage {stage.name!r}"
                    )
                provided[artifact] = stage.name

    def ordered_stages(self) -> List[Stage]:
        """Stages in dependency order (Kahn's algorithm over artifact names)."""
        producer: Dict[str, Stage] = {}
        for stage in self.stages:
            for artifact in stage.provides:
                producer[artifact] = stage
        ordered: List[Stage] = []
        visiting: set = set()
        done: set = set()

        def visit(stage: Stage) -> None:
            if stage.name in done:
                return
            if stage.name in visiting:
                raise ExperimentError(f"stage dependency cycle through {stage.name!r}")
            visiting.add(stage.name)
            for artifact in stage.requires:
                if artifact in self.inputs:
                    continue
                if artifact not in producer:
                    raise ExperimentError(
                        f"stage {stage.name!r} requires artifact {artifact!r}, which is "
                        f"neither an experiment input ({sorted(self.inputs)}) nor provided "
                        f"by any stage"
                    )
                visit(producer[artifact])
            visiting.discard(stage.name)
            done.add(stage.name)
            ordered.append(stage)

        for stage in self.stages:
            visit(stage)
        return ordered

    # ------------------------------------------------------------------ execution
    def run(self) -> ExperimentResult:
        """Execute the stage graph, serving unchanged stages from the store."""
        artifacts: Dict[str, Any] = dict(self.inputs)
        digests: Dict[str, str] = {name: fingerprint(value) for name, value in self.inputs.items()}
        executions: List[StageExecution] = []

        miss = object()
        for stage in self.ordered_stages():
            signature = stage.signature(digests)
            started = time.perf_counter()
            cached_outputs = self.store.get(signature, miss)
            if cached_outputs is not miss:
                outputs = cached_outputs
                cached = True
                logger.info("stage %s: cache hit (%s)", stage.name, signature[:12])
            else:
                ctx = StageContext({name: artifacts[name] for name in stage.requires})
                outputs = stage.run(ctx)
                missing = set(stage.provides) - set(outputs)
                extra = set(outputs) - set(stage.provides)
                if missing or extra:
                    raise ExperimentError(
                        f"stage {stage.name!r} returned artifacts {sorted(outputs)}, "
                        f"declared provides={list(stage.provides)}"
                    )
                self.store.save(signature, outputs)
                cached = False
                logger.info("stage %s: executed (%s)", stage.name, signature[:12])
            artifacts.update(outputs)
            # Downstream keys chain off the producing stage's signature instead
            # of re-hashing (potentially large) output artifacts.
            for artifact in stage.provides:
                digests[artifact] = fingerprint((signature, artifact))
            executions.append(
                StageExecution(
                    stage=stage.name,
                    signature=signature,
                    cached=cached,
                    duration_s=time.perf_counter() - started,
                )
            )

        return ExperimentResult(artifacts=artifacts, executions=executions)
