"""Alternative DSE strategies beyond the exhaustive uniform-threshold sweep.

The paper performs an exhaustive sweep of a *single* threshold tau applied to
a chosen subset of layers.  Two refinements are provided here:

* :func:`greedy_per_layer_search` -- a heterogeneous-threshold search that
  greedily raises the tau of whichever layer currently buys the most MAC
  reduction per unit of accuracy loss.  It typically finds configurations
  that dominate the uniform sweep at equal accuracy (the per-layer
  sensitivity of CNNs differs widely), at a cost linear in the number of
  steps rather than exponential in the number of layers.
* :func:`latency_aware_selection` -- re-ranks a finished DSE using a latency
  objective on a concrete board instead of the MAC-count proxy, which is what
  ultimately matters for the Table-II deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import ApproxConfig, LayerApproxSpec
from repro.core.dse import DSEConfig, DSEResult, DesignPoint, evaluate_designs, exhaustive_sweep
from repro.core.significance import SignificanceResult
from repro.core.skipping import build_model_masks, conv_mac_reduction
from repro.core.unpacking import UnpackedLayer
from repro.isa.cost_model import ExecutionStyle, KernelCostModel
from repro.isa.profiles import BoardProfile
from repro.kernels.cycle_counters import CycleCounter
from repro.quant.qmodel import QuantizedModel
from repro.registry import SEARCH_STRATEGIES
from repro.utils.logging import get_logger

logger = get_logger("core.strategies")


@dataclass
class GreedyStep:
    """One accepted step of the greedy per-layer search."""

    layer: str
    tau: float
    accuracy: float
    conv_mac_reduction: float


@dataclass
class GreedySearchResult:
    """Outcome of :func:`greedy_per_layer_search`."""

    config: ApproxConfig
    accuracy: float
    conv_mac_reduction: float
    baseline_accuracy: float
    steps: List[GreedyStep] = field(default_factory=list)
    #: Layer forwards the iterations' prefix-sharing walks executed, and
    #: what design-by-design evaluation would have run.
    layer_forwards: int = 0
    naive_layer_forwards: int = 0
    #: Conv patch gathers those walks ran.
    conv_gathers: int = 0

    @property
    def accuracy_loss(self) -> float:
        """Accuracy drop relative to the exact baseline."""
        return self.baseline_accuracy - self.accuracy


def greedy_per_layer_search(
    qmodel: QuantizedModel,
    significance: SignificanceResult,
    eval_images: np.ndarray,
    eval_labels: np.ndarray,
    max_accuracy_loss: float,
    tau_candidates: Optional[Sequence[float]] = None,
    max_steps: int = 64,
    layer_names: Optional[Sequence[str]] = None,
    granularity: str = "operand",
    metric: str = "expected_contribution",
    unpacked: Optional[Dict[str, UnpackedLayer]] = None,
) -> GreedySearchResult:
    """Greedy heterogeneous-threshold search under an accuracy-loss budget.

    Starting from the exact design (tau = 0 everywhere), each iteration tries
    raising every layer's threshold to its next candidate value, evaluates the
    accuracy of each single-layer move, and commits the move with the best
    (MAC reduction gained) / (accuracy lost) ratio that still satisfies the
    loss budget.  The search stops when no admissible move remains.

    Parameters
    ----------
    qmodel, significance:
        The quantized model and its significance matrices.
    eval_images, eval_labels:
        Evaluation data used to simulate accuracy.
    max_accuracy_loss:
        Accuracy-loss budget (absolute, e.g. ``0.05``).
    tau_candidates:
        Ordered ladder of thresholds each layer may climb (default: a
        geometric ladder from 1e-4 to 0.2).
    max_steps:
        Safety cap on accepted moves.
    layer_names:
        Layers to consider (default: every layer with significance data).
    granularity, metric:
        Skipping granularity and significance metric recorded in the emitted
        layer specs; masks are built at this granularity (coarse
        granularities need ``unpacked`` for the operand coordinates).
    unpacked:
        Unpacked layers (required for coarse granularities only).
    """
    if max_accuracy_loss < 0:
        raise ValueError("max_accuracy_loss must be non-negative")
    names = list(layer_names) if layer_names is not None else significance.layer_names()
    if not names:
        raise ValueError("no approximable layers")
    if tau_candidates is None:
        tau_candidates = [0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2]
    ladder = sorted(set(float(t) for t in tau_candidates))
    if any(t <= 0 for t in ladder):
        raise ValueError("tau_candidates must be strictly positive")

    eval_images = np.asarray(eval_images, dtype=np.float32)
    eval_labels = np.asarray(eval_labels)
    baseline_accuracy = qmodel.evaluate_accuracy(eval_images, eval_labels)
    floor = baseline_accuracy - max_accuracy_loss

    current_levels: Dict[str, int] = {name: -1 for name in names}  # index into ladder; -1 = exact

    def taus_from_levels(levels: Dict[str, int]) -> Dict[str, float]:
        return {name: ladder[idx] for name, idx in levels.items() if idx >= 0}

    current_accuracy, current_reduction = baseline_accuracy, 0.0
    steps: List[GreedyStep] = []
    layer_forwards = naive_layer_forwards = conv_gathers = 0

    for _ in range(max_steps):
        # Every one-layer move of this iteration goes to the prefix-sharing
        # evaluator in one call; moves on later layers share the earlier ones.
        trials = []
        for name in names:
            next_level = current_levels[name] + 1
            if next_level >= len(ladder):
                continue
            trial_levels = dict(current_levels)
            trial_levels[name] = next_level
            masks = build_model_masks(
                significance, taus_from_levels(trial_levels), granularity=granularity, unpacked=unpacked
            )
            trials.append((name, next_level, masks))
        evaluation = evaluate_designs(qmodel, [masks for _, _, masks in trials], eval_images, eval_labels)
        layer_forwards += evaluation.layer_forwards
        naive_layer_forwards += evaluation.naive_layer_forwards
        conv_gathers += evaluation.conv_gathers
        best_move = None
        for (name, next_level, masks), accuracy in zip(trials, evaluation.accuracies):
            if accuracy < floor:
                continue
            reduction = conv_mac_reduction(qmodel, masks)
            gain = reduction - current_reduction
            loss = max(current_accuracy - accuracy, 0.0)
            score = gain / (loss + 1e-6)
            if gain <= 0:
                continue
            if best_move is None or score > best_move[0]:
                best_move = (score, name, next_level, accuracy, reduction)
        if best_move is None:
            break
        _, name, level, accuracy, reduction = best_move
        current_levels[name] = level
        current_accuracy, current_reduction = accuracy, reduction
        steps.append(
            GreedyStep(layer=name, tau=ladder[level], accuracy=accuracy, conv_mac_reduction=reduction)
        )
        logger.info(
            "greedy step: %s -> tau=%g (accuracy %.3f, reduction %.3f)",
            name,
            ladder[level],
            accuracy,
            reduction,
        )

    specs = {
        name: LayerApproxSpec(tau=ladder[idx], granularity=granularity, metric=metric)
        for name, idx in current_levels.items()
        if idx >= 0
    }
    config = ApproxConfig(
        model_name=qmodel.name,
        layer_specs=specs,
        label=f"{qmodel.name}:greedy@{max_accuracy_loss:.0%}",
    )
    return GreedySearchResult(
        config=config,
        accuracy=current_accuracy,
        conv_mac_reduction=current_reduction,
        baseline_accuracy=baseline_accuracy,
        steps=steps,
        layer_forwards=layer_forwards,
        naive_layer_forwards=naive_layer_forwards,
        conv_gathers=conv_gathers,
    )


def estimate_design_latency_ms(
    qmodel: QuantizedModel,
    design: DesignPoint,
    significance: SignificanceResult,
    board: BoardProfile,
) -> float:
    """Latency estimate of a design on a board using the unpacked cost model."""
    masks = None if design.config.is_exact else design.config.build_masks(significance)
    counter = CycleCounter()
    sample = np.zeros((1,) + qmodel.input_shape, dtype=np.float32)
    qmodel.forward(sample, masks=masks, counter=counter)
    return KernelCostModel(ExecutionStyle.UNPACKED).latency_ms(counter, board)


def latency_aware_selection(
    qmodel: QuantizedModel,
    dse: DSEResult,
    significance: SignificanceResult,
    board: BoardProfile,
    max_accuracy_loss: float,
) -> Optional[DesignPoint]:
    """Pick the *lowest-latency* (rather than fewest-MAC) design within a loss budget.

    MAC count is only a proxy: two designs with equal retained MACs can have
    different latencies because per-output and data-movement overheads do not
    shrink with skipping.  This selection re-ranks the Pareto candidates with
    the board-level latency estimate.
    """
    threshold = dse.baseline_accuracy - max_accuracy_loss
    feasible = [p for p in dse.points if p.accuracy >= threshold]
    if not feasible:
        return None
    return min(
        feasible,
        key=lambda p: estimate_design_latency_ms(qmodel, p, significance, board),
    )


# --------------------------------------------------------------------------- strategy classes
class SearchStrategy:
    """A pluggable DSE search algorithm.

    Strategies are registered in :data:`repro.registry.SEARCH_STRATEGIES` and
    selected by name through ``DSEConfig.strategy``; ``DSEConfig.strategy_options``
    is forwarded to the constructor.  A strategy turns a model + significance
    data + evaluation set into a :class:`~repro.core.dse.DSEResult`, so every
    downstream consumer (Pareto analysis, selection, reports, the CLI) works
    with any strategy.
    """

    name: str = "base"

    def search(
        self,
        qmodel: QuantizedModel,
        significance: SignificanceResult,
        eval_images: np.ndarray,
        eval_labels: np.ndarray,
        dse_config: Optional[DSEConfig] = None,
        unpacked: Optional[Dict[str, UnpackedLayer]] = None,
        layer_names: Optional[Sequence[str]] = None,
        board: Optional[BoardProfile] = None,
    ) -> DSEResult:
        """Explore the design space and return the evaluated designs."""
        raise NotImplementedError


@SEARCH_STRATEGIES.register("exhaustive")
class ExhaustiveSearch(SearchStrategy):
    """The paper's exhaustive (tau x layer-subset) sweep."""

    name = "exhaustive"

    def search(self, qmodel, significance, eval_images, eval_labels,
               dse_config=None, unpacked=None, layer_names=None, board=None) -> DSEResult:
        return exhaustive_sweep(
            qmodel, significance, eval_images, eval_labels,
            dse_config=dse_config, unpacked=unpacked, layer_names=layer_names,
        )


@SEARCH_STRATEGIES.register("greedy")
class GreedyPerLayerSearch(SearchStrategy):
    """Heterogeneous-threshold search wrapping :func:`greedy_per_layer_search`.

    Parameters
    ----------
    max_accuracy_loss:
        Accuracy-loss budget the greedy climb must respect.
    tau_candidates:
        Optional threshold ladder (defaults to the geometric ladder of
        :func:`greedy_per_layer_search`).
    max_steps:
        Safety cap on accepted moves.
    """

    name = "greedy"

    def __init__(
        self,
        max_accuracy_loss: float = 0.05,
        tau_candidates: Optional[Sequence[float]] = None,
        max_steps: int = 64,
    ):
        self.max_accuracy_loss = float(max_accuracy_loss)
        self.tau_candidates = tau_candidates
        self.max_steps = int(max_steps)

    def search(self, qmodel, significance, eval_images, eval_labels,
               dse_config=None, unpacked=None, layer_names=None, board=None) -> DSEResult:
        dse_config = dse_config or DSEConfig()
        eval_images = np.asarray(eval_images, dtype=np.float32)
        eval_labels = np.asarray(eval_labels)
        if eval_images.shape[0] > dse_config.max_eval_samples:
            eval_images = eval_images[: dse_config.max_eval_samples]
            eval_labels = eval_labels[: dse_config.max_eval_samples]
        # The threshold ladder: explicit constructor candidates win, then an
        # explicit DSE tau sweep (its strictly positive values), then the
        # default geometric ladder of greedy_per_layer_search.
        tau_candidates = self.tau_candidates
        if tau_candidates is None and dse_config.tau_values is not None:
            tau_candidates = [t for t in dse_config.resolved_taus() if t > 0] or None
        greedy = greedy_per_layer_search(
            qmodel,
            significance,
            eval_images,
            eval_labels,
            max_accuracy_loss=self.max_accuracy_loss,
            tau_candidates=tau_candidates,
            max_steps=self.max_steps,
            layer_names=layer_names,
            granularity=dse_config.granularity,
            metric=dse_config.metric,
            unpacked=unpacked,
        )
        # Materialise every accepted intermediate configuration as a design
        # point, so Pareto/selection consumers see the whole greedy trajectory.
        points: List[DesignPoint] = []
        if dse_config.include_exact:
            points.append(DesignPoint.from_masks(qmodel, ApproxConfig.exact(qmodel.name), {},
                                                 greedy.baseline_accuracy))
        levels: Dict[str, float] = {}
        for step in greedy.steps:
            levels[step.layer] = step.tau
            config = ApproxConfig(
                model_name=qmodel.name,
                layer_specs={
                    name: LayerApproxSpec(
                        tau=tau,
                        granularity=dse_config.granularity,
                        metric=dse_config.metric,
                    )
                    for name, tau in levels.items()
                },
                label=f"{qmodel.name}:greedy:step{len(points)}",
            )
            masks = config.build_masks(significance, unpacked=unpacked)
            points.append(DesignPoint.from_masks(qmodel, config, masks, step.accuracy))
        return DSEResult(
            points=points,
            baseline_accuracy=greedy.baseline_accuracy,
            baseline_total_macs=qmodel.total_macs(),
            baseline_conv_macs=qmodel.conv_macs(),
            config=dse_config,
            layer_forwards=greedy.layer_forwards,
            naive_layer_forwards=greedy.naive_layer_forwards,
            conv_gathers=greedy.conv_gathers,
        )


class LatencyAwareDSEResult(DSEResult):
    """A DSE result whose loss-budget selection minimises latency, not MACs."""

    def best_within_loss(self, max_accuracy_loss: float) -> Optional[DesignPoint]:
        threshold = self.baseline_accuracy - max_accuracy_loss
        feasible = [
            p for p in self.points if p.accuracy >= threshold and p.latency_ms is not None
        ]
        if not feasible:
            return None
        return min(feasible, key=lambda p: p.latency_ms)


@SEARCH_STRATEGIES.register("latency-aware")
class LatencyAwareSearch(SearchStrategy):
    """Exhaustive sweep re-ranked by the board-level latency estimate.

    Runs the paper's sweep, then annotates every design with
    :func:`estimate_design_latency_ms` on the target board; the returned
    result's :meth:`best_within_loss` picks the *lowest-latency* design inside
    the accuracy budget, which is what ultimately matters for Table II.
    """

    name = "latency-aware"

    def search(self, qmodel, significance, eval_images, eval_labels,
               dse_config=None, unpacked=None, layer_names=None, board=None) -> DSEResult:
        if board is None:
            raise ValueError("the latency-aware strategy needs a target board profile")
        sweep = exhaustive_sweep(
            qmodel, significance, eval_images, eval_labels,
            dse_config=dse_config, unpacked=unpacked, layer_names=layer_names,
        )
        for point in sweep.points:
            point.latency_ms = estimate_design_latency_ms(qmodel, point, significance, board)
        return LatencyAwareDSEResult(
            points=sweep.points,
            baseline_accuracy=sweep.baseline_accuracy,
            baseline_total_macs=sweep.baseline_total_macs,
            baseline_conv_macs=sweep.baseline_conv_macs,
            config=sweep.config,
            layer_forwards=sweep.layer_forwards,
            naive_layer_forwards=sweep.naive_layer_forwards,
            conv_gathers=sweep.conv_gathers,
        )
