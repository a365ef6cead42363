"""Design-space exploration over skip thresholds and layer subsets (stage 5).

The paper performs an exhaustive, offline DSE over the significance threshold
tau (step 0.001 for LeNet, 0.01 for AlexNet, range [0, 0.1]) and over the set
of approximated layers, simulating the classification accuracy of every
configuration and recording the normalised MAC reduction.  The paper used 6
CPU threads; :func:`run_dse` exposes the same knob through ``n_workers``.

Every design is simulated by one prefix-sharing evaluator,
:func:`evaluate_designs`.  Each design's masks are built up front and each
layer is keyed by a digest of its mask (exact layers get an empty key).
Sorted by their per-layer key tuples, the designs form a walk through a trie
over the layers: a design re-runs only the layers from the first one whose
key differs from the previous design's, reusing the int8 activations cached
at every layer boundary.  Each 256-image evaluation chunk is walked on its
own, so at most one activation per layer is alive besides the stacked
outputs below.

*Sibling stacking.*  Consecutive designs that share every key before a conv
layer and differ at it feed that layer the same activations.  The first of
them to reach the layer computes all their outputs in one
``QConv2D.forward_stacked`` call -- one patch gather and one wide BLAS
product for D masks -- and the walk caches the others' outputs until each
design reaches the layer and finds it as a hit (:func:`_stack_plan`).  The
stacked outputs held at once stay within :data:`STACK_BYTES`.  Every output
is bit for bit the one a single convolution gives.

*Sharding.*  The key-sorted designs are cut into one contiguous run per
worker, balanced by the layer forwards each run's walk executes (weighted by
each layer's MACs), and cut where no sibling stack is split whenever that
costs at most half a design's walk of balance (:func:`_shards`).  Every worker runs BLAS on its share of
the cores (:func:`repro.utils.parallel.parallel_map`).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ApproxConfig
from repro.core.significance import SignificanceResult
from repro.core.skipping import Granularity, conv_mac_reduction
from repro.core.unpacking import UnpackedLayer
from repro.isa.profiles import BoardProfile
from repro.kernels.native import load_native
from repro.quant.qmodel import QuantizedModel
from repro.quant.schemes import dequantize
from repro.registry import SEARCH_STRATEGIES
from repro.utils.logging import get_logger
from repro.utils.parallel import default_workers, parallel_map

logger = get_logger("core.dse")


@dataclass
class DSEConfig:
    """Configuration of the design-space exploration.

    Attributes
    ----------
    tau_values:
        The significance thresholds to sweep.  ``None`` selects the paper's
        sweep for the given ``tau_step``: ``arange(0, tau_max + step, step)``.
    tau_step, tau_max:
        Used when ``tau_values`` is ``None`` (paper: step 0.001 for LeNet,
        0.01 for AlexNet, max 0.1).
    layer_subsets:
        Which sets of conv layers to approximate.  ``"all"`` approximates
        every conv layer jointly (one subset); ``"per_layer"`` additionally
        explores each layer alone; ``"exhaustive"`` explores every non-empty
        subset of conv layers.
    granularity:
        Skipping granularity (operand-level reproduces the paper).
    metric:
        Significance metric to use (``expected_contribution`` = paper Eq. 2).
    max_eval_samples:
        Cap on the number of evaluation images used to simulate accuracy.
    max_configs:
        Optional hard cap on the number of explored configurations.
    n_workers:
        Worker processes for the accuracy simulations.  ``None`` (default)
        uses :func:`repro.utils.parallel.default_workers` -- trie subtrees
        are independent, so the exploration should saturate the machine
        unless explicitly told otherwise; ``1`` forces the serial path.
    include_exact:
        Always include the exact design as a reference point.
    strategy:
        Name of a search strategy registered in
        :data:`repro.registry.SEARCH_STRATEGIES` (``"exhaustive"`` reproduces
        the paper's sweep; ``"greedy"`` and ``"latency-aware"`` are the
        refinements from :mod:`repro.core.strategies`).
    strategy_options:
        Keyword arguments forwarded to the strategy's constructor (e.g.
        ``{"max_accuracy_loss": 0.05}`` for the greedy search).
    """

    tau_values: Optional[Sequence[float]] = None
    tau_step: float = 0.01
    tau_max: float = 0.1
    layer_subsets: str = "all"
    granularity: str = Granularity.OPERAND.value
    metric: str = "expected_contribution"
    max_eval_samples: int = 512
    max_configs: Optional[int] = None
    n_workers: Optional[int] = None
    include_exact: bool = True
    strategy: str = "exhaustive"
    strategy_options: Dict[str, object] = field(default_factory=dict)

    def resolved_taus(self) -> List[float]:
        """The tau sweep actually used."""
        if self.tau_values is not None:
            taus = [float(t) for t in self.tau_values]
        else:
            n_steps = int(round(self.tau_max / self.tau_step))
            taus = [round(i * self.tau_step, 10) for i in range(n_steps + 1)]
        if any(t < 0 for t in taus):
            raise ValueError("tau values must be non-negative")
        return sorted(set(taus))


@dataclass
class DesignPoint:
    """One evaluated approximate design."""

    config: ApproxConfig
    accuracy: float
    conv_mac_reduction: float
    total_macs: int
    conv_macs: int
    retained_operand_fraction: float
    #: Board-level latency estimate; filled in by the latency-aware strategy.
    latency_ms: Optional[float] = None

    @classmethod
    def from_masks(
        cls,
        qmodel: QuantizedModel,
        config: ApproxConfig,
        masks: Dict[str, np.ndarray],
        accuracy: float,
    ) -> "DesignPoint":
        """A design point of an evaluated configuration, its MAC fields taken from ``masks``."""
        retained = (
            float(np.mean([np.asarray(m, dtype=bool).mean() for m in masks.values()]))
            if masks
            else 1.0
        )
        return cls(
            config=config,
            accuracy=accuracy,
            conv_mac_reduction=conv_mac_reduction(qmodel, masks),
            total_macs=qmodel.total_macs(masks=masks),
            conv_macs=qmodel.conv_macs(masks=masks),
            retained_operand_fraction=retained,
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view."""
        payload = {
            "label": self.config.label,
            "taus": self.config.taus(),
            "accuracy": self.accuracy,
            "conv_mac_reduction": self.conv_mac_reduction,
            "total_macs": self.total_macs,
            "conv_macs": self.conv_macs,
            "retained_operand_fraction": self.retained_operand_fraction,
        }
        if self.config.layer_specs:
            # Carried so a saved DSE table (``explore``'s JSON) reproduces the
            # exact masks downstream (e.g. serving's Deployment.from_points)
            # even under non-default granularity/metric settings.
            spec = next(iter(self.config.layer_specs.values()))
            payload["granularity"] = spec.granularity
            payload["metric"] = spec.metric
        if self.latency_ms is not None:
            payload["latency_ms"] = self.latency_ms
        return payload


@dataclass
class DSEResult:
    """The outcome of a design-space exploration."""

    points: List[DesignPoint]
    baseline_accuracy: float
    baseline_total_macs: int
    baseline_conv_macs: int
    config: DSEConfig
    #: Layer forwards the prefix-sharing evaluation walk executed.
    layer_forwards: int = 0
    #: Layer forwards a design-by-design evaluation would have run.
    naive_layer_forwards: int = 0
    #: Conv patch gathers the walk ran (one per conv call, stacked or not).
    conv_gathers: int = 0

    def pareto_points(self) -> List[DesignPoint]:
        """Pareto-optimal designs (maximise accuracy and conv-MAC reduction)."""
        from repro.core.pareto import pareto_front

        return pareto_front(
            self.points,
            objective_a=lambda p: p.conv_mac_reduction,
            objective_b=lambda p: p.accuracy,
        )

    def best_within_loss(self, max_accuracy_loss: float) -> Optional[DesignPoint]:
        """Largest MAC reduction whose accuracy loss stays within the budget."""
        from repro.core.pareto import select_by_accuracy_loss

        return select_by_accuracy_loss(
            self.points,
            baseline_accuracy=self.baseline_accuracy,
            max_accuracy_loss=max_accuracy_loss,
            accuracy=lambda p: p.accuracy,
            gain=lambda p: p.conv_mac_reduction,
        )

    def as_table(self) -> List[Dict[str, object]]:
        """All design points as plain dicts (for reports/JSON)."""
        return [p.as_dict() for p in self.points]

    def as_dict(self) -> Dict[str, object]:
        """The saved DSE: baseline, the walk's layer-forward and gather counts and every point."""
        return {
            "baseline_accuracy": self.baseline_accuracy,
            "layer_forwards": self.layer_forwards,
            "naive_layer_forwards": self.naive_layer_forwards,
            "conv_gathers": self.conv_gathers,
            "points": self.as_table(),
        }


def _generate_layer_subsets(layer_names: Sequence[str], mode: str) -> List[Tuple[str, ...]]:
    """Enumerate the layer subsets to explore."""
    layer_names = list(layer_names)
    if not layer_names:
        raise ValueError("the model has no approximable layers")
    if mode == "all":
        return [tuple(layer_names)]
    if mode == "per_layer":
        subsets = [tuple(layer_names)] + [(name,) for name in layer_names]
        return subsets
    if mode == "exhaustive":
        subsets = []
        for r in range(1, len(layer_names) + 1):
            subsets.extend(itertools.combinations(layer_names, r))
        return subsets
    raise ValueError(f"unknown layer_subsets mode {mode!r}")


#: Images per forward of the evaluation walk, as in ``QuantizedModel.predict_classes``.
EVAL_BATCH = 256

#: Byte budget of the stacked conv outputs the evaluation walk holds at once.
#: Like ``PATCH_BLOCK_BYTES``, a fixed constant: 16 MiB stacks four designs'
#: batch-256 LeNet conv1 outputs (4 MiB each), which is where the sibling
#: gather is shared most, and keeps a worker's RSS well below that of the
#: process that sets up the DSE.
STACK_BYTES = 16 << 20

#: A design in the walk: its index in the caller's list, per-layer mask keys
#: and masks.
_Design = Tuple[int, Tuple[bytes, ...], Dict[str, np.ndarray]]


@dataclass
class DesignEvaluation:
    """Accuracies of a batch of designs and the layer forwards their walk ran."""

    accuracies: List[float]
    layer_forwards: int
    #: Layer forwards a design-by-design evaluation would have run.
    naive_layer_forwards: int
    #: Conv layer calls the walk ran, each one patch gather (a stacked call
    #: computing several designs' outputs counts once).
    conv_gathers: int = 0


def _mask_key(mask: np.ndarray) -> bytes:
    """Digest identifying a layer's retention mask."""
    mask = np.ascontiguousarray(mask, dtype=bool)
    return hashlib.blake2b(repr(mask.shape).encode() + mask.tobytes(), digest_size=16).digest()


def _divergence(keys: Tuple[bytes, ...], previous: Tuple[bytes, ...]) -> int:
    """First layer whose key differs from the previous design's (``len(previous)`` if none)."""
    return next((i for i, (a, b) in enumerate(zip(keys, previous)) if a != b), len(previous))


def _stack_bytes(qmodel: QuantizedModel, images: int) -> List[int]:
    """Per layer, the bytes of one stacked output of ``images`` images, or 0 when it is not a conv."""
    return [
        int(np.prod(out_shape)) * images if layer.is_conv else 0
        for layer, (_, _, out_shape) in zip(qmodel.layers, qmodel.layer_shapes())
    ]


def _stack_plan(
    keys: Sequence[Tuple[bytes, ...]], stack_bytes: Sequence[int]
) -> Dict[Tuple[int, int], List[int]]:
    """Which designs' conv outputs the walk over key-sorted ``keys`` computes together.

    Maps ``(position, layer)`` to the positions whose masks the design at
    ``position`` stacks into its ``layer`` call: itself, then the next
    designs that share every key before ``layer`` and differ at it, one per
    distinct key, in key order.  Those designs find their output cached,
    and each reaches the layer before the walk leaves the shared prefix, so
    no cached output outlives it.  The stacked outputs held at once never
    exceed :data:`STACK_BYTES`: each layer's stack lives until the walk next
    computes that layer, and a deeper stack gets only the room its
    ancestors' stacks leave.
    """
    plan: Dict[Tuple[int, int], List[int]] = {}
    held = [0] * len(stack_bytes)
    pending: List[set] = [set() for _ in stack_bytes]
    previous: Tuple[bytes, ...] = ()
    for position, row in enumerate(keys):
        first = _divergence(row, previous)
        for i in range(first, len(stack_bytes)):
            if row[i] in pending[i]:
                pending[i].discard(row[i])
                continue
            held[i] = 0
            if not stack_bytes[i]:
                continue
            room = (STACK_BYTES - sum(held[:i])) // stack_bytes[i]
            group, seen = [position], {row[i]}
            for later in range(position + 1, len(keys)):
                other = keys[later]
                if len(group) >= room or other[:i] != row[:i]:
                    break
                if other[i] not in seen:
                    seen.add(other[i])
                    group.append(later)
            if len(group) > 1:
                plan[(position, i)] = group
                pending[i] = seen - {row[i]}
                held[i] = len(group) * stack_bytes[i]
        previous = row
    return plan


#: Per-worker invariant payload installed by :func:`_init_walk_worker` -- the
#: model and eval arrays are shipped once per worker instead of being
#: re-pickled into every work item.
_WALK_STATE: dict = {}


def _init_walk_worker(qmodel: QuantizedModel, images: np.ndarray, labels: np.ndarray) -> None:
    """Process-pool initializer: stash the shared evaluation payload."""
    _WALK_STATE["payload"] = (qmodel, images, labels)


def _walk_designs(designs: List[_Design]) -> Tuple[List[Tuple[int, float]], int, int]:
    """Worker: evaluate key-sorted designs, re-running only each one's differing suffix.

    Follows ``QuantizedModel.evaluate_accuracy`` step for step (quantize the
    chunk, run the layers, dequantize, argmax), so accuracies are
    bit-identical.  A conv output that :func:`_stack_plan` stacks is
    computed for all its sibling designs in one call and cached until each
    reaches that layer.  Returns ``(index, accuracy)`` pairs, the number of
    layer forwards run and the number of conv gathers.
    """
    qmodel, images, labels = _WALK_STATE["payload"]
    layers = qmodel.layers
    n = int(images.shape[0])
    plan = _stack_plan([keys for _, keys, _ in designs], _stack_bytes(qmodel, min(n, EVAL_BATCH)))
    correct = [0] * len(designs)
    forwards = gathers = 0
    for start in range(0, n, EVAL_BATCH):
        stop = min(start + EVAL_BATCH, n)
        # acts[i] is the input of layer i: one activation per layer boundary,
        # plus the stacked outputs cached for designs still to come.
        acts: List[np.ndarray] = [qmodel.quantize_input(images[start:stop])] + [None] * len(layers)
        cached: List[Dict[bytes, np.ndarray]] = [{} for _ in layers]
        previous: Tuple[bytes, ...] = ()
        hits = 0
        for position, (_, keys, masks) in enumerate(designs):
            first = _divergence(keys, previous)
            if first < len(layers):
                acts[first + 1:] = [None] * (len(layers) - first)  # release what this design recomputes
                for i in range(first, len(layers)):
                    layer = layers[i]
                    if keys[i] in cached[i]:
                        acts[i + 1] = cached[i].pop(keys[i])
                        continue
                    group = plan.get((position, i))
                    if group is None:
                        acts[i + 1] = layer.forward(acts[i], weight_mask=masks.get(layer.name))
                        forwards += 1
                    else:
                        outs = layer.forward_stacked(
                            acts[i], [designs[q][2].get(layer.name) for q in group]
                        )
                        for q, out in zip(group[1:], outs[1:]):
                            cached[i][designs[q][1][i]] = out
                        acts[i + 1] = outs[0]
                        forwards += len(group)
                    gathers += layer.is_conv
                logits = dequantize(acts[-1], layers[-1].output_params)
                hits = int((logits.argmax(axis=-1) == labels[start:stop]).sum())
            correct[position] += hits
            previous = keys
    pairs = [(index, correct[p] / n if n else 0.0) for p, (index, _, _) in enumerate(designs)]
    return pairs, forwards, gathers


def _layer_costs(qmodel: QuantizedModel) -> List[int]:
    """Per layer, the work of one forward per image: its MACs, or its outputs when it has fewer."""
    return [
        max(layer.macs(in_shape), int(np.prod(out_shape)))
        for layer, (_, in_shape, out_shape) in zip(qmodel.layers, qmodel.layer_shapes())
    ]


def _shards(
    designs: List[_Design], n_items: int, stack_bytes: Sequence[int], layer_costs: Sequence[int]
) -> List[List[_Design]]:
    """Cut key-sorted designs into ``min(n_items, len(designs))`` runs of balanced layer forwards.

    The serial walk's layer forwards (all layers for the first design, then
    each design's differing suffix), each weighted by its layer's
    ``layer_costs`` (:func:`_layer_costs`), are cut into equal shares, each
    cut aiming at an equal share of what the previous cuts leave.  A cut
    goes to the position nearest its target, unless a position that splits
    no sibling stack of :func:`_stack_plan` is at most half a design's walk
    farther from it: then to the nearest such position, so stacked designs
    stay in one run.
    """
    n_items = min(n_items, len(designs))
    if n_items <= 1:
        return [designs] if designs else []
    keys = [keys for _, keys, _ in designs]
    before = [0]
    for row, previous in zip(keys, [()] + keys[:-1]):
        before.append(before[-1] + sum(layer_costs[_divergence(row, previous):]))
    spanned = set()
    for group in _stack_plan(keys, stack_bytes).values():
        spanned.update(range(group[0] + 1, group[-1] + 1))
    cuts = [0]
    for j in range(1, n_items):
        # Leave a position for each cut still to come.
        options = range(cuts[-1] + 1, len(designs) - (n_items - 1 - j))
        target = before[cuts[-1]] + (before[-1] - before[cuts[-1]]) / (n_items - j + 1)
        nearest = min(options, key=lambda p: abs(before[p] - target))
        clean = min((p for p in options if p not in spanned), default=nearest,
                    key=lambda p: abs(before[p] - target))
        slack = abs(before[clean] - target) - abs(before[nearest] - target)
        cuts.append(clean if 2 * slack <= sum(layer_costs) else nearest)
    bounds = cuts + [len(designs)]
    return [designs[a:b] for a, b in zip(bounds, bounds[1:])]


def evaluate_designs(
    qmodel: QuantizedModel,
    mask_sets: Sequence[Dict[str, np.ndarray]],
    images: np.ndarray,
    labels: np.ndarray,
    n_workers: Optional[int] = 1,
) -> DesignEvaluation:
    """Top-1 accuracy of every mask set (``{}`` is the exact design), sharing layer prefixes.

    Each accuracy equals ``qmodel.evaluate_accuracy(images, labels, masks=m)``
    bit for bit.  ``n_workers`` follows :func:`parallel_map`; the work is
    cut into one run of key-sorted designs per worker (:func:`_shards`).
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    names = [layer.name for layer in qmodel.layers]
    designs: List[_Design] = [
        (index, tuple(_mask_key(masks[name]) if name in masks else b"" for name in names), masks)
        for index, masks in enumerate(mask_sets)
    ]
    designs.sort(key=lambda d: d[1])
    n_workers = default_workers() if n_workers is None else n_workers
    stack_bytes = _stack_bytes(qmodel, min(int(images.shape[0]), EVAL_BATCH))
    load_native()  # built once here, so forked pool workers inherit it instead of each building
    results = parallel_map(
        _walk_designs,
        _shards(designs, max(1, n_workers), stack_bytes, _layer_costs(qmodel)),
        n_workers=n_workers,
        chunksize=1,
        min_items_for_pool=2,
        initializer=_init_walk_worker,
        initargs=(qmodel, images, labels),
    )
    accuracies = [0.0] * len(designs)
    forwards = gathers = 0
    for pairs, walked, gathered in results:
        forwards += walked
        gathers += gathered
        for index, accuracy in pairs:
            accuracies[index] = accuracy
    n_chunks = -(-int(images.shape[0]) // EVAL_BATCH)
    return DesignEvaluation(accuracies, forwards, len(designs) * len(names) * n_chunks, gathers)


def run_dse(
    qmodel: QuantizedModel,
    significance: SignificanceResult,
    eval_images: np.ndarray,
    eval_labels: np.ndarray,
    dse_config: Optional[DSEConfig] = None,
    unpacked: Optional[Dict[str, UnpackedLayer]] = None,
    layer_names: Optional[Sequence[str]] = None,
    board: Optional[BoardProfile] = None,
) -> DSEResult:
    """Explore the design space with the strategy named by ``dse_config.strategy``.

    Parameters
    ----------
    qmodel:
        The quantized model under approximation.
    significance:
        Per-layer significance matrices (stage 3 output).
    eval_images, eval_labels:
        Held-out data used to simulate classification accuracy.
    dse_config:
        Exploration options (defaults to :class:`DSEConfig`); the
        ``strategy`` field picks the search algorithm from
        :data:`repro.registry.SEARCH_STRATEGIES`.
    unpacked:
        Unpacked layers (needed for coarse-granularity masks; optional).
    layer_names:
        Restrict the exploration to these layers (defaults to every layer
        with significance data, i.e. every conv layer).
    board:
        Target board; required by latency-objective strategies only.
    """
    dse_config = dse_config or DSEConfig()
    strategy_cls = SEARCH_STRATEGIES.resolve(dse_config.strategy)
    strategy = strategy_cls(**dse_config.strategy_options)
    return strategy.search(
        qmodel,
        significance,
        eval_images,
        eval_labels,
        dse_config=dse_config,
        unpacked=unpacked,
        layer_names=layer_names,
        board=board,
    )


def exhaustive_sweep(
    qmodel: QuantizedModel,
    significance: SignificanceResult,
    eval_images: np.ndarray,
    eval_labels: np.ndarray,
    dse_config: Optional[DSEConfig] = None,
    unpacked: Optional[Dict[str, UnpackedLayer]] = None,
    layer_names: Optional[Sequence[str]] = None,
) -> DSEResult:
    """The paper's exhaustive sweep: simulate every (tau, layer-subset) design."""
    dse_config = dse_config or DSEConfig()
    eval_images = np.asarray(eval_images, dtype=np.float32)
    eval_labels = np.asarray(eval_labels)
    if eval_images.shape[0] != eval_labels.shape[0]:
        raise ValueError("eval_images and eval_labels must be aligned")
    if eval_images.shape[0] > dse_config.max_eval_samples:
        eval_images = eval_images[: dse_config.max_eval_samples]
        eval_labels = eval_labels[: dse_config.max_eval_samples]

    names = list(layer_names) if layer_names is not None else significance.layer_names()
    taus = dse_config.resolved_taus()
    subsets = _generate_layer_subsets(names, dse_config.layer_subsets)

    configs: List[ApproxConfig] = []
    for subset in subsets:
        for tau in taus:
            if tau == 0.0 and len(subset) != len(names):
                # tau=0 skips only exactly-zero-significance operands; exploring it
                # once (on the full subset) is enough.
                continue
            label = f"{qmodel.name}:tau={tau:g}:layers={'+'.join(subset)}"
            configs.append(
                ApproxConfig.uniform(
                    qmodel.name,
                    subset,
                    tau,
                    granularity=dse_config.granularity,
                    metric=dse_config.metric,
                    label=label,
                )
            )
    if dse_config.max_configs is not None and len(configs) > dse_config.max_configs:
        stride = max(1, len(configs) // dse_config.max_configs)
        configs = configs[::stride][: dse_config.max_configs]

    logger.info(
        "running DSE on %s: %d configurations, %d eval samples",
        qmodel.name,
        len(configs),
        eval_images.shape[0],
    )

    mask_sets = [config.build_masks(significance, unpacked=unpacked) for config in configs]
    evaluation = evaluate_designs(
        qmodel, [{}] + mask_sets, eval_images, eval_labels, n_workers=dse_config.n_workers
    )
    logger.info(
        "DSE on %s: %d layer forwards executed, %d without prefix sharing, %d conv gathers",
        qmodel.name,
        evaluation.layer_forwards,
        evaluation.naive_layer_forwards,
        evaluation.conv_gathers,
    )
    baseline_accuracy, *accuracies = evaluation.accuracies
    points = [
        DesignPoint.from_masks(qmodel, config, masks, accuracy)
        for config, masks, accuracy in zip(configs, mask_sets, accuracies)
    ]
    if dse_config.include_exact:
        exact = DesignPoint.from_masks(qmodel, ApproxConfig.exact(qmodel.name), {}, baseline_accuracy)
        points = [exact] + points

    return DSEResult(
        points=points,
        baseline_accuracy=baseline_accuracy,
        baseline_total_macs=qmodel.total_macs(),
        baseline_conv_macs=qmodel.conv_macs(),
        config=dse_config,
        layer_forwards=evaluation.layer_forwards,
        naive_layer_forwards=evaluation.naive_layer_forwards,
        conv_gathers=evaluation.conv_gathers,
    )
