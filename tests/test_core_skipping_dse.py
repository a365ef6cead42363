"""Tests for computation skipping, approximate configs, DSE and Pareto analysis (stages 4-5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    ApproxConfig,
    DSEConfig,
    Granularity,
    LayerApproxSpec,
    build_model_masks,
    build_skip_mask,
    pareto_front,
    retained_fraction,
    run_dse,
    select_by_accuracy_loss,
)
from repro.core import dse
from repro.core.dse import (
    EVAL_BATCH,
    DesignPoint,
    _generate_layer_subsets,
    _layer_costs,
    _mask_key,
    _shards,
    _stack_bytes,
    _stack_plan,
    evaluate_designs,
)
from repro.core.pareto import is_pareto_optimal
from repro.core.skipping import conv_mac_reduction
from repro.models import build_lenet
from repro.quant import quantize_model


class TestBuildSkipMask:
    def _significance(self, rng, out_c=4, k=12):
        sig = rng.random((out_c, k))
        return sig / sig.sum(axis=1, keepdims=True)

    def test_negative_tau_keeps_everything(self, rng):
        sig = self._significance(rng)
        assert build_skip_mask(sig, -1.0).all()

    def test_mask_is_monotonic_in_tau(self, rng):
        sig = self._significance(rng)
        previous = build_skip_mask(sig, 0.0)
        for tau in (0.01, 0.05, 0.1, 0.5):
            current = build_skip_mask(sig, tau)
            # Everything retained at a larger tau was retained at a smaller tau.
            assert (previous | ~current).all()
            previous = current

    def test_threshold_semantics(self):
        sig = np.array([[0.1, 0.2, 0.7]])
        mask = build_skip_mask(sig, 0.1)
        np.testing.assert_array_equal(mask, [[False, True, True]])  # S <= tau skipped

    def test_infinite_significance_always_retained(self):
        sig = np.array([[np.inf, np.inf], [0.5, 0.5]])
        mask = build_skip_mask(sig, 0.9)
        assert mask[0].all()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            build_skip_mask(np.ones(4), 0.1)

    def test_channel_granularity_skips_whole_groups(self, rng):
        sig = self._significance(rng, out_c=2, k=12)
        coords = np.stack(
            [np.zeros(12, int), np.zeros(12, int), np.repeat(np.arange(4), 3)], axis=1
        )
        mask = build_skip_mask(sig, 0.08, granularity=Granularity.INPUT_CHANNEL, operand_coords=coords)
        # Within each (output channel, input channel) group the decision is uniform.
        for out_channel in range(2):
            for group in range(4):
                member = coords[:, 2] == group
                values = np.unique(mask[out_channel, member])
                assert values.size == 1

    def test_coarse_granularity_requires_coords(self, rng):
        sig = self._significance(rng)
        with pytest.raises(ValueError):
            build_skip_mask(sig, 0.1, granularity=Granularity.INPUT_CHANNEL)

    def test_kernel_position_granularity(self, rng):
        sig = self._significance(rng, out_c=1, k=8)
        coords = np.stack(
            [np.repeat([0, 1], 4), np.tile([0, 0, 1, 1], 2), np.tile([0, 1], 4)], axis=1
        )
        mask = build_skip_mask(sig, 0.12, granularity=Granularity.KERNEL_POSITION, operand_coords=coords)
        assert mask.shape == sig.shape

    def test_build_model_masks_only_listed_layers(self, tiny_significance):
        names = tiny_significance.layer_names()
        masks = build_model_masks(tiny_significance, {names[0]: 0.05})
        assert set(masks) == {names[0]}
        with pytest.raises(KeyError):
            build_model_masks(tiny_significance, {"missing": 0.1})

    def test_retained_fraction(self):
        masks = {"a": np.array([[True, False], [True, True]])}
        assert retained_fraction(masks) == pytest.approx(0.75)
        assert retained_fraction({}) == 1.0

    def test_conv_mac_reduction_bounds(self, tiny_qmodel, tiny_significance):
        masks = build_model_masks(tiny_significance, {n: 0.05 for n in tiny_significance.layer_names()})
        reduction = conv_mac_reduction(tiny_qmodel, masks)
        assert 0.0 <= reduction <= 1.0


class TestApproxConfig:
    def test_uniform_and_exact(self):
        config = ApproxConfig.uniform("m", ["conv1", "conv2"], tau=0.01)
        assert not config.is_exact
        assert config.taus() == {"conv1": 0.01, "conv2": 0.01}
        assert ApproxConfig.exact("m").is_exact

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LayerApproxSpec(tau=-0.1)
        with pytest.raises(ValueError):
            LayerApproxSpec(tau=0.1, granularity="nope")

    def test_json_roundtrip(self, tmp_path):
        config = ApproxConfig.uniform("tiny", ["conv1"], tau=0.02, label="test")
        path = tmp_path / "config.json"
        config.save(path)
        loaded = ApproxConfig.load(path)
        assert loaded.model_name == "tiny"
        assert loaded.label == "test"
        assert loaded.taus() == {"conv1": 0.02}
        assert loaded.layer_specs["conv1"].granularity == Granularity.OPERAND.value

    def test_build_masks_matches_direct_construction(self, tiny_qmodel, tiny_significance):
        names = tiny_significance.layer_names()
        config = ApproxConfig.uniform(tiny_qmodel.name, names, tau=0.03)
        masks = config.build_masks(tiny_significance)
        direct = build_model_masks(tiny_significance, {n: 0.03 for n in names})
        for name in names:
            np.testing.assert_array_equal(masks[name], direct[name])


class TestPareto:
    def _points(self):
        return [
            {"x": 0.0, "y": 0.9},
            {"x": 0.2, "y": 0.9},   # dominates the first
            {"x": 0.4, "y": 0.85},
            {"x": 0.3, "y": 0.8},   # dominated by the previous two? (x smaller, y smaller than 0.85@0.4) -> dominated
            {"x": 0.6, "y": 0.5},
        ]

    def test_front_extraction(self):
        points = self._points()
        front = pareto_front(points, lambda p: p["x"], lambda p: p["y"])
        xs = [p["x"] for p in front]
        assert 0.0 not in xs  # dominated by x=0.2, same accuracy
        assert 0.3 not in xs
        assert {0.2, 0.4, 0.6} <= set(xs)

    def test_front_of_empty(self):
        assert pareto_front([], lambda p: p, lambda p: p) == []

    def test_is_pareto_optimal(self):
        points = self._points()
        assert is_pareto_optimal(points[1], points, lambda p: p["x"], lambda p: p["y"])
        assert not is_pareto_optimal(points[0], points, lambda p: p["x"], lambda p: p["y"])

    def test_duplicate_points_deduplicated(self):
        points = [{"x": 0.1, "y": 0.5}, {"x": 0.1, "y": 0.5}]
        front = pareto_front(points, lambda p: p["x"], lambda p: p["y"])
        assert len(front) == 1

    def test_select_by_accuracy_loss(self):
        points = self._points()
        best = select_by_accuracy_loss(points, baseline_accuracy=0.9, max_accuracy_loss=0.05,
                                       accuracy=lambda p: p["y"], gain=lambda p: p["x"])
        assert best["x"] == 0.4
        strict = select_by_accuracy_loss(points, 0.9, 0.0, lambda p: p["y"], lambda p: p["x"])
        assert strict["x"] == 0.2
        none = select_by_accuracy_loss(points, 2.0, 0.0, lambda p: p["y"], lambda p: p["x"])
        assert none is None
        with pytest.raises(ValueError):
            select_by_accuracy_loss(points, 0.9, -0.1, lambda p: p["y"], lambda p: p["x"])


_OBJECTIVE = st.floats(0, 1, allow_nan=False)
_POINT_SETS = st.lists(st.tuples(_OBJECTIVE, _OBJECTIVE), min_size=0, max_size=30)


def _dominates(a, b):
    return a["x"] >= b["x"] and a["y"] >= b["y"] and (a["x"] > b["x"] or a["y"] > b["y"])


class TestParetoProperties:
    """Dominance and selection invariants of ``core/pareto.py`` over random point sets."""

    @given(_POINT_SETS)
    @example([(0.5, 0.3), (0.5 + 1e-13, 0.3 - 1e-13)])  # a near-tie: neither dominates
    @settings(max_examples=200, deadline=None)
    def test_front_keeps_exactly_the_non_dominated_pairs(self, pairs):
        points = [{"x": x, "y": y} for x, y in pairs]
        front = pareto_front(points, lambda p: p["x"], lambda p: p["y"])
        kept = {id(p) for p in front}
        for member in front:
            assert not any(_dominates(other, member) for other in points)
        for dropped in (p for p in points if id(p) not in kept):
            # Dominated by a kept point, or a duplicate of a kept pair.
            assert any(
                _dominates(member, dropped) or (member["x"], member["y"]) == (dropped["x"], dropped["y"])
                for member in front
            )
        assert [p["x"] for p in front] == sorted(p["x"] for p in front)

    @given(_POINT_SETS, _OBJECTIVE, st.floats(0, 0.5, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_selection_takes_the_largest_gain_within_budget(self, pairs, baseline, budget):
        points = [{"x": x, "y": y} for x, y in pairs]
        best = select_by_accuracy_loss(points, baseline, budget, lambda p: p["y"], lambda p: p["x"])
        feasible = [p for p in points if p["y"] >= baseline - budget]
        if not feasible:
            assert best is None
            return
        assert best in feasible
        assert best["x"] == max(p["x"] for p in feasible)


class TestDSE:
    def test_layer_subset_generation(self):
        names = ["c1", "c2", "c3"]
        assert _generate_layer_subsets(names, "all") == [("c1", "c2", "c3")]
        per_layer = _generate_layer_subsets(names, "per_layer")
        assert ("c1",) in per_layer and ("c1", "c2", "c3") in per_layer
        exhaustive = _generate_layer_subsets(names, "exhaustive")
        assert len(exhaustive) == 7
        with pytest.raises(ValueError):
            _generate_layer_subsets(names, "nope")
        with pytest.raises(ValueError):
            _generate_layer_subsets([], "all")

    def test_dse_config_tau_resolution(self):
        config = DSEConfig(tau_step=0.01, tau_max=0.05)
        assert config.resolved_taus() == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
        explicit = DSEConfig(tau_values=[0.3, 0.1, 0.1])
        assert explicit.resolved_taus() == [0.1, 0.3]
        with pytest.raises(ValueError):
            DSEConfig(tau_values=[-0.1]).resolved_taus()

    def test_dse_result_structure(self, tiny_pipeline_result, tiny_qmodel):
        dse = tiny_pipeline_result.dse
        assert dse.baseline_conv_macs == tiny_qmodel.conv_macs()
        assert dse.points[0].config.is_exact  # exact reference point included
        assert dse.points[0].conv_mac_reduction == 0.0
        assert len(dse.points) >= len(DSEConfig(tau_values=[0.0, 0.01, 0.05, 0.1]).resolved_taus())
        for point in dse.points:
            assert 0.0 <= point.accuracy <= 1.0
            assert 0.0 <= point.conv_mac_reduction <= 1.0
            assert point.total_macs <= dse.baseline_total_macs

    def test_mac_reduction_monotonic_in_tau(self, tiny_pipeline_result):
        """Within the same layer subset, a larger tau never reduces fewer MACs."""
        dse = tiny_pipeline_result.dse
        swept = [(max(p.config.taus().values()), p.conv_mac_reduction)
                 for p in dse.points if not p.config.is_exact]
        swept.sort()
        reductions = [r for _, r in swept]
        assert all(b >= a - 1e-9 for a, b in zip(reductions, reductions[1:]))

    def test_best_within_loss_budgets_nested(self, tiny_pipeline_result):
        dse = tiny_pipeline_result.dse
        best_0 = dse.best_within_loss(0.0)
        best_10 = dse.best_within_loss(0.10)
        assert best_0 is not None and best_10 is not None
        assert best_10.conv_mac_reduction >= best_0.conv_mac_reduction

    def test_pareto_points_subset_of_points(self, tiny_pipeline_result):
        dse = tiny_pipeline_result.dse
        pareto = dse.pareto_points()
        assert 1 <= len(pareto) <= len(dse.points)
        for point in pareto:
            assert point in dse.points

    def test_as_table(self, tiny_pipeline_result):
        table = tiny_pipeline_result.dse.as_table()
        assert len(table) == len(tiny_pipeline_result.dse.points)
        assert {"accuracy", "conv_mac_reduction", "taus"} <= set(table[0])

    def test_run_dse_with_max_configs(self, tiny_qmodel, tiny_significance, small_split):
        dse = run_dse(
            tiny_qmodel,
            tiny_significance,
            small_split.test.images[:64],
            small_split.test.labels[:64],
            dse_config=DSEConfig(tau_values=[0.0, 0.01, 0.02, 0.05, 0.1], max_configs=3),
        )
        # 3 approximate configs + the exact reference point.
        assert len(dse.points) == 4

    def test_run_dse_alignment_check(self, tiny_qmodel, tiny_significance, small_split):
        with pytest.raises(ValueError):
            run_dse(
                tiny_qmodel,
                tiny_significance,
                small_split.test.images[:10],
                small_split.test.labels[:5],
            )

    @pytest.mark.slow
    def test_run_dse_parallel_workers_match_serial(self, tiny_qmodel, tiny_significance, small_split):
        """Worker processes (the paper used 6 threads) give identical results to the serial path."""
        images = small_split.test.images[:48]
        labels = small_split.test.labels[:48]
        taus = [0.0, 0.01, 0.03, 0.05, 0.08, 0.1]
        serial = run_dse(
            tiny_qmodel, tiny_significance, images, labels,
            dse_config=DSEConfig(tau_values=taus, n_workers=1),
        )
        parallel = run_dse(
            tiny_qmodel, tiny_significance, images, labels,
            dse_config=DSEConfig(tau_values=taus, n_workers=2),
        )
        assert len(serial.points) == len(parallel.points)
        for a, b in zip(serial.points, parallel.points):
            assert a.accuracy == pytest.approx(b.accuracy)
            assert a.conv_mac_reduction == pytest.approx(b.conv_mac_reduction)


def _naive_dse_points(qmodel, significance, unpacked, images, labels, configs):
    """Reference: one full ``evaluate_accuracy`` forward per design, MAC fields from its masks."""
    points = []
    for config in configs:
        masks = config.build_masks(significance, unpacked=unpacked)
        retained = float(np.mean([m.mean() for m in masks.values()])) if masks else 1.0
        points.append(
            DesignPoint(
                config=config,
                accuracy=qmodel.evaluate_accuracy(images, labels, masks=masks),
                conv_mac_reduction=conv_mac_reduction(qmodel, masks),
                total_macs=qmodel.total_macs(masks=masks),
                conv_macs=qmodel.conv_macs(masks=masks),
                retained_operand_fraction=retained,
            )
        )
    return points


class TestPrefixSharingEvaluator:
    """The trie-order evaluator against a per-design reference, field for field."""

    #: 1000 and 2000 both skip every operand of the tiny CNN: identical masks.
    TAUS = [0.0, 0.05, 0.2, 1.0, 1000.0, 2000.0]
    #: Twelve taus whose joint masks all differ at conv1.
    JOINT_TAUS = [0.0, 0.01, 0.02, 0.03, 0.05, 0.07, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0]

    @pytest.fixture(scope="class")
    def eval_set(self, small_split):
        # 300 images: a full 256-image chunk plus a ragged 44-image tail.
        images, labels = small_split.train.images[:300], small_split.train.labels[:300]
        assert images.shape[0] == 300
        return images, labels

    def test_equal_taus_give_identical_masks(self, tiny_significance):
        loose = build_model_masks(tiny_significance, {n: 1000.0 for n in tiny_significance.layer_names()})
        looser = build_model_masks(tiny_significance, {n: 2000.0 for n in tiny_significance.layer_names()})
        assert all(np.array_equal(loose[n], looser[n]) for n in loose)

    @pytest.mark.parametrize(
        "layer_subsets, granularity",
        [
            ("all", "operand"),
            ("per_layer", "operand"),
            ("exhaustive", "operand"),
            ("per_layer", "input_channel"),
        ],
    )
    def test_design_points_match_per_design_reference(
        self, tiny_qmodel, tiny_significance, tiny_unpacked, eval_set, layer_subsets, granularity
    ):
        images, labels = eval_set
        results = {
            n_workers: run_dse(
                tiny_qmodel, tiny_significance, images, labels,
                dse_config=DSEConfig(
                    tau_values=self.TAUS, layer_subsets=layer_subsets,
                    granularity=granularity, n_workers=n_workers,
                ),
                unpacked=tiny_unpacked,
            )
            for n_workers in (1, 2)
        }
        reference = _naive_dse_points(
            tiny_qmodel, tiny_significance, tiny_unpacked, images, labels,
            [p.config for p in results[1].points],
        )
        baseline = tiny_qmodel.evaluate_accuracy(images, labels)
        for result in results.values():
            assert result.points[0].config.is_exact
            assert result.baseline_accuracy == baseline
            assert result.points == reference

    def test_exhaustive_sweep_shares_prefixes(self, tiny_qmodel, tiny_significance, eval_set):
        images, labels = eval_set
        names = tiny_significance.layer_names()
        mask_sets = [{}] + [
            build_model_masks(tiny_significance, {name: tau for name in subset})
            for subset in _generate_layer_subsets(names, "exhaustive")
            for tau in self.TAUS[1:]
        ]
        evaluation = evaluate_designs(tiny_qmodel, mask_sets, images, labels)
        n_layers, n_chunks = len(tiny_qmodel.layers), 2
        assert evaluation.naive_layer_forwards == len(mask_sets) * n_layers * n_chunks
        assert evaluation.layer_forwards < evaluation.naive_layer_forwards
        expected = [tiny_qmodel.evaluate_accuracy(images, labels, masks=m) for m in mask_sets]
        assert evaluation.accuracies == expected

    def test_result_reports_layer_forwards(self, tiny_qmodel, tiny_significance, eval_set):
        images, labels = eval_set
        results = {
            mode: run_dse(
                tiny_qmodel, tiny_significance, images, labels,
                dse_config=DSEConfig(tau_values=[0.0, 0.05, 0.2], layer_subsets=mode),
            )
            for mode in ("all", "exhaustive")
        }
        # Every "all" design masks the first layer differently: no prefix to
        # share, but the designs' conv1 calls share their patch gathers.
        joint = results["all"]
        assert joint.layer_forwards == joint.naive_layer_forwards > 0
        n_chunks = 2
        assert 0 < joint.conv_gathers < len(joint.points) * len(tiny_qmodel.conv_layers()) * n_chunks
        exhaustive = results["exhaustive"]
        assert 0 < exhaustive.layer_forwards < exhaustive.naive_layer_forwards
        saved = exhaustive.as_dict()
        assert saved["layer_forwards"] == exhaustive.layer_forwards
        assert saved["naive_layer_forwards"] == exhaustive.naive_layer_forwards
        assert saved["conv_gathers"] == exhaustive.conv_gathers > 0
        assert saved["points"] == exhaustive.as_table()

    def test_identical_designs_run_once(self, tiny_qmodel, eval_set):
        images, labels = eval_set
        evaluation = evaluate_designs(tiny_qmodel, [{}, {}, {}], images, labels)
        assert evaluation.layer_forwards == len(tiny_qmodel.layers) * 2
        assert evaluation.accuracies == [tiny_qmodel.evaluate_accuracy(images, labels)] * 3

    def test_empty_eval_set_scores_zero(self, tiny_qmodel, eval_set):
        images, labels = eval_set
        evaluation = evaluate_designs(tiny_qmodel, [{}], images[:0], labels[:0])
        assert evaluation.accuracies == [0.0]
        assert evaluation.layer_forwards == 0

    def test_shards_keep_siblings_together(self, tiny_qmodel, tiny_significance):
        names = [layer.name for layer in tiny_qmodel.layers]
        convs = tiny_significance.layer_names()

        def sorted_designs(mask_sets):
            return sorted(
                (
                    (i, tuple(_mask_key(m[n]) if n in m else b"" for n in names), m)
                    for i, m in enumerate(mask_sets)
                ),
                key=lambda d: d[1],
            )

        costs = _layer_costs(tiny_qmodel)

        def forwards(run):  # the weighted layer forwards a run's own walk executes
            return sum(
                sum(costs[dse._divergence(row[1], previous[1] if previous else ()):])
                for row, previous in zip(run, [None] + run[:-1])
            )

        def owners(runs):
            return {d[0]: r for r, run in enumerate(runs) for d in run}

        joint = sorted_designs(
            [{}] + [build_model_masks(tiny_significance, {n: tau for n in convs}) for tau in self.JOINT_TAUS]
        )
        exhaustive = sorted_designs(
            [{}] + [
                build_model_masks(tiny_significance, {name: tau for name in subset})
                for subset in _generate_layer_subsets(convs, "exhaustive")
                for tau in (0.05, 0.2, 1.0)
            ]
        )
        stack_bytes = _stack_bytes(tiny_qmodel, EVAL_BATCH)
        with pytest.MonkeyPatch.context() as patch:
            # Room for three conv1 outputs: conv1's distinct masks stack three at a time.
            patch.setattr(dse, "STACK_BYTES", 3 * stack_bytes[0])
            plan = _stack_plan([d[1] for d in joint], stack_bytes)
            # Every joint design masks conv1 differently: stacks of three at conv1.
            assert sorted(plan.values()) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
            for designs in (joint, exhaustive):
                for n_items in (1, 2, 3, 4, len(designs) + 1):
                    runs = _shards(designs, n_items, stack_bytes, costs)
                    assert len(runs) == min(n_items, len(designs))
                    assert [d for run in runs for d in run] == designs  # contiguous, in key order
                    # Each cut lands within one design's walk of an equal share,
                    # and a run re-runs its first design's shared prefix.
                    loads = [forwards(run) for run in runs]
                    assert max(loads) <= forwards(designs) / len(runs) + 2 * sum(costs)
            # Where a stack boundary lies near each equal share, no stack is split.
            for n_items in (2, 4):
                run_of = owners(_shards(joint, n_items, stack_bytes, costs))
                assert all(len({run_of[joint[p][0]] for p in group}) == 1 for group in plan.values())
        assert _shards([], 2, stack_bytes, costs) == []


@pytest.fixture(scope="module")
def walk_models(tiny_qmodel, small_split):
    """The tiny CNN and an (untrained) quantized LeNet, each with 20 labelled images."""
    rng = np.random.default_rng(11)
    images = rng.random((20, 32, 32, 3)).astype(np.float32)
    model = build_lenet(input_shape=(32, 32, 3), n_classes=10, rng=5)
    model.eval()
    lenet = quantize_model(model, images[:16], name="lenet")
    tiny_images, tiny_labels = small_split.test.images[:20], small_split.test.labels[:20]
    return {
        "tiny": (tiny_qmodel, tiny_images, tiny_labels),
        "lenet": (lenet, images, rng.integers(0, 10, size=20)),
    }


class TestWalkOracle:
    """The DSE walk against ``evaluate_accuracy`` on random whole-model masks.

    Each design draws every conv layer's mask from a small pool (absent,
    i.e. exact, two random masks and the all-true mask), so designs repeat
    masks, share prefixes and stack siblings; the exact ``{}`` and a
    repeated design are always among them.  The stack budget is drawn in
    units of the largest conv output (0 stacks nothing), and the walk runs
    in 8-image chunks or one chunk, serially and on two workers.
    """

    @given(
        model=st.sampled_from(["tiny", "lenet"]),
        seed=st.integers(0, 2**32 - 1),
        n_designs=st.integers(1, 8),
        stack_outputs=st.sampled_from([0, 1, 2, 3, None]),  # None: the default budget
        chunk=st.sampled_from([8, EVAL_BATCH]),
    )
    @settings(max_examples=12, deadline=None)
    def test_walk_matches_evaluate_accuracy(
        self, walk_models, model, seed, n_designs, stack_outputs, chunk
    ):
        qmodel, images, labels = walk_models[model]
        rng = np.random.default_rng(seed)
        convs = qmodel.conv_layers()
        pools = {
            conv.name: [None, *(
                rng.random((conv.out_channels, conv.operands_per_channel)) < rng.uniform(0.1, 0.9)
                for _ in range(2)
            ), np.ones((conv.out_channels, conv.operands_per_channel), dtype=bool)]
            for conv in convs
        }
        mask_sets = [{}]
        for _ in range(n_designs):
            drawn = {name: pool[rng.integers(len(pool))] for name, pool in pools.items()}
            mask_sets.append({name: mask for name, mask in drawn.items() if mask is not None})
        mask_sets.append(dict(mask_sets[rng.integers(len(mask_sets))]))
        mask_sets = [mask_sets[i] for i in rng.permutation(len(mask_sets))]
        expected = [qmodel.evaluate_accuracy(images, labels, masks=m) for m in mask_sets]

        n_chunks = -(-len(images) // chunk)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dse, "EVAL_BATCH", chunk)
            if stack_outputs is not None:
                largest = max(_stack_bytes(qmodel, min(len(images), chunk)))
                patch.setattr(dse, "STACK_BYTES", stack_outputs * largest)
            for n_workers in (1, 2):
                evaluation = evaluate_designs(qmodel, mask_sets, images, labels, n_workers=n_workers)
                assert evaluation.accuracies == expected, n_workers
                assert evaluation.layer_forwards <= evaluation.naive_layer_forwards
                assert evaluation.conv_gathers <= len(mask_sets) * len(convs) * n_chunks
