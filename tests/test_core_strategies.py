"""Tests for the greedy per-layer DSE strategy and latency-aware selection."""

from __future__ import annotations

import pytest

from repro.core import greedy_per_layer_search, latency_aware_selection
from repro.core.strategies import estimate_design_latency_ms
from repro.isa import STM32U575


class TestGreedySearch:
    def test_respects_accuracy_budget(self, tiny_qmodel, tiny_significance, small_split):
        images, labels = small_split.test.images[:96], small_split.test.labels[:96]
        result = greedy_per_layer_search(
            tiny_qmodel, tiny_significance, images, labels,
            max_accuracy_loss=0.05,
            tau_candidates=[0.001, 0.005, 0.02, 0.08],
            max_steps=8,
        )
        assert result.accuracy >= result.baseline_accuracy - 0.05 - 1e-9
        assert 0.0 <= result.conv_mac_reduction <= 1.0
        assert result.accuracy_loss == pytest.approx(result.baseline_accuracy - result.accuracy)
        # Each iteration's trials share the layers before the first one they move.
        assert 0 < result.layer_forwards <= result.naive_layer_forwards

    def test_zero_budget_still_returns_valid_config(self, tiny_qmodel, tiny_significance, small_split):
        images, labels = small_split.test.images[:64], small_split.test.labels[:64]
        result = greedy_per_layer_search(
            tiny_qmodel, tiny_significance, images, labels,
            max_accuracy_loss=0.0,
            tau_candidates=[0.001, 0.01],
            max_steps=4,
        )
        # Whatever was accepted kept accuracy at (or above) the baseline.
        assert result.accuracy >= result.baseline_accuracy - 1e-9
        assert result.config.model_name == tiny_qmodel.name

    def test_steps_are_recorded_and_monotonic_in_reduction(self, tiny_qmodel, tiny_significance, small_split):
        images, labels = small_split.test.images[:96], small_split.test.labels[:96]
        result = greedy_per_layer_search(
            tiny_qmodel, tiny_significance, images, labels,
            max_accuracy_loss=0.10,
            tau_candidates=[0.002, 0.01, 0.05],
            max_steps=6,
        )
        reductions = [step.conv_mac_reduction for step in result.steps]
        assert all(b >= a - 1e-9 for a, b in zip(reductions, reductions[1:]))
        if result.steps:
            assert result.steps[-1].conv_mac_reduction == pytest.approx(result.conv_mac_reduction)
            assert set(result.config.taus()) <= set(tiny_significance.layer_names())

    def test_heterogeneous_thresholds_possible(self, tiny_qmodel, tiny_significance, small_split):
        images, labels = small_split.test.images[:96], small_split.test.labels[:96]
        result = greedy_per_layer_search(
            tiny_qmodel, tiny_significance, images, labels,
            max_accuracy_loss=0.15,
            tau_candidates=[0.005, 0.02, 0.08],
            max_steps=10,
        )
        taus = result.config.taus()
        # With a generous budget the search approximates at least one layer.
        assert len(taus) >= 1

    def test_at_least_as_good_as_best_uniform_candidate(self, tiny_qmodel, tiny_significance, small_split):
        """Greedy search (which can express uniform configs) should not lose to the
        best *uniform* configuration drawn from the same tau ladder and budget."""
        from repro.core import ApproxConfig
        from repro.core.skipping import conv_mac_reduction

        images, labels = small_split.test.images[:96], small_split.test.labels[:96]
        ladder = [0.002, 0.01, 0.05]
        budget = 0.10
        baseline = tiny_qmodel.evaluate_accuracy(images, labels)

        best_uniform = 0.0
        for tau in ladder:
            config = ApproxConfig.uniform(tiny_qmodel.name, tiny_significance.layer_names(), tau)
            masks = config.build_masks(tiny_significance)
            accuracy = tiny_qmodel.evaluate_accuracy(images, labels, masks=masks)
            if accuracy >= baseline - budget:
                best_uniform = max(best_uniform, conv_mac_reduction(tiny_qmodel, masks))

        greedy = greedy_per_layer_search(
            tiny_qmodel, tiny_significance, images, labels,
            max_accuracy_loss=budget, tau_candidates=ladder, max_steps=12,
        )
        # Greedy explores per-layer moves, so it can in principle stop short of a
        # feasible uniform configuration; allow a small slack.
        assert greedy.conv_mac_reduction >= best_uniform - 0.03

    def test_validation(self, tiny_qmodel, tiny_significance, small_split):
        images, labels = small_split.test.images[:32], small_split.test.labels[:32]
        with pytest.raises(ValueError):
            greedy_per_layer_search(tiny_qmodel, tiny_significance, images, labels, max_accuracy_loss=-0.1)
        with pytest.raises(ValueError):
            greedy_per_layer_search(
                tiny_qmodel, tiny_significance, images, labels, 0.05, tau_candidates=[0.0, 0.1]
            )
        with pytest.raises(ValueError):
            greedy_per_layer_search(
                tiny_qmodel, tiny_significance, images, labels, 0.05, layer_names=[]
            )


class TestLatencyAwareSelection:
    def test_selection_is_feasible_and_no_slower_than_mac_pick(self, tiny_qmodel, tiny_pipeline_result):
        dse = tiny_pipeline_result.dse
        significance = tiny_pipeline_result.significance
        budget = 0.10
        chosen = latency_aware_selection(tiny_qmodel, dse, significance, STM32U575, budget)
        assert chosen is not None
        assert chosen.accuracy >= dse.baseline_accuracy - budget

        mac_pick = dse.best_within_loss(budget)
        latency_chosen = estimate_design_latency_ms(tiny_qmodel, chosen, significance, STM32U575)
        latency_mac_pick = estimate_design_latency_ms(tiny_qmodel, mac_pick, significance, STM32U575)
        assert latency_chosen <= latency_mac_pick + 1e-9

    def test_infeasible_budget_returns_none(self, tiny_qmodel, tiny_pipeline_result):
        dse = tiny_pipeline_result.dse
        original = dse.baseline_accuracy
        try:
            dse.baseline_accuracy = 2.0
            assert latency_aware_selection(
                tiny_qmodel, dse, tiny_pipeline_result.significance, STM32U575, 0.0
            ) is None
        finally:
            dse.baseline_accuracy = original

    def test_estimate_design_latency_positive(self, tiny_qmodel, tiny_pipeline_result):
        exact = tiny_pipeline_result.dse.points[0]
        latency = estimate_design_latency_ms(
            tiny_qmodel, exact, tiny_pipeline_result.significance, STM32U575
        )
        assert latency > 0
