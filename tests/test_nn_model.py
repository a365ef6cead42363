"""Tests for the Sequential model container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_micro_cnn, build_tiny_cnn, build_tiny_mlp
from repro.nn import Dense, ReLU, Sequential


def float32_order_tolerance(model) -> float:
    """Relative bound on how far two float32 forwards of ``model`` can differ by summation order.

    A layer sums ``K`` products plus a bias.  Any order of that sum lies
    within ``gamma = (K + 1) u / (1 - (K + 1) u)`` of the exact sum, relative
    to the sum of the terms' magnitudes (``u = 2**-24``, the float32 unit
    roundoff), so two orders differ by at most ``2 gamma``.  To first order
    the layers' bounds add up along the model.
    """
    u = float(np.finfo(np.float32).eps) / 2
    bound = 0.0
    for layer in model:
        weight = getattr(layer, "weight", None)
        if weight is None:
            continue
        shape = weight.value.shape  # conv (Cout, kh, kw, Cin), dense (in, out)
        terms = (int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]) + 1
        bound += 2 * terms * u / (1 - terms * u)
    return bound


@pytest.fixture
def micro_model():
    return build_micro_cnn(input_shape=(8, 8, 1), n_classes=4, rng=0)


class TestSequentialBasics:
    def test_len_iter_getitem(self, micro_model):
        assert len(micro_model) == 5
        assert micro_model[0].name == "conv1"
        assert [layer.name for layer in micro_model][-1] == "fc1"

    def test_unique_layer_names(self):
        model = Sequential([ReLU(name="act"), ReLU(name="act"), ReLU(name="act")], input_shape=(4,))
        names = [layer.name for layer in model]
        assert len(set(names)) == 3

    def test_add(self):
        model = Sequential([Dense(4, 4, rng=0)], input_shape=(4,))
        model.add(ReLU())
        assert len(model) == 2

    def test_train_eval_propagates(self, micro_model):
        micro_model.eval()
        assert all(not layer.training for layer in micro_model)
        micro_model.train()
        assert all(layer.training for layer in micro_model)


class TestForwardBackward:
    def test_forward_shape(self, micro_model, rng):
        x = rng.normal(size=(3, 8, 8, 1)).astype(np.float32)
        out = micro_model.forward(x)
        assert out.shape == (3, 4)

    def test_backward_produces_grads(self, micro_model, rng):
        x = rng.normal(size=(2, 8, 8, 1)).astype(np.float32)
        out = micro_model.forward(x)
        grad_in = micro_model.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        assert all(p.grad is not None for p in micro_model.parameters())
        micro_model.zero_grad()
        assert all(p.grad is None for p in micro_model.parameters())

    def test_predict_batches_match_single_pass(self, micro_model, rng):
        x = rng.normal(size=(10, 8, 8, 1)).astype(np.float32)
        micro_model.eval()
        full = micro_model.forward(x)
        batched = micro_model.predict(x, batch_size=3)
        # BLAS may sum each batch size's products in another order; the largest
        # output magnitude stands in for the magnitudes of the summed terms.
        tolerance = float32_order_tolerance(micro_model)
        np.testing.assert_allclose(batched, full, rtol=tolerance, atol=tolerance * np.abs(full).max())

    def test_predict_classes_shape(self, micro_model, rng):
        x = rng.normal(size=(6, 8, 8, 1)).astype(np.float32)
        classes = micro_model.predict_classes(x)
        assert classes.shape == (6,)
        assert ((classes >= 0) & (classes < 4)).all()


class TestShapeAnalysis:
    def test_layer_shapes_chain(self, micro_model):
        shapes = micro_model.layer_shapes()
        assert shapes[0][1] == (8, 8, 1)
        assert shapes[-1][2] == (4,)
        # Output of each layer is the input of the next.
        for (_, _, out_shape), (_, next_in, _) in zip(shapes, shapes[1:]):
            assert out_shape == next_in

    def test_total_and_conv_macs(self):
        model = build_tiny_cnn(input_shape=(16, 16, 3), rng=0)
        assert model.total_macs() > model.conv_macs() > 0

    def test_topology_counts(self):
        model = build_tiny_cnn(input_shape=(16, 16, 3), rng=0)
        assert model.topology() == {"conv": 2, "pool": 1, "fc": 1}

    def test_requires_input_shape(self):
        model = Sequential([Dense(4, 2, rng=0)])
        with pytest.raises(ValueError):
            model.layer_shapes()

    def test_summary_contains_layers(self, micro_model):
        text = micro_model.summary()
        assert "conv1" in text and "total params" in text

    def test_summary_without_input_shape(self):
        model = Sequential([Dense(4, 2, rng=0)])
        assert "fc" in model.summary() or "Dense" in model.summary()


class TestStateDict:
    def test_roundtrip_preserves_outputs(self, rng):
        model_a = build_tiny_mlp(in_features=8, n_classes=3, rng=1)
        model_b = build_tiny_mlp(in_features=8, n_classes=3, rng=2)
        x = rng.normal(size=(5, 8)).astype(np.float32)
        assert not np.allclose(model_a.forward(x), model_b.forward(x))
        model_b.load_state_dict(model_a.state_dict())
        np.testing.assert_allclose(model_a.forward(x), model_b.forward(x), rtol=1e-6)

    def test_missing_layer_raises(self):
        model = build_tiny_mlp(rng=0)
        state = model.state_dict()
        state.pop("fc1")
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = build_tiny_mlp(rng=0)
        state = model.state_dict()
        state["fc1"]["weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_config_serialisable(self, micro_model):
        import json

        config = micro_model.config()
        text = json.dumps(config)
        assert "conv1" in text
        assert config["input_shape"] == [8, 8, 1]
