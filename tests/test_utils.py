"""Tests for repro.utils (rng, serialization, validation, parallel, logging)."""

from __future__ import annotations

import logging
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    as_rng,
    check_choice,
    check_dtype,
    check_in_range,
    check_positive,
    check_shape,
    get_logger,
    load_json,
    load_npz,
    parallel_map,
    save_json,
    save_npz,
    set_verbosity,
    spawn_rngs,
)
from repro.utils.parallel import blas_threads
from repro.utils.rng import deterministic_hash, permutation_batches


class TestRng:
    def test_as_rng_from_int_is_deterministic(self):
        a, b = as_rng(42), as_rng(42)
        assert np.array_equal(a.integers(0, 100, 10), b.integers(0, 100, 10))

    def test_as_rng_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_as_rng_from_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        gen = as_rng(ss)
        assert isinstance(gen, np.random.Generator)

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(0, 3)
        assert len(children) == 3
        draws = [c.integers(0, 1_000_000) for c in children]
        assert len(set(draws)) > 1

    def test_spawn_rngs_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_rngs_from_generator(self):
        children = spawn_rngs(np.random.default_rng(3), 2)
        assert len(children) == 2

    @pytest.mark.parametrize("n_items,batch_size", [(10, 3), (9, 3), (1, 4), (20, 20)])
    def test_permutation_batches_cover_all(self, n_items, batch_size):
        batches = list(permutation_batches(n_items, batch_size, rng=0))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(n_items))

    def test_permutation_batches_drop_last(self):
        batches = list(permutation_batches(10, 3, rng=0, drop_last=True))
        assert all(len(b) == 3 for b in batches)
        assert len(batches) == 3

    def test_permutation_batches_invalid_batch(self):
        with pytest.raises(ValueError):
            list(permutation_batches(10, 0))

    def test_deterministic_hash_stable(self):
        assert deterministic_hash(["a", 1, 2.5]) == deterministic_hash(["a", 1, 2.5])
        assert deterministic_hash(["a"]) != deterministic_hash(["b"])


class TestSerialization:
    def test_json_roundtrip_with_numpy_types(self, tmp_path):
        payload = {
            "int": np.int64(3),
            "float": np.float32(1.5),
            "bool": np.bool_(True),
            "array": np.arange(4),
            "nested": {"x": [1, 2, 3]},
        }
        path = save_json(tmp_path / "sub" / "payload.json", payload)
        loaded = load_json(path)
        assert loaded["int"] == 3
        assert loaded["float"] == pytest.approx(1.5)
        assert loaded["bool"] is True
        assert loaded["array"] == [0, 1, 2, 3]
        assert loaded["nested"]["x"] == [1, 2, 3]

    def test_npz_roundtrip(self, tmp_path):
        arrays = {"a": np.arange(6).reshape(2, 3), "b": np.ones(4, dtype=np.float32)}
        path = save_npz(tmp_path / "arrays.npz", arrays)
        loaded = load_npz(path)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])

    def test_npz_uncompressed(self, tmp_path):
        path = save_npz(tmp_path / "raw.npz", {"x": np.zeros(3)}, compress=False)
        assert load_npz(path)["x"].shape == (3,)


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 1.5) == 1.5
        assert check_positive("x", 0.0, strict=False) == 0.0

    @pytest.mark.parametrize("value,strict", [(0, True), (-1, True), (-0.5, False)])
    def test_check_positive_rejects(self, value, strict):
        with pytest.raises(ValueError):
            check_positive("x", value, strict=strict)

    def test_check_in_range(self):
        assert check_in_range("x", 0.5, 0, 1) == 0.5
        with pytest.raises(ValueError):
            check_in_range("x", 1.5, 0, 1)
        with pytest.raises(ValueError):
            check_in_range("x", 0.0, 0, 1, inclusive=(False, True))

    def test_check_shape(self):
        arr = np.zeros((2, 3))
        check_shape("x", arr, (2, 3))
        check_shape("x", arr, (None, 3))
        with pytest.raises(ValueError):
            check_shape("x", arr, (3, 2))
        with pytest.raises(ValueError):
            check_shape("x", arr, (2, 3, 1))

    def test_check_dtype(self):
        arr = np.zeros(3, dtype=np.int8)
        check_dtype("x", arr, [np.int8, np.int16])
        with pytest.raises(TypeError):
            check_dtype("x", arr, [np.float32])

    def test_check_choice(self):
        assert check_choice("x", "a", ["a", "b"]) == "a"
        with pytest.raises(ValueError):
            check_choice("x", "c", ["a", "b"])


def _square(x):
    return x * x


def _worker_blas_threads(_):
    return blas_threads()


class TestParallel:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], n_workers=1) == [1, 4, 9]

    def test_small_inputs_stay_serial(self):
        assert parallel_map(_square, [2], n_workers=8) == [4]

    def test_pool_path_preserves_order(self):
        items = list(range(40))
        result = parallel_map(_square, items, n_workers=2, min_items_for_pool=2)
        assert result == [x * x for x in items]

    def test_generator_input(self):
        assert parallel_map(_square, (x for x in range(5)), n_workers=1) == [0, 1, 4, 9, 16]

    def test_pooled_workers_cap_blas_threads(self):
        parent = blas_threads()
        if parent is None:
            pytest.skip("NumPy's BLAS exposes no thread-count control")
        n_workers = 2
        reported = parallel_map(_worker_blas_threads, range(4), n_workers=n_workers, min_items_for_pool=2)
        assert reported == [min(parent, max(1, (os.cpu_count() or 1) // n_workers))] * 4
        assert blas_threads() == parent


class TestLogging:
    def test_get_logger_namespaced(self):
        logger = get_logger("unit.test")
        assert logger.name == "repro.unit.test"

    def test_set_verbosity_accepts_strings(self):
        set_verbosity("DEBUG")
        assert logging.getLogger("repro").level == logging.DEBUG
        set_verbosity(logging.WARNING)
        assert logging.getLogger("repro").level == logging.WARNING


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=20))
@settings(max_examples=25, deadline=None)
def test_deterministic_hash_property(values):
    assert deterministic_hash(values) == deterministic_hash(list(values))
    assert 0 <= deterministic_hash(values) < 2**32
