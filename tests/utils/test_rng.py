"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils import as_generator, spawn


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(7).integers(0, 1000, 10)
        b = as_generator(7).integers(0, 1000, 10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).integers(0, 10**9)
        b = as_generator(2).integers(0, 10**9)
        assert a != b

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_numpy_integer_accepted(self):
        g = as_generator(np.int64(5))
        assert isinstance(g, np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            as_generator("seed")


class TestSpawn:
    def test_children_are_independent(self):
        kids = spawn(0, 3)
        draws = [k.integers(0, 10**9) for k in kids]
        assert len(set(draws)) == 3

    def test_deterministic_given_seed(self):
        a = [g.integers(0, 10**9) for g in spawn(42, 4)]
        b = [g.integers(0, 10**9) for g in spawn(42, 4)]
        assert a == b

    def test_zero_children(self):
        assert spawn(0, 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn(0, -1)
