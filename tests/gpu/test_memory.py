"""Tests for the memory spaces and the coalescing model."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpu import MemorySpace


class TestHostAccess:
    def test_word_roundtrip(self):
        memory = MemorySpace(64)
        memory.write_words(4, [1, 2, 3])
        assert np.array_equal(memory.read_words(4, 3), [1, 2, 3])

    def test_f32_roundtrip(self):
        memory = MemorySpace(64)
        memory.write_f32(0, [1.5, -2.25])
        assert np.array_equal(memory.read_f32(0, 2),
                              np.array([1.5, -2.25], dtype=np.float32))

    def test_f64_roundtrip(self):
        memory = MemorySpace(64)
        memory.write_f64(0, [3.141592653589793])
        assert memory.read_f64(0, 1)[0] == 3.141592653589793

    def test_i32_roundtrip(self):
        memory = MemorySpace(64)
        memory.write_i32(0, [-5, 7])
        assert np.array_equal(memory.read_i32(0, 2), [-5, 7])

    def test_out_of_range_rejected(self):
        memory = MemorySpace(8)
        with pytest.raises(SimulationError):
            memory.write_words(6, [1, 2, 3])
        with pytest.raises(SimulationError):
            memory.read_words(-1, 2)

    def test_zero_size_rejected(self):
        with pytest.raises(SimulationError):
            MemorySpace(0)


class TestLaneAccess:
    def test_gather_scatter_masked(self):
        memory = MemorySpace(64)
        memory.write_words(0, list(range(64)))
        addresses = np.arange(32, dtype=np.uint32)
        mask = np.zeros(32, dtype=bool)
        mask[::2] = True
        values = memory.gather(addresses, mask)
        assert (values[::2] == np.arange(0, 32, 2)).all()
        assert (values[1::2] == 0).all()

    def test_atomic_serializes_collisions(self):
        memory = MemorySpace(8)
        addresses = np.zeros(32, dtype=np.uint32)
        values = np.ones(32, dtype=np.uint32)
        mask = np.ones(32, dtype=bool)
        old = memory.atomic("ADD", addresses, values, mask)
        assert memory.words[0] == 32
        assert sorted(old.tolist()) == list(range(32))

    def test_atomic_exch(self):
        memory = MemorySpace(8)
        addresses = np.arange(32, dtype=np.uint32) % 4
        values = np.full(32, 9, dtype=np.uint32)
        memory.atomic("EXCH", addresses, values,
                      np.ones(32, dtype=bool))
        assert (memory.words[:4] == 9).all()

    def test_unknown_atomic_rejected(self):
        memory = MemorySpace(8)
        with pytest.raises(SimulationError):
            memory.atomic("NAND", np.zeros(1, dtype=np.uint32),
                          np.zeros(1, dtype=np.uint32),
                          np.ones(1, dtype=bool))

