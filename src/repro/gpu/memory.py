"""Global and shared memory spaces (word-addressed).

All addresses in the simulator are indices of 32-bit words.  The memory
subsystem sits outside the SwapCodes sphere of replication (Figure 1) and
is assumed storage-ECC protected, so it needs no error modelling — only
functional behaviour, plus the segment size the coalescing profile
(:func:`repro.gpu.warp.global_access_profile`) counts transactions in.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

#: words per memory transaction segment (128B lines / 4B words)
SEGMENT_WORDS = 32


class MemorySpace:
    """A flat word-addressed memory backed by a numpy uint32 array."""

    def __init__(self, words: int, name: str = "global"):
        if words <= 0:
            raise SimulationError(f"memory size must be positive: {words}")
        self.name = name
        self.words = np.zeros(words, dtype=np.uint32)

    def __len__(self) -> int:
        return len(self.words)

    # ------------------------------------------------------------------
    # scalar and array host access
    # ------------------------------------------------------------------
    def write_words(self, address: int, values) -> None:
        """Store ``values`` (coerced to uint32) at ``address`` onward."""
        values = np.asarray(values, dtype=np.uint32)
        self._check_range(address, len(values))
        self.words[address:address + len(values)] = values

    def read_words(self, address: int, count: int) -> np.ndarray:
        """A ``(count,)`` uint32 copy of the words at ``address``."""
        self._check_range(address, count)
        return self.words[address:address + count].copy()

    def write_f32(self, address: int, values) -> None:
        """Store float32 values bit-cast into their uint32 words."""
        self.write_words(address,
                         np.asarray(values, dtype=np.float32).view(np.uint32))

    def read_f32(self, address: int, count: int) -> np.ndarray:
        """Read ``count`` words bit-cast back to a float32 array."""
        return self.read_words(address, count).view(np.float32)

    def write_f64(self, address: int, values) -> None:
        """Store float64 values as little-endian low/high word pairs."""
        raw = np.asarray(values, dtype=np.float64).view(np.uint64)
        words = np.empty(2 * len(raw), dtype=np.uint32)
        words[0::2] = (raw & 0xFFFF_FFFF).astype(np.uint32)
        words[1::2] = (raw >> 32).astype(np.uint32)
        self.write_words(address, words)

    def read_f64(self, address: int, count: int) -> np.ndarray:
        """Read ``count`` low/high word pairs back to a float64 array."""
        words = self.read_words(address, 2 * count)
        raw = words[0::2].astype(np.uint64) | \
            (words[1::2].astype(np.uint64) << 32)
        return raw.view(np.float64)

    def write_i32(self, address: int, values) -> None:
        """Store int32 values bit-cast into their uint32 words."""
        self.write_words(address,
                         np.asarray(values, dtype=np.int32).view(np.uint32))

    def read_i32(self, address: int, count: int) -> np.ndarray:
        """Read ``count`` words bit-cast back to an int32 array."""
        return self.read_words(address, count).view(np.int32)

    # ------------------------------------------------------------------
    # SIMT access (one address per active lane)
    # ------------------------------------------------------------------
    def gather(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Masked per-lane load; inactive lanes read as zero."""
        result = np.zeros(len(addresses), dtype=np.uint32)
        if not mask.any():
            return result
        active = addresses[mask]
        self._check_lanes(active)
        result[mask] = self.words[active]
        return result

    def scatter(self, addresses: np.ndarray, values: np.ndarray,
                mask: np.ndarray) -> None:
        """Masked per-lane store; lane order resolves write conflicts."""
        if not mask.any():
            return
        active = addresses[mask]
        self._check_lanes(active)
        self.words[active] = values[mask]

    def atomic(self, op: str, addresses: np.ndarray, values: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
        """Per-lane read-modify-write; returns the old values.

        Lanes execute in lane order, so colliding addresses serialize —
        the semantics CUDA guarantees (in unspecified order).
        """
        result = np.zeros(len(addresses), dtype=np.uint32)
        for lane in np.nonzero(mask)[0]:
            address = int(addresses[lane])
            self._check_range(address, 1)
            old = int(self.words[address])
            value = int(values[lane])
            if op == "ADD":
                new = (old + value) & 0xFFFF_FFFF
            elif op == "MAX":
                new = max(old, value)
            elif op == "MIN":
                new = min(old, value)
            elif op == "EXCH":
                new = value
            else:
                raise SimulationError(f"unknown atomic op {op!r}")
            self.words[address] = new
            result[lane] = old
        return result

    # ------------------------------------------------------------------
    def _check_range(self, address: int, count: int) -> None:
        if address < 0 or address + count > len(self.words):
            raise SimulationError(
                f"{self.name} access [{address}, {address + count}) outside "
                f"{len(self.words)} words")

    def _check_lanes(self, addresses: np.ndarray) -> None:
        if len(addresses) and (int(addresses.min()) < 0 or
                               int(addresses.max()) >= len(self.words)):
            raise SimulationError(
                f"{self.name} lane access out of range "
                f"(max {len(self.words)} words): "
                f"[{addresses.min()}, {addresses.max()}]")
