"""Register-file ECC semantics and fault injection for the GPU simulator.

The simulator models SwapCodes *lazily*: during fault-free execution no ECC
bits are materialized (everything is consistent by construction).  When a
fault is injected, the affected register lane becomes *tainted* with an
explicit :class:`~repro.ecc.swap.RegisterWord` tracking its data, swapped
check bits, and parity bit; every later read of a tainted lane runs the
scheme's real decoder, which is where Swap-ECC detection happens.

Modes:

* ``none`` — unprotected: faults silently corrupt architectural state.
* ``swdup`` — software duplication: faults corrupt state; detection happens
  (or not) in the program's own checking code, which raises a trap (BPT).
* ``swap`` — Swap-ECC / Swap-Predict: faults taint registers; the
  register-file decoder (``scheme.read``) flags them on use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ecc.swap import ReadStatus, RegisterWord, SwapScheme
from repro.ecc.vectorized import BatchReadResult
from repro.errors import FaultModelError, SimulationError


@dataclass(frozen=True)
class FaultPlan:
    """A single transient error to inject during a kernel run.

    The fault strikes the ``occurrence``-th dynamic *datapath* instruction
    (register-writing ALU/FMA/SFU work) executed by warp ``warp_index`` of
    CTA ``cta_index``, flipping ``bit`` of the result in ``lane``.
    ``where`` selects the struck structure:

    * ``"result"`` — the main datapath (data wrong).  Striking a shadow
      instruction this way corrupts only its check-bit writeback, because
      shadows never write data.
    * ``"predictor"`` — the check-bit prediction unit of a predicted
      instruction (check bits wrong, data intact).
    * ``"storage"`` — the register-file cell itself, flipping a stored
      data bit *after* the duplicated pair completed.  Check bits and
      data-parity still describe the true value, so the correcting
      schemes (SEC-DED-DP, SEC-DP) repair it in place at the next read
      while detect-only schemes DUE.  Storage strikes on shadow
      instructions (which own no data segment) do not fire.

    Multi-bit and correlated upsets (the MBU patterns field studies
    report) are expressed with three optional extensions:

    * ``bits`` — an explicit tuple of bit indices struck together,
      overriding the ``bit``/``burst`` pair.  Arbitrary (possibly
      non-contiguous) multi-bit masks.
    * ``burst`` — a contiguous burst of ``burst`` bits starting at
      ``bit`` (default 1, the classic single-event upset).
    * ``lanes`` — a tuple of additional lanes struck by the same event,
      modelling the row/column-correlated strikes that span a warp's
      adjacent datapath lanes.  Defaults to just ``lane``.

    Bits that fall outside the struck value's width are *dropped*, never
    wrapped: a 40-bit burst on a 32-bit register clips to the top of the
    register, exactly as a physical strike spanning past the array edge
    would.  Malformed plans (out-of-range indices, empty strike sets,
    non-positive burst widths) raise :class:`~repro.errors.FaultModelError`
    at construction.
    """

    cta_index: int
    warp_index: int
    occurrence: int
    lane: int
    bit: int
    where: str = "result"
    bits: Optional[Tuple[int, ...]] = None
    burst: int = 1
    lanes: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.where not in ("result", "predictor", "storage"):
            raise SimulationError(f"unknown fault site {self.where!r}")
        if not 0 <= self.lane < 32:
            raise SimulationError(f"lane {self.lane} out of range")
        if not 0 <= self.bit < 64:
            raise SimulationError(f"bit {self.bit} out of range")
        # JSON round-trips hand us lists; normalise to tuples so the plan
        # stays hashable and comparable.
        if self.bits is not None and not isinstance(self.bits, tuple):
            object.__setattr__(self, "bits", tuple(self.bits))
        if self.lanes is not None and not isinstance(self.lanes, tuple):
            object.__setattr__(self, "lanes", tuple(self.lanes))
        if not isinstance(self.burst, int) or self.burst < 1:
            raise FaultModelError(
                f"burst width must be a positive integer, got {self.burst!r}")
        if self.bits is not None:
            if len(self.bits) == 0:
                raise FaultModelError(
                    "bits must be a nonempty tuple of bit indices (omit it "
                    "for a single-bit strike at `bit`)")
            for index in self.bits:
                if not isinstance(index, int) or not 0 <= index < 64:
                    raise FaultModelError(
                        f"strike bit {index!r} out of range [0, 64)")
            if len(set(self.bits)) != len(self.bits):
                raise FaultModelError(
                    f"strike bits must be distinct, got {self.bits}")
        if self.lanes is not None:
            if len(self.lanes) == 0:
                raise FaultModelError(
                    "lanes must be a nonempty tuple of lane indices (omit "
                    "it for a single-lane strike at `lane`)")
            for index in self.lanes:
                if not isinstance(index, int) or not 0 <= index < 32:
                    raise FaultModelError(
                        f"strike lane {index!r} out of range [0, 32)")
            if len(set(self.lanes)) != len(self.lanes):
                raise FaultModelError(
                    f"strike lanes must be distinct, got {self.lanes}")

    @property
    def strike_bits(self) -> Tuple[int, ...]:
        """The bit indices this event flips (before width clipping)."""
        if self.bits is not None:
            return self.bits
        return tuple(range(self.bit, min(self.bit + self.burst, 64)))

    @property
    def strike_lanes(self) -> Tuple[int, ...]:
        """Every lane this event strikes (always includes ``lane``)."""
        if self.lanes is None:
            return (self.lane,)
        return self.lanes if self.lane in self.lanes \
            else (self.lane,) + self.lanes

    @property
    def multiplicity(self) -> int:
        """Number of bits flipped per struck lane (before clipping)."""
        return len(self.strike_bits)

    def strike_mask(self, width: int) -> int:
        """XOR mask of the strike clipped to a ``width``-bit value.

        Bits beyond ``width`` are dropped — a strike aimed past the edge
        of a narrow register simply has fewer effective flips, and a mask
        of zero means the event fired without corrupting anything (the
        campaign bins it as masked).
        """
        strike = 0
        for index in self.strike_bits:
            if index < width:
                strike |= 1 << index
        return strike

    def to_dict(self) -> Dict[str, object]:
        """The JSON form of this plan (for journals and failure records)."""
        return {
            "cta_index": self.cta_index,
            "warp_index": self.warp_index,
            "occurrence": self.occurrence,
            "lane": self.lane,
            "bit": self.bit,
            "where": self.where,
            "bits": list(self.bits) if self.bits is not None else None,
            "burst": self.burst,
            "lanes": list(self.lanes) if self.lanes is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output.

        ``__post_init__`` re-validates and re-normalises (lists back to
        tuples), so ``FaultPlan.from_dict(plan.to_dict()) == plan`` and a
        tampered payload fails loudly instead of striking elsewhere.
        """
        known = {name: payload.get(name) for name in (
            "cta_index", "warp_index", "occurrence", "lane", "bit")}
        missing = [name for name, value in known.items() if value is None]
        if missing:
            raise FaultModelError(
                f"fault-plan payload is missing fields: {missing}")
        return cls(where=payload.get("where", "result"),
                   bits=payload.get("bits"),
                   burst=payload.get("burst", 1),
                   lanes=payload.get("lanes"),
                   **known)


@dataclass
class DetectionEvent:
    """One detection: an ECC DUE at a register read, or a checking trap."""

    kind: str  # "due", "trap", or "corrected"
    cta_index: int
    warp_index: int
    pc: int
    detail: str = ""


@dataclass
class ResilienceState:
    """Per-launch error bookkeeping shared by all warps."""

    mode: str = "none"
    scheme: Optional[SwapScheme] = None
    halt_on_detect: bool = True
    fault: Optional[FaultPlan] = None
    events: List[DetectionEvent] = field(default_factory=list)
    fault_fired: bool = False

    def __post_init__(self):
        if self.mode not in ("none", "swdup", "swap"):
            raise SimulationError(f"unknown resilience mode {self.mode!r}")
        if self.mode == "swap" and self.scheme is None:
            raise SimulationError("swap mode needs a SwapScheme")

    @property
    def detected(self) -> bool:
        """True once any uncorrectable detection (DUE/trap) recorded."""
        return any(event.kind in ("due", "trap") for event in self.events)

    def record(self, kind: str, cta_index: int, warp_index: int, pc: int,
               detail: str = "") -> None:
        """Append one :class:`DetectionEvent` to the launch log."""
        self.events.append(
            DetectionEvent(kind, cta_index, warp_index, pc, detail))


class TaintTracker:
    """Tainted register lanes of one warp: (register, lane) -> ECC word."""

    def __init__(self, scheme: SwapScheme):
        self.scheme = scheme
        self.words: Dict[Tuple[int, int], RegisterWord] = {}

    def __bool__(self) -> bool:
        return bool(self.words)

    def taint_original(self, register: int, lane: int,
                       bad_value: int) -> None:
        """The original instruction wrote a faulty value (valid codeword)."""
        self.words[(register, lane)] = \
            self.scheme.write_original(bad_value)

    def taint_check_only(self, register: int, lane: int, data_value: int,
                         wrong_value: int) -> None:
        """A shadow/predictor fault: clean data, check bits of a wrong value."""
        word = self.scheme.write_original(data_value)
        self.words[(register, lane)] = \
            self.scheme.write_shadow(word, wrong_value)

    def on_full_write(self, register: int, lane: int) -> None:
        """A clean full-register write replaces any tainted word."""
        self.words.pop((register, lane), None)

    def on_shadow_write(self, register: int, lane: int,
                        shadow_value: int) -> None:
        """The shadow of a tainted original updates only the check bits."""
        key = (register, lane)
        word = self.words.get(key)
        if word is not None:
            self.words[key] = self.scheme.write_shadow(word, shadow_value)

    def taint_data_with_true_check(self, register: int, lane: int,
                                   bad_value: int, true_value: int) -> None:
        """Bad data whose check bits encode the true value.

        This is a predicted instruction struck in its datapath: the
        prediction unit still produced the correct check bits.
        """
        word = self.scheme.write_original(bad_value)
        self.words[(register, lane)] = \
            self.scheme.write_shadow(word, true_value)

    def taint_storage(self, register: int, lane: int, true_value: int,
                      bit: int) -> None:
        """A storage upset: flipped stored data under a healthy pair.

        The word is what :meth:`~repro.ecc.swap.SwapScheme.storage_strike`
        builds — check bits (and DP bit) of the true value over data with
        one flipped bit — so correcting schemes scrub it in place at the
        next read and detect-only schemes refuse it.
        """
        self.words[(register, lane)] = \
            self.scheme.storage_strike(true_value, bit)

    def taint_storage_mask(self, register: int, lane: int, true_value: int,
                           strike_mask: int) -> None:
        """A multi-bit storage upset: flipped stored data under a healthy pair.

        The MBU counterpart of :meth:`taint_storage` — every set bit of
        ``strike_mask`` flips in the stored data segment while the check
        bits (and DP bit) keep describing the true value.
        """
        self.words[(register, lane)] = \
            self.scheme.storage_strike_mask(true_value, strike_mask)

    def taint_bad_check_bit(self, register: int, lane: int,
                            true_value: int, bit: int) -> None:
        """Clean data with one flipped bit in the predicted check field."""
        word = self.scheme.write_original(true_value)
        flip = 1 << (bit % self.scheme.code.check_bits)
        self.words[(register, lane)] = word.with_check_error(flip)

    def taint_check_strike(self, register: int, lane: int, true_value: int,
                           bits: Sequence[int]) -> bool:
        """A (possibly multi-bit) strike on the check-prediction unit.

        Each datapath bit index folds onto the narrow predicted check
        field exactly as :meth:`taint_bad_check_bit` folds one — the
        physical structure only has ``check_bits`` cells, so a wide event
        lands on whatever cells underlie the struck positions.  Returns
        False (and taints nothing) when the folds cancel pairwise and
        the predicted check field comes out intact.
        """
        flip = 0
        for bit in bits:
            flip ^= 1 << (bit % self.scheme.code.check_bits)
        if flip == 0:
            return False
        word = self.scheme.write_original(true_value)
        self.words[(register, lane)] = word.with_check_error(flip)
        return True

    def read(self, register: int, lane: int):
        """Decode a tainted lane as the register file read port would.

        Returns ``(status, data)``; the caller drops the taint and reacts.
        """
        word = self.words.pop((register, lane))
        result = self.scheme.read(word)
        return result.status, result.data

    def read_many(self, keys: Sequence[Tuple[int, int]]) -> BatchReadResult:
        """Decode several tainted lanes in one vectorized read-port pass.

        ``keys`` are (register, lane) pairs that must all be tainted; the
        taints are dropped (as :meth:`read` does) and the whole batch runs
        through :meth:`~repro.ecc.swap.SwapScheme.read_many` — this is how
        the warp register file decodes every tainted lane of a register
        read in one call instead of one scalar decode per lane.
        """
        words = [self.words.pop(key) for key in keys]
        data = np.array([word.data for word in words], dtype=np.uint64)
        check = np.array([word.check for word in words], dtype=np.uint64)
        dp = np.array([word.dp for word in words], dtype=np.uint64) \
            if self.scheme.uses_data_parity else None
        return self.scheme.read_many(data, check, dp)
