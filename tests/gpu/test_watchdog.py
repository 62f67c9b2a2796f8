"""Tests for the hang watchdog: step budgets, deadlines, HANG verdicts."""

import pytest

from repro.errors import HangError, SimulationError
from repro.gpu import (Device, LaunchConfig, MemorySpace, Watchdog,
                       WatchdogConfig, assemble, run_functional)

#: decrements R1 forever once a fault makes it loop; clean runs exit fast
LOOP_SOURCE = """
    S2R R0, SR_TID
    IADD R1, RZ, 3
loop:
    IADD R1, R1, -1
    ISETP.NE P0, R1, 0
@P0 BRA loop
    STG [R0], R1
    EXIT
"""


def loop_kernel():
    return assemble("spin", LOOP_SOURCE), LaunchConfig(1, 32)


class TestWatchdogConfig:
    def test_rejects_non_positive_budgets(self):
        with pytest.raises(SimulationError, match="max_steps"):
            WatchdogConfig(max_steps=0)
        with pytest.raises(SimulationError, match="max_warp_steps"):
            WatchdogConfig(max_warp_steps=-1)
        with pytest.raises(SimulationError, match="deadline_s"):
            WatchdogConfig(deadline_s=0.0)
        with pytest.raises(SimulationError, match="deadline_check_interval"):
            WatchdogConfig(deadline_check_interval=0)

    def test_none_disables_budgets(self):
        watchdog = Watchdog(WatchdogConfig(max_steps=None,
                                           max_warp_steps=None))
        watchdog.start()
        for _ in range(1000):
            watchdog.tick(0, 0)
        assert watchdog.steps == 1000


class TestWatchdogBudgets:
    def test_global_budget_raises_hang(self):
        watchdog = Watchdog(WatchdogConfig(max_steps=5), name="k")
        for _ in range(5):
            watchdog.tick(0, 0)
        with pytest.raises(HangError, match="runaway"):
            watchdog.tick(0, 0)

    def test_hang_is_a_simulation_error(self):
        # Old crash-isolation paths catch SimulationError; a hang must
        # still land there when nobody handles it specifically.
        assert issubclass(HangError, SimulationError)

    def test_per_warp_budget_catches_one_spinner(self):
        watchdog = Watchdog(WatchdogConfig(max_steps=None, max_warp_steps=4))
        for warp in range(8):  # spread across warps: all fine
            for _ in range(4):
                watchdog.tick(0, warp)
        with pytest.raises(HangError, match="warp 3 of CTA 0"):
            watchdog.tick(0, 3)

    def test_per_warp_budget_is_kept_per_cta(self):
        watchdog = Watchdog(WatchdogConfig(max_steps=None, max_warp_steps=2))
        for _ in range(2):
            watchdog.tick(0, 0)
            watchdog.tick(1, 0)  # warp 0 of another CTA: its own budget
        with pytest.raises(HangError, match="warp 0 of CTA 1"):
            watchdog.tick(1, 0)
        assert watchdog.warp_steps == {(0, 0): 2, (1, 0): 3}

    def test_tick_counts_many_steps_at_once(self):
        watchdog = Watchdog(WatchdogConfig(max_steps=10, max_warp_steps=6))
        watchdog.tick(0, 0, count=6)
        assert watchdog.steps == 6
        with pytest.raises(HangError, match="6-instruction budget"):
            watchdog.tick(0, 0, count=1)

    def test_deadline_checked_every_interval(self):
        clock = iter([0.0, 10.0]).__next__
        watchdog = Watchdog(
            WatchdogConfig(max_steps=None, deadline_s=1.0,
                           deadline_check_interval=8),
            clock=clock)
        watchdog.start()
        for _ in range(7):  # below the interval: clock never read
            watchdog.tick(0, 0)
        with pytest.raises(HangError, match="wall-clock"):
            watchdog.tick(0, 0)

    def test_deadline_needs_start(self):
        watchdog = Watchdog(WatchdogConfig(deadline_s=0.001))
        watchdog.check_deadline()  # unarmed: no-op


class TestWatchdogInSimulator:
    def test_functional_max_steps_is_a_hang(self):
        kernel, launch = loop_kernel()
        with pytest.raises(HangError, match="functional steps"):
            run_functional(kernel, launch, MemorySpace(64), max_steps=10)

    def test_functional_clean_run_unaffected(self):
        kernel, launch = loop_kernel()
        memory = MemorySpace(64)
        run_functional(kernel, launch, memory)
        assert int(memory.words[0]) == 0

    def test_explicit_watchdog_overrides_max_steps(self):
        kernel, launch = loop_kernel()
        watchdog = Watchdog(WatchdogConfig(max_steps=7), name="spin")
        with pytest.raises(HangError, match="7 functional steps"):
            run_functional(kernel, launch, MemorySpace(64),
                           max_steps=10_000, watchdog=watchdog)

    def test_timing_model_ticks_watchdog(self):
        kernel, launch = loop_kernel()
        watchdog = Watchdog(WatchdogConfig(max_steps=11))
        with pytest.raises(HangError):
            Device().launch(kernel, launch, MemorySpace(64),
                            watchdog=watchdog)
        clean = Device().launch(kernel, loop_kernel()[1], MemorySpace(64),
                                watchdog=Watchdog())
        assert clean.cycles > 0
