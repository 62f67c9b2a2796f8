"""Tests for the device-level launch API."""

import numpy as np
import pytest

from repro.gpu import (Device, LaunchConfig, MemorySpace, ResilienceState,
                       TimingParams, assemble, run_functional)
from repro.gpu.power import PowerModel


def counting_kernel():
    return assemble("count", """
        S2R R0, SR_TID
        S2R R1, SR_CTAID
        S2R R2, SR_NTID
        IMAD R3, R1, R2, R0
        MOV R4, 1
        ATOM.ADD R5, [0], R4
        STG [R3+8], R3
        EXIT
    """)


class TestDeviceLaunch:
    def test_all_ctas_execute_across_sms(self):
        kernel = counting_kernel()
        memory = MemorySpace(4096)
        result = Device(TimingParams(num_sms=2)).launch(
            kernel, LaunchConfig(6, 64), memory)
        assert memory.read_words(0, 1)[0] == 6 * 64
        assert np.array_equal(memory.read_words(8, 6 * 64),
                              np.arange(6 * 64))
        assert result.cycles > 0
        assert result.issued >= 6 * 64 // 32 * 8

    def test_seconds_follow_clock(self):
        kernel = counting_kernel()
        slow = Device(TimingParams(clock_ghz=1.0)).launch(
            kernel, LaunchConfig(2, 64), MemorySpace(4096))
        fast = Device(TimingParams(clock_ghz=2.0)).launch(
            kernel, LaunchConfig(2, 64), MemorySpace(4096))
        assert slow.seconds == pytest.approx(
            slow.cycles / 1e9)
        assert fast.seconds == pytest.approx(fast.cycles / 2e9)

    def test_pipe_accounting_sums_to_issued(self):
        kernel = counting_kernel()
        result = Device().launch(kernel, LaunchConfig(4, 64),
                                 MemorySpace(4096))
        assert sum(result.issued_by_pipe.values()) == result.issued

    def test_more_sms_do_not_change_results(self):
        kernel = counting_kernel()
        first = MemorySpace(4096)
        second = MemorySpace(4096)
        Device(TimingParams(num_sms=1)).launch(
            kernel, LaunchConfig(4, 64), first)
        Device(TimingParams(num_sms=4)).launch(
            kernel, LaunchConfig(4, 64), second)
        assert np.array_equal(first.words, second.words)

    def test_power_estimate_positive(self):
        kernel = counting_kernel()
        result = Device().launch(kernel, LaunchConfig(2, 64),
                                 MemorySpace(4096))
        estimate = PowerModel().estimate(result)
        assert estimate.watts > 60.0  # above static floor
        assert estimate.joules == pytest.approx(
            estimate.watts * result.seconds)

    def test_halted_launch_reports_cycles_up_to_the_halt(self):
        kernel = assemble("trap", """
            S2R R0, SR_TID
            IADD R0, R0, 1
            IADD R0, R0, 1
            IADD R0, R0, 1
            IADD R0, R0, 1
            IADD R0, R0, 1
            IADD R0, R0, 1
            BPT
            EXIT
        """)

        def launch(halt_on_detect):
            return Device().launch(
                kernel, LaunchConfig(1, 64), MemorySpace(64),
                resilience=ResilienceState(halt_on_detect=halt_on_detect))

        halted = launch(True)
        full = launch(False)
        assert halted.halted == "trap"
        assert full.halted is None
        assert 0 < halted.cycles <= full.cycles
        assert halted.seconds > 0

    def test_warp_exit_releases_a_waiting_barrier(self):
        # Warp 0 waits at BAR; warp 1 never reaches it and exits, which
        # must release warp 0 in the timed SM as in the functional model.
        kernel = assemble("earlyexit", """
            S2R R0, SR_TID
            ISETP.LT P0, R0, 32
            @P0 BRA wait, reconv=wait
            LDG R2, [R0]
            IADD R3, R2, 1
            STG [R0], R3
            EXIT
        wait:
            BAR
            MOV R1, 9
            STG [R0], R1
            EXIT
        """)
        functional = MemorySpace(64)
        timed = MemorySpace(64)
        run_functional(kernel, LaunchConfig(1, 64), functional)
        Device().launch(kernel, LaunchConfig(1, 64), timed)
        assert (functional.read_words(0, 32) == 9).all()
        assert (functional.read_words(32, 32) == 1).all()
        assert np.array_equal(timed.words, functional.words)
