"""Unit tests for the hardware fault buffer."""

import pytest

from repro.errors import ConfigError
from repro.uvm.fault_buffer import FaultBuffer, FaultEntry


def entry(page, time=0):
    return FaultEntry(page=page, warp=None, time=time)


def test_rejects_nonpositive_capacity():
    with pytest.raises(ConfigError):
        FaultBuffer(0)


def test_push_and_drain_preserves_order():
    buf = FaultBuffer(8)
    for p in (3, 1, 2):
        buf.push(entry(p))
    drained = buf.drain()
    assert [e.page for e in drained] == [3, 1, 2]
    assert buf.empty


def test_drain_resets_page_index():
    buf = FaultBuffer(8)
    buf.push(entry(5))
    assert buf.contains_page(5)
    buf.drain()
    assert not buf.contains_page(5)


def test_overflow_drops_and_counts():
    buf = FaultBuffer(2)
    assert buf.push(entry(1))
    assert buf.push(entry(2))
    assert not buf.push(entry(3))
    assert buf.overflow_faults == 1
    assert len(buf) == 2
    assert buf.total_faults == 3


def test_peak_occupancy():
    buf = FaultBuffer(8)
    for p in range(5):
        buf.push(entry(p))
    buf.drain()
    buf.push(entry(9))
    assert buf.peak_occupancy == 5


def test_duplicate_pages_occupy_entries():
    # Multiple warps faulting on the same page each take a buffer slot.
    buf = FaultBuffer(4)
    for _ in range(3):
        buf.push(entry(7))
    assert len(buf) == 3
    assert buf.contains_page(7)


class _AlwaysDup:
    """Minimal chaos stand-in: duplicate every non-replay push."""

    def fault_entry_action(self, page, now):
        return "dup"


def test_chaos_duplicate_counts_toward_peak_occupancy():
    # Regression: the chaos-dup append used to skip the peak_occupancy
    # update, under-reporting buffer pressure whenever the high-water
    # mark was set by a duplicated entry.
    buf = FaultBuffer(8)
    buf.chaos = _AlwaysDup()
    assert buf.push(entry(1))
    assert len(buf) == 2  # duplicate + original
    assert buf.chaos_duplicated == 1
    assert buf.peak_occupancy == 2


def test_chaos_duplicate_that_fills_buffer_updates_peak_and_gauge():
    from repro.obs import Observability
    from repro.obs.observer import RunRecorder

    # The duplicate fills the only slot, so the original overflows; the
    # peak and the live occupancy gauge must still reflect the duplicate.
    buf = FaultBuffer(1)
    buf.chaos = _AlwaysDup()
    session = Observability("full")
    buf.observer = RunRecorder(session)
    assert not buf.push(entry(3))
    assert len(buf) == 1
    assert buf.peak_occupancy == 1
    assert buf.overflow_faults == 1
    assert buf.chaos_duplicated == 1
    assert session.metrics.gauge("fault_buffer.occupancy").value == 1
