"""Unit tests for the protocol traffic meter."""

from repro.metrics.traffic import (
    EXCHANGE_OVERHEAD_BYTES,
    MODERATION_BYTES,
    RECORD_BYTES,
    TOPK_ENTRY_BYTES,
    VOTE_BYTES,
    TrafficMeter,
)


def test_counters_start_empty():
    meter = TrafficMeter()
    assert meter.total_bytes() == 0.0
    assert meter.total_exchanges() == 0
    assert meter.summary() == {}


def test_moderation_exchange_accounting():
    meter = TrafficMeter()
    meter.moderation_exchange_many(1, 5)
    c = meter.counters["moderationcast"]
    assert c.exchanges == 1
    assert c.items == 5
    assert c.bytes == EXCHANGE_OVERHEAD_BYTES + 5 * MODERATION_BYTES


def test_vote_and_voxpopuli_and_bartercast():
    meter = TrafficMeter()
    meter.vote_exchange_many(1, 30)
    meter.voxpopuli_exchange_many(1, 3)
    meter.bartercast_exchange_many(1, 7)
    assert meter.counters["ballotbox"].bytes == (
        EXCHANGE_OVERHEAD_BYTES + 30 * VOTE_BYTES
    )
    assert meter.counters["voxpopuli"].bytes == (
        EXCHANGE_OVERHEAD_BYTES + 3 * TOPK_ENTRY_BYTES
    )
    assert meter.counters["bartercast"].bytes == (
        EXCHANGE_OVERHEAD_BYTES + 7 * RECORD_BYTES
    )
    assert meter.total_exchanges() == 3


def test_summary_is_sorted_and_complete():
    meter = TrafficMeter()
    meter.vote_exchange_many(1, 2)
    meter.moderation_exchange_many(1, 2)
    assert list(meter.summary()) == ["ballotbox", "moderationcast"]
