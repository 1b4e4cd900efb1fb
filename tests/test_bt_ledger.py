"""Tests for TransferLedger."""

import pytest

from repro.bittorrent.ledger import TransferLedger
from tests import reference_bittorrent as bt


def test_record_and_query():
    led = TransferLedger()
    led.record_many([("u", "d", 100.0)], 1.0)
    led.record_many([("u", "d", 50.0)], 2.0)
    assert bt.sent(led, "u", "d") == 150.0
    assert bt.uploaded_by(led, "u") == 150.0
    assert bt.downloaded_by(led, "d") == 150.0
    assert led.total_bytes == 150.0


def test_directionality():
    led = TransferLedger()
    led.record_many([("a", "b", 10.0)], 0.0)
    assert bt.sent(led, "b", "a") == 0.0
    assert bt.uploaded_by(led, "b") == 0.0
    assert bt.downloaded_by(led, "a") == 0.0


def test_zero_and_negative_ignored():
    led = TransferLedger()
    led.record_many([("a", "b", 0.0)], 0.0)
    led.record_many([("a", "b", -5.0)], 0.0)
    assert led.total_bytes == 0.0


def test_self_transfer_rejected():
    led = TransferLedger()
    with pytest.raises(ValueError):
        led.record_many([("a", "a", 10.0)], 0.0)


def test_listeners_receive_transfers():
    led = TransferLedger()
    events = []
    led.add_listener(lambda batch, t: events.append((list(batch), t)))
    led.record_many([("a", "b", 10.0)], 3.0)
    assert events == [([("a", "b", 10.0)], 3.0)]


def test_listeners_hear_each_batch_once():
    led = TransferLedger()
    events = []
    led.add_listener(lambda batch, t: events.append((list(batch), t)))
    led.record_many([("a", "b", 1.0), ("b", "c", 0.0), ("c", "a", 2.0)], now=4.0)
    led.record_many([("a", "b", -1.0)], now=5.0)  # nothing positive: not heard
    assert events == [([("a", "b", 1.0), ("c", "a", 2.0)], 4.0)]


def test_self_transfer_mid_batch_records_nothing():
    led = TransferLedger()
    with pytest.raises(ValueError):
        led.record_many([("a", "b", 1.0), ("c", "c", 2.0), ("b", "a", 3.0)], now=0.0)
    assert led.total_bytes == 0.0
    assert led.edges() == []


def test_self_transfer_mid_batch_is_not_heard():
    led = TransferLedger()
    events = []
    led.add_listener(lambda batch, t: events.append(batch))
    with pytest.raises(ValueError):
        led.record_many([("a", "b", 1.0), ("c", "c", 2.0)], now=0.0)
    assert events == []


def test_edges_enumeration():
    led = TransferLedger()
    led.record_many([("a", "b", 10.0)], 0.0)
    led.record_many([("b", "a", 4.0)], 0.0)
    led.record_many([("a", "c", 1.0)], 0.0)
    assert sorted(led.edges()) == [("a", "b", 10.0), ("a", "c", 1.0), ("b", "a", 4.0)]
