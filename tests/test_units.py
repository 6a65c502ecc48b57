"""Unit-conversion helpers."""

import pytest

from repro import units


def test_ms_to_seconds():
    assert units.ms(10) == pytest.approx(0.010)


def test_us_to_seconds():
    assert units.us(250) == pytest.approx(250e-6)


def test_ns_to_seconds():
    assert units.ns(1500) == pytest.approx(1.5e-6)


def test_seconds_identity():
    assert units.seconds(2.5) == 2.5


def test_to_ms_roundtrip():
    assert units.to_ms(units.ms(42.0)) == pytest.approx(42.0)


def test_kb_uses_decimal_kilobytes():
    # Table I uses KB = 10^3 bytes.
    assert units.kb(1000) == 1_000_000


def test_mb():
    assert units.mb(5.5) == 5_500_000


def test_mbps():
    assert units.mbps(20) == 20e6


def test_kbps():
    assert units.kbps(120) == 120e3


def test_to_mbps_roundtrip():
    assert units.to_mbps(units.mbps(3.7)) == pytest.approx(3.7)


def test_transmission_time_1500B_20Mbps():
    # The paper's probe frame: 1500 B at 20 Mb/s = 0.6 ms.
    assert units.transmission_time(1500, units.mbps(20)) == pytest.approx(0.0006)


def test_transmission_time_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        units.transmission_time(1500, 0)


