"""Unit conventions and conversion helpers.

The whole codebase uses a single set of base units so that quantities can be
combined without conversion mistakes:

* **time** — seconds, as ``float``.
* **data size** — bytes, as ``int``.
* **data rate** — bits per second, as ``float``.

Every function here converts *into* those base units (``ms(10)`` is "10
milliseconds expressed in seconds") or *out of* them (``to_ms(0.01)`` is
"0.01 s expressed in milliseconds"). Keeping the conversions in one place
mirrors the paper's mixed usage of ms/KB/Mbps while preventing unit drift.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# time
# ---------------------------------------------------------------------------

def seconds(value: float) -> float:
    """Identity helper, for symmetry in configuration code."""
    return float(value)


def ms(value: float) -> float:
    """Milliseconds -> seconds."""
    return float(value) * 1e-3


def us(value: float) -> float:
    """Microseconds -> seconds."""
    return float(value) * 1e-6


def ns(value: float) -> float:
    """Nanoseconds -> seconds."""
    return float(value) * 1e-9


def to_ms(t: float) -> float:
    """Seconds -> milliseconds."""
    return t * 1e3


# ---------------------------------------------------------------------------
# data size
# ---------------------------------------------------------------------------

def kb(value: float) -> int:
    """Kilobytes (10^3 bytes, as in the paper's Table I) -> bytes."""
    return int(round(value * 1e3))


def mb(value: float) -> int:
    """Megabytes (10^6 bytes) -> bytes."""
    return int(round(value * 1e6))


# ---------------------------------------------------------------------------
# data rate
# ---------------------------------------------------------------------------

def kbps(value: float) -> float:
    """Kilobits per second -> bits per second."""
    return float(value) * 1e3


def mbps(value: float) -> float:
    """Megabits per second -> bits per second."""
    return float(value) * 1e6


def to_mbps(rate_bps: float) -> float:
    """Bits per second -> megabits per second."""
    return rate_bps / 1e6


def transmission_time(nbytes: int, rate_bps: float) -> float:
    """Time (s) to serialize ``nbytes`` onto a link running at ``rate_bps``.

    >>> transmission_time(1500, mbps(20))  # 1500 B at 20 Mb/s
    0.0006
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return (nbytes * 8.0) / rate_bps


