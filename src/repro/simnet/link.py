"""Point-to-point links: bandwidth + propagation delay.

A :class:`Link` is full duplex; each direction is an independent channel (its
own serializer and egress queue live in the :class:`~repro.simnet.nic.Port`
at the sending end) and may have its own rate.  The link itself only
contributes propagation delay and carries utilization accounting used by
experiments and sanity checks.

Per-direction rates model the paper's testbed bottleneck structure: BMv2
forwards at an effective ~20 Mb/s (Section III-C footnote 3 — "maximum
transfer speed is limited to 20 Mbps due to data plane programming
overhead"), while end hosts inject traffic faster than that.  Queues —
the INT observable — therefore build at *switch* egress ports, which is
where the paper's registers measure them.  The Fig. 4 topology builder sets
host→switch directions to a multiple of the fabric rate and every
switch-egress direction to the fabric rate, with the paper's uniform 10 ms
propagation delay.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.nic import Port

__all__ = ["Link"]


class Link:
    """Undirected cable between two ports.

    Construction order: create both nodes, then ``Network.connect`` creates
    the two ports and this link in one step — ``Link`` is not usually
    instantiated directly.
    """

    def __init__(
        self,
        name: str,
        rate_bps: float,
        propagation_delay: float,
        *,
        rate_ab_bps: Optional[float] = None,
        rate_ba_bps: Optional[float] = None,
    ) -> None:
        if rate_bps <= 0:
            raise TopologyError(f"link {name!r}: rate must be positive, got {rate_bps}")
        if propagation_delay < 0:
            raise TopologyError(
                f"link {name!r}: propagation delay must be >= 0, got {propagation_delay}"
            )
        self.name = name
        self.rate_bps = rate_bps  # symmetric default / nominal capacity
        self.rate_ab_bps = rate_ab_bps if rate_ab_bps is not None else rate_bps
        self.rate_ba_bps = rate_ba_bps if rate_ba_bps is not None else rate_bps
        if self.rate_ab_bps <= 0 or self.rate_ba_bps <= 0:
            raise TopologyError(f"link {name!r}: directional rates must be positive")
        self.propagation_delay = propagation_delay
        self.port_a: Optional["Port"] = None
        self.port_b: Optional["Port"] = None
        # Per-direction byte counters keyed by sending port, for utilization
        # reporting (not visible to the scheduler, which must *infer* load).
        # Exact whenever run() has returned; code running inside the
        # simulation reads them through carried().
        self.bytes_carried = {"a": 0, "b": 0}
        # Observability: {"a": Counter, "b": Counter} installed by
        # Observability.attach_network; None (one check per packet) otherwise.
        # record_carried updates them in place — Counter.inc's own add, sign
        # check and sim-time stamp without its three calls per frame.
        self.obs_counters: Optional[dict] = None
        # -- fault-injection state (repro.faults) --------------------------
        # `impaired` is True iff the link is down or a loss rate is active:
        # a completing frame must then be checked for wire loss.  Rate
        # degradation and extra delay apply unconditionally because identity
        # arithmetic (x * 1.0, x + 0.0) is exact, keeping the fault-free
        # path byte-identical.
        self.up = True
        self.loss_rate = 0.0        # drop probability for every frame
        self.probe_loss_rate = 0.0  # additional drop probability for probes
        self.rate_factor = 1.0      # capacity multiplier, in (0, 1]
        self.extra_delay = 0.0      # added propagation delay (s)
        self.impaired = False
        self.packets_lost = 0       # frames lost on the wire (faults only)
        self._loss_rng: Optional[Any] = None
        # `per_frame` is the one flag a port tests per frame: True when a
        # frame's transmit completion has semantics of its own and must be
        # its own event (nic.py) — under REPRO_SLOWPATH=1 (the equivalence
        # suite's oracle), once a fault injector is armed on the simulation,
        # on an impaired link and under extra delay.  The setters below and
        # arm_faults() keep it current.
        self._slowpath = os.environ.get("REPRO_SLOWPATH", "") == "1"
        self._faults_armed = False
        self.per_frame = self._slowpath

    def attach(self, port_a: "Port", port_b: "Port") -> None:
        if self.port_a is not None or self.port_b is not None:
            raise TopologyError(f"link {self.name!r} already attached")
        self.port_a = port_a
        self.port_b = port_b
        port_a.wire("a", self.rate_ab_bps, port_b)
        port_b.wire("b", self.rate_ba_bps, port_a)

    def rate_from(self, port: "Port") -> float:
        """Serialization rate for traffic *sent by* ``port``."""
        if port is self.port_a:
            return self.rate_ab_bps
        if port is self.port_b:
            return self.rate_ba_bps
        raise TopologyError(f"port {port!r} is not attached to link {self.name!r}")

    def peer_of(self, port: "Port") -> "Port":
        """The port on the other end of the cable."""
        if port is self.port_a:
            assert self.port_b is not None
            return self.port_b
        if port is self.port_b:
            assert self.port_a is not None
            return self.port_a
        raise TopologyError(f"port {port!r} is not attached to link {self.name!r}")

    # -- fault injection ---------------------------------------------------
    #
    # A port reads ``per_frame`` when a frame *starts* serializing: a clean
    # link gets the frame's delivery scheduled there and then (completion
    # elision, see nic.py), so a fault set mid-frame first applies to the
    # next frame.  ``FaultInjector.arm()`` — the only caller of the three
    # setters below in ``src/`` — first calls :meth:`arm_faults` on every
    # link, which keeps them on the per-frame path for the whole run, where
    # the state is read at the completion instant as documented on each
    # setter.

    def arm_faults(self) -> None:
        """Keep every frame's completion an event of its own from now on:
        a fault injector is armed on this link's simulation."""
        self._faults_armed = True
        self._update_flags()

    def set_up(self, up: bool) -> None:
        """Carrier state.  While down, every frame completing transmission
        is lost on the wire (the serializer still runs, like a NIC driving a
        dead cable).  Without an armed injector, a frame already serializing
        when the carrier drops is still delivered."""
        self.up = bool(up)
        self._update_flags()

    def set_loss(
        self,
        rate: Optional[float] = None,
        probe_rate: Optional[float] = None,
        rng: Optional[Any] = None,
    ) -> None:
        """Probabilistic wire loss: ``rate`` applies to every frame,
        ``probe_rate`` additionally to probe-flagged frames.  Draws come
        from ``rng`` (a numpy Generator) so loss replays deterministically;
        an rng is required whenever either rate is positive.  One draw per
        frame at its completion instant; without an armed injector, a frame
        already serializing when loss is switched on is not subject to it."""
        if rate is not None:
            if not 0.0 <= rate <= 1.0:
                raise TopologyError(f"link {self.name!r}: loss rate must be in [0, 1]")
            self.loss_rate = rate
        if probe_rate is not None:
            if not 0.0 <= probe_rate <= 1.0:
                raise TopologyError(
                    f"link {self.name!r}: probe loss rate must be in [0, 1]"
                )
            self.probe_loss_rate = probe_rate
        if rng is not None:
            self._loss_rng = rng
        if (self.loss_rate > 0.0 or self.probe_loss_rate > 0.0) and self._loss_rng is None:
            raise TopologyError(
                f"link {self.name!r}: probabilistic loss requires an rng"
            )
        self._update_flags()

    def set_degradation(self, *, rate_factor: float = 1.0, extra_delay: float = 0.0) -> None:
        """Brownout: multiply serialization rate by ``rate_factor`` and add
        ``extra_delay`` seconds of propagation delay.  The rate applies to
        frames that start after the call; so does the delay, except that
        under an armed injector it is read at the completion instant."""
        if not 0.0 < rate_factor <= 1.0:
            raise TopologyError(
                f"link {self.name!r}: rate_factor must be in (0, 1], got {rate_factor}"
            )
        if extra_delay < 0:
            raise TopologyError(
                f"link {self.name!r}: extra_delay must be >= 0, got {extra_delay}"
            )
        self.rate_factor = rate_factor
        self.extra_delay = extra_delay
        self._update_flags()

    def _update_flags(self) -> None:
        self.impaired = (
            not self.up or self.loss_rate > 0.0 or self.probe_loss_rate > 0.0
        )
        self.per_frame = (
            self._slowpath
            or self._faults_armed
            or self.impaired
            or self.extra_delay != 0.0
        )

    def should_drop(self, packet) -> bool:
        """Fault check at transmission completion: True when this frame is
        lost on the wire.  Only called when :attr:`impaired` is set."""
        if not self.up:
            return True
        rng = self._loss_rng
        if self.loss_rate > 0.0 and float(rng.random()) < self.loss_rate:
            return True
        if (
            self.probe_loss_rate > 0.0
            and packet.is_probe
            and float(rng.random()) < self.probe_loss_rate
        ):
            return True
        return False

    def record_carried(self, key: str, nbytes: int, at: float) -> None:
        """Count a frame that finished serializing in direction ``key`` at
        simulated time ``at`` (the hub counter's ``updated_at``)."""
        self.bytes_carried[key] += nbytes
        counters = self.obs_counters
        if counters is not None:
            if nbytes < 0:
                raise ValueError(f"link {self.name}: negative frame size")
            counter = counters[key]
            counter.value += nbytes
            counter.updated_at = at

    def carried(self, key: str) -> int:
        """Bytes fully serialized in direction ``key`` ("a": sent by
        ``port_a``) as of now.  The read for code that runs *inside* the
        simulation: the sending port may still owe the books a completion
        whose event it elided (``Port.settle``).  Between ``run()`` calls
        ``bytes_carried`` is exact as it stands."""
        port = self.port_a if key == "a" else self.port_b
        assert port is not None
        port.settle()
        return self.bytes_carried[key]

    def utilization(self, port: "Port", window: float) -> float:
        """Average utilization of the ``port``-outbound direction over a
        ``window``-second interval ending now (requires caller to reset
        counters per window)."""
        if window <= 0:
            raise ValueError("window must be positive")
        key = "a" if port is self.port_a else "b"
        return (self.carried(key) * 8.0) / (self.rate_from(port) * window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.name} rate={self.rate_bps/1e6:.1f}Mbps "
            f"delay={self.propagation_delay*1e3:.1f}ms>"
        )
