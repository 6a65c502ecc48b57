"""Edge servers: receive task data, execute, return results (Fig. 1, step 6).

The experiments follow the paper in treating compute as uncontended —
tasks run for exactly their nominal execution time regardless of what else
the server is doing (the paper's evaluation isolates *network* effects).
Setting ``max_concurrent`` turns on a FIFO run queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import WorkloadError
from repro.simnet.addressing import PORT_TASK, PROTO_UDP
from repro.simnet.engine import EventHandle
from repro.simnet.flows import TransferSinkApp, _ReassemblyState
from repro.simnet.host import Host
from repro.simnet.packet import HEADER_OVERHEAD, MTU

__all__ = ["EdgeServer", "DEFAULT_RESULT_SIZE"]

DEFAULT_RESULT_SIZE = 1000  # bytes: a small result message (e.g. a FaaS reply)


class EdgeServer:
    """Task execution endpoint on one host."""

    def __init__(
        self,
        host: Host,
        *,
        port: int = PORT_TASK,
        max_concurrent: Optional[int] = None,
        result_size: int = DEFAULT_RESULT_SIZE,
    ) -> None:
        if max_concurrent is not None and max_concurrent < 1:
            raise WorkloadError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if result_size > MTU:
            raise WorkloadError(f"result_size {result_size} exceeds the {MTU}B MTU")
        self.host = host
        self.port = port
        self.max_concurrent = max_concurrent
        self.result_size = max(HEADER_OVERHEAD, result_size)
        self.sink = TransferSinkApp(host, port, on_flow_complete=self._on_task_data)
        self.running = 0
        self.queued: Deque[dict] = deque()
        self.tasks_received = 0
        self.tasks_completed = 0
        self.busy_time = 0.0
        # Fault-injection state.  A crashed server silently loses in-flight
        # and arriving work (the device's retry/failover recovers it); a
        # paused one keeps accepting but stops starting executions.
        self.alive = True
        self.paused = False
        self.crashes = 0
        self.tasks_dropped = 0
        self._exec_handles: Dict[int, EventHandle] = {}
        # Result datagrams are retransmitted until the device acknowledges —
        # a lost result must not strand the task.
        self._unacked_results: Dict[int, dict] = {}
        self.result_retransmissions = 0
        host.bind(PROTO_UDP, port, self._on_result_ack)

    # -- data arrival --------------------------------------------------------

    def _on_task_data(self, state: _ReassemblyState) -> None:
        meta = state.metadata
        required = {"task_id", "exec_time", "reply_addr", "reply_port"}
        if not required.issubset(meta):
            return  # not a task upload (some other user of the port)
        if not self.alive:
            # A crashed server answers nothing — not even a failure result.
            # The device's task timeout / retry path is the recovery story.
            self.tasks_dropped += 1
            return
        self.tasks_received += 1
        self._trace_event(meta, "arrived")
        if self.paused or (
            self.max_concurrent is not None and self.running >= self.max_concurrent
        ):
            self.queued.append(meta)
            self._trace_event(meta, "queued")
            return
        self._start_execution(meta)

    # -- execution ----------------------------------------------------------

    def _trace_event(self, meta: dict, event: str) -> None:
        """Stage one task-lifecycle timestamp for causal tracing (no-op
        unless a tracing-enabled obs hub is attached)."""
        obs = self.host.sim.obs
        if obs:
            trace = getattr(obs, "trace", None)
            if trace is not None:
                trace.task_server_event(
                    int(meta["task_id"]), event, server_addr=self.host.addr
                )

    def _start_execution(self, meta: dict) -> None:
        self.running += 1
        exec_time = float(meta["exec_time"])
        self.busy_time += exec_time
        self._trace_event(meta, "exec_start")
        self._exec_handles[int(meta["task_id"])] = self.host.sim.schedule(
            exec_time, self._finish_execution, meta
        )

    def _finish_execution(self, meta: dict) -> None:
        self._exec_handles.pop(int(meta["task_id"]), None)
        self.running -= 1
        self.tasks_completed += 1
        self._trace_event(meta, "exec_end")
        self._send_result(meta)
        if self.paused:
            return
        if self.queued and (self.max_concurrent is None or self.running < self.max_concurrent):
            self._start_execution(self.queued.popleft())

    def _send_result(self, meta: dict) -> None:
        task_id = int(meta["task_id"])
        self._unacked_results[task_id] = meta
        self._trace_event(meta, "result_sent")
        self._transmit_result(meta, attempt=0)

    # Retransmission schedule: 1 s backoff doubling, capped; gives up after
    # RESULT_MAX_ATTEMPTS (the device is presumed gone).
    RESULT_MAX_ATTEMPTS = 12

    def _transmit_result(self, meta: dict, attempt: int) -> None:
        task_id = int(meta["task_id"])
        if task_id not in self._unacked_results:
            return  # acknowledged in the meantime
        if attempt >= self.RESULT_MAX_ATTEMPTS:
            del self._unacked_results[task_id]
            return
        if attempt > 0:
            self.result_retransmissions += 1
        result = self.host.new_packet(
            int(meta["reply_addr"]),
            protocol=PROTO_UDP,
            src_port=self.port,
            dst_port=int(meta["reply_port"]),
            size_bytes=self.result_size,
            message=("task_result", task_id, True, self.host.addr),
        )
        self.host.send(result)
        backoff = min(8.0, 1.0 * (2 ** attempt))
        self.host.sim.schedule(backoff, self._transmit_result, meta, attempt + 1)

    def _on_result_ack(self, packet) -> None:
        msg = packet.message
        if isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "result_ack":
            self._unacked_results.pop(int(msg[1]), None)

    # -- fault injection (crash / pause / recover) -----------------------------

    def crash(self) -> int:
        """Hard failure: every in-flight execution, queued task, and pending
        result retransmission is lost, and arriving task data is silently
        dropped until :meth:`recover`.  Returns the number of tasks dropped
        (in-flight + queued) so the injector can report the blast radius."""
        dropped = 0
        for handle in self._exec_handles.values():
            if not handle.fired:
                self.host.sim.cancel(handle)
            dropped += 1
        self._exec_handles.clear()
        dropped += len(self.queued)
        self.queued.clear()
        self._unacked_results.clear()
        self.running = 0
        self.alive = False
        self.paused = False
        self.crashes += 1
        self.tasks_dropped += dropped
        return dropped

    def pause(self) -> None:
        """Soft failure: keep accepting task data (queueing it) but start no
        new executions until :meth:`recover`.  In-flight work finishes."""
        self.paused = True

    def recover(self) -> None:
        """Return to service and drain whatever queued while paused.  After
        a crash there is nothing to drain — the queue died with the node."""
        self.alive = True
        self.paused = False
        while self.queued and (
            self.max_concurrent is None or self.running < self.max_concurrent
        ):
            self._start_execution(self.queued.popleft())
