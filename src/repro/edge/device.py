"""Edge devices: query the scheduler, offload task data, await results
(Fig. 1, steps 3-6).

One :class:`EdgeDevice` per host.  Submitting a job:

1. send a scheduling query (delay or bandwidth metric, per the experiment);
2. on the ranked response, assign the job's tasks to the top servers —
   distributed jobs use the top *n* distinct servers, matching the paper's
   "three nodes are selected to offload tasks";
3. upload each task's data with the reliable transport;
4. execution happens remotely; the result datagram closes the task's record.

Every timestamp lands in the shared :class:`~repro.edge.metrics.MetricsCollector`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.client import SchedulerClient
from repro.edge.metrics import MetricsCollector, TaskRecord
from repro.edge.task import Job
from repro.errors import WorkloadError
from repro.simnet.addressing import PORT_TASK, PROTO_UDP
from repro.simnet.flows import ReliableTransfer
from repro.simnet.host import Host
from repro.simnet.packet import Packet

__all__ = ["EdgeDevice"]


class EdgeDevice:
    """Task-submitting endpoint on one host."""

    def __init__(
        self,
        host: Host,
        scheduler_addr: int,
        metrics: MetricsCollector,
        *,
        metric: str = "delay",
        task_port: int = PORT_TASK,
        on_job_done: Optional[Callable[[Job], None]] = None,
        selection_policy: Optional[Callable[[Job, List[Tuple[int, object]]], List[int]]] = None,
        task_timeout: Optional[float] = None,
        retry_timeout: Optional[float] = None,
        max_attempts: int = 1,
        retry_backoff: float = 2.0,
    ) -> None:
        if task_timeout is not None and task_timeout <= 0:
            raise WorkloadError(f"task_timeout must be positive, got {task_timeout}")
        if retry_timeout is not None and retry_timeout <= 0:
            raise WorkloadError(f"retry_timeout must be positive, got {retry_timeout}")
        if max_attempts < 1:
            raise WorkloadError(f"max_attempts must be >= 1, got {max_attempts}")
        if retry_backoff < 1.0:
            raise WorkloadError(f"retry_backoff must be >= 1, got {retry_backoff}")
        self.host = host
        self.metrics = metrics
        self.metric = metric
        self.task_port = task_port
        self.on_job_done = on_job_done
        # Optional per-task deadline from submission: a task whose result
        # never arrives (server crash, device unreachable past the server's
        # retransmission budget) is marked failed instead of pending forever.
        # Experiments leave this off — the paper has no task-abandonment
        # semantics — but long-running deployments need it.
        self.task_timeout = task_timeout
        self.tasks_timed_out = 0
        # Retry / failover (off unless retry_timeout is set): a task whose
        # result has not arrived retry_timeout seconds after its upload
        # started is re-sent to the *next* server in the job's ranking —
        # the graceful-degradation answer to a crashed or unreachable edge
        # server.  Timeouts back off exponentially; after max_attempts the
        # task is marked failed (or left to the hard task_timeout).
        self.retry_timeout = retry_timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.tasks_retried = 0
        self.failovers = 0
        self._rankings: Dict[int, List[int]] = {}      # job_id -> ranked addrs
        self._tasks: Dict[int, object] = {}            # task_id -> Task
        self._task_attempts: Dict[int, int] = {}
        self._task_server_idx: Dict[int, int] = {}
        if selection_policy is None:
            from repro.edge.policies import top_k

            selection_policy = top_k
        self.selection_policy = selection_policy
        self.client = SchedulerClient(host, scheduler_addr)
        self.result_port = host.ephemeral_port()
        host.bind(PROTO_UDP, self.result_port, self._on_result)
        self._records: Dict[int, TaskRecord] = {}
        self._job_pending: Dict[int, int] = {}   # job_id -> tasks outstanding
        self._jobs: Dict[int, Job] = {}
        self.jobs_submitted = 0
        self.jobs_completed = 0

    # -- submission -------------------------------------------------------

    def submit_job(self, job: Job) -> None:
        if job.device_name != self.host.name:
            raise WorkloadError(
                f"job {job.job_id} belongs to {job.device_name}, not {self.host.name}"
            )
        now = self.host.sim.now
        self.jobs_submitted += 1
        self._jobs[job.job_id] = job
        self._job_pending[job.job_id] = len(job.tasks)
        for task in job.tasks:
            record = TaskRecord(
                task_id=task.task_id,
                job_id=job.job_id,
                device=self.host.name,
                workload=job.workload,
                size_class=task.size_class,
                data_bytes=task.data_bytes,
                exec_time=task.exec_time,
                submitted_at=now,
            )
            self._records[task.task_id] = record
            self.metrics.add(record)
            if self.task_timeout is not None:
                self.host.sim.schedule(
                    self.task_timeout, self._on_task_timeout, task.task_id
                )
        request_id = self.client.query(
            self.metric, lambda ranking, j=job: self._on_ranking(j, ranking)
        )
        obs = self.host.sim.obs
        if obs:
            trace = getattr(obs, "trace", None)
            if trace is not None:
                # Correlate each task with its scheduler query so the
                # decision becomes a child span of the task trace.
                for task in job.tasks:
                    trace.task_request(task.task_id, request_id)

    def _on_task_timeout(self, task_id: int) -> None:
        record = self._records.get(task_id)
        if record is None or record.result_received_at is not None or record.failed:
            return
        self.tasks_timed_out += 1
        self._mark_task_failed(record)

    def _mark_task_failed(self, record: TaskRecord) -> None:
        """Terminal failure: close the record and the job's books.  Safe to
        call from any of the competing failure paths (hard timeout, retry
        exhaustion, server rejection) — first caller wins."""
        if record.failed or record.result_received_at is not None:
            return
        record.failed = True
        remaining = self._job_pending.get(record.job_id, 0) - 1
        self._job_pending[record.job_id] = remaining
        self._finish_job_if_done(record.job_id)

    # -- server assignment ----------------------------------------------------

    def _on_ranking(self, job: Job, ranking: List[Tuple[int, float]]) -> None:
        now = self.host.sim.now
        if not ranking:
            for task in job.tasks:
                record = self._records[task.task_id]
                record.failed = True
            self._job_pending[job.job_id] = 0
            self._finish_job_if_done(job.job_id)
            return
        servers = self.selection_policy(job, ranking)
        if len(servers) != len(job.tasks):
            raise WorkloadError(
                f"selection policy returned {len(servers)} servers for "
                f"{len(job.tasks)} tasks"
            )
        ranked_addrs = [addr for addr, _value in ranking]
        if self.retry_timeout is not None:
            self._rankings[job.job_id] = ranked_addrs
        for task, server_addr in zip(job.tasks, servers):
            record = self._records[task.task_id]
            record.ranking_received_at = now
            record.server_addr = server_addr
            if self.retry_timeout is not None:
                self._tasks[task.task_id] = task
                self._task_attempts[task.task_id] = 1
                self._task_server_idx[task.task_id] = ranked_addrs.index(server_addr)
            self._start_transfer(task, record, server_addr)

    # -- data upload --------------------------------------------------------------

    def _start_transfer(self, task, record: TaskRecord, server_addr: int) -> None:
        record.transfer_started = self.host.sim.now
        transfer = ReliableTransfer(
            self.host,
            server_addr,
            self.task_port,
            task.data_bytes,
            metadata={
                "task_id": task.task_id,
                "exec_time": task.exec_time,
                "reply_addr": self.host.addr,
                "reply_port": self.result_port,
            },
            on_complete=lambda t, r=record: self._on_transfer_done(r, t),
        )
        transfer.start()
        if self.retry_timeout is not None:
            attempt = self._task_attempts.get(task.task_id, 1)
            deadline = self.retry_timeout * (self.retry_backoff ** (attempt - 1))
            self.host.sim.schedule(deadline, self._check_task, task.task_id)

    def _check_task(self, task_id: int) -> None:
        """Retry deadline: if the result is still outstanding, fail over to
        the next-ranked server, or give up once attempts are exhausted."""
        record = self._records.get(task_id)
        if record is None or record.result_received_at is not None or record.failed:
            return
        attempt = self._task_attempts.get(task_id, 1)
        if attempt >= self.max_attempts:
            self._mark_task_failed(record)
            return
        task = self._tasks.get(task_id)
        ranked = self._rankings.get(record.job_id)
        if task is None or not ranked:
            self._mark_task_failed(record)
            return
        next_idx = (self._task_server_idx.get(task_id, 0) + 1) % len(ranked)
        next_addr = ranked[next_idx]
        self._task_attempts[task_id] = attempt + 1
        self._task_server_idx[task_id] = next_idx
        self.tasks_retried += 1
        if next_addr != record.server_addr:
            self.failovers += 1
        record.server_addr = next_addr
        obs = self.host.sim.obs
        if obs:
            obs.events.task_transition(
                task_id=task_id,
                state="retry",
                device=self.host.name,
                server_addr=next_addr,
                attempt=attempt + 1,
            )
        self._start_transfer(task, record, next_addr)

    def _on_transfer_done(self, record: TaskRecord, transfer: ReliableTransfer) -> None:
        record.transfer_completed = self.host.sim.now
        record.retransmissions = transfer.retransmissions

    # -- completion ---------------------------------------------------------------

    def _on_result(self, packet: Packet) -> None:
        msg = packet.message
        if not (isinstance(msg, tuple) and len(msg) == 4 and msg[0] == "task_result"):
            return
        _tag, task_id, ok, server_addr = msg
        # Acknowledge every copy — the server retransmits until it hears us.
        ack = self.host.new_packet(
            server_addr,
            protocol=PROTO_UDP,
            src_port=self.result_port,
            dst_port=packet.src_port,
            message=("result_ack", task_id),
        )
        self.host.send(ack)
        record = self._records.get(task_id)
        if record is None or record.result_received_at is not None or record.failed:
            return
        if not ok:
            self._mark_task_failed(record)
            return
        record.result_received_at = self.host.sim.now
        remaining = self._job_pending.get(record.job_id, 0) - 1
        self._job_pending[record.job_id] = remaining
        self._finish_job_if_done(record.job_id)

    def _finish_job_if_done(self, job_id: int) -> None:
        if self._job_pending.get(job_id, 1) > 0:
            return
        job = self._jobs.pop(job_id, None)
        self._job_pending.pop(job_id, None)
        self._rankings.pop(job_id, None)
        if job is None:
            return
        for task in job.tasks:
            self._tasks.pop(task.task_id, None)
            self._task_attempts.pop(task.task_id, None)
            self._task_server_idx.pop(task.task_id, None)
        self.jobs_completed += 1
        if self.on_job_done is not None:
            self.on_job_done(job)
