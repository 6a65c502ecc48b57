"""Edge server execution and device submission flow, end to end."""

import pytest

from repro.core.baselines import NearestScheduler
from repro.edge.device import EdgeDevice
from repro.edge.metrics import MetricsCollector
from repro.edge.server import EdgeServer
from repro.edge.task import Job, SizeClass, Task
from repro.errors import WorkloadError
from repro.simnet.flows import MSS, ReliableTransfer
from repro.units import kb


def _task(data=kb(50), exec_time=0.5):
    return Task(
        job_id=0,
        size_class=SizeClass.VS,
        data_bytes=data,
        exec_time=exec_time,
    )


def _upload(sim, net, server_host, meta, nbytes=kb(10)):
    """Send a task upload directly to a server, bypassing the scheduler."""
    transfer = ReliableTransfer(
        net.host("h1"), net.address_of(server_host), 6000, nbytes, metadata=meta
    )
    transfer.start()
    return transfer


class TestEdgeServer:
    def test_executes_and_replies(self, sim, line3):
        net = line3
        server = EdgeServer(net.host("h2"))
        results = []
        device_host = net.host("h1")
        port = device_host.ephemeral_port()
        device_host.bind(17, port, lambda p: results.append(p.message))
        meta = {
            "task_id": 1, "exec_time": 0.5,
            "reply_addr": device_host.addr, "reply_port": port,
        }
        _upload(sim, net, "h2", meta)
        sim.run(until=30.0)
        assert server.tasks_received == 1
        assert server.tasks_completed == 1
        assert results[0][:3] == ("task_result", 1, True)

    def test_execution_takes_exec_time(self, sim, line3):
        net = line3
        EdgeServer(net.host("h2"))
        arrival = {}
        device_host = net.host("h1")
        port = device_host.ephemeral_port()
        device_host.bind(17, port, lambda p: arrival.setdefault("t", sim.now))
        meta = {"task_id": 1, "exec_time": 2.0,
                "reply_addr": device_host.addr, "reply_port": port}
        _upload(sim, net, "h2", meta, nbytes=MSS)
        sim.run(until=30.0)
        assert arrival["t"] > 2.0  # at least the execution time

    def test_concurrency_limit_queues(self, sim, line3):
        net = line3
        server = EdgeServer(net.host("h2"), max_concurrent=1)
        device_host = net.host("h1")
        port = device_host.ephemeral_port()
        done = []
        device_host.bind(17, port, lambda p: done.append((p.message[1], sim.now)))
        for tid in (1, 2):
            meta = {"task_id": tid, "exec_time": 1.0,
                    "reply_addr": device_host.addr, "reply_port": port}
            _upload(sim, net, "h2", meta, nbytes=MSS)
        sim.run(until=30.0)
        # The bare handler never ACKs, so results repeat; keep first per task.
        first = {}
        for tid, t in done:
            first.setdefault(tid, t)
        assert set(first) == {1, 2}
        # Serialized execution: second completion >= 1 s after the first.
        assert abs(first[2] - first[1]) >= 1.0

    def test_result_retransmitted_until_acked(self, sim, line3):
        """No ACK from the device: the server retries with backoff."""
        net = line3
        server = EdgeServer(net.host("h2"))
        device_host = net.host("h1")
        port = device_host.ephemeral_port()
        copies = []
        device_host.bind(17, port, lambda p: copies.append(sim.now))  # never acks
        meta = {"task_id": 1, "exec_time": 0.1,
                "reply_addr": device_host.addr, "reply_port": port}
        _upload(sim, net, "h2", meta, nbytes=MSS)
        sim.run(until=10.0)
        assert len(copies) >= 3
        assert server.result_retransmissions >= 2

    def test_non_task_flow_ignored(self, sim, line3):
        net = line3
        server = EdgeServer(net.host("h2"))
        transfer = ReliableTransfer(
            net.host("h1"), net.address_of("h2"), 6000, MSS, metadata={"foo": 1}
        )
        transfer.start()
        sim.run(until=10.0)
        assert server.tasks_received == 0
        assert transfer.done  # transport still completed

    def test_invalid_params_rejected(self, sim, line3):
        with pytest.raises(WorkloadError):
            EdgeServer(line3.host("h2"), max_concurrent=0)
        with pytest.raises(WorkloadError):
            EdgeServer(line3.host("h3"), result_size=10_000)


class TestEdgeDevice:
    def _system(self, sim, fig4_topo):
        """Nearest scheduler + servers + one device on node1."""
        net = fig4_topo.network
        worker_addrs = [net.address_of(n) for n in fig4_topo.worker_names]
        NearestScheduler(
            net.host(fig4_topo.scheduler_name), worker_addrs, net
        )
        for name in fig4_topo.worker_names:
            if name != "node1":
                EdgeServer(net.host(name))
        metrics = MetricsCollector()
        done_jobs = []
        device = EdgeDevice(
            net.host("node1"), fig4_topo.scheduler_addr, metrics,
            on_job_done=done_jobs.append,
        )
        return device, metrics, done_jobs

    @pytest.fixture
    def fig4(self, sim, streams):
        from repro.experiments.fig4_topology import build_fig4_network

        return build_fig4_network(sim, streams)

    def test_serverless_job_completes(self, sim, fig4):
        device, metrics, done_jobs = self._system(sim, fig4)
        job = Job(device_name="node1", workload="serverless", tasks=[_task()])
        device.submit_job(job)
        sim.run(until=120.0)
        assert len(done_jobs) == 1
        record = metrics.records[0]
        assert record.complete
        assert record.completion_time > record.transfer_time > 0
        # Nearest for node1 is node2 (same pod).
        assert record.server_addr == fig4.network.address_of("node2")

    def test_distributed_job_uses_distinct_servers(self, sim, fig4):
        device, metrics, _ = self._system(sim, fig4)
        job = Job(
            device_name="node1", workload="distributed",
            tasks=[_task(), _task(), _task()],
        )
        device.submit_job(job)
        sim.run(until=180.0)
        servers = {r.server_addr for r in metrics.records}
        assert len(servers) == 3
        assert all(r.complete for r in metrics.records)

    def test_wrong_device_rejected(self, sim, fig4):
        device, _, _ = self._system(sim, fig4)
        job = Job(device_name="node9", workload="serverless", tasks=[_task()])
        with pytest.raises(WorkloadError):
            device.submit_job(job)

    def test_all_timestamps_monotone(self, sim, fig4):
        device, metrics, _ = self._system(sim, fig4)
        device.submit_job(Job(device_name="node1", workload="serverless", tasks=[_task()]))
        sim.run(until=120.0)
        r = metrics.records[0]
        assert (
            r.submitted_at
            <= r.ranking_received_at
            <= r.transfer_started
            <= r.transfer_completed
            <= r.result_received_at
        )

    def test_job_counters(self, sim, fig4):
        device, _, _ = self._system(sim, fig4)
        device.submit_job(Job(device_name="node1", workload="serverless", tasks=[_task()]))
        sim.run(until=120.0)
        assert device.jobs_submitted == device.jobs_completed == 1
