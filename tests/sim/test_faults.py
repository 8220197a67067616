"""Fault-injector tests: schedules, targets, determinism."""

import pytest

from repro import rpc
from repro.sim import DiskFailed, FaultInjector, Network, Simulator
from repro.sim.faults import FaultInjector as DirectImport  # noqa: F401
from repro.vfs import Payload

from tests.conftest import build_cluster, drive

MB = 1024 * 1024


class TestSchedules:
    def test_actions_fire_at_sim_times(self, cluster):
        sim = cluster.sim
        inj = FaultInjector(sim)
        fired = []
        inj.at(2.0, lambda: fired.append(sim.now), name="late")
        inj.at(1.0, lambda: fired.append(sim.now), name="early")
        sim.run()
        assert fired == [1.0, 2.0]
        assert [(t, n) for t, n in inj.events] == [(1.0, "early"), (2.0, "late")]

    def test_past_schedule_rejected(self, cluster):
        sim = cluster.sim

        def idle():
            yield sim.timeout(5.0)

        sim.process(idle())
        sim.run()
        with pytest.raises(ValueError):
            FaultInjector(sim).at(1.0, lambda: None)

    def test_server_outage_window(self, cluster):
        server = rpc.RpcServer(
            cluster.sim, cluster.storage[0], "svc", rpc.RpcCosts()
        )
        inj = FaultInjector(cluster.sim)
        inj.outage(server, start=1.0, duration=0.5)
        observed = []

        def probe():
            for _ in range(4):
                observed.append((cluster.sim.now, server.up))
                yield cluster.sim.timeout(0.6)

        drive(cluster.sim, probe())
        assert [up for _t, up in observed] == [True, True, False, True]
        assert [t for t, _up in observed] == pytest.approx([0.0, 0.6, 1.2, 1.8])
        assert server.fail_count == 1


class TestDiskFaults:
    def test_failed_disk_raises_and_recovers(self, cluster):
        disk = cluster.storage[0].disk
        inj = FaultInjector(cluster.sim)
        inj.fail_disk(disk)

        def io():
            yield from disk.io(0, 4096, write=True)

        with pytest.raises(DiskFailed):
            drive(cluster.sim, io())
        assert disk.failed_requests == 1
        inj.restore_disk(disk)
        drive(cluster.sim, io())
        assert disk.write_bytes == 4096


class TestNicFaults:
    def test_nic_down_loses_flows(self, cluster):
        inj = FaultInjector(cluster.sim)
        inj.nic_down(cluster.storage[0].nic)

        def xfer():
            yield from cluster.network.transfer("c0", "s0", 10_000)

        p = cluster.sim.process(xfer())
        cluster.sim.run()
        # The flow vanished: it never completes and no bytes land.
        assert p.is_alive
        assert cluster.storage[0].nic.rx_bytes == 0
        assert cluster.clients[0].nic.flows_dropped == 1
        inj.nic_up(cluster.storage[0].nic)

        def xfer2():
            yield from cluster.network.transfer("c0", "s0", 10_000)

        drive(cluster.sim, xfer2())
        assert cluster.storage[0].nic.rx_bytes == 10_000

    def test_nic_delay_slows_flows(self, cluster):
        inj = FaultInjector(cluster.sim)

        def timed():
            t0 = cluster.sim.now
            yield from cluster.network.transfer("c0", "s0", 1000)
            return cluster.sim.now - t0

        base = drive(cluster.sim, timed())
        inj.nic_delay(cluster.storage[0].nic, 0.25)
        slowed = drive(cluster.sim, timed())
        assert slowed == pytest.approx(base + 0.25, rel=1e-6)

    def test_drop_probability_is_seed_deterministic(self):
        def run(seed):
            sim = Simulator(seed=seed)
            net = Network(sim, latency=0.0)
            net.add_nic("a", 100e6)
            net.add_nic("b", 100e6)
            net.nic("a").drop_prob = 0.5
            for _ in range(40):
                sim.process(net.transfer("a", "b", 1000))
            sim.run()
            return net.nic("a").flows_dropped

        dropped = run(1234)
        assert dropped == run(1234)  # same seed, same losses
        assert 0 < dropped < 40  # the coin actually flips both ways

    def test_nic_death_mid_rpc_raises_timeout(self):
        """Kill the server NIC mid-transfer: the RPC retry layer must
        surface RpcTimeout."""
        cluster = build_cluster()
        sim = cluster.sim
        server = rpc.RpcServer(
            sim, cluster.storage[0], "svc", rpc.RpcCosts(), threads=2
        )

        def sink(args, payload):
            return {"ok": True}, None
            yield  # pragma: no cover

        server.register("put", sink)
        inj = FaultInjector(sim)
        # A 50 MB payload takes ~0.45 s on the wire; cut it at 0.1 s.
        inj.at(0.1, lambda: inj.nic_down(cluster.storage[0].nic))
        policy = rpc.RpcPolicy(timeout=0.3, max_retries=1, backoff=1.0)

        def scenario():
            try:
                yield from rpc.call(
                    cluster.clients[0],
                    server,
                    "put",
                    {},
                    payload=Payload.synthetic(50 * MB),
                    policy=policy,
                )
            except rpc.RpcTimeout as exc:
                return exc, sim.now

        exc, gave_up = drive(sim, scenario())
        assert isinstance(exc, rpc.RpcTimeout)
        assert exc.attempts == 2
        # 0.3 s first patience + 0.3 s retry patience.
        assert gave_up == pytest.approx(0.6, abs=0.05)
        # The retransmission found the NIC already down at flow start.
        assert cluster.clients[0].nic.flows_dropped >= 1


class TestNodeCrash:
    def test_crash_and_restart_node(self, cluster):
        node = cluster.storage[0]
        server = rpc.RpcServer(cluster.sim, node, "svc", rpc.RpcCosts())
        inj = FaultInjector(cluster.sim)
        inj.crash_node(node, services=[server])
        assert node.nic.down and node.disk.failed and not server.up
        inj.restart_node(node, services=[server])
        assert not node.nic.down and not node.disk.failed and server.up
        kinds = [name.split()[0] for _t, name in inj.events]
        assert kinds == ["crash", "restart"]
