"""Shared test fixtures: small clusters and process-driving helpers."""

from dataclasses import dataclass, field

import pytest

from repro.sim import CpuSpec, DiskSpec, Network, Node, NodeSpec, Simulator


@dataclass
class MiniCluster:
    """A small testbed: storage nodes + client nodes on one switch."""

    sim: Simulator
    network: Network
    storage: list[Node] = field(default_factory=list)
    clients: list[Node] = field(default_factory=list)


def build_cluster(
    n_storage: int = 3,
    n_clients: int = 2,
    nic_bw: float = 117e6,
    latency: float = 60e-6,
    disk: DiskSpec | None = None,
) -> MiniCluster:
    sim = Simulator()
    net = Network(sim, latency=latency)
    disk = disk or DiskSpec(read_bw=55e6, write_bw=24e6, positioning=0.004)
    storage = [
        Node(
            sim,
            NodeSpec(
                name=f"s{i}",
                cpu=CpuSpec(cores=2, speed=1.3),
                nic_bw=nic_bw,
                disks=(disk,),
                io_bus_bw=28e6,
            ),
            net,
        )
        for i in range(n_storage)
    ]
    clients = [
        Node(
            sim,
            NodeSpec(name=f"c{i}", cpu=CpuSpec(cores=2, speed=1.0), nic_bw=nic_bw),
            net,
        )
        for i in range(n_clients)
    ]
    return MiniCluster(sim=sim, network=net, storage=storage, clients=clients)


def drive(sim: Simulator, gen):
    """Run generator ``gen`` as a process to completion; return its value."""
    proc = sim.process(gen)
    return sim.run(until=proc)


@pytest.fixture
def cluster():
    return build_cluster()
