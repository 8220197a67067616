"""The paper's testbed (§6.1) and every calibration constant.

Sixteen nodes on gigabit Ethernet with jumbo frames (one experiment
uses 100 Mbps):

* six server-class nodes — dual 1.7 GHz P4, 2 GB RAM, one 7200 rpm
  ATA/100 disk (two in the 3-tier layout), 3Com gigabit NIC; one
  doubles as metadata manager;
* client nodes 1–7 — dual 1.3 GHz P3; clients 8–9 match the servers.

Calibration philosophy: hardware envelopes (NIC, disk, CPU clocks) are
taken from the paper/datasheets; per-operation protocol costs are the
free parameters, fitted so the absolute anchors of Figure 6/7 are
reproduced (≈119 MB/s disk-bound aggregate writes, ≈500 MB/s CPU-bound
warm-cache reads, NFSv4 flat at a single server's ceiling, PVFS2
small-I/O collapse).  Every number lives here — nothing is scattered.
"""

from __future__ import annotations

from repro.nfs.config import NfsConfig
from repro.pvfs2.config import Pvfs2Config
from repro.rpc import RpcCosts
from repro.sim.cpu import CpuSpec
from repro.sim.disk import DiskSpec
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import Node, NodeSpec

__all__ = [
    "FAST_ETHERNET",
    "GIGE",
    "Testbed",
    "default_nfs_config",
    "default_pvfs2_config",
]

MB = 1024 * 1024

#: Gigabit Ethernet with jumbo frames: practical TCP payload rate.
GIGE = 117e6
#: 100 Mbps Ethernet (Figure 6c).
FAST_ETHERNET = 11.5e6
#: One-way message latency: wire + switch + interrupt/stack.
LATENCY = 80e-6

#: Seagate 80 GB 7200 rpm ATA/100 as seen through ext3 + journalling
#: under concurrent striped load.  write_bw is the effective sustained
#: rate that calibrates Fig 6a's 119 MB/s over six disks.
SERVER_DISK = DiskSpec(read_bw=50e6, write_bw=20e6, positioning=0.0085)

#: Node-wide disk-path ceiling (CPU+bus): calibrates "two disks in one
#: 3-tier storage node do not double bandwidth" (§6.2) —
#: 3 nodes x ~27.5 MB/s ≈ the 83 MB/s 3-tier write plateau.
SERVER_IO_BUS = 28e6

SERVER_CPU = CpuSpec(cores=2, speed=1.7)
CLIENT_CPU_SLOW = CpuSpec(cores=2, speed=1.3)  # clients 1-7
CLIENT_CPU_FAST = CpuSpec(cores=2, speed=1.7)  # clients 8-9

#: NFSv4 path costs: the in-kernel, multi-threaded Linux implementation.
NFS_COSTS = RpcCosts(
    client_per_call=35e-6,
    client_per_byte=3.5e-9,
    server_per_call=50e-6,
    server_per_byte=5.5e-9,
)

#: PVFS2 storage-protocol per-flow-unit costs (units pipeline; the
#: heavy per-*request* setup is separate, below).
PVFS2_COSTS = RpcCosts(
    client_per_call=60e-6,
    client_per_byte=4.5e-9,
    server_per_call=60e-6,
    server_per_byte=5.0e-9,
)

#: PVFS2 per-request setup: posting + flow establishment + user-level
#: daemon scheduling — the "substantial per-request overhead" of §5.
#: Calibrates the small-I/O collapse (39.4 / 51 MB/s in Figs 6d, 7c).
PVFS2_REQUEST_SETUP_CLIENT = 900e-6
PVFS2_REQUEST_SETUP_SERVER = 500e-6

#: PVFS2 metadata-protocol costs (lighter than the data path).
PVFS2_META_COSTS = RpcCosts(
    client_per_call=150e-6,
    client_per_byte=2e-9,
    server_per_call=180e-6,
    server_per_byte=2e-9,
)

#: Extra per-byte cost on data servers colocated with storage: the
#: nfsd <-> loopback <-> user-level PVFS2 hop (§5) — copies plus
#: kernel/user crossings.  The write side is cheaper than the read side
#: (reads copy the reply back through the conduit's buffers); the read
#: total calibrates the data-server CPU ceiling that flattens
#: warm-cache reads near 509 MB/s (Fig 7a) and costs Direct-pNFS the
#: Figure 7b crossover against PVFS2 at eight clients.
LOOPBACK_COPY_PER_BYTE = 8e-9
LOOPBACK_READ_EXTRA_PER_BYTE = 12e-9

#: Gateway surcharges for servers whose backend is a FULL parallel-FS
#: client (store-and-forward).  These are *measured* inefficiencies the
#: paper attributes to indirect data access (§3.4.1/§6.2.1) that a pure
#: copy model underestimates: kernel/user crossings, request
#: re-buffering, and stripe-unaligned backend requests.  Calibrated so
#: the standalone NFSv4 write curve sits at its flat ≈45 MB/s and the
#: 3-tier read plateau lands near the paper's 115 MB/s.
GATEWAY_WRITE_PER_BYTE = 50e-9
GATEWAY_READ_PER_BYTE_3TIER = 65e-9


def default_nfs_config(**overrides) -> NfsConfig:
    """The paper's NFS settings: 2 MB rsize/wsize, 8 server threads."""
    params = dict(
        rsize=2 * MB,
        wsize=2 * MB,
        server_threads=8,
        session_slots=64,
        readahead=12 * MB,
        costs=NFS_COSTS,
    )
    params.update(overrides)
    return NfsConfig(**params)


def default_pvfs2_config(**overrides) -> Pvfs2Config:
    """PVFS2 1.5.1 as deployed in §6.1: 2 MB stripes."""
    params = dict(
        stripe_size=2 * MB,
        flow_unit=256 * 1024,
        flow_buffers=8,
        client_max_flight=8,
        storage_threads=16,
        costs=PVFS2_COSTS,
        meta_costs=PVFS2_META_COSTS,
        request_setup_client=PVFS2_REQUEST_SETUP_CLIENT,
        request_setup_server=PVFS2_REQUEST_SETUP_SERVER,
    )
    params.update(overrides)
    return Pvfs2Config(**params)


class Testbed:
    """A materialised cluster: server nodes, client nodes, one switch.

    ``server_disks`` gives the disk count per server node — ``(1,)*6``
    for the standard layout, ``(0, 0, 0, 2, 2, 2)`` for 3-tier (the
    paper moves the disks from the data servers to the storage nodes,
    keeping nodes and disks constant).  An extra diskless server-class
    node hosts standalone roles (the NFSv4 server).
    """

    #: Keep pytest from trying to collect this class when imported
    #: into test modules ("Test…" prefix).
    __test__ = False

    def __init__(
        self,
        n_clients: int = 8,
        net_bw: float = GIGE,
        server_disks: tuple[int, ...] = (1, 1, 1, 1, 1, 1),
        latency: float = LATENCY,
        seed: int | None = None,
    ):
        if not 1 <= n_clients <= 9:
            raise ValueError("the testbed has at most nine client nodes")
        self.sim = Simulator() if seed is None else Simulator(seed=seed)
        self.network = Network(self.sim, latency=latency)
        self.server_nodes: list[Node] = []
        for i, ndisks in enumerate(server_disks):
            spec = NodeSpec(
                name=f"server{i}",
                cpu=SERVER_CPU,
                nic_bw=net_bw,
                disks=(SERVER_DISK,) * ndisks,
                io_bus_bw=SERVER_IO_BUS,
            )
            self.server_nodes.append(Node(self.sim, spec, self.network))
        self.extra_node = Node(
            self.sim,
            NodeSpec(name="extra0", cpu=SERVER_CPU, nic_bw=net_bw),
            self.network,
        )
        self.client_nodes: list[Node] = []
        for i in range(n_clients):
            cpu = CLIENT_CPU_SLOW if i < 7 else CLIENT_CPU_FAST
            spec = NodeSpec(name=f"client{i}", cpu=cpu, nic_bw=net_bw)
            self.client_nodes.append(Node(self.sim, spec, self.network))

    @property
    def storage_nodes(self) -> list[Node]:
        """Server nodes that carry disks."""
        return [n for n in self.server_nodes if n.disks]

    @property
    def diskless_server_nodes(self) -> list[Node]:
        """Server nodes without disks (3-tier data servers)."""
        return [n for n in self.server_nodes if not n.disks]
