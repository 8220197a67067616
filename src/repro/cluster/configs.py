"""The five architectures of the paper's evaluation.

Each builder wires a deployment over a :class:`Testbed` and returns a
:class:`Deployment` whose ``make_client`` hands out application-facing
file-system clients.  The back end is held constant (§6.1): six server
nodes, six disks, 2 MB PVFS2 stripes.

* ``direct-pnfs`` — data servers on every storage node over local-only
  conduits; layout translator on the colocated MDS (Figure 5).
* ``pvfs2`` — the native parallel file system client.
* ``pnfs-2tier`` — pNFS file-layout data servers colocated with the
  storage nodes but issued synthetic layouts (1 MB stripes, blind to
  the 2 MB PVFS2 placement): on average only 1/6 of each request is
  local, the rest moves between servers (Figure 3b).
* ``pnfs-3tier`` — three dedicated data servers in front of three
  two-disk storage nodes (Figure 3a).
* ``nfsv4`` — one NFSv4 server on a dedicated node exporting a PVFS2
  client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.system import DirectPnfsSystem
from repro.cluster.testbed import (
    GATEWAY_READ_PER_BYTE_3TIER,
    GATEWAY_WRITE_PER_BYTE,
    GIGE,
    LOOPBACK_COPY_PER_BYTE,
    Testbed,
    default_nfs_config,
    default_pvfs2_config,
)
from repro.nfs.client import Nfs4Client
from repro.nfs.server import Nfs4Server
from repro.pnfs.client import PnfsClient
from repro.pnfs.providers import SyntheticFileLayoutProvider
from repro.pnfs.server import PnfsMetadataServer
from repro.pvfs2.system import Pvfs2System
from repro.sim.node import Node

__all__ = ["ARCHITECTURES", "Deployment", "make_deployment"]

MB = 1024 * 1024


@dataclass
class Deployment:
    """A running architecture plus the handles the harness needs."""

    label: str
    testbed: Testbed
    make_client: Callable[[Node], object]
    pvfs: Pvfs2System
    servers: list = field(default_factory=list)


def _configs(nfs_overrides: dict | None, pvfs_overrides: dict | None):
    nfs_cfg = default_nfs_config(**(nfs_overrides or {}))
    pvfs_cfg = default_pvfs2_config(**(pvfs_overrides or {}))
    return nfs_cfg, pvfs_cfg


def build_direct_pnfs(tb: Testbed, nfs_overrides=None, pvfs_overrides=None) -> Deployment:
    nfs_cfg, pvfs_cfg = _configs(nfs_overrides, pvfs_overrides)
    pvfs = Pvfs2System(tb.sim, tb.storage_nodes, pvfs_cfg)
    system = DirectPnfsSystem(
        tb.sim, pvfs, nfs_cfg, loopback_copy_per_byte=LOOPBACK_COPY_PER_BYTE
    )
    return Deployment(
        label="direct-pnfs",
        testbed=tb,
        make_client=system.make_client,
        pvfs=pvfs,
        servers=system.data_servers + [system.mds],
    )


def build_pvfs2(tb: Testbed, nfs_overrides=None, pvfs_overrides=None) -> Deployment:
    _nfs_cfg, pvfs_cfg = _configs(nfs_overrides, pvfs_overrides)
    pvfs = Pvfs2System(tb.sim, tb.storage_nodes, pvfs_cfg)
    return Deployment(
        label="pvfs2",
        testbed=tb,
        make_client=lambda node: pvfs.make_client(node),
        pvfs=pvfs,
        servers=pvfs.daemons + [pvfs.mds],
    )


def build_pnfs_2tier(
    tb: Testbed, nfs_overrides=None, pvfs_overrides=None, stripe_unit: int = 1 * MB
) -> Deployment:
    nfs_cfg, pvfs_cfg = _configs(nfs_overrides, pvfs_overrides)
    pvfs = Pvfs2System(tb.sim, tb.storage_nodes, pvfs_cfg)
    # Data servers sit on the storage nodes but reach data through FULL
    # parallel-FS clients: a request for a byte range is satisfied
    # wherever PVFS2 put it — mostly on peer nodes.
    data_servers = [
        Nfs4Server(
            tb.sim,
            node,
            pvfs.make_client(node),
            nfs_cfg,
            name=f"{node.name}.2tier-ds",
            loopback_copy_per_byte=LOOPBACK_COPY_PER_BYTE,
            extra_write_per_byte=GATEWAY_WRITE_PER_BYTE,
        )
        for node in tb.storage_nodes
    ]
    # Synthetic layout with a 1 MB stripe: a deliberate block-size
    # mismatch against PVFS2's 2 MB stripes (§3.4.1) — on average only
    # 1/6 of the bytes a data server serves are local to it.
    # (``stripe_unit`` is overridable for the locality ablation.)
    provider = SyntheticFileLayoutProvider(len(data_servers), stripe_unit=stripe_unit)
    mds = PnfsMetadataServer(
        tb.sim,
        pvfs.mds_node,
        pvfs.make_client(pvfs.mds_node),
        nfs_cfg,
        data_servers,
        provider,
        name=f"{pvfs.mds_node.name}.2tier-mds",
    )

    def make_client(node: Node):
        client = PnfsClient(tb.sim, node, mds, nfs_cfg)
        client.label = "pnfs-2tier"
        return client

    return Deployment(
        label="pnfs-2tier",
        testbed=tb,
        make_client=make_client,
        pvfs=pvfs,
        servers=data_servers + [mds],
    )


def build_pnfs_3tier(tb: Testbed, nfs_overrides=None, pvfs_overrides=None) -> Deployment:
    if len(tb.diskless_server_nodes) != 3 or len(tb.storage_nodes) != 3:
        raise ValueError(
            "pnfs-3tier needs a testbed built with server_disks=(0,0,0,2,2,2)"
        )
    nfs_cfg, pvfs_cfg = _configs(nfs_overrides, pvfs_overrides)
    pvfs = Pvfs2System(tb.sim, tb.storage_nodes, pvfs_cfg)
    data_servers = [
        Nfs4Server(
            tb.sim,
            node,
            pvfs.make_client(node),
            nfs_cfg,
            name=f"{node.name}.3tier-ds",
            extra_read_per_byte=GATEWAY_READ_PER_BYTE_3TIER,
            extra_write_per_byte=GATEWAY_WRITE_PER_BYTE,
        )
        for node in tb.diskless_server_nodes
    ]
    provider = SyntheticFileLayoutProvider(len(data_servers), stripe_unit=2 * MB)
    mds = PnfsMetadataServer(
        tb.sim,
        tb.diskless_server_nodes[0],
        pvfs.make_client(tb.diskless_server_nodes[0]),
        nfs_cfg,
        data_servers,
        provider,
        name="3tier-mds",
    )

    def make_client(node: Node):
        client = PnfsClient(tb.sim, node, mds, nfs_cfg)
        client.label = "pnfs-3tier"
        return client

    return Deployment(
        label="pnfs-3tier",
        testbed=tb,
        make_client=make_client,
        pvfs=pvfs,
        servers=data_servers + [mds],
    )


def build_nfsv4(tb: Testbed, nfs_overrides=None, pvfs_overrides=None) -> Deployment:
    nfs_cfg, pvfs_cfg = _configs(nfs_overrides, pvfs_overrides)
    pvfs = Pvfs2System(tb.sim, tb.storage_nodes, pvfs_cfg)
    server = Nfs4Server(
        tb.sim,
        tb.extra_node,
        pvfs.make_client(tb.extra_node),
        nfs_cfg,
        name="nfsv4-server",
        extra_write_per_byte=GATEWAY_WRITE_PER_BYTE,
    )

    def make_client(node: Node):
        client = Nfs4Client(tb.sim, node, server, nfs_cfg)
        client.label = "nfsv4"
        return client

    return Deployment(
        label="nfsv4",
        testbed=tb,
        make_client=make_client,
        pvfs=pvfs,
        servers=[server],
    )


def build_direct_pnfs_sharded(
    tb: Testbed, nfs_overrides=None, pvfs_overrides=None, n_meta: int = 2
) -> Deployment:
    """Extension architecture: Direct-pNFS with ``n_meta`` hash-
    partitioned metadata servers (see :mod:`repro.core.multi_mds`)."""
    from repro.core.multi_mds import ShardedDirectPnfs, ShardedPvfs2System

    nfs_cfg, pvfs_cfg = _configs(nfs_overrides, pvfs_overrides)
    pvfs = ShardedPvfs2System(tb.sim, tb.storage_nodes, pvfs_cfg, n_meta=n_meta)
    system = ShardedDirectPnfs(tb.sim, pvfs, nfs_cfg)
    return Deployment(
        label="direct-pnfs-sharded",
        testbed=tb,
        make_client=system.make_client,
        pvfs=pvfs,
        servers=system.data_servers + system.mds_list,
    )


ARCHITECTURES: dict[str, Callable] = {
    "direct-pnfs": build_direct_pnfs,
    "pvfs2": build_pvfs2,
    "pnfs-2tier": build_pnfs_2tier,
    "pnfs-3tier": build_pnfs_3tier,
    "nfsv4": build_nfsv4,
    "direct-pnfs-sharded": build_direct_pnfs_sharded,
}


def make_deployment(
    arch: str,
    n_clients: int = 8,
    net_bw: float = GIGE,
    nfs_overrides: dict | None = None,
    pvfs_overrides: dict | None = None,
    seed: int | None = None,
) -> Deployment:
    """Build the named architecture on a fresh testbed.

    ``seed`` initialises the testbed's simulator (identical-seed
    deployments replay identically).
    """
    try:
        builder = ARCHITECTURES[arch]
    except KeyError:
        raise ValueError(
            f"unknown architecture {arch!r}; choose from {sorted(ARCHITECTURES)}"
        ) from None
    disks = (0, 0, 0, 2, 2, 2) if arch == "pnfs-3tier" else (1, 1, 1, 1, 1, 1)
    tb = Testbed(
        n_clients=n_clients,
        net_bw=net_bw,
        server_disks=disks,
        seed=seed,
    )
    return builder(tb, nfs_overrides=nfs_overrides, pvfs_overrides=pvfs_overrides)
