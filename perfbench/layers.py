"""Per-layer measurement from outside the program.

Nothing under ``src/`` knows it is being measured.  During a traced
pass a :class:`LayerTracer`

* runs each job under ``cProfile`` and groups self time by
  ``repro.<package>.<module>`` (time in C functions is charged to the
  Python module that called them);
* wraps a few public entry points: ``RpcServer`` construction (to find
  every RPC server and its owner), ``make_deployment`` (host time to
  build a cluster, and the handle to read its counters), the clients a
  deployment hands out (operations issued), PVFS2 client I/O (RPCs per
  operation) and ``check.model.Model`` construction;
* reads the counters components already keep, after each job.

Every patch is undone by :meth:`LayerTracer.uninstall`.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from collections import Counter
from pathlib import Path

#: Layers reported by self time, most specific first.  A module belongs
#: to the first layer that equals it or is a package containing it.
LAYERS = [
    "sim.engine",
    "sim.resources",
    "sim.network",
    "sim.disk",
    "sim.cpu",
    "rpc",
    "nfs.client",
    "nfs.intervals",
    "nfs.server",
    "pnfs",
    "core",
    "pvfs2.client",
    "pvfs2.storage",
    "pvfs2.metadata",
    "vfs",
    "check.program",
    "check.model",
    "check.runner",
    "workloads",
]
#: Buckets for everything else: other ``repro`` modules, the benchmark's
#: own hooks, and the standard library / numpy.
REST, BENCH, OTHER = "rest", "bench", "other"

#: RPC server owner class -> label used in ``rpc.calls.<label>``.
SERVER_LABELS = {
    "StorageDaemon": "pvfs2d",
    "MetadataServer": "pvfs2-mds",
    "PnfsMetadataServer": "pnfs-mds",
    "Nfs4Server": "nfs4",  # pNFS data servers and the plain NFSv4 server
    "Nfs4Client": "callback",
    "PnfsClient": "callback",
}

#: File-system client operations counted as ``vfs.ops``.
CLIENT_OPS = (
    "mount", "create", "open", "open_by_handle", "read", "write", "fsync",
    "close", "getattr", "getattr_handle", "setattr", "mkdir", "readdir",
    "remove", "rename", "truncate", "lock", "unlock", "test_lock",
)


def layer_of(module: str) -> str:
    for layer in LAYERS:
        if module == layer or module.startswith(layer + "."):
            return layer
    return REST


class LayerTracer:
    """Hooks, profiler and counters for traced passes."""

    def __init__(self, src_root: Path, bench_root: Path):
        self._src = str(src_root / "repro") + "/"
        self._bench = str(bench_root) + "/"
        self._patches: list[tuple[object, str, object]] = []
        self._module_cache: dict[str, str] = {}
        self.reset()

    # -- per-pass state ----------------------------------------------------
    def reset(self) -> None:
        """Start a new pass: zero the counters, fresh profiler."""
        self.profile = cProfile.Profile()
        self.counts: Counter = Counter()
        self.timers: Counter = Counter()
        self._deps: list = []
        self._servers: list = []
        self._clients: list = []
        self._models: list = []

    def run(self, job):
        """Run ``job`` profiled; returns its outcome."""
        self.profile.enable()
        try:
            return job.run()
        finally:
            self.profile.disable()
            self._harvest()

    # -- hooks -------------------------------------------------------------
    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        import repro.bench.runner
        import repro.check.model
        import repro.check.runner
        import repro.pvfs2.client
        import repro.rpc

        tracer = self
        server_init = repro.rpc.RpcServer.__init__

        def rpc_server_init(server, *args, **kwargs):
            server_init(server, *args, **kwargs)
            owner = sys._getframe(1).f_locals.get("self")
            name = type(owner).__name__
            tracer._servers.append((SERVER_LABELS.get(name, name), server))

        self._patch(repro.rpc.RpcServer, "__init__", rpc_server_init)

        for module in (repro.bench.runner, repro.check.runner):
            self._patch(module, "make_deployment", self._deploy_hook(module.make_deployment))

        pvfs = repro.pvfs2.client.Pvfs2Client
        self._patch(pvfs, "_unit_io", self._counting(pvfs._unit_io, "pvfs2.client.rpcs"))
        for op in ("read", "write"):
            self._patch(pvfs, op, self._counting(getattr(pvfs, op), "pvfs2.client.ops"))

        model_init = repro.check.model.Model.__init__

        def model_hook(model, *args, **kwargs):
            t0 = time.perf_counter()
            model_init(model, *args, **kwargs)
            tracer.timers["check.model.build_s"] += time.perf_counter() - t0
            tracer._models.append(model)

        self._patch(repro.check.model.Model, "__init__", model_hook)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)

    def _counting(self, fn, key: str):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _deploy_hook(self, make_deployment):
        tracer = self

        def timed_make_deployment(*args, **kwargs):
            t0 = time.perf_counter()
            dep = make_deployment(*args, **kwargs)
            tracer.timers["cluster.deploy_s"] += time.perf_counter() - t0
            tracer._deps.append(dep)
            make_client = dep.make_client

            def counted_make_client(node):
                client = make_client(node)
                for op in CLIENT_OPS:
                    if hasattr(client, op):
                        setattr(client, op, tracer._counting(getattr(client, op), "vfs.ops"))
                tracer._clients.append(client)
                return client

            dep.make_client = counted_make_client
            return dep

        return timed_make_deployment

    # -- counters ----------------------------------------------------------
    def _harvest(self) -> None:
        """Add the finished job's component counters to the pass."""
        c = self.counts
        for dep in self._deps:
            tb = dep.testbed
            c["sim.engine.events"] += tb.sim.stats.events_processed
            c["sim.engine.heap_events"] += tb.sim.stats.heap_events
            c["sim.network.flows"] += tb.network.flows_chunked + tb.network.flows_fluid
            for node in tb.server_nodes + tb.client_nodes + [tb.extra_node]:
                c["sim.network.bytes"] += node.nic.tx_bytes
                c["sim.cpu.busy_sim_s"] += node.cpu.busy_time
                for disk in node.disks:
                    c["sim.disk.requests"] += disk.requests
                    c["sim.disk.busy_sim_s"] += disk.busy_time
        for label, server in self._servers:
            c["rpc.calls"] += server.calls_served
            c[f"rpc.calls.{label}"] += server.calls_served
            c["rpc.retransmissions"] += server.retransmissions
            c["rpc.client_timeouts"] += server.client_timeouts
        for client in self._clients:
            for attr in (
                "cache_hit_bytes",
                "cache_miss_bytes",
                "readahead_issued_bytes",
                "readahead_used_bytes",
            ):
                c[f"nfs.client.{attr}"] += getattr(client, attr, 0)
        for model in self._models:
            c["check.model.bytes_checked"] += model.bytes_checked
        self._deps.clear()
        self._servers.clear()
        self._clients.clear()
        self._models.clear()

    # -- profile -----------------------------------------------------------
    def _module(self, filename: str) -> str:
        mod = self._module_cache.get(filename)
        if mod is None:
            if filename.startswith(self._src):
                rel = filename[len(self._src):].removesuffix(".py")
                mod = rel.removesuffix("/__init__").replace("/", ".")
            elif filename.startswith(self._bench):
                mod = BENCH
            else:
                mod = OTHER
            self._module_cache[filename] = mod
        return mod

    def self_time(self) -> Counter:
        """Host self seconds of this pass by layer (plus rest/bench/other)."""
        out: Counter = Counter()
        for (filename, _, _), (_, _, tt, _, callers) in pstats.Stats(self.profile).stats.items():
            if filename != "~":
                out[self._module(filename)] += tt
                continue
            # A C function: charge its self time to the modules calling it.
            charged = 0.0
            for caller, stat in callers.items():
                out[self._module(caller[0])] += stat[2]
                charged += stat[2]
            out[OTHER] += tt - charged
        by_layer: Counter = Counter()
        for module, seconds in out.items():
            key = module if module in (BENCH, OTHER) else layer_of(module)
            by_layer[key] += seconds
        return by_layer
