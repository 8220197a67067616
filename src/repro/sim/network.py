"""Cluster network model: NICs, a non-blocking switch, chunked flows.

Every node owns a :class:`Nic` with independent transmit and receive
pipes (full-duplex Ethernet).  A transfer is carved into fixed-size
chunks; each chunk holds the sender's tx pipe, is buffered at the
switch, then holds the receiver's rx pipe, with a small per-flow window
keeping tx/rx pipelined.  Concurrent flows therefore share a pipe by
interleaving their chunks, which is how concurrent clients share a
gigabit link in the paper's testbed.

Invariants:

* an uncontended flow achieves the full link bandwidth (no
  store-and-forward halving beyond the one-chunk tail),
* concurrent flows through one pipe share it fairly, by FIFO /
  seeded-random chunk interleaving,
* byte counters are payload-only (framing costs wire time but never
  lands in ``tx_bytes``/``rx_bytes``; loopback is tallied separately),
* a flow lost to a fault (down NIC, drop coin) is lost at transfer
  start and never completes; only a sender-side timeout notices it.

The switch is modelled as non-blocking (a 16-port gigabit switch has a
backplane far exceeding the sum of its ports), so contention arises
only at NICs — matching the paper's testbed.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource

__all__ = ["Nic", "Network", "Flow"]

#: Default chunk size used to discretise flows (bytes).  Chosen close to
#: a jumbo-frame TCP window slice: small enough for fair interleaving,
#: large enough to keep the event count manageable.
DEFAULT_CHUNK = 256 * 1024

#: Per-flow switch-buffer window, in chunks: how far a flow's tx legs
#: may run ahead of its rx legs.
FLOW_WINDOW = 3


class Nic:
    """A full-duplex network interface with independent tx/rx pipes."""

    def __init__(self, sim: Simulator, name: str, bandwidth: float):
        """``bandwidth`` is in bytes/second, applied to each direction."""
        if bandwidth <= 0:
            raise ValueError("NIC bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.tx = Resource(sim, 1, name=f"{name}.tx", policy="random")
        self.rx = Resource(sim, 1, name=f"{name}.rx", policy="random")
        #: Payload bytes sent/received over the wire.  Framing overhead
        #: (``Network.per_message_bytes``) is charged for *time* on the
        #: pipes but excluded here, so these counters compare directly
        #: against application-level byte counts.  Loopback transfers
        #: never touch the wire and are tallied in ``loopback_bytes``.
        self.tx_bytes = 0
        self.rx_bytes = 0
        #: Payload bytes moved through loopback (src == dst) transfers.
        self.loopback_bytes = 0
        #: Fault-injection state (see :mod:`repro.sim.faults`).  A down
        #: NIC loses every flow that starts through it; ``drop_prob``
        #: loses a random fraction; ``extra_latency`` is added to the
        #: one-way latency of flows through this NIC.  Lost flows never
        #: complete — only sender-side timeouts (the RPC retry layer)
        #: notice them, exactly as on a real network.
        self.down = False
        self.drop_prob = 0.0
        self.extra_latency = 0.0
        #: Flows lost at the start of a transfer (down NIC or drop coin).
        self.flows_dropped = 0

    def counters(self) -> dict:
        """Snapshot of this NIC's cumulative counters (observability)."""
        return {
            "tx_bytes": self.tx_bytes,
            "rx_bytes": self.rx_bytes,
            "loopback_bytes": self.loopback_bytes,
            "flows_dropped": self.flows_dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Nic {self.name} {self.bandwidth/1e6:.0f} MB/s>"


class Flow:
    """Bookkeeping record for one transfer (returned for inspection)."""

    __slots__ = ("src", "dst", "nbytes", "start", "end")

    def __init__(self, src: str, dst: str, nbytes: int, start: float):
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.start = start
        self.end: Optional[float] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise RuntimeError("flow still in progress")
        return self.end - self.start


class Network:
    """Registry of NICs plus the transfer primitive.

    ``latency`` is the one-way message latency (propagation + switch +
    interrupt handling), charged once per transfer.  ``per_message_bytes``
    models framing/RPC header overhead added to every transfer.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float = 60e-6,
        chunk_bytes: int = DEFAULT_CHUNK,
        per_message_bytes: int = 120,
    ):
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        self.sim = sim
        self.latency = latency
        self.chunk_bytes = chunk_bytes
        self.per_message_bytes = per_message_bytes
        self._nics: dict[str, Nic] = {}
        #: Cached bound method: the per-flow drop check sits on the hot
        #: path of every transfer and attribute-chasing ``sim.rng.random``
        #: each time is measurable at millions of flows.
        self._rng_random = sim.rng.random
        self.flows_completed = 0
        #: Completed wire transfers (loopback excluded).
        self.flows_chunked = 0

    #: Always zero; kept for ``perfbench/layers.py``, its only reader.
    flows_fluid = 0

    def add_nic(self, name: str, bandwidth: float) -> Nic:
        """Register a NIC for node ``name`` (bytes/second per direction)."""
        if name in self._nics:
            raise ValueError(f"duplicate NIC for node {name!r}")
        nic = Nic(self.sim, name, bandwidth)
        self._nics[name] = nic
        return nic

    def nic(self, name: str) -> Nic:
        """Look up the NIC registered for ``name``."""
        try:
            return self._nics[name]
        except KeyError:
            raise KeyError(f"no NIC registered for node {name!r}") from None

    def _stranded(self):
        """Park the calling transfer forever: a flow lost on the wire.

        The yielded event never fires; only an interrupt (an RPC retry
        timer unwinding the waiter) ever leaves this generator.  If the
        event is somehow succeeded, the assertion makes the bug loud
        instead of letting the transfer fall through into the live
        latency/byte-moving code below it.
        """
        yield Event(self.sim)
        raise AssertionError("stranded flow must never resume")

    def transfer(self, src: str, dst: str, nbytes: int):
        """Process generator moving ``nbytes`` from ``src`` to ``dst``.

        Yields until the last byte has been received.  Loopback
        transfers (src == dst) skip the wire entirely; the memory-copy
        cost of loopback is charged by the caller as CPU time, which is
        how the Direct-pNFS prototype's loopback conduit is modelled.

        Every completed transfer counts one ``flows_completed``;
        ``nbytes`` of *payload* lands in the NIC's ``tx_bytes``/
        ``rx_bytes`` for wire transfers and in ``loopback_bytes`` for
        loopback ones.  The ``per_message_bytes`` framing overhead
        occupies pipe time (it slows the wire) but is deliberately
        excluded from all byte counters, so they stay comparable with
        application-level accounting.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        flow = Flow(src, dst, nbytes, self.sim.now)
        if src == dst:
            lnic = self._nics.get(src)
            if lnic is not None:
                lnic.loopback_bytes += nbytes
            flow.end = self.sim.now
            self.flows_completed += 1
            return flow

        snic = self.nic(src)
        dnic = self.nic(dst)
        dropped = snic.down or dnic.down
        for nic in (snic, dnic):
            if not dropped and nic.drop_prob > 0.0:
                dropped = float(self._rng_random()) < nic.drop_prob
        if dropped:
            # The flow vanishes on the wire: it never completes, and no
            # error surfaces here — a waiting process hangs until an
            # RPC timeout (repro.rpc) interrupts it.
            snic.flows_dropped += 1
            yield from self._stranded()

        latency = self.latency + snic.extra_latency + dnic.extra_latency
        if latency > 0:
            yield self.sim.timeout(latency)

        yield from self._chunked_leg(snic, dnic, nbytes + self.per_message_bytes)
        self.flows_chunked += 1

        snic.tx_bytes += nbytes
        dnic.rx_bytes += nbytes
        flow.end = self.sim.now
        self.flows_completed += 1
        return flow

    def _chunked_leg(self, snic: Nic, dnic: Nic, wire_bytes: int):
        """Store-and-forward through the switch with a small per-flow
        window: a chunk occupies the sender's tx pipe, is buffered at
        the switch, then occupies the receiver's rx pipe.  Decoupling
        the pipes avoids head-of-line blocking (a busy receiver must
        not freeze the sender's NIC for other flows); the window
        bounds switch buffering per flow and keeps tx/rx pipelined so
        an uncontended flow still sees the full link bandwidth.
        """

        def rx_leg(chunk_bytes: int):
            yield dnic.rx.acquire()
            try:
                yield self.sim.timeout(chunk_bytes / dnic.bandwidth)
            finally:
                dnic.rx.release()

        rx_procs: deque = deque()
        remaining = wire_bytes
        while remaining > 0:
            chunk = min(remaining, self.chunk_bytes)
            yield snic.tx.acquire()
            try:
                yield self.sim.timeout(chunk / snic.bandwidth)
            finally:
                snic.tx.release()
            rx_procs.append(self.sim.process(rx_leg(chunk)))
            if len(rx_procs) > FLOW_WINDOW:
                oldest = rx_procs.popleft()
                if oldest.is_alive:
                    yield oldest
            remaining -= chunk
        live = [p for p in rx_procs if p.is_alive]
        if live:
            yield self.sim.all_of(live)
