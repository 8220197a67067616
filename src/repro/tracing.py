"""RPC tracing: capture every call on the simulated wire and analyse it.

Performance debugging in this repository is about *which RPCs went
where and how long they took*.  Install a tracer around any simulated
activity::

    from repro.tracing import RpcTracer

    with RpcTracer() as tracer:
        sim.run(until=proc)
    print(tracer.summary())

Records carry (start, end, client node, server name, procedure, request
payload bytes, reply payload bytes, error flag) plus the failure-path
annotations added with the fault layer: ``retries`` (how many
retransmissions preceded this exchange) and ``timeout`` (the call gave
up after exhausting its retry budget — no reply was ever received).
The analysis helpers aggregate by procedure and by server — enough to
answer "why is this workload slow" without reading event logs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import EngineStats
from repro.sim.stats import nearest_rank

__all__ = [
    "EngineStats",
    "RpcRecord",
    "RpcTracer",
    "current_tracer",
    "engine_summary",
    "nearest_rank",
]

_ACTIVE: Optional["RpcTracer"] = None


def current_tracer() -> Optional["RpcTracer"]:
    """The installed tracer, if any (used by :mod:`repro.rpc`)."""
    return _ACTIVE


def engine_summary(stats: EngineStats) -> str:
    """One-line human summary of an :class:`EngineStats` snapshot.

    Pairs with :meth:`RpcTracer.summary` in benchmark reports: the RPC
    table says where simulated time went, this line says what the
    simulation *cost* to run.
    """
    rate = (
        stats.events_processed / stats.wall_seconds
        if stats.wall_seconds > 0
        else float("inf")
    )
    return (
        f"engine: {stats.events_scheduled} scheduled "
        f"({stats.fast_lane_events} fast-lane / {stats.heap_events} heap), "
        f"{stats.events_processed} processed "
        f"(peak heap {stats.peak_heap}) in {stats.wall_seconds:.3f}s wall "
        f"({rate:,.0f} ev/s)"
    )


@dataclass(frozen=True)
class RpcRecord:
    """One completed RPC exchange (or a final, given-up timeout)."""

    start: float
    end: float
    client: str
    server: str
    proc: str
    req_bytes: int
    reply_bytes: int
    error: bool
    #: Retransmissions that preceded this exchange (0 = first try).
    retries: int = 0
    #: True when the call exhausted its retry budget and raised
    #: :class:`~repro.rpc.RpcTimeout`; no reply was received.
    timeout: bool = False

    @property
    def latency(self) -> float:
        return self.end - self.start


class RpcTracer:
    """Context manager collecting :class:`RpcRecord` entries."""

    def __init__(self):
        self.records: list[RpcRecord] = []

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "RpcTracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("an RpcTracer is already installed")
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None

    def record(self, record: RpcRecord) -> None:
        self.records.append(record)

    # -- analysis -------------------------------------------------------------
    def by_proc(self) -> dict[str, list[RpcRecord]]:
        out: dict[str, list[RpcRecord]] = defaultdict(list)
        for r in self.records:
            out[r.proc].append(r)
        return dict(out)

    def by_server(self) -> dict[str, list[RpcRecord]]:
        out: dict[str, list[RpcRecord]] = defaultdict(list)
        for r in self.records:
            out[r.server].append(r)
        return dict(out)

    def total_payload_bytes(self) -> int:
        return sum(r.req_bytes + r.reply_bytes for r in self.records)

    def server_counters(self) -> dict[str, dict[str, int]]:
        """Per-server failure accounting: errors, timeouts, retries.

        ``errors`` counts completed exchanges whose reply carried an
        error status; ``timeouts`` counts calls that gave up without a
        reply; ``retries`` sums retransmissions across all records.
        """
        out: dict[str, dict[str, int]] = {}
        for r in self.records:
            c = out.setdefault(
                r.server, {"calls": 0, "errors": 0, "timeouts": 0, "retries": 0}
            )
            c["calls"] += 1
            if r.timeout:
                c["timeouts"] += 1
            elif r.error:
                c["errors"] += 1
            c["retries"] += r.retries
        return out

    def summary(self) -> str:
        """Per-procedure table: count, latency, volume, failure counts.

        The ``errors`` column counts every call that did not return a
        successful reply — error replies *and* timed-out calls.
        """
        lines = [
            f"{'procedure':>16} {'calls':>7} {'mean ms':>9} {'p95 ms':>9} "
            f"{'MB moved':>9} {'errors':>7} {'retries':>8}"
        ]
        for proc, records in sorted(self.by_proc().items()):
            lat = sorted(r.latency for r in records)
            mean = sum(lat) / len(lat)
            p95 = nearest_rank(lat, 0.95)
            volume = sum(r.req_bytes + r.reply_bytes for r in records) / 1e6
            errors = sum(1 for r in records if r.error or r.timeout)
            retries = sum(r.retries for r in records)
            lines.append(
                f"{proc:>16} {len(records):>7} {mean * 1e3:>9.2f} "
                f"{p95 * 1e3:>9.2f} {volume:>9.1f} {errors:>7} {retries:>8}"
            )
        return "\n".join(lines)
