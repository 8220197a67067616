"""The benchmark's workloads: fixed job lists built from a seed.

A *job* is one figure cell (``repro.bench.runner.run_cell``) or one
torture episode (``repro.check.runner.run_episode``).  Running a job
returns an :class:`Outcome` whose ``digest`` hashes only simulated
content, so the same job must give the same digest on every pass,
traced or not.  Building the job list is set-up; running it is the
measured work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: The seed used when none is given.  It is the workloads' own default
#: seed, so the default run reproduces the figure cells as published.
DEFAULT_SEED = 20070625

FIGURE_CLIENTS = 8  # where the paper's curves flatten under contention
ALL_FIVE = ["direct-pnfs", "pvfs2", "pnfs-2tier", "pnfs-3tier", "nfsv4"]

#: Torture programs are drawn from one fixed shape so every seed gives
#: about the same amount of work: 3 clients x 10 ops, 8 KB chunks, 3
#: shared slots per client, 2-chunk private files.  The seed picks which
#: programs of that shape run.
TORTURE_CLIENTS = 3
TORTURE_OPS = 10
TORTURE_CHUNK = 8 * 1024
TORTURE_SLOTS = 3
TORTURE_PRIVATE_CHUNKS = 2
TORTURE_SEED_STRIDE = 1000  # seed n scans torture seeds n*1000, n*1000+1, ...
#: Fault windows longer than this outlast the torture config's RPC retry
#: budget (about 3.75 s), so the RPCs they hit fail for good instead of
#: being retransmitted.  The generator draws such outages 30% of the
#: time (4-8 s; the rest are 0.05-0.45 s).  At present they can crash
#: an episode: on nfsv4, a readahead fetch nobody waits for exhausts its
#: retries and its RpcTimeout escapes ``sim.run`` (torture program
#: 1222328495040), or a reader sees a byte no write produced (program
#: 1368426741016, read-oracle violation).  A benchmark job must not
#: fail, so these outages are dropped; shorter faults, which
#: retransmission must survive, are kept.
RETRY_BUDGET_S = 3.75


@dataclass
class Outcome:
    """What one job computed: a digest of simulated content, and why it
    failed (``None`` when it did not)."""

    digest: str
    failure: str | None = None
    #: Figure cells: (simulated value, paper value or None).
    value: tuple[float, float | None] | None = None
    #: Torture episodes: oracle violations found.
    violations: int = 0


@dataclass
class Job:
    label: str
    run: Callable[[], Outcome]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    #: Nominal host seconds of one pass on a 2-core container; fixes how
    #: many passes a run makes, so a run's sample count never depends on
    #: how fast the host happens to be.
    pass_s: float
    #: Minimum passes per run.  Figure workloads need every job sampled
    #: at least 11 times, so the tail percentile (10 samples beyond it)
    #: always lands on the slowest job's samples.
    min_passes: int


def _figure_job(exp_id: str, arch: str, scale: float, seed: int) -> Job:
    from repro.bench.experiments import EXPERIMENTS
    from repro.bench.paper_data import PAPER
    from repro.bench.report import result_hash
    from repro.bench.runner import run_cell

    exp = EXPERIMENTS[exp_id]
    paper = PAPER.get(exp_id, {}).get(arch, {}).get(FIGURE_CLIENTS)

    def run() -> Outcome:
        workload = exp.workload(scale * exp.scale_factor)
        workload.seed = seed
        r = run_cell(
            arch,
            workload,
            FIGURE_CLIENTS,
            net_bw=exp.net_bw,
            nfs_overrides=exp.nfs_overrides or None,
            pvfs_overrides=exp.pvfs_overrides or None,
        )
        value = exp.value_of(r)
        # The same deterministic cell content ``experiment_report`` hashes.
        cell = {
            "system": arch,
            "n_clients": FIGURE_CLIENTS,
            "value": value,
            "makespan": r.makespan,
            "total_bytes": r.total_bytes,
            "events_processed": int(r.engine.get("events_processed", 0)),
        }
        return Outcome(result_hash(cell), None, (value, paper))

    return Job(f"{exp_id}/{arch}", run)


def _torture_programs(seed: int, count: int) -> list:
    """The first ``count`` programs of the fixed shape at or after
    torture seed ``seed * TORTURE_SEED_STRIDE``, less their faults that
    outlast the RPC retry budget."""
    from repro.check.program import generate

    programs = []
    candidate = seed * TORTURE_SEED_STRIDE
    while len(programs) < count:
        p = generate(
            candidate,
            n_clients=TORTURE_CLIENTS,
            ops_per_client=TORTURE_OPS,
            metadata_ops=True,
        )
        candidate += 1
        if (
            p.chunk == TORTURE_CHUNK
            and p.shared_size == TORTURE_CHUNK * TORTURE_CLIENTS * TORTURE_SLOTS
            and p.private_size == TORTURE_CHUNK * TORTURE_PRIVATE_CHUNKS
        ):
            long_outages = {i for i, f in enumerate(p.faults) if f.duration > RETRY_BUDGET_S}
            programs.append(p.without(drop_faults=long_outages))
    return programs


def _torture_job(program, arch: str) -> Job:
    from repro.check.runner import run_episode

    def run() -> Outcome:
        res = run_episode(program, arch)
        failure = None
        if res.violations:
            failure = f"{len(res.violations)} violations: {res.violations[0]}"
        return Outcome(res.trace_hash, failure, violations=len(res.violations))

    return Job(f"torture/{program.seed}/{arch}", run)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Job list of workload ``name`` for ``seed``.

    ``tiny`` shrinks every job to a smoke-test size (the self-test).
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    w = _build(name, seed, tiny)
    if tiny:
        w.min_passes = 2
    return w


def _build(name: str, seed: int, tiny: bool) -> Workload:
    if name == "ior-large-write":
        scale = 0.005 if tiny else 0.04
        jobs = [_figure_job("fig6a", a, scale, seed) for a in ALL_FIVE]
        return Workload(name, jobs, pass_s=1.4, min_passes=11)
    if name == "ior-small-read":
        scale = 0.001 if tiny else 0.006
        jobs = [_figure_job("fig7c", a, scale, seed) for a in ALL_FIVE]
        return Workload(name, jobs, pass_s=1.4, min_passes=11)
    if name == "oltp-fsync":
        scale = 0.0005 if tiny else 0.003
        jobs = [_figure_job("fig8c", a, scale, seed) for a in ["direct-pnfs", "pvfs2"]]
        return Workload(name, jobs, pass_s=1.6, min_passes=11)
    if name == "torture-md":
        programs = _torture_programs(seed, 1 if tiny else 4)
        jobs = [_torture_job(p, a) for p in programs for a in ALL_FIVE]
        return Workload(name, jobs, pass_s=5.8, min_passes=1)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ["ior-large-write", "ior-small-read", "oltp-fsync", "torture-md"]
