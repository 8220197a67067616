"""Perf smoke: the pinned large-transfer cell's throughput must not drift.

Runs one fixed cell — 8-client IOR write, 16 MB blocks, separate files,
NFSv4 — and fails if its aggregate throughput drifts > 5 % from the
checked-in baseline (``engine_perf_baseline.json``).  Simulated
throughput is deterministic for a fixed config, so this is a tight
regression tripwire on the network and protocol timing.

Why this config: NFSv4 moves every byte across the wire twice (client
-> server, then the server's parallel-FS client -> storage nodes) with
large 16 MB RPCs and flow units, so the cell's event bill is dominated
by per-chunk network events rather than per-RPC protocol events.

The config ignores the ``REPRO_*`` knobs so the baseline stays
comparable across runs and machines.  Results (throughput plus
``EngineStats`` and wall time) land in
``benchmarks/results/engine_perf.json`` for the CI artifact trail.
"""

import json
import pathlib

import pytest

from repro.bench.runner import run_cell
from repro.workloads import IorWorkload

MB = 1024 * 1024
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE = pathlib.Path(__file__).parent / "engine_perf_baseline.json"

#: Pinned config: large enough that per-chunk network events dominate,
#: small enough for CI.
SCALE = 0.2  # 100 MB per client
N_CLIENTS = 8
ARCH = "nfsv4"
BLOCK = 16 * MB

MAX_DRIFT = 0.05


def run_pinned_cell():
    workload = IorWorkload(
        op="write", block_size=BLOCK, shared_file=False, scale=SCALE
    )
    res = run_cell(
        ARCH,
        workload,
        N_CLIENTS,
        nfs_overrides={"wsize": BLOCK, "rsize": BLOCK},
        pvfs_overrides={"flow_unit": BLOCK, "stripe_size": BLOCK},
    )
    return {
        "aggregate_mbps": res.aggregate_mbps,
        "makespan": res.makespan,
        "total_bytes": res.total_bytes,
        **res.engine,
    }


def test_chunked_throughput_baseline():
    chunked = run_pinned_cell()
    report = {
        "config": {
            "arch": ARCH,
            "workload": "ior-write-16MB-separate",
            "n_clients": N_CLIENTS,
            "scale": SCALE,
        },
        "chunked": chunked,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "engine_perf.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(
        f"\n  chunked  {chunked['aggregate_mbps']:7.1f} MB/s  "
        f"{chunked['events_processed']:>9} events  "
        f"{chunked['wall_seconds']:.3f}s wall"
    )
    expect = json.loads(BASELINE.read_text())["chunked"]["aggregate_mbps"]
    assert chunked["aggregate_mbps"] == pytest.approx(expect, rel=MAX_DRIFT), (
        f"throughput drifted >5% from baseline "
        f"({chunked['aggregate_mbps']:.1f} vs {expect:.1f} MB/s)"
    )


def test_observability_is_pay_for_what_you_use():
    """The obs layer's contract: off means free, on means same physics.

    * With no registry or collector installed (the default — every run
      above), the instrumented code paths must not change the simulated
      outcome; the baseline-drift gate in the previous test guards
      that path.
    * With metrics + tracing on, the simulation must compute the exact
      same physics (makespan, bytes, throughput): observation reads the
      run, it never perturbs it.  Wall overhead must stay bounded.
    """
    import time

    from repro.obs import spans as obs_spans

    assert obs_spans.ACTIVE is None  # default-off really is off

    workload_kw = dict(op="write", block_size=4 * MB, shared_file=False, scale=0.05)

    def run(**obs_kw):
        t0 = time.perf_counter()
        res = run_cell(ARCH, IorWorkload(**workload_kw), 4, **obs_kw)
        return res, time.perf_counter() - t0

    plain, wall_off = run()
    observed, wall_on = run(metrics=True, trace=True)

    # Identical simulated physics, to the bit.
    assert observed.makespan == plain.makespan
    assert observed.total_bytes == plain.total_bytes
    # The only extra engine events allowed are the sampler's own ticks
    # (one timeout per sample); spans and gauges schedule nothing.
    extra_events = (
        observed.engine["events_processed"] - plain.engine["events_processed"]
    )
    n_samples = len(observed.metrics["series"]["t"])
    assert 0 <= extra_events <= n_samples + 2

    # The observed run actually captured something.
    assert observed.metrics["counters"]
    assert observed.metrics["bottleneck"]
    assert len(observed.metrics["series"]["t"]) >= 2
    assert observed.trace.spans

    # Collector is uninstalled again: later runs are back to zero-cost.
    assert obs_spans.ACTIVE is None

    ratio = wall_on / wall_off
    print(f"\n  obs overhead: {wall_off:.3f}s off, {wall_on:.3f}s on ({ratio:.2f}x)")
    # Generous bound (CI wall clocks are noisy); catches accidental
    # per-event work sneaking into the hot path, not micro-costs.
    assert ratio < 3.0, f"observability overhead {ratio:.1f}x (need < 3x)"


# ---------------------------------------------------------------------------
# Parallel experiment engine (repro.parallel): determinism, cache, speedup
# ---------------------------------------------------------------------------

import os
import time

PANEL = "fig7a"
PANEL_KW = dict(scale=0.05, client_counts=[1, 2, 4])
TORTURE_ARCHES = ["direct-pnfs", "pnfs-2tier"]
TORTURE_SEEDS = 20  # x2 arches = 40 episodes

CORES = os.cpu_count() or 1
#: Worker count for the parallel legs: up to 8 (the acceptance
#: criterion's core count), at least 2 so the pool path is always
#: exercised — even a 1-core CI runner must produce identical results.
PAR_JOBS = min(8, CORES) if CORES > 1 else 2


def _speedup_floor(serial_seconds: float, job_walls: list[float]) -> float:
    """Assertable speedup on this machine, with slack.

    Ideal speedup is bounded by the worker count, the core count, and
    the batch's critical path (no pool can beat serial-total divided by
    its longest single job).  Half of that bound is the slack that
    absorbs pool startup and scheduling noise; on >= 8 cores the
    torture batch's bound is 8, so the floor there is the >= 4x the
    acceptance criterion names.
    """
    longest = max(job_walls) if job_walls else serial_seconds
    ideal = min(PAR_JOBS, CORES, serial_seconds / max(longest, 1e-9))
    return 0.5 * ideal


def _small_io_cell():
    """One fig6d-style cell: IOR separate-file writes, 8 KB blocks.

    Small blocks maximise per-byte page-cache traffic, which is where
    the serial hot-path cuts (bisect interval ops, zero-copy reads)
    show up.
    """
    workload = IorWorkload(op="write", block_size=8192, scale=0.05)
    res = run_cell("direct-pnfs", workload, 2)
    return res.makespan, res.total_bytes


def _time_small_io_cell(repeats: int = 3):
    best = float("inf")
    physics = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        this = _small_io_cell()
        best = min(best, time.perf_counter() - t0)
        assert physics is None or physics == this
        physics = this
    return best, physics


def test_serial_small_io_cell_hot_path_cut():
    """The serial leg of the tentpole: zero-copy reads pay on small I/O.

    Times a fig6d-style 8 KB-block cell with the current zero-copy
    ``FileData.read`` and again with the pre-PR copying read
    reinstated, asserting identical physics and recording the ratio in
    ``BENCH_parallel.json`` (under ``serial_cell``; the engine test
    below merges its sections into the same file).  The wall assertion
    only guards against the zero-copy path being a regression — the
    recorded ratio is the measurement.
    """
    from repro.vfs.api import Payload
    from repro.vfs.filedata import FileData

    zero_copy_s, zero_copy_phys = _time_small_io_cell()

    orig = FileData.read

    def read_copying(self, offset, nbytes):
        p = orig(self, offset, nbytes)
        if p.is_synthetic:
            return p
        return Payload(p.data)  # force-materialise: the pre-PR copy

    FileData.read = read_copying
    try:
        copying_s, copying_phys = _time_small_io_cell()
    finally:
        FileData.read = orig

    assert zero_copy_phys == copying_phys, "zero-copy read changed the physics"
    ratio = copying_s / zero_copy_s
    section = {
        "cell": "direct-pnfs / ior-write-8k (fig6d-style) @ 2 clients",
        "zero_copy_seconds": zero_copy_s,
        "copying_read_seconds": copying_s,
        "speedup": ratio,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_parallel.json"
    report = json.loads(path.read_text()) if path.exists() else {}
    report["serial_cell"] = section
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(
        f"\n  small-I/O cell  {zero_copy_s:.2f}s zero-copy  "
        f"{copying_s:.2f}s copying read  ({ratio:.2f}x)"
    )
    # Slack for wall noise: the cut must at minimum not cost anything.
    assert ratio > 0.90, (
        f"zero-copy read slower than the copying read it replaced "
        f"({zero_copy_s:.2f}s vs {copying_s:.2f}s)"
    )


def test_parallel_engine_determinism_cache_and_speedup(tmp_path):
    """The tentpole gate: jobs=N is hash-identical to jobs=1 and pays off.

    * figure panel: the deterministic report (values, per-cell
      makespans/bytes/event counts) is byte-identical between serial
      and process-pool runs;
    * torture sweep: every episode trace hash matches serially;
    * cache: a second run of the unchanged panel completes in < 10% of
      the cold time;
    * speedup: asserted against a machine-aware floor (>= 4x on >= 8
      cores for the torture batch; recorded, not asserted, on boxes
      without real parallelism).

    Everything lands in ``benchmarks/results/BENCH_parallel.json``.
    """
    from repro.bench.experiments import run_experiment
    from repro.bench.report import canonical_json, experiment_report
    from repro.check.runner import sweep
    from repro.parallel import ResultCache

    # -- figure panel: serial vs parallel --------------------------------
    t0 = time.perf_counter()
    serial = run_experiment(PANEL, **PANEL_KW)
    panel_serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = run_experiment(PANEL, jobs=PAR_JOBS, **PANEL_KW)
    panel_par_s = time.perf_counter() - t0
    serial_report = canonical_json(experiment_report(serial))
    par_report = canonical_json(experiment_report(par))
    assert serial_report == par_report, (
        f"parallel panel diverged from serial (jobs={PAR_JOBS})"
    )

    # -- torture sweep: serial vs parallel trace hashes ------------------
    t0 = time.perf_counter()
    eps_serial = sweep(TORTURE_ARCHES, seeds=TORTURE_SEEDS)
    torture_serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    eps_par = sweep(TORTURE_ARCHES, seeds=TORTURE_SEEDS, jobs=PAR_JOBS)
    torture_par_s = time.perf_counter() - t0
    assert [e.trace_hash for e in eps_serial] == [
        e.trace_hash for e in eps_par
    ], "parallel torture episodes diverged from serial"
    assert all(e.ok for e in eps_serial)

    # -- content-addressed cache: warm run nearly free -------------------
    cache = ResultCache(tmp_path / "cache")
    t0 = time.perf_counter()
    cold = run_experiment(PANEL, cache=cache, **PANEL_KW)
    cold_s = time.perf_counter() - t0
    assert canonical_json(experiment_report(cold)) == serial_report
    warm_cache = ResultCache(tmp_path / "cache")
    t0 = time.perf_counter()
    warm = run_experiment(PANEL, cache=warm_cache, **PANEL_KW)
    warm_s = time.perf_counter() - t0
    assert canonical_json(experiment_report(warm)) == serial_report
    assert warm_cache.hits == len(serial.raw), "warm run missed the cache"
    assert warm_s < 0.10 * cold_s, (
        f"cached re-run took {warm_s:.2f}s vs {cold_s:.2f}s cold "
        f"(need < 10%)"
    )

    # -- wall-clock speedup, floor scaled to this machine ----------------
    panel_speedup = panel_serial_s / panel_par_s
    torture_speedup = torture_serial_s / torture_par_s
    panel_walls = [j["wall_seconds"] for j in par.parallel["per_job"]]
    panel_floor = _speedup_floor(panel_serial_s, panel_walls)
    # Episodes are near-uniform in cost, so the torture bound is just
    # the worker count — on >= 8 cores the floor is the criterion's 4x.
    torture_floor = 0.5 * min(PAR_JOBS, CORES)

    # Merge into BENCH_parallel.json rather than overwrite it: the
    # serial hot-path test above contributes its own section.
    out_path = RESULTS_DIR / "BENCH_parallel.json"
    report = json.loads(out_path.read_text()) if out_path.exists() else {}
    report |= {
        "cores": CORES,
        "jobs": PAR_JOBS,
        "panel": {
            "experiment": PANEL,
            "cells": len(serial.raw),
            "serial_seconds": panel_serial_s,
            "parallel_seconds": panel_par_s,
            "speedup": panel_speedup,
            "floor": panel_floor,
        },
        "torture": {
            "arches": TORTURE_ARCHES,
            "episodes": TORTURE_SEEDS * len(TORTURE_ARCHES),
            "serial_seconds": torture_serial_s,
            "parallel_seconds": torture_par_s,
            "speedup": torture_speedup,
            "floor": torture_floor,
        },
        "cache": {
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "hits": warm_cache.hits,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
    print()
    print(
        f"  panel   {panel_serial_s:5.1f}s serial  {panel_par_s:5.1f}s "
        f"x{PAR_JOBS} jobs  ({panel_speedup:.1f}x, floor {panel_floor:.1f}x)"
    )
    print(
        f"  torture {torture_serial_s:5.1f}s serial  {torture_par_s:5.1f}s "
        f"x{PAR_JOBS} jobs  ({torture_speedup:.1f}x, floor {torture_floor:.1f}x)"
    )
    print(f"  cache   {cold_s:5.1f}s cold    {warm_s:5.2f}s warm")

    if CORES >= 2:
        assert panel_speedup >= panel_floor, (
            f"panel speedup {panel_speedup:.2f}x below floor "
            f"{panel_floor:.2f}x on {CORES} cores"
        )
        assert torture_speedup >= torture_floor, (
            f"torture speedup {torture_speedup:.2f}x below floor "
            f"{torture_floor:.2f}x on {CORES} cores"
        )
